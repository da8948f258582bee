"""The PAsTAs workbench benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload explore_sharded --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists, the layer
it stresses and the layer it bypasses):

* ``explore_sharded`` — cold analyst sessions against a pre-forked
  ``ServingPool`` over a 4-shard hash store;
* ``explore_flat`` — the same sessions against the same population
  saved flat (``save_store``) and loaded per worker;
* ``revisit`` — a skewed replay of a small working set every worker
  holds in its response cache, a quarter of it revalidated
  (``304``);
* ``live_ingest`` — batches landing through ``Workbench.append_batch``
  with fresh-query reads after each and a compaction every few.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays the
same inputs with spans around the program's layers and prints the
per-layer table.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Every
answer is checked against the naive flat evaluator; any mismatch counts
as a failed request.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from urllib.parse import quote

from client import (HEADERS, Client, Sample, check_view, closed_loop,
                    digest, plain, route_of)
from report import disk_bytes, latency_metrics, layer_metrics, print_table

HERE = os.path.dirname(os.path.abspath(__file__))

N_SHARDS = 4
#: Population of every workload (the ROADMAP baseline scale).
PATIENTS = 40_000
#: ``setup_s`` is the median of this many complete set-ups per run.
SETUP_REPEATS = 2
#: A latency run needs this many samples for p95 to have ten beyond it.
MIN_SAMPLES = 200
#: Working set of ``revisit``: the sessions of these popular views, 18
#: URLs in all (the first is the ROADMAP baseline query).  Fixed texts,
#: so only the seeded population, patients and replay vary: a seeded
#: handful of grammar queries would make the cached body sizes, and with
#: them every revisit figure, a lottery over the seed.
REVISIT_QUERIES = (
    "concept T90 and atleast 2 category gp_contact",
    "sex F and atleast 3 category hospital_stay",
    "atleast 3 category emergency_contact",
)
#: ``revisit`` sends ``If-None-Match`` on 1 of every 4 requests.  The
#: two answers differ by an order of magnitude, so an even split would
#: put the median on the boundary between them.  A 304 takes about a
#: millisecond, which is scheduler noise on a shared host; the cache-hit
#: (200) mode holds the median and p95, and revalidations still count
#: in throughput.
REVALIDATE = (1, 4)
#: ``revisit`` replays through one connection: a revalidation takes about
#: a millisecond, and a second client on an ``nproc``-sized pool only
#: adds scheduler noise to that figure.
REVISIT_CLIENTS = 1
#: Append (or rebuild), read-back and compaction rounds of the ingest
#: probe: every round is fsync-bound, so the write-path figures are
#: medians over several, which one slow disk flush does not move.
PROBE_ROUNDS = 4
#: ``live_ingest``: held-out share of the population, batch share, and
#: how many appends pass between compactions.
HELD_OUT = 0.10
BATCH_SHARE = 0.005
COMPACT_EVERY = 2
#: ``live_ingest`` extends its window until this many appends landed:
#: 20 reads and 2 compactions, so the medians rest on more than a few
#: queries' luck.
MIN_APPENDS = 5
#: ...and prepares inputs for at most this many: a window that lands
#: them all ends there, as an ``explore_*`` window whose stream runs dry.
MAX_APPENDS = 7
#: Requests of one ``explore_*`` session (``inputs.session_targets``).
SESSION_REQUESTS = 6
#: Every session of an ``explore_*`` window is drawn before it opens:
#: this multiple of the requests the window is expected to take, at the
#: rate of an untimed warm-up burst of one session per client.  A window
#: whose stream runs dry ends early rather than generate inside it.
STREAM_MARGIN = 1.15
#: Cohort-size band (see ``inputs.BANDS``) of the read that shows an
#: append landed: wide enough that a 0.5% batch almost always adds to it.
VISIBILITY_BAND = 3
#: Bands of the fresh density read and the two fresh timeline reads that
#: follow each append: the same for every batch, so each batch adds the
#: same mix of cohort sizes, whichever number of batches a run lands.
DENSITY_BAND = 3
TIMELINE_BAND = 2
#: A timeline's cost follows the events of the rows it draws (the first
#: 60 of the cohort), which vary four-fold between queries of one band.
#: ``live_ingest`` takes its timeline queries from those whose rows hold
#: between these multiples of the population's mean events per patient,
#: so every batch renders about the same weight and a run's dozen
#: timeline reads give a steady median.
TIMELINE_WEIGHT = (2.0, 3.5)

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "rss_mb": "MiB",
    "wire_kb_per_request": "KiB",
    "append_visible_p50_ms": "ms",
    "compact_events_per_s": "1/s",
    "store_bytes_per_event": "B",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_rate"):
        return "ratio"
    if name == "shard.bytes_written_per_event":
        return "B"
    if name == "viz.svg_kb_per_timeline":
        return "KiB"
    return "count"


class HostHandle:
    """The serving host process (see ``host.py``) and its two pipes."""

    def __init__(self, paths: list[str]) -> None:
        from multiprocessing.connection import Connection

        to_host, host_in = os.pipe()
        host_out, from_host = os.pipe()
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "host.py"),
             str(to_host), str(from_host), *paths],
            pass_fds=(to_host, from_host))
        os.close(to_host)
        os.close(from_host)
        self.outbox = Connection(host_in, readable=False)
        self.inbox = Connection(host_out, writable=False)

    def call(self, command: str, argument=None):
        self.outbox.send((command, argument))
        status, result = self.inbox.recv()
        if status != "ok":
            raise RuntimeError(f"host command {command} failed:\n{result}")
        return result

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.call("exit")
            except (OSError, EOFError, RuntimeError):
                pass
        self.outbox.close()
        self.inbox.close()
        try:
            self.process.wait(30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


class Run:
    """State shared by every workload of one invocation."""

    def __init__(self, args, root: str, host: HostHandle) -> None:
        from inputs import QueryGenerator, population

        self.args = args
        self.host = host
        self._phase_start = time.perf_counter()
        self.phases: dict[str, float] = {}
        self.work = os.path.join(root, ".perfbench", args.workload)
        self.store = population(args.patients, args.seed)
        self.gen = QueryGenerator(self.store, args.seed)
        self.rng = random.Random(args.seed)
        self.clients = os.cpu_count() or 1
        self.span_cost_s = 0.0
        if args.trace:
            self.span_cost_s = host.call(
                "install_trace", self.work)["span_cost_s"]
        self.setups: list[float] = []
        self.samples: list = []
        self.window_s = 1.0
        self.rss_mb = 0.0
        self.store_bytes_per_event = 0.0
        self.append_visible_ms: list[float] = []
        self.compact_rates: list[float] = []
        self.bytes_written = 0
        self.events_appended = 0
        self.traces: list[dict] = []
        # Answers checked outside the measured window (warm-up bursts,
        # ingest probes): they count in ``attempted`` and ``failed``.
        self.untimed_errors: list[str] = []
        self.untimed_checks = 0
        self.notes: dict = {"phases_s": self.phases}
        host.call("ping")
        self.phase("population")

    def phase(self, name: str) -> None:
        """Record the wall time spent since the previous phase."""
        now = time.perf_counter()
        self.phases[name] = round(now - self._phase_start, 3)
        self._phase_start = now

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    # -- pool set-up ---------------------------------------------------------

    def start_pool(self, kind: str, warm: list[str]) -> dict:
        """``SETUP_REPEATS`` complete set-ups; the last one stays up.

        One set-up is: write the store from the in-memory population,
        fork ``nproc`` workers, and warm each until it is ready.
        """
        from repro.io import save_store
        from repro.shard import write_sharded_store

        path = self.path("store.npz" if kind == "flat" else "store.shards")
        self.phase("inputs")
        for repeat in range(SETUP_REPEATS):
            _remove(path)
            start = time.perf_counter()
            if kind == "flat":
                save_store(self.store, path)
            else:
                write_sharded_store(self.store, path, n_shards=N_SHARDS)
            info = self.host.call("start_pool", {
                "kind": kind, "path": path, "workers": self.clients,
                "warm": warm, "headers": HEADERS, "work_dir": self.work,
            })
            self.setups.append(time.perf_counter() - start)
            for answers in info["ready"].values():
                for target, (status, _etag, _digest) in answers.items():
                    if status != 200:
                        raise RuntimeError(f"warm-up {target}: {status}")
            if repeat < SETUP_REPEATS - 1:
                self.host.call("stop_pool", False)
        self.store_path = path
        self.phase("setup")
        return info

    def stop_pool(self) -> None:
        self.phase("measure")
        stopped = self.host.call("stop_pool", bool(self.args.trace))
        self.rss_mb = stopped["rss_mb"]
        self.traces.extend(stopped["traces"])
        self.phase("stop")

    # -- write path ----------------------------------------------------------

    def gaining_query(self, engine):
        """A fresh middle-band query whose cohort gains at least one of
        the new patients ``engine`` (a naive engine over them) holds."""
        while True:
            query = self.gen.next(VISIBILITY_BAND)
            if len(engine.patients(_parse(query.text))):
                return query

    def ingest_probe(self, kind: str) -> None:
        """Land batches of new patients on the served store's kind, time
        until a read includes each, and merge them in.

        A sharded store appends a delta segment, reads it back and
        compacts, ``PROBE_ROUNDS`` times.  A flat store is immutable: its
        documented way to take new data is ``merge_stores`` +
        ``save_store`` + reload, which is also its "compaction" (every
        event is rewritten), done ``PROBE_ROUNDS`` times, each round
        merging its batch into the store the round before rebuilt.
        """
        from repro.events.store import merge_stores
        from repro.io import save_store
        from repro.query.engine import QueryEngine
        from repro.simulate.fast import generate_store_fast

        size = max(20, int(self.args.patients * BATCH_SHARE))
        current = self.store
        if kind != "flat":
            self.host.call("live_open", {"kind": "sharded",
                                         "path": self.store_path,
                                         "warm": [], "headers": HEADERS})
        landed = []  # naive engines over the batches landed so far
        for number in range(PROBE_ROUNDS):
            batch, _ = generate_store_fast(
                size, seed=self.args.seed + 1 + number,
                id_offset=self.args.patients + number * size)
            landed.append(QueryEngine(batch, optimize=False))
            query = self.gaining_query(landed[-1])
            expected = query.count + sum(
                len(engine.patients(_parse(query.text))) for engine in landed)
            target = f"/cohort?q={query.quoted}"
            if kind == "flat":
                path = self.path("rebuilt.npz")
                start = time.perf_counter()
                current = merge_stores(current, batch)
                save_store(current, path)
                rebuilt = time.perf_counter() - start
                self.host.call("live_open", {"kind": "flat", "path": path,
                                             "warm": [], "headers": HEADERS})
                answer = self.host.call("live_get", (target, HEADERS))
                visible = time.perf_counter() - start
                self.compact_rates.append(current.n_events / rebuilt)
            else:
                batch_path = self.path(f"probe-batch-{number}.npz")
                save_store(batch, batch_path)
                self.host.call("live_load", [batch_path])
                before = disk_bytes(self.store_path)
                start = time.perf_counter()
                self.host.call("live_append", batch_path)
                answer = self.host.call("live_get", (target, HEADERS))
                visible = time.perf_counter() - start
                self.bytes_written += disk_bytes(self.store_path) - before
                self.events_appended += batch.n_events
                self.compact()
            self.untimed_check(f"ingest probe {target}", check_view(
                target, answer["status"], _plain(answer), expected))
            self.append_visible_ms.append(visible * 1e3)
        self.traces.extend(self.host.call("live_close")["traces"])
        self.phase("probe")

    def untimed_check(self, what: str, error: str | None) -> None:
        self.untimed_checks += 1
        if error:
            self.untimed_errors.append(f"{what}: {error}")

    def compact(self) -> None:
        compacted = self.host.call("live_compact")
        self.compact_rates.append(
            compacted["events_merged"] / compacted["elapsed_s"])


# -- workloads -------------------------------------------------------------------

def explore(run: Run, kind: str) -> None:
    """Cold sessions of never-repeated queries; nothing hits the
    response cache."""
    from inputs import WARMUP_QUERY, session_targets

    # The per-worker lazy state: loading or materializing the store and
    # spawning the scatter-gather executor (patients and sketches).
    warm = [f"/cohort?q={quote(WARMUP_QUERY)}",
            f"/cohort/density?q={quote(WARMUP_QUERY)}"]
    info = run.start_pool(kind, warm)
    seen_patients: set[int] = set()

    def sessions(count: int) -> list[list[tuple]]:
        return [[(target, HEADERS, query.count)
                 for target in session_targets(query, run.rng, seen_patients)]
                for query in run.gen.take(count)]

    def check(target, status, headers, body, expected):
        return check_view(target, status, body, expected)

    def replay(stream: list[list[tuple]], seconds: float, min_samples: int):
        """Closed-loop clients over ``stream``, one session at a time,
        until ``seconds`` pass or the stream runs dry."""
        pending = [[] for _ in range(run.clients)]
        lock = threading.Lock()

        def next_request(index: int):
            if not pending[index]:
                with lock:
                    if not stream:
                        return None
                    pending[index] = stream.pop(0)
            return pending[index].pop(0)

        return closed_loop(info["host"], info["port"], run.clients, seconds,
                           next_request, check, min_samples=min_samples,
                           max_seconds=3 * seconds)

    # Untimed: one session per client warms the views the set-up did not
    # touch and gives the rate that sizes the measured stream.
    burst, burst_s = replay(sessions(run.clients), 600.0, 0)
    for sample in burst:
        run.untimed_check("warm-up burst", sample.error)
    rate = len(burst) / burst_s
    expected = max(MIN_SAMPLES, rate * run.args.seconds)
    count = int(STREAM_MARGIN * expected / SESSION_REQUESTS) + run.clients
    stream = sessions(count)
    run.notes.update(warmup_rps=round(rate, 3), sessions_drawn=count)
    run.phase("stream")

    run.notes["clients"] = run.clients
    run.samples, run.window_s = replay(stream, run.args.seconds, MIN_SAMPLES)
    run.notes["stream_ran_dry"] = not stream
    run.stop_pool()
    run.store_bytes_per_event = (disk_bytes(run.store_path)
                                 / run.store.n_events)
    run.ingest_probe(kind)


def revisit(run: Run) -> None:
    """A skewed replay of a working set every worker already holds."""
    from inputs import session_targets, zipf_weights

    queries = [run.gen.fixed(text) for text in REVISIT_QUERIES]
    sessions = [session_targets(query, run.rng) for query in queries]
    working = [target for session in sessions for target in session]
    expected_count = {target: query.count
                      for query, session in zip(queries, sessions)
                      for target in session}
    info = run.start_pool("sharded", working)
    cold = {}
    for answers in info["ready"].values():
        for target, (_status, etag, body_digest) in answers.items():
            if cold.setdefault(target, (etag, body_digest)) != \
                    (etag, body_digest):
                raise RuntimeError(f"workers disagree on {target}")
    # Check each cold body once, untimed, against the oracle.
    checker = Client(info["host"], info["port"])
    try:
        for target in working:
            status, headers, body, _ = checker.get(target, HEADERS)
            decoded = plain(headers, body)
            error = (check_view(target, status, decoded,
                                expected_count[target])
                     or (None if digest(decoded) == cold[target][1]
                         else "body differs from the cold render"))
            if error:
                raise RuntimeError(f"cold answer of {target}: {error}")
    finally:
        checker.close()

    # The replay is rounds of a fixed multiset, each a fresh seeded
    # shuffle: each view of a query appears in proportion to the query's
    # Zipf weight, and ``REVALIDATE`` of its copies revalidate.  Every
    # seed replays the same mix of routes, cohorts and 304s; only the
    # order differs.  A window takes about one round, so only its last,
    # partial round draws an uneven share of the large and small answers.
    weights = zipf_weights(len(sessions))
    schedule = []
    for session, weight in zip(sessions, weights):
        copies = round(2 * weight / weights[-1])
        for target in session:
            etag, body_digest = cold[target]
            conditional = {**HEADERS, "If-None-Match": etag}
            schedule += copies * REVALIDATE[0] * [
                (target, conditional, (etag, None))]
            schedule += copies * (REVALIDATE[1] - REVALIDATE[0]) * [
                (target, HEADERS, (etag, body_digest))]
    def rounds(rng: random.Random):
        while True:
            order = list(schedule)
            rng.shuffle(order)
            yield from order

    replays = [rounds(random.Random(run.args.seed * 1009 + index))
               for index in range(run.clients)]

    def next_request(index: int):
        return next(replays[index])

    def check(target, status, headers, body, expected):
        etag, body_digest = expected
        if headers.get("ETag") != etag:
            return f"ETag {headers.get('ETag')} != {etag}"
        if body_digest is None:
            return None if status == 304 else f"status {status}, not 304"
        if status != 200:
            return f"status {status}"
        return None if digest(body) == body_digest else "body differs"

    run.notes["clients"] = REVISIT_CLIENTS
    run.samples, run.window_s = closed_loop(
        info["host"], info["port"], REVISIT_CLIENTS, run.args.seconds,
        next_request, check, min_samples=MIN_SAMPLES,
        max_seconds=3 * run.args.seconds)
    run.stop_pool()
    run.store_bytes_per_event = (disk_bytes(run.store_path)
                                 / run.store.n_events)
    run.ingest_probe("sharded")


def live_ingest(run: Run) -> None:
    """Appends beside fresh-query reads, in-process, with compactions."""
    import numpy as np

    from inputs import TIMELINE_ROWS, WARMUP_QUERY
    from repro.io import save_store
    from repro.shard import write_sharded_store
    from repro.shard.writer import subset_store

    store = run.store
    ids = store.patient_ids.copy()
    np.random.default_rng(run.args.seed).shuffle(ids)
    n_held = int(len(ids) * HELD_OUT)
    size = max(1, int(len(ids) * BATCH_SHARE))
    base_ids = np.sort(ids[n_held:])
    batch_ids = [np.sort(ids[i:i + size])
                 for i in range(0, n_held, size)][:MAX_APPENDS]
    base = subset_store(store, base_ids)
    batch_paths = []
    for number, members in enumerate(batch_ids):
        path = run.path(f"batch-{number:03d}.npz")
        save_store(subset_store(store, members), path)
        batch_paths.append(path)

    # Every query the window can use, drawn before it opens, with its
    # oracle answer over the base plus the batches landed by then: a
    # /cohort read the batch changes (so it shows the append), then a
    # fresh density and two fresh timeline reads.
    landed = base_ids

    def counted(query) -> int:
        return int(np.isin(query.patient_ids, landed).sum())

    events = np.bincount(store.patient, minlength=int(ids.max()) + 1)
    mean_events = store.n_events / store.n_patients

    def weight(query) -> float:
        """Mean events of the rows its timeline draws, relative."""
        rows = query.patient_ids[np.isin(query.patient_ids, landed)]
        rows = rows[:TIMELINE_ROWS]
        return float(events[rows].mean()) / mean_events

    def fresh(band: int, weights=(0.0, np.inf)):
        while True:
            query = run.gen.next(band)
            if np.isin(query.page_ids, landed).any() \
                    and weights[0] <= weight(query) < weights[1]:
                return query

    plan = []
    for path, members in zip(batch_paths, batch_ids):
        while True:
            shown = run.gen.next(VISIBILITY_BAND)
            if np.isin(shown.patient_ids, members).any():
                break
        landed = np.union1d(landed, members)
        density = fresh(DENSITY_BAND)
        reads = [(f"/cohort?q={shown.quoted}", counted(shown)),
                 (f"/cohort/density?q={density.quoted}", counted(density))]
        # Two timelines, so the median falls inside one kind of read.
        for _ in range(2):
            timeline = fresh(TIMELINE_BAND, TIMELINE_WEIGHT)
            reads.append((f"/timeline.svg?q={timeline.quoted}"
                          f"&rows={TIMELINE_ROWS}", None))
        plan.append((path, reads))

    root = run.path("store.shards")
    run.notes["clients"] = 1  # this process, through ServingApp.handle
    run.phase("inputs")
    warm = [f"/cohort?q={quote(WARMUP_QUERY)}",
            f"/cohort/density?q={quote(WARMUP_QUERY)}",
            f"/timeline.svg?q={quote(WARMUP_QUERY)}&rows={TIMELINE_ROWS}"]
    for repeat in range(SETUP_REPEATS):
        _remove(root)
        start = time.perf_counter()
        write_sharded_store(base, root, n_shards=N_SHARDS)
        opened = run.host.call("live_open", {"path": root, "warm": warm,
                                             "headers": HEADERS})
        for target, status in opened["answers"].items():
            if status != 200:
                raise RuntimeError(f"warm-up {target}: {status}")
        run.setups.append(time.perf_counter() - start)
        if repeat < SETUP_REPEATS - 1:
            run.host.call("live_close")
    run.store_path = root
    run.phase("setup")

    # The window is the time spent in the program's calls: loading the
    # next batch into the host, sizing the store on disk and checking the
    # answers happen between them, off the clock.
    window = [0.0]

    def timed(command: str, argument=None):
        begin = time.perf_counter()
        result = run.host.call(command, argument)
        window[0] += time.perf_counter() - begin
        return result

    def read(target: str, count: int | None) -> None:
        answer = timed("live_get", (target, HEADERS))
        error = check_view(target, answer["status"], _plain(answer), count)
        run.samples.append(Sample(route_of(target), answer["status"],
                                  answer["elapsed_s"], len(answer["body"]),
                                  error and f"{target}: {error}",
                                  len(_plain(answer))))

    for number, (path, reads) in enumerate(plan, 1):
        if window[0] >= run.args.seconds and number > MIN_APPENDS:
            break
        run.host.call("live_load", [path])
        before = disk_bytes(root)
        begin = time.perf_counter()
        appended = timed("live_append", path)
        read(*reads[0])
        run.append_visible_ms.append((time.perf_counter() - begin) * 1e3)
        run.bytes_written += disk_bytes(root) - before
        run.events_appended += appended["events"]
        for target, count in reads[1:]:
            read(target, count)
        if number % COMPACT_EVERY == 0:
            begin = time.perf_counter()
            run.compact()
            window[0] += time.perf_counter() - begin
    run.window_s = window[0]
    if not run.compact_rates:
        run.compact()
    run.phase("measure")
    closed = run.host.call("live_close")
    run.phase("stop")
    run.rss_mb = closed["rss_mb"]
    run.traces.extend(closed["traces"])
    run.store_bytes_per_event = disk_bytes(root) / closed["events"]


WORKLOADS = {
    "explore_sharded": lambda run: explore(run, "sharded"),
    "explore_flat": lambda run: explore(run, "flat"),
    "revisit": revisit,
    "live_ingest": live_ingest,
}


# -- helpers ---------------------------------------------------------------------

def _remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def _plain(answer: dict) -> bytes:
    return plain(answer["headers"], answer["body"])


def _parse(text: str):
    from repro.query.parser import parse_query

    return parse_query(text)


# -- entry point -------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--patients", type=int, default=PATIENTS,
                        help="population size (smoke tests shrink it)")
    return parser.parse_args(argv)


def end_to_end(run: Run) -> dict:

    metrics = {"setup_s": statistics.median(run.setups)}
    metrics.update(latency_metrics(run.samples, run.window_s))
    metrics["rss_mb"] = run.rss_mb
    metrics["append_visible_p50_ms"] = statistics.median(
        run.append_visible_ms)
    metrics["compact_events_per_s"] = statistics.median(run.compact_rates)
    metrics["store_bytes_per_event"] = run.store_bytes_per_event
    return {name: metrics[name] for name in END_TO_END_UNITS}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {src}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    work = os.path.join(root, ".perfbench", args.workload)
    _remove(work)
    os.makedirs(work)
    host = HostHandle([src, HERE])
    try:
        run = Run(args, root, host)
        WORKLOADS[args.workload](run)
    finally:
        host.close()
    _remove(work)

    import numpy as np

    failed = sum(1 for s in run.samples if s.error is not None)
    failed += len(run.untimed_errors)
    attempted = len(run.samples) + run.untimed_checks
    env = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "patients": int(run.store.n_patients),
        "events": int(run.store.n_events), "shards": N_SHARDS,
        "samples": len(run.samples),
        "setups_s": [round(s, 4) for s in run.setups], **run.notes,
    }
    print("perfbench-env " + json.dumps(env, sort_keys=True))
    errors = sorted({s.error for s in run.samples if s.error})
    errors += run.untimed_errors
    for error in errors[:10]:
        print(f"perfbench-error {error}")
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted})")

    e2e = end_to_end(run)
    results_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}"
                        f"-patients{args.patients}-seconds{args.seconds:g}")
    stamp = source_stamp(src, HERE)
    if args.trace:
        metrics = layer_metrics(
            run.traces, run.samples, run.span_cost_s,
            run.bytes_written / run.events_appended
            if run.events_appended else 0.0)
        units = {name: layer_unit(name) for name in metrics}
        print_table(f"per-layer ({args.workload}, traced)", metrics, units)
        print_table("end-to-end while traced", e2e, END_TO_END_UNITS)
        untraced = _load(f"{stem}-trace0.json", stamp)
        if untraced:
            delta = e2e["latency_p50_ms"] - untraced["latency_p50_ms"]
            print(f"tracing overhead: latency_p50 {delta:+.3f} ms "
                  f"(traced {e2e['latency_p50_ms']:.3f} vs untraced "
                  f"{untraced['latency_p50_ms']:.3f}, same inputs)")
        print(f"tracing overhead (estimated): "
              f"{metrics['trace.overhead_per_request_ms']:.4f} ms/request "
              f"= {metrics['trace.spans_per_request']:.1f} spans x "
              f"{run.span_cost_s * 1e6:.2f} us")
    else:
        metrics, units = e2e, END_TO_END_UNITS
        print_table(f"end-to-end ({args.workload})", metrics, units)
    with open(f"{stem}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"source_stamp": stamp, **e2e,
                   **(metrics if args.trace else {})}, handle)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def source_stamp(*roots: str) -> str:
    """A digest of the name, size and modification time of every Python
    file under ``roots``: a stored result is compared only with a run
    of the same program and benchmark."""
    entries = []
    for root in roots:
        for directory, _dirs, files in os.walk(root):
            for name in sorted(files):
                if name.endswith(".py"):
                    info = os.stat(os.path.join(directory, name))
                    entries.append(f"{os.path.relpath(directory, root)}/"
                                   f"{name}:{info.st_size}:{info.st_mtime_ns}")
    return hashlib.sha1("\n".join(sorted(entries)).encode()).hexdigest()


def _load(path: str, stamp: str) -> dict | None:
    """The stored result at ``path`` if the same sources produced it."""
    try:
        with open(path, encoding="utf-8") as handle:
            stored = json.load(handle)
    except FileNotFoundError:
        return None
    return stored if stored.get("source_stamp") == stamp else None


if __name__ == "__main__":
    sys.exit(main())
