"""The serving host: a lean process that runs the program under test.

``run.py`` starts this module as a fresh interpreter before it
generates the population, so the serving processes never inherit the
benchmark's own memory and their peak RSS is the program's alone.  The
host answers commands sent over a pipe:

* ``start_pool`` — write nothing, fork a :class:`ServingPool` over a
  store the benchmark already wrote, warm every worker and wait until
  each has signalled ready;
* ``stop_pool`` — collect spans (traced runs) and peak RSS, then stop
  the workers and their executor children and wait for them;
* ``live_*`` — the in-process :class:`ServingApp` used by the
  ``live_ingest`` workload (pool workers never refresh their store);
* ``exit``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time
import traceback

from client import digest, plain

_STOP_GRACE_S = 10.0


def read_vmhwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MiB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass  # the process ended: nothing resident
    return 0.0


def children_of(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children",
                  encoding="ascii") as handle:
            return [int(part) for part in handle.read().split()]
    except (FileNotFoundError, ProcessLookupError):
        return []


def _is_running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state not in ("Z", "X")


def wait_gone(pids: list[int], timeout: float = _STOP_GRACE_S) -> None:
    """Wait for processes that are not our children to end; SIGKILL
    whatever is left after ``timeout``."""
    deadline = time.monotonic() + timeout
    pending = [pid for pid in pids if _is_running(pid)]
    while pending and time.monotonic() < deadline:
        time.sleep(0.02)
        pending = [pid for pid in pending if _is_running(pid)]
    for pid in pending:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            continue
    deadline = time.monotonic() + timeout
    while pending and time.monotonic() < deadline:
        time.sleep(0.02)
        pending = [pid for pid in pending if _is_running(pid)]


def open_workbench(kind: str, path: str):
    """The workbench a worker serves: ``serve store.npz`` loads a flat
    store per worker; a sharded store opens its manifest and maps
    segments on demand."""
    from repro.io import load_store
    from repro.workbench import Workbench

    if kind == "flat":
        return Workbench.from_store(load_store(path))
    return Workbench.from_shards(path)


class Host:
    def __init__(self, inbox, outbox) -> None:
        self.inbox = inbox
        self.outbox = outbox
        self.tracer = None
        self.pool = None
        self.live = None
        self.live_batches = {}

    def ping(self, _argument=None) -> int:
        """Answered once the imports are done, so none lands in set-up."""
        return os.getpid()

    # -- tracing -------------------------------------------------------------

    def install_trace(self, trace_dir: str) -> dict:
        import tracing

        self.tracer = tracing.Tracer()
        tracing.install(self.tracer)
        self.trace_dir = trace_dir
        os.makedirs(trace_dir, exist_ok=True)
        return {"span_cost_s": tracing.calibrate()}

    def _trace_path(self, pid: int) -> str:
        return os.path.join(self.trace_dir, f"spans-{pid}.json")

    # -- pool ------------------------------------------------------------------

    def start_pool(self, spec: dict) -> dict:
        """Fork ``spec['workers']`` warmed workers over ``spec['path']``.

        Each worker builds its workbench, then (inside its app) answers
        ``spec['warm']`` in-process — the lazy per-worker work a user
        pays once: loading or materializing the store, spawning the
        executor, filling the response cache — and only then reports
        ready with the ETag and body digest of every warm answer.
        """
        import repro.serving.pool as pool_mod
        from repro.config import ServingConfig
        from repro.serving import Request, ServingApp, ServingPool

        read_fd, write_fd = os.pipe()
        tracer = self.tracer
        trace_path = self._trace_path
        work_dir = spec["work_dir"]

        def ready_path(pid: int) -> str:
            return os.path.join(work_dir, f"ready-{pid}.json")

        warm = list(spec["warm"])
        headers = dict(spec["headers"])

        class WarmedApp(ServingApp):
            def __init__(self, workbench, config=None, **kwargs) -> None:
                if tracer is not None:
                    tracer.adopt()
                super().__init__(workbench, config, **kwargs)
                answers = {}
                for target in warm:
                    response = self.handle(
                        Request.from_target(target, headers))
                    answers[target] = [
                        response.status, response.headers.get("ETag"),
                        digest(plain(response.headers, response.body)),
                    ]
                if tracer is not None:
                    tracer.apps.append(self)
                    tracer.workbenches.append(workbench)
                    tracer.mark()
                    signal.signal(
                        signal.SIGUSR1,
                        lambda *_: tracer.dump(trace_path(os.getpid())))
                pid = os.getpid()
                with open(ready_path(pid), "w", encoding="utf-8") as handle:
                    json.dump(answers, handle)
                # One short line per worker: atomic on a pipe.
                os.write(write_fd, f"{pid}\n".encode("ascii"))

        kind, path = spec["kind"], spec["path"]
        pool_mod.ServingApp = WarmedApp
        workers = int(spec["workers"])
        self.pool = ServingPool(lambda: open_workbench(kind, path),
                                workers=workers,
                                config=ServingConfig(workers=workers))
        self.ready_fd, self.write_fd = read_fd, write_fd
        self.pool.start()
        ready = {}
        for pid in self._await_ready(workers, float(spec.get("timeout", 300))):
            with open(ready_path(pid), encoding="utf-8") as handle:
                ready[pid] = json.load(handle)
            os.remove(ready_path(pid))
        return {"url": self.pool.url, "host": self.pool.host,
                "port": self.pool.port, "ready": ready,
                "pids": self.pool.worker_pids()}

    def _await_ready(self, workers: int, timeout: float) -> list[int]:
        deadline = time.monotonic() + timeout
        buffer = b""
        ready: list[int] = []
        while len(ready) < workers:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(
                    f"{len(ready)} of {workers} workers ready after "
                    f"{timeout:.0f} s")
            readable, _, _ = select.select([self.ready_fd], [], [], left)
            if not readable:
                continue
            buffer += os.read(self.ready_fd, 1 << 20)
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                ready.append(int(line))
        return ready

    def stop_pool(self, collect: bool = True) -> dict:
        """Spans (traced runs), peak RSS, then a complete stop."""
        pids = self.pool.worker_pids()
        spans = []
        if self.tracer is not None and collect:
            for pid in pids:
                path = self._trace_path(pid)
                if os.path.exists(path):
                    os.remove(path)
                os.kill(pid, signal.SIGUSR1)
            deadline = time.monotonic() + 60
            for pid in pids:
                path = self._trace_path(pid)
                while not os.path.exists(path) \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)
                with open(path, encoding="utf-8") as handle:
                    spans.append(json.load(handle))
                os.remove(path)
        orphans = [child for pid in pids for child in children_of(pid)]
        family = pids + orphans
        rss_mb = sum(read_vmhwm_mb(pid) for pid in family)
        self.pool.shutdown()
        # The workers' executor children outlive them, idle on a queue
        # nobody will write to again: stop them too.
        for pid in orphans:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                continue
        wait_gone(orphans)
        os.close(self.ready_fd)
        os.close(self.write_fd)
        self.pool = None
        return {"rss_mb": rss_mb, "processes": len(family),
                "traces": spans}

    # -- in-process serving (live_ingest) --------------------------------------

    def live_open(self, spec: dict) -> dict:
        """Open the workbench in this process and answer the warm
        targets (the first ready answer)."""
        from repro.serving import Request, ServingApp

        workbench = open_workbench(spec.get("kind", "sharded"), spec["path"])
        app = ServingApp(workbench)
        self.live = app
        answers = {}
        for target in spec["warm"]:
            response = app.handle(Request.from_target(target,
                                                      spec["headers"]))
            answers[target] = response.status
        if self.tracer is not None:
            self.tracer.apps.append(app)
            self.tracer.workbenches.append(workbench)
            self.tracer.mark()
        return {"answers": answers}

    def live_load(self, paths: list[str]) -> int:
        """Load the batches the next appends land, off the clock.  The
        benchmark loads one just before its append, so the host's peak
        RSS holds at most one batch, as ``append_batch`` needs."""
        from repro.io import load_store

        for path in paths:
            self.live_batches[path] = load_store(path)
        return len(paths)

    def live_append(self, path: str) -> dict:
        batch = self.live_batches.pop(path)
        start = time.perf_counter()
        self.live.workbench.append_batch(batch)
        return {"elapsed_s": time.perf_counter() - start,
                "events": int(batch.n_events)}

    def live_get(self, request: tuple[str, dict]) -> dict:
        from repro.serving import Request

        target, headers = request
        start = time.perf_counter()
        response = self.live.handle(Request.from_target(target, headers))
        elapsed = time.perf_counter() - start
        return {"status": response.status, "elapsed_s": elapsed,
                "headers": dict(response.headers),
                "content_type": response.content_type,
                "body": response.body}

    def live_compact(self, _argument=None) -> dict:
        start = time.perf_counter()
        report = self.live.workbench.compact()
        elapsed = time.perf_counter() - start
        merged = sum(int(action.get("events_merged", 0))
                     for action in report.get("actions", []))
        return {"elapsed_s": elapsed, "events_merged": merged}

    def live_close(self, _argument=None) -> dict:
        traces = []
        if self.tracer is not None:
            traces.append(self.tracer.snapshot())
            self.tracer.reset()
        family = [os.getpid()] + children_of(os.getpid())
        rss_mb = sum(read_vmhwm_mb(pid) for pid in family)
        workbench = self.live.workbench
        store_events = int(workbench.store.n_events)
        _close_executor(workbench)
        wait_gone(family[1:])
        self.live = None
        self.live_batches.clear()
        return {"rss_mb": rss_mb, "processes": len(family),
                "traces": traces, "events": store_events}

    # -- loop ------------------------------------------------------------------

    def run(self) -> None:
        while True:
            try:
                command, argument = self.inbox.recv()
            except EOFError:  # the benchmark is gone: stop what we run
                command, argument = "exit", None
            if command == "exit":
                if self.pool is not None:
                    self.stop_pool(collect=False)
                if self.live is not None:
                    self.live_close()
                self._send(("ok", None))
                return
            try:
                result = getattr(self, command)(argument)
            except Exception:  # noqa: BLE001 (reported to the benchmark)
                self._send(("error", traceback.format_exc()))
            else:
                self._send(("ok", result))

    def _send(self, message) -> None:
        try:
            self.outbox.send(message)
        except OSError:  # the benchmark stopped listening
            pass


def _close_executor(workbench) -> None:
    executor = workbench.engine.executor
    if executor is not None:
        executor.close()


def main(argv: list[str]) -> None:
    """``host.py INBOX_FD OUTBOX_FD PATH...``: serve commands until
    ``exit``; ``PATH``s go first on ``sys.path``."""
    from multiprocessing.connection import Connection

    for path in reversed(argv[2:]):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro.serving  # noqa: F401 (import cost belongs before set-up)
    import repro.workbench  # noqa: F401

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    inbox = Connection(int(argv[0]), writable=False)
    outbox = Connection(int(argv[1]), readable=False)
    try:
        Host(inbox, outbox).run()
    finally:
        inbox.close()
        outbox.close()


if __name__ == "__main__":
    main(sys.argv[1:])
