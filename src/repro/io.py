"""Persistence: save and load event stores.

The paper's tool pre-loads everything from a database at startup
(Section IV); an adoptable library also needs to *persist* an integrated
snapshot so the expensive aggregation runs once.  Format: a single
``.npz`` (numpy's zipped archive) holding the columnar arrays plus a
JSON-encoded header with the string tables and code-system fingerprints.

Code systems themselves are not serialized — they are versioned library
data — but their name and size are fingerprinted so loading a store
against a mismatching terminology fails loudly instead of mis-decoding
code ids.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from repro.errors import EventModelError
from repro.events.store import EventStore, default_systems

__all__ = ["save_store", "load_store", "export_events_csv",
           "import_events_csv", "append_jsonl", "read_jsonl",
           "merge_stores"]

_FORMAT_VERSION = 1


def save_store(store: EventStore, path: str) -> None:
    """Write a store to ``path`` (conventionally ``*.npz``).

    The write is atomic: the archive lands in a temporary file in the
    target directory and is ``os.replace``d into place, so a crash
    mid-write never leaves a truncated archive under the final name.
    The store's memoized ``content_token`` is persisted in the header,
    sparing :func:`load_store` the full O(bytes) rehash on first query.
    """
    if not path.endswith(".npz"):
        path += ".npz"  # np.savez's own convention, kept for callers
    header = {
        "format_version": _FORMAT_VERSION,
        "system_names": store.system_names,
        "system_sizes": [len(store.systems[n]) for n in store.system_names],
        "categories": store.categories,
        "sources": store.sources,
        "details": store.details,
        "content_token": store.content_token(),
    }
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-",
        suffix=".npz",
    )
    os.close(fd)
    try:
        np.savez_compressed(
            tmp,
            header=np.frombuffer(
                json.dumps(header).encode("utf-8"), dtype=np.uint8
            ),
            patient=store.patient,
            day=store.day,
            end=store.end,
            is_point=store.is_point,
            category=store.category,
            system=store.system,
            code=store.code,
            value=store.value,
            value2=store.value2,
            source=store.source,
            detail=store.detail,
            patient_ids=store.patient_ids,
            birth_days=store.birth_days,
            sexes=store.sexes,
        )
        # Durable install, same protocol as repro.shard.format: fsync
        # the staged bytes, replace, fsync the directory — with a
        # crashpoint after each boundary so the crash matrix visits it.
        from repro.resilience.faults import crashpoint  # noqa: PLC0415 (cycle)
        from repro.shard.format import fsync_dir  # noqa: PLC0415 (layering)

        name = os.path.basename(path)
        with open(tmp, "rb") as staged:
            os.fsync(staged.fileno())
        crashpoint(f"fsync:{name}")
        os.replace(tmp, path)
        crashpoint(f"replace:{name}")
        fsync_dir(os.path.dirname(os.path.abspath(path)))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_store(path: str) -> EventStore:
    """Load a store written by :func:`save_store`.

    Raises :class:`EventModelError` on version or terminology-fingerprint
    mismatches.
    """
    with np.load(path) as archive:
        header = json.loads(bytes(archive["header"].tobytes()).decode("utf-8"))
        if header.get("format_version") != _FORMAT_VERSION:
            raise EventModelError(
                f"unsupported store format version "
                f"{header.get('format_version')!r} in {path!r}"
            )
        systems = default_systems()
        for name, size in zip(header["system_names"],
                              header["system_sizes"]):
            if name not in systems:
                raise EventModelError(
                    f"store {path!r} references unknown code system {name!r}"
                )
            if len(systems[name]) != size:
                raise EventModelError(
                    f"code system {name!r} has {len(systems[name])} codes "
                    f"but the store was written against {size}; "
                    f"code ids would mis-decode"
                )
        store = EventStore(
            systems=systems,
            system_names=list(header["system_names"]),
            categories=list(header["categories"]),
            sources=list(header["sources"]),
            details=list(header["details"]),
            patient=archive["patient"],
            day=archive["day"],
            end=archive["end"],
            is_point=archive["is_point"],
            category=archive["category"],
            system=archive["system"],
            code=archive["code"],
            value=archive["value"],
            value2=archive["value2"],
            source=archive["source"],
            detail=archive["detail"],
            patient_ids=archive["patient_ids"],
            birth_days=archive["birth_days"],
            sexes=archive["sexes"],
        )
        # Trust the persisted token: it is content-addressed, so a
        # stale value can only cause a query-cache miss, never a wrong
        # hit — and trusting it spares a full rehash of all 14 columns.
        token = header.get("content_token")
        if token:
            store._content_token = token
        return store


def append_jsonl(path: str, entries: "list[dict]",
                 fsync: bool = False) -> None:
    """Append one JSON object per line (the dead-letter store format).

    Appending keeps quarantine writes crash-tolerant: every already
    written line stays valid whatever happens to the process mid-run.
    With ``fsync=True`` the lines are flushed and fsynced before the
    call returns, so a crash immediately afterwards cannot lose them —
    the durability contract of the record quarantine.
    """
    with open(path, "a", encoding="utf-8") as f:
        for entry in entries:
            f.write(json.dumps(entry, sort_keys=True))
            f.write("\n")
        if fsync:
            f.flush()
            os.fsync(f.fileno())
            from repro.resilience.faults import (  # noqa: PLC0415 (cycle)
                crashpoint,
            )

            crashpoint(f"fsync:{os.path.basename(path)}")


def rotate_jsonl(path: str, max_bytes: int | None) -> bool:
    """Size-capped rotation for an append-only JSONL report.

    When ``path`` has reached ``max_bytes`` it is renamed to
    ``path + ".1"`` (replacing the previous rotated generation) so the
    next append starts a fresh file: the newest evidence is always
    intact and on disk, the previous generation survives one rotation,
    and a pathological damage loop (scrub → quarantine → scrub …) can
    never grow the report past ~2×``max_bytes``.  Returns True when a
    rotation happened.  ``None`` or a non-positive cap disables it.
    """
    if not max_bytes or max_bytes <= 0:
        return False
    try:
        size = os.path.getsize(path)
    except OSError:
        return False
    if size < max_bytes:
        return False
    from repro.resilience.faults import crashpoint  # noqa: PLC0415 (cycle)
    from repro.shard.format import fsync_dir  # noqa: PLC0415 (layering)

    os.replace(path, path + ".1")
    crashpoint(f"replace:{os.path.basename(path)}.1")
    fsync_dir(os.path.dirname(os.path.abspath(path)))
    return True


def read_jsonl(path: str, tolerate_torn_tail: bool = False) -> "list[dict]":
    """Read a JSONL file written by :func:`append_jsonl`.

    A missing file reads as empty (a quarantine that never received a
    record).  Malformed lines raise :class:`EventModelError` with the
    line number — a dead-letter store must never lose records silently.
    The one exception is ``tolerate_torn_tail=True``: a malformed *final*
    line is the signature of a crash mid-append (the write never
    completed, so it never was a durable record) and is skipped; a
    malformed line anywhere else still raises.
    """
    if not os.path.exists(path):
        return []
    entries: list[dict] = []
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    last_content = 0
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            last_content = lineno
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if tolerate_torn_tail and lineno == last_content:
                break
            raise EventModelError(
                f"malformed JSONL at {path}:{lineno}: {exc}"
            ) from exc
    return entries


#: Source kinds -> the pipeline's batch order (gp, hospital, municipal,
#: specialist), so a dedup-aware merge sees events in ingestion order.
_SOURCE_BATCH_RANK = {
    "gp_claim": 0, "gp_emergency_claim": 0, "physio_claim": 0,
    "hospital_inpatient": 1, "hospital_outpatient": 1,
    "hospital_day_treatment": 1,
    "municipal_home_care": 2, "municipal_nursing_home": 2,
    "specialist_claim": 3,
}


def merge_stores(
    *stores: EventStore, deduplicate_events: bool = False
) -> EventStore:
    """Rebuild one store holding every patient and event of the inputs.

    Used by quarantine replay to fold recovered events into the store
    integrated from the healthy sources.  Demographics must agree across
    inputs (conflicts raise :class:`EventModelError` via the builder);
    events are re-sorted by (patient, day) as always, so compare merged
    stores with :meth:`EventStore.content_equal`, not array identity.

    With ``deduplicate_events=True`` the exact/concept deduplication of
    the integration pipeline is re-run over the combined events.  That
    is what quarantine replay needs: a dead-lettered record's events may
    duplicate events that reached the base store through another
    registry, and a plain concatenation would keep both.

    Without it, the merge is the fast array-level
    :func:`repro.events.store.merge_stores`, folded over the inputs.

    Every input contributes its ``rows()``: a
    :class:`~repro.shard.store.ShardedEventStore` merges every shard
    into one in-memory store first.  That merge reads the *effective*
    view: pending delta segments from incremental appends are resolved
    into each shard with last-write-wins dedup, so a store with
    uncompacted deltas merges identically to its compacted twin.  For
    populations too large to materialize, re-shard instead of merging —
    :func:`repro.shard.write_sharded_store` accepts a stream of stores.
    """
    import functools

    from repro.events.store import EventStoreBuilder
    from repro.events.store import merge_stores as merge_pair

    if not stores:
        raise EventModelError("merge_stores needs at least one store")
    stores = tuple(store.rows() for store in stores)
    if not deduplicate_events:
        return functools.reduce(merge_pair, stores)

    builder = EventStoreBuilder()
    for store in stores:
        for patient_id in store.patient_ids.tolist():
            builder.add_patient(
                patient_id,
                store.birth_day_of(patient_id),
                store.sex_of(patient_id),
            )
    from repro.sources.dedup import deduplicate
    from repro.sources.parsed import ParsedEvent

    events: list[ParsedEvent] = []
    for store in stores:
        for event in store.iter_events():
            events.append(ParsedEvent(
                patient_id=event["patient_id"],
                day=event["day"],
                end=event["end"],
                category=event["category"],
                code=event["code"],
                system=event["system"],
                value=event["value"],
                value2=event["value2"],
                source_kind=event["source"],
                detail=event["detail"],
            ))
    # Stable sort: duplicates collapse to the event the pipeline's own
    # batch order would have kept (dedup only compares same patient+day).
    events.sort(key=lambda ev: _SOURCE_BATCH_RANK.get(ev.source_kind, 9))
    kept, __ = deduplicate(events)
    for ev in kept:
        builder.add_event(
            patient_id=ev.patient_id, day=ev.day, category=ev.category,
            end=ev.end, code=ev.code, system=ev.system, value=ev.value,
            value2=ev.value2, source=ev.source_kind, detail=ev.detail,
        )
    return builder.build()


def export_events_csv(
    store: EventStore,
    path: str,
    patient_ids: "list[int] | None" = None,
) -> int:
    """Write a flat event table (one row per event) for external tools.

    Columns: patient_id, day, end_day (empty for point events), category,
    system, code, value, value2, source, detail.  Returns the number of
    event rows written.
    """
    import csv

    if patient_ids is None:
        mask = np.ones(store.n_events, dtype=bool)
    else:
        mask = store.mask_patients([int(p) for p in patient_ids])
    rows = np.flatnonzero(mask)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow([
            "patient_id", "day", "end_day", "category", "system", "code",
            "value", "value2", "source", "detail",
        ])
        for row in rows.tolist():
            system_idx = int(store.system[row])
            system = (
                "" if system_idx < 0 else store.system_names[system_idx]
            )
            code_idx = int(store.code[row])
            code = (
                ""
                if code_idx < 0 or not system
                else store.systems[system].code_of(code_idx).code
            )
            value = store.value[row]
            value2 = store.value2[row]
            writer.writerow([
                int(store.patient[row]),
                int(store.day[row]),
                "" if store.is_point[row] else int(store.end[row]),
                store.categories[int(store.category[row])],
                system,
                code,
                "" if np.isnan(value) else repr(float(value)),
                "" if np.isnan(value2) else repr(float(value2)),
                store.sources[int(store.source[row])],
                store.details[int(store.detail[row])],
            ])
    return len(rows)


def import_events_csv(
    path: str,
    demographics: "dict[int, tuple[int, str]]",
) -> EventStore:
    """Load a flat event table written by :func:`export_events_csv`.

    ``demographics`` maps patient id -> (birth_day, sex); the CSV format
    intentionally carries only events, so demographics travel separately
    (as they do between registries).
    """
    import csv

    from repro.events.store import EventStoreBuilder

    builder = EventStoreBuilder()
    for pid, (birth, sex) in demographics.items():
        builder.add_patient(pid, birth, sex)
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        for record in reader:
            builder.add_event(
                patient_id=int(record["patient_id"]),
                day=int(record["day"]),
                end=int(record["end_day"]) if record["end_day"] else None,
                category=record["category"],
                code=record["code"] or None,
                system=record["system"] or None,
                value=float(record["value"]) if record["value"] else None,
                value2=float(record["value2"]) if record["value2"] else None,
                source=record["source"],
                detail=record["detail"],
            )
    return builder.build()
