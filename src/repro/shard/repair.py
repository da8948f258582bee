"""Offline shard diagnosis (fsck) and repair.

The quarantine machinery in :class:`~repro.shard.store.ShardedEventStore`
keeps a damaged store *serving*; this module is how an operator makes it
*whole* again:

* :func:`fsck_store` re-verifies every shard listed in the root manifest
  — all columns, not just the first failure — and reports each shard's
  health (``ok``, ``checksum``, ``format``, ``missing``,
  ``quarantined``).
* :func:`repair_store` restores damaged shards, cheapest evidence first:

  1. **Salvage**: if the shard's column files (a surviving peer replica
     in place, or a ``quarantine/`` copy) still load and the rebuilt
     content hashes to the *root manifest's* recorded
     ``content_token``, the segment is rewritten from those columns.
     The token check is what makes this safe — a manifest deleted by
     accident salvages cleanly, while a flipped data byte changes the
     token and is refused, so corruption is never laundered into a
     "repaired" shard.  On a replicated store, in-place peer replicas
     are tried *before* quarantine copies or a ``--from`` source.
  2. **Rebuild**: with a repair ``source`` (the flat ``.npz`` the store
     was sharded from, or a sibling sharded store's merged view), the
     shard's patients are re-derived from the partition scheme and the
     segment is rewritten from the source's rows.

  Repaired segments are written to a temporary directory and moved into
  place with ``os.replace`` (the damaged original is preserved under
  ``quarantine/``), then re-verified; the root manifest is rewritten
  atomically with the new shard entries.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

from repro.errors import EventModelError, ShardRepairError
from repro.events.store import EventStore, default_systems
from repro.io import read_jsonl
from repro.resilience.faults import crashpoint
from repro.shard.delta import COMPACT_TMP_PREFIX, DELTA_PREFIX
from repro.shard.format import (
    COLUMNS,
    MANIFEST_NAME,
    REPLICA_ASIDE_PREFIX,
    REPLICA_TMP_PREFIX,
    SHARD_FORMAT_VERSION,
    checksum_file,
    fsync_dir,
    read_store_manifest,
    replica_paths,
    verify_segment,
    write_replicated_segment,
    write_store_manifest,
)
from repro.shard.store import DAMAGE_LOG_NAME, QUARANTINE_DIR
from repro.shard.writer import _remap_tables, hash_shard_of

__all__ = [
    "FsckReport",
    "RepairAction",
    "RepairReport",
    "ShardHealth",
    "fsck_store",
    "repair_store",
]


@dataclass(frozen=True)
class ShardHealth:
    """One shard's fsck verdict.

    ``status`` is one of ``ok``, ``checksum`` (one or more column files
    fail their manifest checksum), ``format`` (manifest missing/invalid
    or column files missing), ``missing`` (the shard directory is gone)
    or ``quarantined`` (gone from the serving set, but a copy sits in
    ``quarantine/``).

    On a replicated store ``replicas`` carries one record per replica
    of the base segment — and the shard is only ``ok`` when *every*
    replica is, so "serving fine off one healthy replica" still shows
    as damage that the scrubber (or ``shard scrub``) must heal before
    the store is fsck-clean again.
    """

    name: str
    index: int
    status: str
    detail: str = ""
    bad_columns: tuple[str, ...] = ()
    replicas: tuple[dict, ...] = ()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "status": self.status,
            "detail": self.detail,
            "bad_columns": list(self.bad_columns),
            "replicas": [dict(r) for r in self.replicas],
        }


@dataclass(frozen=True)
class FsckReport:
    """Health of every shard in one store.

    ``orphans`` lists directories no manifest entry references —
    strandings of a crashed append or compaction (unreferenced
    ``delta-*`` dirs, superseded generations, ``.repair-*`` /
    ``.compact-*`` temporaries).  Orphans are unreachable by any
    reader, so they are reported for hygiene but do not make the store
    unclean; the next append or compaction of the shard reclaims them.

    ``sketch_issues`` lists segments whose ``sketch.npz`` sidecar is
    missing, stale or corrupt.  Sketches are *derived* data — a pure
    function of the segment columns — so a bad sidecar is always
    repairable in place (``repro sketch build``, or any
    :func:`repair_store` run) and never makes the store unclean: the
    read path falls back to rebuilding the sketch from rows.
    """

    path: str
    shards: tuple[ShardHealth, ...]
    orphans: tuple[str, ...] = ()
    sketch_issues: tuple[dict, ...] = ()

    @property
    def ok(self) -> bool:
        return all(s.status == "ok" for s in self.shards)

    @property
    def damaged(self) -> tuple[ShardHealth, ...]:
        return tuple(s for s in self.shards if s.status != "ok")

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "shards": [s.to_json() for s in self.shards],
            "orphans": list(self.orphans),
            "sketch_issues": [dict(issue) for issue in self.sketch_issues],
        }

    def format_summary(self) -> str:
        lines = []
        for s in self.shards:
            if s.status == "ok":
                lines.append(f"{s.name}: ok")
            else:
                cols = f" (columns: {', '.join(s.bad_columns)})" \
                    if s.bad_columns else ""
                lines.append(f"{s.name}: {s.status.upper()}{cols}: {s.detail}")
        for orphan in self.orphans:
            lines.append(f"{orphan}: orphan (unreferenced; reclaimed by the "
                         f"next append/compaction)")
        for issue in self.sketch_issues:
            lines.append(f"{issue['segment']}: sketch {issue['status']} "
                         f"(repairable: rebuilds from segment columns — "
                         f"run `repro sketch build`)")
        verdict = "clean" if self.ok else \
            f"{len(self.damaged)} of {len(self.shards)} shard(s) damaged"
        lines.append(f"fsck: {verdict}")
        return "\n".join(lines)


@dataclass(frozen=True)
class RepairAction:
    """What :func:`repair_store` did to one shard.

    ``action`` is ``intact`` (nothing to do), ``salvaged`` (rebuilt from
    its own token-verified column files), ``rebuilt`` (re-derived from
    the repair source) or ``unrepairable``.
    """

    name: str
    index: int
    action: str
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "action": self.action,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class RepairReport:
    """Outcome of one :func:`repair_store` run.

    ``sketches`` records the sketch sidecars regenerated during salvage
    (segment label plus the previous sidecar status)."""

    path: str
    actions: tuple[RepairAction, ...]
    sketches: tuple[dict, ...] = ()

    @property
    def ok(self) -> bool:
        return all(a.action != "unrepairable" for a in self.actions)

    @property
    def repaired(self) -> tuple[RepairAction, ...]:
        return tuple(a for a in self.actions
                     if a.action in ("salvaged", "rebuilt"))

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "actions": [a.to_json() for a in self.actions],
            "sketches": [dict(s) for s in self.sketches],
        }

    def format_summary(self) -> str:
        lines = [f"{a.name}: {a.action}"
                 + (f" ({a.detail})" if a.detail else "")
                 for a in self.actions]
        for s in self.sketches:
            lines.append(f"{s['segment']}: sketch sidecar regenerated "
                         f"(was {s['status']})")
        verdict = ("repair complete" if self.ok
                   else "repair INCOMPLETE: some shards need a --from source")
        lines.append(verdict)
        return "\n".join(lines)


# -- fsck ----------------------------------------------------------------------


def _check_segment(directory: str) -> tuple[str, str, tuple[str, ...]]:
    """(status, detail, bad_columns) for one shard directory.

    Unlike :func:`~repro.shard.format.verify_segment` (which raises on
    the first problem, the right contract for an open path), this keeps
    going so the report names *every* damaged column.
    """
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError:
        return "format", f"missing {MANIFEST_NAME}", ()
    except json.JSONDecodeError as exc:
        return "format", f"manifest is not valid JSON: {exc}", ()
    if manifest.get("format_version") != SHARD_FORMAT_VERSION:
        return (
            "format",
            f"unsupported shard format version "
            f"{manifest.get('format_version')!r}",
            (),
        )
    columns = manifest.get("columns", {})
    unlisted = [name for name in COLUMNS if name not in columns]
    if unlisted:
        return "format", f"manifest lists no checksum for {unlisted}", ()
    bad: list[str] = []
    details: list[str] = []
    for name in COLUMNS:
        path = os.path.join(directory, f"{name}.npy")
        if not os.path.exists(path):
            bad.append(name)
            details.append(f"{name}.npy missing")
        elif checksum_file(path) != columns[name]["checksum"]:
            bad.append(name)
            details.append(f"{name}.npy checksum mismatch")
    if bad:
        return "checksum", "; ".join(details), tuple(bad)
    return "ok", "", ()


def _check_segment_replicated(
    segment_dir: str, replication: int, expected_token: str | None = None,
) -> tuple[str, str, tuple[str, ...], list[dict]]:
    """Aggregate (status, detail, bad_columns, replica_records) over
    every replica of one segment directory.

    The aggregate is ``ok`` only when *every* replica verifies — a
    store serving correctly off one surviving replica is still damaged
    until the scrubber (or repair) restores its peers.  When
    ``expected_token`` is given, an otherwise-healthy replica whose own
    manifest records a different ``content_token`` is flagged too: a
    stale replica from an older write self-agrees but is still wrong.
    """
    records: list[dict] = []
    status = "ok"
    details: list[str] = []
    bad: list[str] = []
    for replica in replica_paths(segment_dir, replication):
        rname = os.path.relpath(replica, segment_dir)
        if not os.path.isdir(replica):
            r_status, r_detail, r_bad = (
                "missing", "replica directory is gone", ())
        else:
            r_status, r_detail, r_bad = _check_segment(replica)
            if r_status == "ok" and expected_token is not None:
                with open(os.path.join(replica, MANIFEST_NAME),
                          encoding="utf-8") as f:
                    recorded = json.load(f).get("content_token")
                if recorded != expected_token:
                    r_status = "checksum"
                    r_detail = ("content token drifted from the root "
                                "manifest")
        records.append({
            "replica": rname,
            "status": r_status,
            "detail": r_detail,
            "bad_columns": list(r_bad),
        })
        if r_status != "ok":
            if status == "ok":
                status = r_status
            details.append(r_detail if rname == "."
                           else f"{rname}: {r_detail}")
            bad.extend(c if rname == "." else f"{rname}/{c}"
                       for c in r_bad)
    return status, "; ".join(details), tuple(bad), records


def _check_deltas(
    directory: str, entry: dict, replication: int,
) -> tuple[str, str, tuple[str, ...], list[dict]]:
    """(status, detail, bad_columns, replica_records) over a shard's
    referenced deltas.

    Delta segments share the base segment format, so each one gets the
    same all-replica check, with findings prefixed by the delta name;
    a delta whose rebuilt content no longer hashes to the root
    manifest's recorded token is damage even when its own (also
    corrupted or stale) manifest self-agrees.
    """
    bad: list[str] = []
    details: list[str] = []
    records: list[dict] = []
    status = "ok"
    for delta in entry.get("deltas") or []:
        delta_dir = os.path.join(directory, delta["name"])
        if not os.path.isdir(delta_dir):
            return ("format",
                    f"{delta['name']}: delta directory is gone", (),
                    records)
        d_status, d_detail, d_bad, d_records = _check_segment_replicated(
            delta_dir, replication, expected_token=delta["content_token"],
        )
        records.extend({"segment": delta["name"], **r} for r in d_records)
        if d_status != "ok":
            status = d_status if status == "ok" else status
            details.append(f"{delta['name']}: {d_detail}")
            bad.extend(f"{delta['name']}/{c}" for c in d_bad)
    return status, "; ".join(details), tuple(bad), records


def _find_orphans(path: str, manifest: dict) -> tuple[str, ...]:
    """Directories under the store no manifest entry references.

    Replica-aware: ``.rep-*`` staging and ``.old-*`` aside directories
    left inside a segment by a crashed replication or scrub repair are
    strandings too — unreachable (readers only follow ``rK`` names),
    reported for hygiene, reclaimed by the next repair of the segment.
    """
    referenced = {entry["name"] for entry in manifest["shards"]}
    orphans: list[str] = []
    for item in sorted(os.listdir(path)):
        full = os.path.join(path, item)
        if not os.path.isdir(full) or item == QUARANTINE_DIR:
            continue
        if item.startswith((".repair-", COMPACT_TMP_PREFIX,
                            REPLICA_TMP_PREFIX, REPLICA_ASIDE_PREFIX)):
            orphans.append(item)
        elif item.startswith("shard-") and item not in referenced:
            orphans.append(item)
    for entry in manifest["shards"]:
        directory = os.path.join(path, entry["name"])
        if not os.path.isdir(directory):
            continue
        known = {d["name"] for d in entry.get("deltas") or []}
        for item in sorted(os.listdir(directory)):
            if not os.path.isdir(os.path.join(directory, item)):
                continue
            if item.startswith((REPLICA_TMP_PREFIX, REPLICA_ASIDE_PREFIX)):
                orphans.append(f"{entry['name']}/{item}")
            elif item.startswith(DELTA_PREFIX) and item not in known:
                orphans.append(f"{entry['name']}/{item}")
        for delta_name in sorted(known):
            delta_dir = os.path.join(directory, delta_name)
            if not os.path.isdir(delta_dir):
                continue
            for item in sorted(os.listdir(delta_dir)):
                if item.startswith((REPLICA_TMP_PREFIX,
                                    REPLICA_ASIDE_PREFIX)) \
                        and os.path.isdir(os.path.join(delta_dir, item)):
                    orphans.append(f"{entry['name']}/{delta_name}/{item}")
    return tuple(orphans)


def fsck_store(path: str) -> FsckReport:
    """Re-verify every shard of the store at ``path`` (all columns).

    Delta-aware: each shard's pending delta segments are checked with
    the same rigor as its base segment, and unreferenced directories
    (crash strandings, superseded generations) are reported as orphans
    without failing the store.  Replica-aware: on a replicated store
    every replica of every segment is verified and reported, and one
    damaged replica makes the shard unclean even while its peers keep
    the shard serving exactly.
    """
    manifest = read_store_manifest(path)
    replication = max(1, int(manifest.get("replication", 1)))
    quarantine_dir = os.path.join(path, QUARANTINE_DIR)
    damage_by_name = {
        entry.get("name"): entry
        for entry in read_jsonl(os.path.join(quarantine_dir, DAMAGE_LOG_NAME),
                                tolerate_torn_tail=True)
    }
    shards: list[ShardHealth] = []
    for index, entry in enumerate(manifest["shards"]):
        name = entry["name"]
        directory = os.path.join(path, name)
        if not os.path.isdir(directory):
            if os.path.isdir(os.path.join(quarantine_dir, name)):
                damage = damage_by_name.get(name, {})
                shards.append(ShardHealth(
                    name, index, "quarantined",
                    damage.get("reason", "moved to quarantine"),
                ))
            else:
                shards.append(ShardHealth(
                    name, index, "missing", "shard directory is gone",
                ))
            continue
        status, detail, bad, base_records = _check_segment_replicated(
            directory, replication, expected_token=entry["content_token"],
        )
        records = [{"segment": name, **r} for r in base_records]
        if status == "ok" and entry.get("deltas"):
            status, detail, bad, delta_records = _check_deltas(
                directory, entry, replication)
            records.extend(
                {**r, "segment": f"{name}/{r['segment']}"}
                for r in delta_records
            )
        shards.append(ShardHealth(
            name, index, status, detail, bad,
            replicas=tuple(records) if replication > 1 else (),
        ))
    return FsckReport(path=path, shards=tuple(shards),
                      orphans=_find_orphans(path, manifest),
                      sketch_issues=_check_sketches(path, manifest, shards,
                                                    replication))


def _check_sketches(path: str, manifest: dict, shards: list[ShardHealth],
                    replication: int = 1) -> tuple[dict, ...]:
    """Non-ok sketch sidecars across healthy segments (incl. deltas).

    Only segments whose columns verified are checked — a damaged shard
    is reported by its own :class:`ShardHealth` entry, and its sidecar
    gets rewritten anyway when the segment is repaired.  On a
    replicated store every replica carries its own sidecar, so each is
    checked (and labelled) separately."""
    from repro.sketch import sketch_sidecar_status  # noqa: PLC0415 (cycle)

    healthy = {s.index for s in shards if s.status == "ok"}
    issues: list[dict] = []
    for index, entry in enumerate(manifest["shards"]):
        if index not in healthy:
            continue
        directory = os.path.join(path, entry["name"])
        targets = [(directory, entry["name"], entry["content_token"])]
        for delta in entry.get("deltas") or []:
            targets.append((
                os.path.join(directory, delta["name"]),
                f"{entry['name']}/{delta['name']}",
                delta["content_token"],
            ))
        for segment_dir, label, token in targets:
            for replica in replica_paths(segment_dir, replication):
                if not os.path.isdir(replica):
                    continue
                rname = os.path.relpath(replica, segment_dir)
                status = sketch_sidecar_status(replica, token)
                if status != "ok":
                    issues.append({
                        "segment": label if rname == "."
                        else f"{label}/{rname}",
                        "status": status,
                    })
    return tuple(issues)


# -- repair --------------------------------------------------------------------


def _resolve_source(source) -> EventStore | None:
    """Accept an ``EventStore``, a sharded store, a path, or ``None``.

    A directory path opens as a sibling sharded store and contributes
    its merged view; any other path loads as a flat ``.npz`` snapshot.
    """
    if source is None:
        return None
    if isinstance(source, (str, os.PathLike)):
        if not os.path.isdir(source):
            from repro.io import load_store  # noqa: PLC0415 (cheap)

            return load_store(str(source))
        from repro.shard.store import ShardedEventStore  # noqa: PLC0415

        source = ShardedEventStore(str(source))
    return source.rows()


def _load_columns(directory: str) -> dict | None:
    """Load all 14 column arrays eagerly, or ``None`` if any won't load."""
    arrays = {}
    for name in COLUMNS:
        path = os.path.join(directory, f"{name}.npy")
        try:
            # eager, not mapped: salvage re-hashes and rewrites these
            # bytes, so holding views into the damaged files is unsafe
            arrays[name] = np.load(path, mmap_mode=None)
        except Exception:  # lintkit: disable=LK002 — a corrupted .npy
            return None    # header raises SyntaxError/TokenError, not
            # just OSError, and any load failure means "not salvageable
            # from this candidate"
    return arrays


def _columns_as_store(directory: str, manifest: dict) -> EventStore | None:
    arrays = _load_columns(directory)
    if arrays is None:
        return None
    try:
        return EventStore(
            systems=default_systems(),
            system_names=list(manifest["system_names"]),
            categories=list(manifest["categories"]),
            sources=list(manifest["sources"]),
            details=list(manifest["details"]),
            **arrays,
        )
    except EventModelError:
        return None  # columns load but are mutually inconsistent


def _column_dirs(segment_dir: str, replication: int) -> list[str]:
    """Existing directories that may hold one segment's column files.

    On a replicated store that is each existing ``rK`` replica dir —
    plus the segment dir itself when it carries a flat-layout manifest
    (a quarantine copy taken before the store was re-replicated)."""
    dirs = [d for d in replica_paths(segment_dir, replication)
            if os.path.isdir(d)]
    if replication > 1 \
            and os.path.exists(os.path.join(segment_dir, MANIFEST_NAME)):
        dirs.append(segment_dir)
    return dirs


def _salvage_delta(delta_dir: str, token: str, manifest: dict,
                   replication: int) -> EventStore | None:
    """Token-verified delta store from any replica of ``delta_dir``."""
    for columns_dir in _column_dirs(delta_dir, replication):
        delta_store = _columns_as_store(columns_dir, manifest)
        if delta_store is not None \
                and delta_store.content_token() == token:
            return delta_store
    return None


def _try_salvage(
    container: str, columns_dir: str, entry: dict, manifest: dict,
    replication: int,
) -> tuple[EventStore, list[tuple[str, str]]] | None:
    """Rebuild a shard store from a directory's raw columns — but only
    when the result hashes to the root manifest's recorded
    ``content_token``.  The token is content-addressed over every
    column, so a match proves the columns are exactly the bytes the
    store was written with; anything else (a flipped data byte, stale
    columns from an older write) is refused.

    ``columns_dir`` holds the base segment's column files (a peer
    replica on a replicated store); ``container`` is where the shard's
    delta directories sit.  Returns the base store plus a (name, store)
    per referenced delta segment, each token-verified the same way and
    each free to come from *any* healthy replica — a shard with pending
    deltas only salvages when *all* of its segments check out, so no
    delta event is silently dropped."""
    store = _columns_as_store(columns_dir, manifest)
    if store is None or store.content_token() != entry["content_token"]:
        return None
    delta_segments: list[tuple[str, EventStore]] = []
    for delta in entry.get("deltas") or []:
        delta_store = _salvage_delta(
            os.path.join(container, delta["name"]),
            delta["content_token"], manifest, replication,
        )
        if delta_store is None:
            return None
        delta_segments.append((delta["name"], delta_store))
    return store, delta_segments


def _salvage_candidates(path: str, name: str,
                        replication: int) -> list[tuple[str, str]]:
    """(container, columns_dir) pairs that might hold the shard's true
    bytes.

    The columns dir is where base column files live; the container is
    where delta directories sit.  In-place peer replicas come first —
    on a replicated store, healing from a surviving replica beats
    reaching into ``quarantine/`` or asking for a ``--from`` source."""
    containers = [os.path.join(path, name)]
    quarantine_dir = os.path.join(path, QUARANTINE_DIR)
    if os.path.isdir(quarantine_dir):
        for item in sorted(os.listdir(quarantine_dir)):
            if item == name or item.startswith(name + "."):
                containers.append(os.path.join(quarantine_dir, item))
    return [
        (container, columns_dir)
        for container in containers if os.path.isdir(container)
        for columns_dir in _column_dirs(container, replication)
    ]


def _shard_subset(source: EventStore, manifest: dict, index: int,
                  entry: dict) -> EventStore:
    """The source rows belonging to shard ``index`` under the store's
    partition scheme — the inverse of the writer's assignment."""
    if manifest["partition"] == "hash":
        assignment = hash_shard_of(source.patient_ids,
                                   len(manifest["shards"]))
        pids = source.patient_ids[assignment == index]
    else:
        lo, hi = entry["patient_min"], entry["patient_max"]
        if lo is None:
            pids = np.empty(0, dtype=np.int64)
        else:
            ids = source.patient_ids
            pids = ids[(ids >= lo) & (ids <= hi)]
    subset = source.rows(pids)
    if (subset.categories == manifest["categories"]
            and subset.sources == manifest["sources"]
            and subset.details == manifest["details"]):
        return subset

    def mapping(union: list[str], own: list[str], kind: str) -> np.ndarray:
        table = {v: i for i, v in enumerate(union)}
        unknown = [v for v in own if v not in table]
        if unknown:
            raise ShardRepairError(
                entry["name"],
                f"repair source has {kind} values {unknown} not in the "
                f"store's tables; re-shard instead of repairing",
            )
        return np.asarray([table[v] for v in own], dtype=np.int64)

    return _remap_tables(
        subset,
        list(manifest["categories"]), list(manifest["sources"]),
        list(manifest["details"]),
        mapping(manifest["categories"], subset.categories, "category"),
        mapping(manifest["sources"], subset.sources, "source"),
        mapping(manifest["details"], subset.details, "detail"),
    )


def _install_segment(
    path: str, name: str, index: int, store: EventStore,
    durable: bool = False,
    delta_segments: list[tuple[str, EventStore]] | None = None,
    replication: int = 1,
) -> dict:
    """Write ``store`` as the shard's new segment, atomically.

    The rebuilt segment lands in a temporary sibling directory (with
    ``replication`` complete replica copies, when the store is
    replicated); any existing (damaged) directory is preserved under
    ``quarantine/`` before the ``os.replace`` — repair never destroys
    evidence.  Either way the install's replace is bracketed by crash
    points and the containing directory is fsynced after it, so a kill
    anywhere leaves the root manifest at exactly pre- or post-state.

    ``durable`` additionally fsyncs every column write (the compaction
    path).  ``delta_segments`` — pairs of (delta name, delta store) —
    are rewritten inside the segment before it is installed, so a
    salvage restores a shard *with* its pending delta segments intact
    (and with freshly generated delta manifests, even when only the
    delta's columns survived the damage).
    """
    tmp = os.path.join(path, f".repair-{name}")
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    try:
        write_replicated_segment(store, tmp, index,
                                 replication=replication, durable=durable)
        for delta_name, delta_store in delta_segments or []:
            write_replicated_segment(
                delta_store, os.path.join(tmp, delta_name), index,
                replication=replication, durable=durable,
            )
        final = os.path.join(path, name)
        if os.path.isdir(final):
            quarantine_dir = os.path.join(path, QUARANTINE_DIR)
            os.makedirs(quarantine_dir, exist_ok=True)
            aside = os.path.join(quarantine_dir, name)
            suffix = 0
            while os.path.exists(aside):
                suffix += 1
                aside = os.path.join(quarantine_dir, f"{name}.{suffix}")
            os.rename(final, aside)
            fsync_dir(quarantine_dir)
        crashpoint(f"install:{name}")
        os.replace(tmp, final)
        crashpoint(f"installed:{name}")
        fsync_dir(path)
    finally:
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)
    return verify_segment(
        replica_paths(os.path.join(path, name), replication)[0]
    )


def repair_store(path: str, source=None) -> RepairReport:
    """Repair every damaged shard of the store at ``path``.

    ``source`` may be an :class:`EventStore`, a sharded store (or the
    path of either: a flat ``.npz`` file or a sharded-store directory)
    holding the same population — the authority to rebuild from when a
    shard's own bytes are beyond salvage.  Returns a
    :class:`RepairReport`; shards that could not be repaired are listed
    as ``unrepairable`` (the report's ``ok`` is then False) rather than
    raised, so one hopeless shard does not abort the others' repairs.
    The root manifest is rewritten with the repaired shard entries.
    """
    manifest = read_store_manifest(path)
    replication = max(1, int(manifest.get("replication", 1)))
    report = fsck_store(path)
    source_store = _resolve_source(source)
    entries = [dict(entry) for entry in manifest["shards"]]
    actions: list[RepairAction] = []
    changed = False
    for health in report.shards:
        index, name = health.index, health.name
        entry = entries[index]
        if health.status == "ok":
            actions.append(RepairAction(name, index, "intact"))
            continue
        salvaged = None
        for container, columns_dir in _salvage_candidates(
                path, name, replication):
            salvaged = _try_salvage(container, columns_dir, entry,
                                    manifest, replication)
            if salvaged is not None:
                break
        new_deltas = list(entry.get("deltas") or [])
        if salvaged is not None:
            base_store, delta_segments = salvaged
            new_manifest = _install_segment(
                path, name, index, base_store,
                delta_segments=delta_segments,
                replication=replication,
            )
            actions.append(RepairAction(
                name, index, "salvaged",
                "columns re-verified against the manifest content token"
                + (f" ({len(delta_segments)} delta segment(s) restored)"
                   if delta_segments else ""),
            ))
        elif source_store is not None:
            rebuilt = _shard_subset(source_store, manifest, index, entry)
            new_manifest = _install_segment(path, name, index, rebuilt,
                                            replication=replication)
            # The repair source is the authority for the shard's whole
            # content: the rebuilt segment is effectively compacted, so
            # any pending deltas (whose events the source must already
            # include) are dropped from the entry.
            new_deltas = []
            token_note = (
                "content token matches the manifest"
                if new_manifest["content_token"] == entry["content_token"]
                else "content updated from the repair source"
            )
            if entry.get("deltas"):
                token_note += (
                    f"; {len(entry['deltas'])} pending delta segment(s) "
                    f"folded into the rebuilt base"
                )
            actions.append(RepairAction(name, index, "rebuilt", token_note))
        else:
            actions.append(RepairAction(
                name, index, "unrepairable",
                f"{health.status}: {health.detail or 'no salvageable copy'}; "
                f"pass a repair source",
            ))
            continue
        entries[index] = {
            "name": name,
            "generation": int(entry.get("generation") or 0),
            "deltas": new_deltas,
            "n_patients": new_manifest["n_patients"],
            "n_events": new_manifest["n_events"],
            "patient_min": new_manifest["patient_min"],
            "patient_max": new_manifest["patient_max"],
            "content_token": new_manifest["content_token"],
        }
        changed = True
    if changed:
        write_store_manifest(
            path,
            partition=manifest["partition"],
            system_names=manifest["system_names"],
            system_sizes=manifest["system_sizes"],
            categories=manifest["categories"],
            sources=manifest["sources"],
            details=manifest["details"],
            total_patients=sum(
                int(e["n_patients"])
                + sum(int(d["n_patients"]) for d in e.get("deltas") or [])
                for e in entries
            ),
            total_events=sum(
                int(e["n_events"])
                + sum(int(d["n_events"]) for d in e.get("deltas") or [])
                for e in entries
            ),
            shard_entries=entries,
            revision=int(manifest.get("revision", 0)) + 1,
            replication=replication,
        )
    # Sketches are derived data: whatever segments survive (or were just
    # reinstalled) get current sidecars, so the next fsck is sketch-clean
    # too.  Unrepairable shards are skipped — their segments cannot open.
    sketches: tuple[dict, ...] = ()
    if all(a.action != "unrepairable" for a in actions):
        from repro.shard.store import ShardedEventStore  # noqa: PLC0415

        sketches = tuple(ShardedEventStore(path).rebuild_sketches())
    return RepairReport(path=path, actions=tuple(actions),
                        sketches=sketches)
