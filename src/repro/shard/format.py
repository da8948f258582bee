"""The on-disk segment format: ``.npy`` columns plus a JSON manifest.

One shard is one directory::

    shard-0003/
      manifest.json     # schema version, row counts, ranges, checksums
      patient.npy day.npy end.npy is_point.npy category.npy system.npy
      code.npy value.npy value2.npy source.npy detail.npy
      patient_ids.npy birth_days.npy sexes.npy

Column files are plain ``.npy`` so they open with
``np.load(mmap_mode="r")`` — a shard costs address space, not resident
memory, until a query touches its columns.  The manifest carries a
blake2b checksum per column, verified when the shard is opened (a
flipped byte anywhere raises :class:`~repro.errors.ShardChecksumError`),
plus the shard's memoized ``content_token`` so the query cache never
pays a rehash on open.

String tables (categories, sources, details) and code-system
fingerprints live in the *store-level* manifest and are shared by every
shard: the writer never re-interns per shard, so per-shard integer
columns all decode through one table and concatenation across shards
stays valid.

With :attr:`~repro.config.ShardConfig.replication` R >= 2 the segment
directory instead holds R byte-identical *replica* subdirectories, each
a complete copy of the layout above::

    shard-0003/
      r0/  manifest.json patient.npy ... sketch.npz
      r1/  manifest.json patient.npy ... sketch.npz

Replicas share one ``content_token`` (they are the same bytes), so the
root manifest records a single entry per shard plus the store-wide
``replication`` count; :func:`replica_paths` maps a segment directory
to its replica directories (the legacy flat layout is the R=1 case).

Every file is written to a temporary name in the same directory and
``os.replace``d into place, then the directory entry is fsynced, so a
crash mid-write can leave stray temporaries but never a truncated
column under its final name — and a power cut after the replace cannot
tear the rename back out of the directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

import numpy as np

from repro.errors import ShardChecksumError, ShardFormatError
from repro.events.store import PATIENT_COLUMNS, ROW_COLUMNS
from repro.events.store import EventStore, default_systems
from repro.resilience.faults import crashpoint

__all__ = [
    "COLUMNS",
    "MANIFEST_NAME",
    "REPLICA_ASIDE_PREFIX",
    "REPLICA_TMP_PREFIX",
    "SHARD_FORMAT_VERSION",
    "atomic_replace",
    "checksum_file",
    "fsync_dir",
    "open_segment",
    "open_segment_any",
    "read_store_manifest",
    "replica_dir_name",
    "replica_paths",
    "replicate_segment_dir",
    "verify_segment",
    "write_replicated_segment",
    "write_segment",
    "write_store_manifest",
]

SHARD_FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: Event columns followed by the patient (demographics) columns —
#: together the full columnar state of one :class:`EventStore`.
COLUMNS = ROW_COLUMNS + PATIENT_COLUMNS


def atomic_replace(path: str, write, durable: bool = False) -> None:
    """Run ``write(tmp_path)`` then ``os.replace`` the result to ``path``.

    The temporary lives in the target directory (``os.replace`` must not
    cross filesystems) and keeps the target's extension (``np.save``
    appends ``.npy`` to extension-less names).

    With ``durable=True`` the temporary's bytes are fsynced before the
    replace and the directory entry after it, and each boundary is a
    :func:`~repro.resilience.faults.crashpoint` — the incremental
    ingestion path (delta append, compaction, manifest bump) uses this
    so a crash at *any* point leaves either the old file or the new
    one, provably, under the crash-matrix harness.

    Without ``durable`` the file bytes are left to the OS writeback,
    but the directory entry is still fsynced after the replace: a
    rename that was observed (by fsck, a reader, or a subsequent
    manifest commit) must not vanish on power loss, or a "repaired"
    or freshly built segment could silently tear back to its old name.
    """
    directory = os.path.dirname(os.path.abspath(path))
    suffix = os.path.splitext(path)[1]
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=suffix)
    os.close(fd)
    try:
        write(tmp)
        name = os.path.basename(path)
        if durable:
            fd = os.open(tmp, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            crashpoint(f"fsync:{name}")
            os.replace(tmp, path)
            crashpoint(f"replace:{name}")
            fsync_dir(directory)
        else:
            os.replace(tmp, path)
            crashpoint(f"replace:{name}")
            fsync_dir(directory)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def fsync_dir(directory: str) -> None:
    """fsync a directory so renames inside it survive a power cut."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        # fsync_dir is the protocol's terminal primitive: every caller
        # (atomic_replace, _install_segment, save_store, …) places its
        # own crashpoint around the enclosing replace+fsync sequence, so
        # a crashpoint here would double-count each install boundary.
        os.fsync(fd)  # lintkit: disable=LK202
    except OSError:
        pass  # some filesystems refuse directory fsync; rename still landed
    finally:
        os.close(fd)


def checksum_file(path: str) -> str:
    """blake2b hex digest of a file's raw bytes (streamed)."""
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: str, payload: dict, durable: bool = False) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(payload, f, sort_keys=True, indent=1)

    atomic_replace(path, write, durable=durable)


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise ShardFormatError(
            os.path.dirname(path) or path, f"missing {os.path.basename(path)}"
        ) from None
    except json.JSONDecodeError as exc:
        raise ShardFormatError(path, f"manifest is not valid JSON: {exc}") \
            from exc


# -- shard segments ------------------------------------------------------------


def write_segment(store: EventStore, directory: str, index: int,
                  durable: bool = False) -> dict:
    """Write one shard's columns plus its manifest; return the manifest.

    ``store`` holds exactly the shard's rows and patients (the writer
    slices the parent store before calling).  String tables are *not*
    written here — they live in the store-level manifest.  ``durable``
    fsyncs every column and the manifest (the delta/compaction path,
    where crash-anywhere safety is the contract).
    """
    os.makedirs(directory, exist_ok=True)
    columns: dict[str, dict] = {}
    for name in COLUMNS:
        array = np.ascontiguousarray(getattr(store, name))
        path = os.path.join(directory, f"{name}.npy")
        atomic_replace(path, lambda tmp, a=array: np.save(tmp, a),
                       durable=durable)
        columns[name] = {
            "checksum": checksum_file(path),
            "dtype": str(array.dtype),
            "length": int(len(array)),
        }
    pids = store.patient_ids
    token = store.content_token()
    # The sketch sidecar lands before the segment manifest: a crash in
    # between leaves a sketch stamped with a token no manifest claims —
    # detected as stale and rebuilt, never trusted.  Imported lazily
    # (repro.sketch depends on this module for atomic_replace).
    from repro.sketch.model import build_sketch
    from repro.sketch.sidecar import write_sketch_sidecar

    write_sketch_sidecar(directory, build_sketch(store), token,
                         durable=durable)
    manifest = {
        "format_version": SHARD_FORMAT_VERSION,
        "shard_index": int(index),
        "n_events": int(store.n_events),
        "n_patients": int(store.n_patients),
        "patient_min": int(pids.min()) if len(pids) else None,
        "patient_max": int(pids.max()) if len(pids) else None,
        "content_token": token,
        "columns": columns,
    }
    _write_json(os.path.join(directory, MANIFEST_NAME), manifest,
                durable=durable)
    return manifest


def verify_segment(directory: str) -> dict:
    """Re-hash every column file against the shard manifest.

    Returns the manifest on success; raises
    :class:`~repro.errors.ShardFormatError` for layout problems and
    :class:`~repro.errors.ShardChecksumError` for the first corrupt
    column found.
    """
    manifest = _read_json(os.path.join(directory, MANIFEST_NAME))
    if manifest.get("format_version") != SHARD_FORMAT_VERSION:
        raise ShardFormatError(
            directory,
            f"unsupported shard format version "
            f"{manifest.get('format_version')!r}",
        )
    columns = manifest.get("columns", {})
    missing = [name for name in COLUMNS if name not in columns]
    if missing:
        raise ShardFormatError(
            directory, f"manifest lists no checksum for columns {missing}"
        )
    for name in COLUMNS:
        path = os.path.join(directory, f"{name}.npy")
        if not os.path.exists(path):
            raise ShardFormatError(directory, f"missing column file {name}.npy")
        actual = checksum_file(path)
        expected = columns[name]["checksum"]
        if actual != expected:
            raise ShardChecksumError(
                os.path.basename(directory), name, expected, actual
            )
    return manifest


def open_segment(
    directory: str,
    systems,
    system_names: list[str],
    categories: list[str],
    sources: list[str],
    details: list[str],
    verify_checksums: bool = True,
    mmap: bool = True,
) -> EventStore:
    """Open one shard directory as a (memory-mapped) :class:`EventStore`.

    The shard's memoized ``content_token`` comes straight from the
    manifest: it is content-addressed, so a stale value can only cause a
    query-cache miss, never a wrong hit — and trusting it keeps shard
    opens O(metadata) when checksum verification is off.
    """
    if verify_checksums:
        manifest = verify_segment(directory)
    else:
        manifest = _read_json(os.path.join(directory, MANIFEST_NAME))
        if manifest.get("format_version") != SHARD_FORMAT_VERSION:
            raise ShardFormatError(
                directory,
                f"unsupported shard format version "
                f"{manifest.get('format_version')!r}",
            )
    mode = "r" if mmap else None
    arrays = {}
    for name in COLUMNS:
        path = os.path.join(directory, f"{name}.npy")
        try:
            arrays[name] = np.load(path, mmap_mode=mode)
        except (OSError, ValueError) as exc:
            raise ShardFormatError(
                directory, f"column file {name}.npy failed to load: {exc}"
            ) from exc
    store = EventStore(
        systems=systems,
        system_names=list(system_names),
        categories=list(categories),
        sources=list(sources),
        details=list(details),
        **arrays,
    )
    token = manifest.get("content_token")
    if token:
        store._content_token = token
    return store


# -- replicas ------------------------------------------------------------------

#: Temporary directory prefix used while staging a replica copy, and the
#: prefix a damaged replica is renamed to while the fresh copy replaces
#: it.  Both are reported by fsck as orphans, never as damage.
REPLICA_TMP_PREFIX = ".rep-"
REPLICA_ASIDE_PREFIX = ".old-"


def replica_dir_name(replica: int) -> str:
    """Directory name of replica ``k`` inside a segment directory."""
    return f"r{int(replica)}"


def replica_paths(segment_dir: str, replication: int) -> list[str]:
    """The replica directories of one segment.

    R=1 is the legacy flat layout — the segment directory itself holds
    the columns — so the list is just ``[segment_dir]``.  With R >= 2
    every replica is listed whether or not it currently exists on disk
    (a missing replica is damage for the scrubber to heal, not a reason
    to shrink the set).
    """
    replication = max(1, int(replication))
    if replication == 1:
        return [segment_dir]
    return [
        os.path.join(segment_dir, replica_dir_name(k))
        for k in range(replication)
    ]


def replicate_segment_dir(source: str, target: str, *,
                          expected_token: str | None = None,
                          durable: bool = False) -> dict:
    """Install a byte-identical copy of segment ``source`` at ``target``.

    The copy is token-verified twice: the source is re-hashed against
    its manifest before any byte moves, and the staged copy is verified
    again before it replaces ``target`` — a peer replica can never be
    "repaired" from a silently corrupt source, and a torn copy can
    never land under the final name.  An existing ``target`` (the
    damaged replica being healed) is renamed aside and removed only
    after the fresh copy is committed and the directory entry fsynced;
    every rename boundary is a :func:`crashpoint`, so the crash matrix
    proves a kill anywhere leaves the segment readable from a peer.
    """
    manifest = verify_segment(source)
    token = manifest.get("content_token")
    if expected_token is not None and token != expected_token:
        raise ShardChecksumError(
            os.path.basename(source), "content_token", expected_token,
            str(token),
        )
    parent = os.path.dirname(os.path.abspath(target))
    base = os.path.basename(target)
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f"{REPLICA_TMP_PREFIX}{base}")
    aside = os.path.join(parent, f"{REPLICA_ASIDE_PREFIX}{base}")
    for stale in (tmp, aside):
        if os.path.isdir(stale):
            shutil.rmtree(stale)
    os.makedirs(tmp)
    try:
        for entry in sorted(os.listdir(source)):
            if entry.startswith("."):
                continue  # stray temporaries never propagate
            src_path = os.path.join(source, entry)
            if not os.path.isfile(src_path):
                continue  # nested delta dirs replicate on their own
            dst_path = os.path.join(tmp, entry)
            shutil.copyfile(src_path, dst_path)
            if durable:
                fd = os.open(dst_path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        verify_segment(tmp)
        if durable:
            fsync_dir(tmp)
        crashpoint(f"fsync:{base}")
        if os.path.isdir(target):
            os.replace(target, aside)
            crashpoint(f"replace:{base}")
        os.replace(tmp, target)
        crashpoint(f"installed:{base}")
        fsync_dir(parent)
    finally:
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)
    if os.path.isdir(aside):
        shutil.rmtree(aside)
        fsync_dir(parent)
    return manifest


def write_replicated_segment(store: EventStore, directory: str, index: int,
                             replication: int = 1,
                             durable: bool = False) -> dict:
    """Write one segment as R token-verified replica copies.

    Replica 0 is written from the rows (columns, sketch sidecar,
    manifest); peers are byte copies of it, verified against the same
    ``content_token``.  R=1 degenerates to :func:`write_segment` in the
    legacy flat layout.  Returns the (shared) segment manifest.
    """
    replication = max(1, int(replication))
    if replication == 1:
        return write_segment(store, directory, index, durable=durable)
    os.makedirs(directory, exist_ok=True)
    primary = os.path.join(directory, replica_dir_name(0))
    manifest = write_segment(store, primary, index, durable=durable)
    for k in range(1, replication):
        replicate_segment_dir(
            primary, os.path.join(directory, replica_dir_name(k)),
            expected_token=manifest.get("content_token"), durable=durable,
        )
    return manifest


def open_segment_any(segment_dir: str, replication: int,
                     start: int = 0, on_failover=None, **open_kwargs):
    """Open whichever replica of a segment is healthy.

    Tries replicas in rotation starting at ``start`` (the caller's
    preferred replica); on checksum damage, format damage, or an OS
    open failure it calls ``on_failover(replica_index, exc)`` and moves
    to the next peer.  Raises the last error only when *every* replica
    is unreadable — the zero-healthy-replica state that quarantine and
    ``/readyz`` report.
    """
    paths = replica_paths(segment_dir, replication)
    order = [(start + i) % len(paths) for i in range(len(paths))]
    last: Exception | None = None
    for k in order:
        try:
            return k, open_segment(paths[k], **open_kwargs)
        except (ShardChecksumError, ShardFormatError, OSError) as exc:
            last = exc
            if on_failover is not None:
                on_failover(k, exc)
    assert last is not None
    raise last


# -- store-level manifest ------------------------------------------------------


def write_store_manifest(
    directory: str,
    *,
    partition: str,
    system_names: list[str],
    system_sizes: list[int],
    categories: list[str],
    sources: list[str],
    details: list[str],
    total_patients: int,
    total_events: int,
    shard_entries: list[dict],
    revision: int = 0,
    replication: int = 1,
    durable: bool = False,
) -> dict:
    """Write the root manifest tying the shards into one logical store.

    ``revision`` is a monotonic counter bumped by every delta append and
    compaction — worker processes compare it against their cached store
    to notice that a path's manifest moved under them.  ``replication``
    records how many replica copies every segment carries (1 = legacy
    flat layout).  ``durable`` fsyncs the manifest write (the commit
    point of append/compact).
    """
    manifest = {
        "format_version": SHARD_FORMAT_VERSION,
        "kind": "sharded_event_store",
        "partition": partition,
        "n_shards": len(shard_entries),
        "revision": int(revision),
        "replication": max(1, int(replication)),
        "system_names": list(system_names),
        "system_sizes": [int(s) for s in system_sizes],
        "categories": list(categories),
        "sources": list(sources),
        "details": list(details),
        "total_patients": int(total_patients),
        "total_events": int(total_events),
        "shards": shard_entries,
    }
    _write_json(os.path.join(directory, MANIFEST_NAME), manifest,
                durable=durable)
    return manifest


def read_store_manifest(directory: str) -> dict:
    """Read and validate the root manifest of a sharded store.

    Raises :class:`~repro.errors.ShardFormatError` on version or
    terminology-fingerprint mismatches — mirroring
    :func:`repro.io.load_store`, a store must fail loudly rather than
    mis-decode code ids against a drifted code system.
    """
    manifest = _read_json(os.path.join(directory, MANIFEST_NAME))
    if manifest.get("kind") != "sharded_event_store":
        raise ShardFormatError(
            directory,
            f"manifest kind {manifest.get('kind')!r} is not a sharded "
            f"event store",
        )
    if manifest.get("format_version") != SHARD_FORMAT_VERSION:
        raise ShardFormatError(
            directory,
            f"unsupported store format version "
            f"{manifest.get('format_version')!r}",
        )
    systems = default_systems()
    for name, size in zip(manifest["system_names"], manifest["system_sizes"]):
        if name not in systems:
            raise ShardFormatError(
                directory, f"store references unknown code system {name!r}"
            )
        if len(systems[name]) != size:
            raise ShardFormatError(
                directory,
                f"code system {name!r} has {len(systems[name])} codes but "
                f"the store was written against {size}; code ids would "
                f"mis-decode",
            )
    return manifest
