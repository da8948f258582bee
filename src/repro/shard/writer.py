"""Partition an :class:`EventStore` into on-disk shard segments.

Two partitioning schemes:

* ``"hash"`` — a patient's shard is a mixed hash of their id modulo the
  shard count.  Balanced whatever the id distribution, and *stable
  across batches*: the same patient always lands in the same shard, so
  an integration pipeline can stream batch stores into the writer and
  each shard accumulates exactly that patient's events.
* ``"range"`` — sorted patient ids are cut into N contiguous chunks.
  Keeps id locality (useful when cohorts correlate with id ranges) but
  needs the whole population up front, so it rejects streaming.

Shards share one set of string tables (written to the store-level
manifest): when batches arrive with diverging tables, ``finalize``
unions them in deterministic order and re-encodes each shard's integer
columns, so concatenating shard columns always decodes through a single
table.
"""

from __future__ import annotations

import os
from collections.abc import Iterable

import numpy as np

from repro.config import ShardConfig
from repro.errors import ShardFormatError
from repro.events.store import EventStore
from repro.events.store import merge_stores as _merge_pair
from repro.shard.format import write_replicated_segment, write_store_manifest

__all__ = ["ShardedStoreWriter", "hash_shard_of", "shard_dir_name",
           "subset_store", "write_sharded_store"]

_PARTITIONS = ("hash", "range")


def shard_dir_name(index: int) -> str:
    """The conventional directory name of shard ``index``."""
    return f"shard-{index:04d}"


def hash_shard_of(patient_ids: np.ndarray, n_shards: int) -> np.ndarray:
    """Shard index per patient id (splitmix-style avalanche, then mod).

    A raw ``pid % n`` would send sequentially-assigned ids from one
    registry extract into a round-robin that any stride in the id space
    defeats; mixing first makes the assignment insensitive to id
    structure while staying deterministic across processes and runs.
    """
    h = np.asarray(patient_ids, dtype=np.uint64).copy()
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(33)
    return (h % np.uint64(n_shards)).astype(np.int64)


def subset_store(store: EventStore, patient_ids: np.ndarray) -> EventStore:
    """A store holding only the given patients: :meth:`EventStore.rows`."""
    return store.rows(patient_ids)


def _remap_tables(shard: EventStore, categories, sources, details,
                  cat_map, src_map, det_map) -> EventStore:
    """Re-encode a shard's interned columns against the union tables."""
    return EventStore(
        systems=shard.systems,
        system_names=shard.system_names,
        categories=categories,
        sources=sources,
        details=details,
        patient=shard.patient,
        day=shard.day,
        end=shard.end,
        is_point=shard.is_point,
        category=cat_map[shard.category].astype(np.int16),
        system=shard.system,
        code=shard.code,
        value=shard.value,
        value2=shard.value2,
        source=src_map[shard.source].astype(np.int16),
        detail=det_map[shard.detail].astype(np.int32),
        patient_ids=shard.patient_ids,
        birth_days=shard.birth_days,
        sexes=shard.sexes,
    )


class ShardedStoreWriter:
    """Accumulates one or more stores and writes N shard segments.

    One-shot use::

        ShardedStoreWriter("cohort.shards", n_shards=8).write(store)

    Streaming use (e.g. per-batch stores out of an integration run)::

        writer = ShardedStoreWriter("cohort.shards", n_shards=8)
        for batch_store in batches:
            writer.add(batch_store)
        writer.finalize()
    """

    def __init__(
        self,
        out_dir: str,
        n_shards: int | None = None,
        partition: str | None = None,
        config: ShardConfig | None = None,
    ) -> None:
        self.config = config or ShardConfig()
        self.out_dir = out_dir
        self.n_shards = int(n_shards if n_shards is not None
                            else self.config.default_shards)
        self.partition = partition or self.config.partition
        self.replication = max(1, int(self.config.replication))
        if self.n_shards < 1:
            raise ShardFormatError(
                out_dir, f"n_shards must be >= 1, got {self.n_shards}"
            )
        if self.partition not in _PARTITIONS:
            raise ShardFormatError(
                out_dir,
                f"unknown partition {self.partition!r}; "
                f"choose one of {_PARTITIONS}",
            )
        self._pending: list[EventStore | None] = [None] * self.n_shards
        self._batches = 0

    # -- accumulation --------------------------------------------------------

    def _assignment(self, store: EventStore) -> np.ndarray:
        if self.partition == "hash":
            return hash_shard_of(store.patient_ids, self.n_shards)
        if self._batches:
            raise ShardFormatError(
                self.out_dir,
                "range partitioning needs the whole population in one "
                "store; stream with partition='hash' instead",
            )
        assignment = np.empty(store.n_patients, dtype=np.int64)
        offset = 0
        for index, chunk in enumerate(
            np.array_split(np.arange(store.n_patients), self.n_shards)
        ):
            assignment[offset:offset + len(chunk)] = index
            offset += len(chunk)
        return assignment

    def add(self, store: EventStore) -> "ShardedStoreWriter":
        """Fold one store's patients and events into the pending shards."""
        assignment = self._assignment(store)
        for index in range(self.n_shards):
            pids = store.patient_ids[assignment == index]
            if not len(pids) and self._pending[index] is not None:
                continue
            piece = store.rows(pids)
            pending = self._pending[index]
            self._pending[index] = (
                piece if pending is None else _merge_pair(pending, piece)
            )
        self._batches += 1
        return self

    # -- output --------------------------------------------------------------

    def finalize(self) -> dict:
        """Write every shard segment plus the root manifest."""
        if not self._batches:
            raise ShardFormatError(self.out_dir, "no stores were added")
        shards = [s for s in self._pending if s is not None]
        template = shards[0]
        categories, sources, details = (
            list(template.categories), list(template.sources),
            list(template.details),
        )
        for shard in shards[1:]:
            for union, own in ((categories, shard.categories),
                               (sources, shard.sources),
                               (details, shard.details)):
                known = set(union)
                union.extend(v for v in own if v not in known)

        def mapping(union: list[str], own: list[str]) -> np.ndarray:
            index = {v: i for i, v in enumerate(union)}
            return np.asarray([index[v] for v in own], dtype=np.int64)

        os.makedirs(self.out_dir, exist_ok=True)
        entries: list[dict] = []
        total_patients = total_events = 0
        for index in range(self.n_shards):
            shard = self._pending[index]
            if shard is None:
                shard = template.rows(())  # zero patients, same tables
            if (shard.categories != categories or shard.sources != sources
                    or shard.details != details):
                shard = _remap_tables(
                    shard, categories, sources, details,
                    mapping(categories, shard.categories),
                    mapping(sources, shard.sources),
                    mapping(details, shard.details),
                )
            name = shard_dir_name(index)
            manifest = write_replicated_segment(
                shard, os.path.join(self.out_dir, name), index,
                replication=self.replication,
            )
            entries.append({
                "name": name,
                "n_patients": manifest["n_patients"],
                "n_events": manifest["n_events"],
                "patient_min": manifest["patient_min"],
                "patient_max": manifest["patient_max"],
                "content_token": manifest["content_token"],
            })
            total_patients += manifest["n_patients"]
            total_events += manifest["n_events"]
        return write_store_manifest(
            self.out_dir,
            partition=self.partition,
            system_names=list(template.system_names),
            system_sizes=[len(template.systems[n])
                          for n in template.system_names],
            categories=categories,
            sources=sources,
            details=details,
            total_patients=total_patients,
            total_events=total_events,
            shard_entries=entries,
            replication=self.replication,
        )

    def write(self, store: EventStore) -> dict:
        """One-shot: partition a single store and write everything."""
        return self.add(store).finalize()


def write_sharded_store(
    store_or_stores: EventStore | Iterable[EventStore],
    out_dir: str,
    n_shards: int | None = None,
    partition: str | None = None,
    config: ShardConfig | None = None,
) -> dict:
    """Write a sharded store from one store or a stream of batch stores.

    Returns the root manifest.  An iterable input (e.g. per-batch stores
    from an integration pipeline) requires hash partitioning so every
    patient's batches land in the same shard.
    """
    writer = ShardedStoreWriter(out_dir, n_shards=n_shards,
                                partition=partition, config=config)
    if isinstance(store_or_stores, EventStore):
        return writer.write(store_or_stores)
    for store in store_or_stores:
        writer.add(store)
    return writer.finalize()
