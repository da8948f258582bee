"""Exact sketch folding across segments, deltas and shards.

Shards partition patients, so whole-store sketches are a pure fold of
per-shard sketches.  *Within* a shard, pending ``delta-NNNNNN`` segments
overlap the base through last-write-wins dedup, so a plain sum would
double count contested patients.  The algebra here keeps the fold exact
without re-reading untouched rows:

    effective = Σ segment sidecars
              − Σ sketch(segmentᵢ restricted to contested patients)
              + sketch(LWW-resolve of the contested restrictions)

where the contested set is the patients present in more than one
segment — precisely the set :func:`repro.shard.delta.resolve_segments`
dedups.  Everything else is patient-disjoint and therefore additive.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.model import (
    CohortSketch,
    SketchSpec,
    build_sketch,
    merge_sketches,
)

__all__ = ["contested_patient_ids", "effective_sketch"]


def contested_patient_ids(stores) -> np.ndarray:
    """Patient ids present in more than one of ``stores`` (sorted)."""
    ids = [np.asarray(store.patient_ids) for store in stores]
    if not ids:
        return np.zeros(0, dtype=np.int64)
    merged = np.concatenate(ids)
    unique, counts = np.unique(merged, return_counts=True)
    return unique[counts > 1]


def effective_sketch(
    base_store,
    delta_stores,
    segment_sketches,
    spec: SketchSpec | None = None,
) -> CohortSketch:
    """The exact sketch of ``resolve_segments(base, deltas)``.

    Args:
        base_store: the opened base segment.
        delta_stores: opened delta segments, oldest first.
        segment_sketches: one sketch per segment (base first), as loaded
            from sidecars or rebuilt from rows.
        spec: binning parameters (must match the sketches).
    """
    from repro.shard.delta import resolve_segments

    spec = spec or SketchSpec()
    stores = [base_store, *delta_stores]
    total = merge_sketches(segment_sketches)
    if not delta_stores:
        return total

    contested = contested_patient_ids(stores)
    if not len(contested):
        # Patient-disjoint segments: the sidecar sum is already exact.
        return total

    restricted = [store.rows(contested) for store in stores]
    for piece in restricted:
        total = total.subtract(build_sketch(piece, spec=spec))
    resolved = resolve_segments(restricted[0], restricted[1:])
    return total.merge(build_sketch(resolved, spec=spec))
