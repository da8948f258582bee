"""The mergeable cohort-sketch model.

A :class:`CohortSketch` is a small bundle of count arrays summarizing a
set of patients and their events:

* ``density[bucket, group, category]`` — event counts binned by time
  bucket × code chapter × event category;
* ``flow[src, dst]`` / ``flow_starts[group]`` — transition counts
  between chapters over each patient's first-k coded events
  (ParcoursVis-style pathway aggregation);
* ``bucket_patients`` / ``group_patients`` — exact distinct-patient
  cardinalities per time bucket and per chapter;
* ``age_sex[band, sex]`` — cohort demographics marginals.

Sketches are **associative**: :func:`merge_sketches` of two sketches
built from patient-disjoint stores equals the sketch of their union, so
a sharded store (shards partition patients) folds per-shard sidecars
into exact whole-store answers without materializing a single row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SketchError
from repro.sketch.chapters import ChapterIndex, build_chapter_index

__all__ = [
    "CohortSketch",
    "SketchSpec",
    "build_sketch",
    "empty_sketch",
    "merge_sketches",
]


@dataclass(frozen=True)
class SketchSpec:
    """Binning parameters; merging requires identical specs.

    Attributes:
        bucket_days: time-bucket width in days (30 ≈ monthly).
        first_k: pathway length — transitions among each patient's
            first ``first_k`` coded events are counted.
        age_band_years: width of each age band.
        n_age_bands: number of age bands (the last is open-ended).
    """

    bucket_days: int = 30
    first_k: int = 8
    age_band_years: int = 10
    n_age_bands: int = 11

    def to_json(self) -> dict:
        return {
            "bucket_days": self.bucket_days,
            "first_k": self.first_k,
            "age_band_years": self.age_band_years,
            "n_age_bands": self.n_age_bands,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SketchSpec":
        return cls(**{k: int(v) for k, v in payload.items()})


@dataclass(frozen=True)
class CohortSketch:
    """Pre-aggregated cohort counts (see module docstring).

    Attributes:
        spec: binning parameters.
        groups: chapter labels for the group axes (index 0 = uncoded).
        categories: category labels for the category axis.
        bucket_lo: absolute index of the first time bucket
            (``day // spec.bucket_days``); buckets are contiguous.
        density: int64 ``[n_buckets, n_groups, n_categories]``.
        flow: int64 ``[n_groups, n_groups]`` transition counts.
        flow_starts: int64 ``[n_groups]`` first-coded-event counts.
        bucket_patients: int64 ``[n_buckets]`` distinct patients.
        group_patients: int64 ``[n_groups]`` distinct patients.
        age_sex: int64 ``[n_age_bands, 3]`` patients by band × sex
            (columns: unknown, female, male).
        n_patients: distinct patients covered.
        n_events: events covered.
    """

    spec: SketchSpec
    groups: tuple[str, ...]
    categories: tuple[str, ...]
    bucket_lo: int
    density: np.ndarray
    flow: np.ndarray
    flow_starts: np.ndarray
    bucket_patients: np.ndarray
    group_patients: np.ndarray
    age_sex: np.ndarray
    n_patients: int
    n_events: int

    @property
    def n_buckets(self) -> int:
        return int(self.density.shape[0])

    # -- algebra -----------------------------------------------------------

    def merge(self, other: "CohortSketch") -> "CohortSketch":
        """The sketch of the union of two patient-disjoint cohorts."""
        return _combine(self, other, sign=1)

    def subtract(self, other: "CohortSketch") -> "CohortSketch":
        """Remove a sub-cohort's exact contribution (delta algebra)."""
        return _combine(self, other, sign=-1)

    def content_equal(self, other: "CohortSketch") -> bool:
        """True when both sketches describe the same counts.

        Axis order and zero-padding are not significant: both sides are
        projected onto the union of their axes before comparing.
        """
        if self.spec != other.spec:
            return False
        if (self.n_patients, self.n_events) != (
            other.n_patients,
            other.n_events,
        ):
            return False
        groups, categories, lo, n_buckets = _union_axes(self, other)
        left = _project(self, groups, categories, lo, n_buckets)
        right = _project(other, groups, categories, lo, n_buckets)
        return all(
            np.array_equal(left[name], right[name]) for name in _ARRAYS
        )

    # -- summaries ---------------------------------------------------------

    def nonzero_buckets(self) -> int:
        """Number of time buckets with at least one event."""
        if not self.n_buckets:
            return 0
        return int(np.count_nonzero(self.density.sum(axis=(1, 2))))

    def top_transitions(self, limit: int = 10) -> list[dict]:
        """The heaviest chapter→chapter transitions, descending."""
        flat = self.flow.ravel()
        order = np.argsort(flat, kind="stable")[::-1]
        out = []
        n_groups = len(self.groups)
        for pos in order[:limit]:
            count = int(flat[pos])
            if count <= 0:
                break
            src, dst = divmod(int(pos), n_groups)
            out.append(
                {
                    "from": self.groups[src],
                    "to": self.groups[dst],
                    "count": count,
                }
            )
        return out

    def summary(self) -> dict:
        """A compact JSON-safe description (CLI / serving payloads)."""
        per_group = self.density.sum(axis=(0, 2)) if self.n_buckets else (
            np.zeros(len(self.groups), dtype=np.int64)
        )
        return {
            "n_patients": int(self.n_patients),
            "n_events": int(self.n_events),
            "spec": self.spec.to_json(),
            "bucket_lo": int(self.bucket_lo),
            "n_buckets": self.n_buckets,
            "nonzero_buckets": self.nonzero_buckets(),
            "groups": list(self.groups),
            "categories": list(self.categories),
            "events_per_group": [int(v) for v in per_group],
            "patients_per_group": [int(v) for v in self.group_patients],
            "top_transitions": self.top_transitions(),
            "age_sex": [[int(v) for v in row] for row in self.age_sex],
        }


#: Array fields combined by the merge/subtract/equality algebra.
_ARRAYS = (
    "density",
    "flow",
    "flow_starts",
    "bucket_patients",
    "group_patients",
    "age_sex",
)


def empty_sketch(
    spec: SketchSpec | None = None,
    groups: tuple[str, ...] = (),
    categories: tuple[str, ...] = (),
) -> CohortSketch:
    """The identity element for :func:`merge_sketches`."""
    spec = spec or SketchSpec()
    n_groups, n_categories = len(groups), len(categories)
    return CohortSketch(
        spec=spec,
        groups=tuple(groups),
        categories=tuple(categories),
        bucket_lo=0,
        density=np.zeros((0, n_groups, n_categories), dtype=np.int64),
        flow=np.zeros((n_groups, n_groups), dtype=np.int64),
        flow_starts=np.zeros(n_groups, dtype=np.int64),
        bucket_patients=np.zeros(0, dtype=np.int64),
        group_patients=np.zeros(n_groups, dtype=np.int64),
        age_sex=np.zeros((spec.n_age_bands, 3), dtype=np.int64),
        n_patients=0,
        n_events=0,
    )


def merge_sketches(sketches) -> CohortSketch:
    """Left-fold :meth:`CohortSketch.merge` over an iterable."""
    result: CohortSketch | None = None
    for sketch in sketches:
        result = sketch if result is None else result.merge(sketch)
    return empty_sketch() if result is None else result


# -- merge internals --------------------------------------------------------


def _axis_union(left: tuple, right: tuple) -> tuple:
    """Order-preserving union (associative: left labels, then new ones)."""
    seen = frozenset(left)
    return left + tuple(label for label in right if label not in seen)


def _union_axes(a: CohortSketch, b: CohortSketch):
    groups = _axis_union(a.groups, b.groups)
    categories = _axis_union(a.categories, b.categories)
    if a.n_buckets == 0:
        lo, n_buckets = b.bucket_lo, b.n_buckets
    elif b.n_buckets == 0:
        lo, n_buckets = a.bucket_lo, a.n_buckets
    else:
        lo = min(a.bucket_lo, b.bucket_lo)
        hi = max(a.bucket_lo + a.n_buckets, b.bucket_lo + b.n_buckets)
        n_buckets = hi - lo
    return groups, categories, lo, n_buckets


def _project(
    sketch: CohortSketch,
    groups: tuple[str, ...],
    categories: tuple[str, ...],
    lo: int,
    n_buckets: int,
) -> dict[str, np.ndarray]:
    """Scatter a sketch's arrays onto wider (union) axes."""
    group_idx = np.array(
        [groups.index(label) for label in sketch.groups], dtype=np.intp
    )
    cat_idx = np.array(
        [categories.index(label) for label in sketch.categories],
        dtype=np.intp,
    )
    n_groups, n_categories = len(groups), len(categories)
    out = {
        "density": np.zeros(
            (n_buckets, n_groups, n_categories), dtype=np.int64
        ),
        "flow": np.zeros((n_groups, n_groups), dtype=np.int64),
        "flow_starts": np.zeros(n_groups, dtype=np.int64),
        "bucket_patients": np.zeros(n_buckets, dtype=np.int64),
        "group_patients": np.zeros(n_groups, dtype=np.int64),
        "age_sex": sketch.age_sex.copy(),
    }
    if sketch.n_buckets:
        offset = sketch.bucket_lo - lo
        buckets = np.arange(offset, offset + sketch.n_buckets, dtype=np.intp)
        out["density"][np.ix_(buckets, group_idx, cat_idx)] = sketch.density
        out["bucket_patients"][buckets] = sketch.bucket_patients
    if len(sketch.groups):
        out["flow"][np.ix_(group_idx, group_idx)] = sketch.flow
        out["flow_starts"][group_idx] = sketch.flow_starts
        out["group_patients"][group_idx] = sketch.group_patients
    return out


def _combine(a: CohortSketch, b: CohortSketch, sign: int) -> CohortSketch:
    if a.spec != b.spec:
        raise SketchError(
            "spec", f"cannot combine sketches with specs {a.spec} != {b.spec}"
        )
    groups, categories, lo, n_buckets = _union_axes(a, b)
    left = _project(a, groups, categories, lo, n_buckets)
    right = _project(b, groups, categories, lo, n_buckets)
    combined = {
        name: left[name] + sign * right[name] for name in _ARRAYS
    }
    return CohortSketch(
        spec=a.spec,
        groups=groups,
        categories=categories,
        bucket_lo=lo,
        n_patients=a.n_patients + sign * b.n_patients,
        n_events=a.n_events + sign * b.n_events,
        **combined,
    )


# -- construction -----------------------------------------------------------


def build_sketch(
    store,
    spec: SketchSpec | None = None,
    chapters: ChapterIndex | None = None,
) -> CohortSketch:
    """Compute the exact sketch of an :class:`~repro.events.store.EventStore`.

    Works on any store (flat, shard segment, resolved shard view,
    ``rows()`` subset); cost is one vectorized pass over the rows.
    """
    spec = spec or SketchSpec()
    if chapters is None:
        chapters = build_chapter_index(store.system_names, store.systems)
    groups = chapters.labels
    categories = tuple(store.categories)
    n_groups, n_categories = len(groups), len(categories)

    patient = np.asarray(store.patient)
    day = np.asarray(store.day)
    system = np.asarray(store.system)
    code = np.asarray(store.code)
    category = np.asarray(store.category).astype(np.int64)
    n_rows = len(patient)
    if n_rows:
        # Canonicalize row order by the full event-identity key (the
        # same columns LWW dedup keys on).  Same-day events have no
        # inherent order, and delta resolution may permute them — tying
        # the pathway flow to identity order makes the sketch a pure
        # function of the row *multiset*, which the merge/subtract
        # algebra (and differential tests) rely on.
        order = np.lexsort((
            np.asarray(store.source), code, system, category,
            np.asarray(store.is_point), np.asarray(store.end),
            day, patient,
        ))
        patient, day = patient[order], day[order]
        system, code, category = system[order], code[order], category[order]

    group = chapters.groups_of(system, code)

    if n_rows:
        bucket = np.floor_divide(day.astype(np.int64), spec.bucket_days)
        bucket_lo = int(bucket.min())
        n_buckets = int(bucket.max()) - bucket_lo + 1
    else:
        bucket = np.zeros(0, dtype=np.int64)
        bucket_lo, n_buckets = 0, 0

    density = np.zeros((n_buckets, n_groups, n_categories), dtype=np.int64)
    flow = np.zeros((n_groups, n_groups), dtype=np.int64)
    flow_starts = np.zeros(n_groups, dtype=np.int64)
    bucket_patients = np.zeros(n_buckets, dtype=np.int64)
    group_patients = np.zeros(n_groups, dtype=np.int64)
    age_sex = np.zeros((spec.n_age_bands, 3), dtype=np.int64)

    if n_rows:
        np.add.at(density, (bucket - bucket_lo, group, category), 1)

        # Distinct patients per bucket: rows are patient-grouped and
        # day-sorted within a patient, so (patient, bucket) runs are
        # contiguous — a change-point scan is an exact distinct count.
        fresh = np.empty(n_rows, dtype=bool)
        fresh[0] = True
        fresh[1:] = (patient[1:] != patient[:-1]) | (bucket[1:] != bucket[:-1])
        np.add.at(bucket_patients, bucket[fresh] - bucket_lo, 1)

        # Distinct patients per group (groups are unordered within a
        # patient, so go through dense ids).
        __, dense = np.unique(patient, return_inverse=True)
        pairs = np.unique(dense.astype(np.int64) * n_groups + group)
        group_patients += np.bincount(
            (pairs % n_groups).astype(np.intp), minlength=n_groups
        )

        # Pathway flow over each patient's first-k coded events.
        coded = (system >= 0) & (code >= 0)
        coded_patient = patient[coded]
        coded_group = group[coded]
        n_coded = len(coded_patient)
        if n_coded:
            first = np.empty(n_coded, dtype=bool)
            first[0] = True
            first[1:] = coded_patient[1:] != coded_patient[:-1]
            positions = np.arange(n_coded)
            run_id = np.cumsum(first) - 1
            rank = positions - positions[first][run_id]
            flow_starts += np.bincount(
                coded_group[rank == 0].astype(np.intp), minlength=n_groups
            )
            pair = (~first[1:]) & (rank[1:] < spec.first_k)
            np.add.at(
                flow, (coded_group[:-1][pair], coded_group[1:][pair]), 1
            )

    # Demographics marginal: age band at the patient's first event
    # (day 0 for event-less patients) × sex.
    patient_ids = np.asarray(store.patient_ids)
    birth_days = np.asarray(store.birth_days).astype(np.int64)
    sexes = np.asarray(store.sexes).astype(np.int64)
    first_day = np.zeros(len(patient_ids), dtype=np.int64)
    if n_rows and len(patient_ids):
        head = np.empty(n_rows, dtype=bool)
        head[0] = True
        head[1:] = patient[1:] != patient[:-1]
        order = np.argsort(patient_ids, kind="stable")
        slot = order[
            np.searchsorted(patient_ids[order], patient[head])
        ]
        first_day[slot] = day[head].astype(np.int64)
    if len(patient_ids):
        age_years = np.floor_divide(first_day - birth_days, 365)
        band = np.clip(
            np.floor_divide(age_years, spec.age_band_years),
            0,
            spec.n_age_bands - 1,
        )
        np.add.at(age_sex, (band, np.clip(sexes, 0, 2)), 1)

    return CohortSketch(
        spec=spec,
        groups=groups,
        categories=categories,
        bucket_lo=bucket_lo,
        density=density,
        flow=flow,
        flow_starts=flow_starts,
        bucket_patients=bucket_patients,
        group_patients=group_patients,
        age_sex=age_sex,
        n_patients=int(len(patient_ids)),
        n_events=int(n_rows),
    )
