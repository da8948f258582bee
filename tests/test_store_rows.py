"""One store protocol: ``rows(patient_ids)`` on flat and sharded stores.

Every whole-cohort consumer (statistics, density overview, alignment,
pattern search, the recognition study, plug-in views) receives a flat
store from ``store.rows(ids)``.  A workbench over a sharded store — with
and without pending delta segments — must answer each of them exactly
like one over the flat store, and the serving routes must do so without
merging every shard's rows (``row_materializations`` stays 0).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ShardConfig
from repro.query.ast import Category, Concept
from repro.query.temporal_patterns import PatternStep, TemporalPattern
from repro.resilience.faults import ShardFaultPlan, apply_shard_faults
from repro.serving.core import Request, RequestCore
from repro.shard import DeltaWriter, ShardedEventStore, write_sharded_store
from repro.simulate.fast import generate_store_fast
from repro.workbench import Workbench

QUERY = "concept T90 or atleast 8 category gp_contact"


@pytest.fixture(scope="module")
def flat():
    store, __ = generate_store_fast(240, seed=5)
    return store


@pytest.fixture(scope="module")
def flat_wb(flat):
    return Workbench(flat)


def _sharded(flat, root, n_shards: int, n_deltas: int,
             config: ShardConfig | None = None) -> ShardedEventStore:
    """``flat`` as a sharded store; with a delta, the last 40 patients
    arrive as one pending delta segment instead of in the base."""
    pids = flat.patient_ids
    cut = len(pids) - 40 if n_deltas else len(pids)
    write_sharded_store(flat.rows(pids[:cut]), root, n_shards=n_shards)
    if n_deltas:
        DeltaWriter(root).append(flat.rows(pids[cut:]))
    sharded = ShardedEventStore(root, config=config
                                or ShardConfig(n_workers=1))
    assert sharded.has_pending_deltas == bool(n_deltas)
    return sharded


def _assert_same_rows(got, expected):
    # Rows sharing a (patient, day) key may come back in another order
    # from a delta-resolved shard, so compare contents, then the sort.
    assert got.content_equal(expected)
    assert np.array_equal(got.patient_ids, expected.patient_ids)
    assert np.array_equal(got.patient, expected.patient)
    assert np.array_equal(got.day, expected.day)


class TestFlatRows:
    def test_none_is_the_store_itself(self, flat):
        assert flat.rows() is flat

    def test_subset_matches_patient_mask(self, flat):
        ids = flat.patient_ids[3::7]
        sub = flat.rows(ids[::-1].tolist() + [int(ids[0]), 10**9])
        mask = flat.mask_patients(ids.tolist())
        assert np.array_equal(sub.patient_ids, ids)
        assert np.array_equal(sub.patient, flat.patient[mask])
        assert np.array_equal(sub.day, flat.day[mask])
        assert sub.materialize(int(ids[2])) == flat.materialize(int(ids[2]))

    def test_empty_selection(self, flat):
        sub = flat.rows([])
        assert sub.n_patients == 0 and sub.n_events == 0
        assert sub.categories is flat.categories


@pytest.mark.parametrize("n_deltas", [0, 1])
@pytest.mark.parametrize("n_shards", [1, 2, 7])
def test_workbench_sharded_equals_flat(flat, flat_wb, tmp_path, n_shards,
                                       n_deltas):
    sharded = _sharded(flat, str(tmp_path / "s.shards"), n_shards, n_deltas)
    wb = Workbench(sharded)
    ids = flat_wb.select(QUERY)
    assert np.array_equal(wb.select(QUERY), ids)
    assert 10 < len(ids) < flat.n_patients

    _assert_same_rows(sharded.rows(ids), flat.rows(ids))
    assert wb.stats(ids) == flat_wb.stats(ids)
    assert wb.stats([]) == flat_wb.stats([])
    assert wb.overview(ids).svg_text == flat_wb.overview(ids).svg_text
    drawn = ids[:60]
    expected = {p: a for p, a in flat_wb.align(Concept("T90")).anchors.items()
                if p in set(drawn.tolist())}
    assert wb.align(Concept("T90"), patient_ids=drawn).anchors == expected
    assert flat_wb.align(Concept("T90"), patient_ids=drawn).anchors == expected
    day = int(flat.day.max())
    assert wb.recognition_study(ids, day, seed=3) \
        == flat_wb.recognition_study(ids, day, seed=3)
    assert wb.render_view("density", ids).svg_text \
        == flat_wb.render_view("density", ids).svg_text
    assert "plan for:" in wb.explain(QUERY)
    # Everything above took cohort rows only.
    assert sharded.counters["row_materializations"] == 0

    # Whole-store calls are the explicit, counted merge.
    assert wb.stats() == flat_wb.stats()
    pattern = TemporalPattern(
        steps=(PatternStep(Concept("T90")),
               PatternStep(Category("gp_contact"))),
        min_gap=1,
    )
    assert wb.find_patterns(pattern) == flat_wb.find_patterns(pattern)
    assert sharded.counters["row_materializations"] == 1


def test_flat_whole_store_calls_reuse_the_engine(flat_wb):
    assert flat_wb._rows_engine() is flat_wb.engine
    assert flat_wb._rows_engine([1, 2]) is not flat_wb.engine


def test_serving_routes_merge_no_rows(flat, tmp_path):
    sharded = _sharded(flat, str(tmp_path / "r.shards"), 4, 1)
    wb = Workbench(sharded)
    core = RequestCore(wb)
    patient = int(wb.select("concept T90")[0])
    for target in (
        "/cohort?q=concept%20T90",
        "/timeline.svg?q=concept%20T90&rows=60",
        "/timeline.svg?rows=60",
        "/timeline.svg?align=T90",
        "/overview.svg?q=sex%20F",
        f"/patient/{patient}",
        "/cohort/density",
        "/cohort/density?q=concept%20T90",
        "/cohort/flow",
    ):
        response = core.handle(Request.from_target(target))
        assert response.status == 200, (target, response.body[:200])
        assert sharded.counters["row_materializations"] == 0, target
    wb.engine.explain(Concept("T90"))
    assert sharded.counters["row_materializations"] == 0


def test_fully_quarantined_store_serves_empty_pages(flat, tmp_path):
    root = str(tmp_path / "q.shards")
    write_sharded_store(flat, root, n_shards=2)
    assert len(apply_shard_faults(root, ShardFaultPlan(seed=3,
                                                       flip_bytes=2))) == 2
    sharded = ShardedEventStore(
        root, config=ShardConfig(on_damage="quarantine", n_workers=1))
    assert sharded.n_active_shards == 0
    core = RequestCore(Workbench(sharded))
    index = core.handle(Request.from_target("/"))
    assert index.status == 200
    assert b"patients                            0" in index.body
    cohort = core.handle(Request.from_target("/cohort?q=sex%20F"))
    assert cohort.status == 200
    assert b"0 patients match" in cohort.body
    assert core.handle(Request.from_target("/cohort/density")).status == 200
