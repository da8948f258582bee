"""Seeded inputs for the workbench benchmark: population, queries, oracle.

Everything here is a pure function of ``(n_patients, seed)``: the same
seed gives the same population, the same query stream and the same
expected answers.  The program under test only ever sees the generated
store and the HTTP requests built from these queries.

The oracle is the naive flat evaluator (``QueryEngine(store,
optimize=False)``): no planner, no cache, no shards.  Every query the
generator emits passes static analysis without an error, and a patient
with events is among the rows its timeline draws (``/timeline.svg``
answers 400 when every drawn history is empty, as on an empty cohort),
so no request of a correct program fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from urllib.parse import quote

import numpy as np

from repro.query.engine import QueryEngine
from repro.query.parser import parse_query
from repro.query.planner import plan_query
from repro.simulate.fast import generate_store_fast

#: Spelling of the code systems in the query language.
_SYSTEM_WORDS = {"ICPC-2": "icpc2", "ICD-10": "icd10", "ATC": "atc"}

#: Rows of every timeline request: the first this many of the cohort.
TIMELINE_ROWS = 60

#: Kept out of every generated stream; setup warms workers with it.
WARMUP_QUERY = "sex M and atleast 3 category hospital_stay"

#: Cohort-size bands as shares of the population, from 0.125% to 4%,
#: each (but the rarer first) twice as wide as the one before.  A
#: query's cost grows with its cohort, so a stream cycles through the
#: bands in a fixed order and every run sees the same mix of small,
#: medium and large cohorts.  Larger cohorts (the paper's 13,000 of
#: 168,000 is 7.7%) would cost the 200 samples a run needs more time
#: than the benchmark's budget allows on two cores.
BANDS = ((0.00125, 0.005), (0.005, 0.01), (0.01, 0.02), (0.02, 0.04))

#: A timeline's cost follows the events of the rows it draws, not only
#: the cohort's size: between queries of one band it varies four-fold,
#: and the slowest timelines alone make an ``explore_*`` run's p95.  The
#: grammar's cohorts fall into two kinds of rows: light ones near the
#: population's mean events per patient and heavy ones (chronic
#: patients) at three to four times it, with few between.  So
#: :meth:`QueryGenerator.take` cycles through fixed pairs of a band and
#: a timeline weight (mean events of the drawn rows over the
#: population's mean), each weight held within ``WEIGHT_TOLERANCE``:
#: every run draws each band with light and with heavy rows equally
#: often, whatever its seed, and half its timelines are heavy, so its
#: p95 falls inside one kind of timeline rather than between them.
LIGHT, HEAVY = 1.5, 3.75
SESSION_MIX = ((0, HEAVY), (1, LIGHT), (2, HEAVY), (3, LIGHT),
               (0, LIGHT), (1, HEAVY), (2, LIGHT), (3, HEAVY))
WEIGHT_TOLERANCE = 0.75
#: Draws one ``next(band, weight)`` makes before it settles for the
#: band's nearest weight: a pair a population hardly holds must not
#: stall the stream (the draw count, like everything here, follows from
#: the seed).
PATIENCE = 400


@dataclass(frozen=True)
class Query:
    """One generated query and its oracle answer."""

    text: str
    key: str               # canonical plan key (two spellings, one key)
    patient_ids: np.ndarray  # oracle cohort, sorted
    page_ids: np.ndarray     # the cohort's patients that have events

    @property
    def count(self) -> int:
        return int(len(self.patient_ids))

    @property
    def quoted(self) -> str:
        return quote(self.text)


def population(n_patients: int, seed: int):
    """The benchmark population: ``generate_store_fast(n, seed)``."""
    store, _summary = generate_store_fast(n_patients, seed=seed)
    return store


class QueryGenerator:
    """A seeded grammar over the codes and categories present in a store.

    ``next(band)`` returns a fresh :class:`Query` whose plan key was
    never returned before, whose cohort size falls in ``BANDS[band]``
    (so it is never empty), whose timeline rows hold a patient with
    events, and which static analysis accepts; ``next(band, weight)``
    also holds its timeline weight within ``WEIGHT_TOLERANCE`` of
    ``weight``.  Queries drawn for one band or weight but landing in
    another wait in that band's backlog.
    """

    def __init__(self, store, seed: int) -> None:
        self.store = store
        self.rng = random.Random(seed * 7919 + 17)
        n = store.n_patients
        self.limits = [(max(1, int(lo * n)), max(2, int(hi * n)))
                       for lo, hi in BANDS]
        self.backlog: list[list[tuple]] = [[] for _ in BANDS]
        self.drawn = 0
        self.oracle = QueryEngine(store, optimize=False)
        self.sizer = QueryEngine(store)
        self.seen = {plan_query(parse_query(WARMUP_QUERY)).key}
        self.codes = self._codes_present(store)
        self.categories = list(store.categories)
        self.sources = list(store.sources)
        # A patient without events has no personal timeline (400).
        self.with_events = np.unique(store.patient)
        self.events = np.bincount(store.patient,
                                  minlength=int(store.patient_ids.max()) + 1)
        self.mean_events = store.n_events / store.n_patients
        self.first_day = int(store.day.min())
        self.last_day = int(store.day.max())

    @staticmethod
    def _codes_present(store) -> dict[str, list[str]]:
        valid = (store.system >= 0) & (store.code >= 0)
        width = int(store.code.max()) + 1
        keys = np.unique(store.system[valid].astype(np.int64) * width
                         + store.code[valid])
        codes: dict[str, list[str]] = {}
        for key in keys.tolist():
            name = store.system_names[key // width]
            codes.setdefault(name, []).append(
                store.systems[name].code_of(key % width).code
            )
        return {name: sorted(found) for name, found in codes.items()}

    # -- grammar -------------------------------------------------------------

    def _code_atom(self) -> str:
        system = self.rng.choice(sorted(self.codes))
        code = self.rng.choice(self.codes[system])
        if self.rng.random() < 0.3 and len(code) >= 3:
            pattern = code[:2] + "." * (len(code) - 2)
        else:
            pattern = code
        return f"code {_SYSTEM_WORDS[system]} /{pattern}/"

    def _event_atom(self) -> str:
        roll = self.rng.random()
        if roll < 0.45:
            return self._code_atom()
        if roll < 0.8:
            return f"category {self.rng.choice(self.categories)}"
        return f"source {self.rng.choice(self.sources)}"

    def _atom(self) -> str:
        roll = self.rng.random()
        if roll < 0.25 and "ICPC-2" in self.codes:
            return f"concept {self.rng.choice(self.codes['ICPC-2'])}"
        if roll < 0.45:
            return self._event_atom()
        if roll < 0.65:
            return f"atleast {self.rng.randint(2, 6)} {self._event_atom()}"
        if roll < 0.75:
            return f"sex {self.rng.choice('FM')}"
        if roll < 0.85:
            low = self.rng.randint(18, 80)
            day = self.rng.randint(self.first_day, self.last_day)
            return f"age {low} .. {low + self.rng.randint(5, 30)} at {day}"
        start = self.rng.randint(self.first_day, self.last_day - 30)
        end = min(self.last_day, start + self.rng.randint(30, 365))
        return f"during {start} .. {end} {self._event_atom()}"

    def _text(self, n_atoms: int) -> str:
        atoms = [self._atom() for _ in range(n_atoms)]
        text = atoms[0]
        for atom in atoms[1:]:
            roll = self.rng.random()
            if roll < 0.75:
                text = f"{text} and {atom}"
            elif roll < 0.9:
                text = f"{text} and not {atom}"
            else:
                text = f"({text}) or {atom}"
        return text

    # -- emission ------------------------------------------------------------

    def next(self, band: int, weight: float | None = None) -> Query:
        backlog = self.backlog[band]
        patience = PATIENCE
        while True:
            fitting = [entry for entry in backlog if weight is None
                       or abs(entry[0] - weight) < WEIGHT_TOLERANCE]
            if not fitting and patience == 0 and backlog:
                # The pair is rare in this population: settle for the
                # band's nearest weight rather than draw on.
                fitting = [min(backlog,
                               key=lambda entry: abs(entry[0] - weight))]
            if not fitting:
                patience = max(0, patience - 1)
                # Fewer atoms, larger cohorts: aim the draw at the band.
                drawn = self._draw(3 - band * 3 // len(BANDS))
                if drawn is not None:
                    self.backlog[drawn[0]].append(drawn[1:])
                continue
            backlog.remove(fitting[0])
            _weight, text, key, expr = fitting[0]
            query = self._query(text, key, expr)
            if query is not None:
                return query

    def _draw(self, n_atoms: int) -> tuple | None:
        """``(band, weight, text, key, expr)`` of one fresh query that
        static analysis accepts and whose cohort falls in a band, or None.

        The planned engine sizes the candidate, so only a query that is
        actually emitted pays for the naive oracle.
        """
        self.drawn += 1
        text = self._text(n_atoms)
        expr = parse_query(text)
        key = plan_query(expr).key
        if key in self.seen:
            return None
        self.seen.add(key)
        if any(d.severity == "error" for d in self.oracle.analyze(expr)):
            return None
        ids = np.sort(np.asarray(self.sizer.patients(expr), dtype=np.int64))
        for band, (lo, hi) in enumerate(self.limits):
            if lo <= len(ids) < hi:
                return band, self.weight(ids), text, key, expr
        return None

    def weight(self, ids: np.ndarray) -> float:
        """Timeline weight of the cohort ``ids`` (sorted): mean events of
        the rows its timeline draws, over the population's mean."""
        rows = ids[:TIMELINE_ROWS]
        return float(self.events[rows].mean()) / self.mean_events

    def _query(self, text: str, key: str, expr) -> Query | None:
        ids = np.asarray(self.oracle.patients(expr), dtype=np.int64)
        if not np.isin(ids[:TIMELINE_ROWS], self.with_events).any():
            return None
        pages = ids[np.isin(ids, self.with_events)]
        return Query(text=text, key=key, patient_ids=ids, page_ids=pages)

    def fixed(self, text: str) -> Query:
        """``text`` with its oracle answer, outside the fresh stream."""
        expr = parse_query(text)
        query = self._query(text, plan_query(expr).key, expr)
        if query is None:
            raise ValueError(f"no patient with events matches {text!r}")
        return query

    def take(self, count: int) -> list[Query]:
        """``count`` queries cycling through the ``SESSION_MIX``."""
        return [self.next(*SESSION_MIX[i % len(SESSION_MIX)])
                for i in range(count)]


def session_targets(query: Query, rng: random.Random,
                    seen: set[int] | None = None) -> list[str]:
    """One analyst session over ``query``: the cohort page, its
    timeline, density and flow views, then two patients from it.

    Patients in ``seen`` (which the call extends) are avoided while the
    cohort has others, so a run requests each patient page once.
    """
    q = query.quoted
    seen = set() if seen is None else seen
    candidates = query.page_ids.tolist()
    patients = []
    for _ in range(32):
        if len(patients) == 2:
            break
        patient = rng.choice(candidates)
        if patient not in seen:
            seen.add(patient)
            patients.append(patient)
    while len(patients) < 2:
        patients.append(rng.choice(candidates))
    return [
        f"/cohort?q={q}",
        f"/timeline.svg?q={q}&rows={TIMELINE_ROWS}",
        f"/cohort/density?q={q}",
        f"/cohort/flow?q={q}&format=json",
        *(f"/patient/{p}" for p in patients),
    ]


def zipf_weights(n: int, exponent: float = 1.1) -> list[float]:
    """Skewed popularity: rank ``r`` is requested in proportion to
    ``1 / r**exponent``."""
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]
