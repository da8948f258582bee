"""Cohort summary statistics.

The numbers a researcher reads off before (and after) a selection:
population size, events per patient, contacts per care level, the most
frequent codes, and a monthly utilization series.  These back the
example scripts and the EXPERIMENTS.md tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.events.store import EventStore
from repro.ontology.integration_ontology import (
    CARE_LEVELS,
    SOURCE_KIND_CLASSES,
    care_level_of,
)

__all__ = ["CohortStats", "summarize"]


@dataclass
class CohortStats:
    """Aggregate description of (a subset of) an event store."""

    n_patients: int
    n_events: int
    events_per_patient_mean: float
    events_per_patient_median: float
    events_per_patient_p90: float
    contacts_by_care_level: dict[str, int] = field(default_factory=dict)
    top_codes: list[tuple[str, str, int]] = field(default_factory=list)
    monthly_events: dict[int, int] = field(default_factory=dict)

    def format_table(self) -> str:
        """A printable summary block (used by the examples)."""
        lines = [
            f"patients                 {self.n_patients:>12,}",
            f"events                   {self.n_events:>12,}",
            f"events/patient mean      {self.events_per_patient_mean:>12.1f}",
            f"events/patient median    {self.events_per_patient_median:>12.1f}",
            f"events/patient p90       {self.events_per_patient_p90:>12.1f}",
        ]
        for level, count in self.contacts_by_care_level.items():
            lines.append(f"contacts {level:<16}{count:>12,}")
        if self.top_codes:
            lines.append("top codes:")
            for system, code, count in self.top_codes:
                lines.append(f"  {system:<8} {code:<10} {count:>10,}")
        return "\n".join(lines)


def summarize(
    store: EventStore,
    patient_ids: np.ndarray | list[int] | None = None,
    top_n_codes: int = 10,
) -> CohortStats:
    """Summarize the whole store or one patient subset.

    The subset is taken first (:meth:`EventStore.rows`), so every pass
    below runs over the cohort's rows only.
    """
    store = store.rows(patient_ids)
    n_patients, n_events = store.n_patients, store.n_events

    if n_events:
        _, counts = np.unique(store.patient, return_counts=True)
        # Patients with zero events still count in the denominator.
        zeros = max(0, n_patients - len(counts))
        all_counts = np.concatenate((counts, np.zeros(zeros, dtype=counts.dtype)))
        mean = float(all_counts.mean())
        median = float(np.median(all_counts))
        p90 = float(np.percentile(all_counts, 90))
    else:
        mean = median = p90 = 0.0

    # Contacts per care level, via the integration ontology.
    level_counts = {level: 0 for level in CARE_LEVELS}
    kind_to_level = {
        kind: care_level_of(cls) for kind, cls in SOURCE_KIND_CLASSES.items()
    }
    contact_categories = {
        "gp_contact", "emergency_contact", "physio_contact",
        "specialist_contact", "outpatient_visit", "day_treatment",
        "hospital_stay", "home_care", "nursing_home",
    }
    for cat_idx, category in enumerate(store.categories):
        if category not in contact_categories:
            continue
        cat_mask = store.category == cat_idx
        if not cat_mask.any():
            continue
        sources, counts = np.unique(store.source[cat_mask], return_counts=True)
        for source_idx, count in zip(sources.tolist(), counts.tolist()):
            level = kind_to_level.get(store.sources[source_idx])
            if level is not None:
                level_counts[level] += int(count)

    # Top codes.
    coded = store.code >= 0
    code_counter: Counter[tuple[str, str]] = Counter()
    if coded.any():
        pairs, counts = np.unique(
            np.stack((store.system[coded], store.code[coded])),
            axis=1,
            return_counts=True,
        )
        for (system_idx, code_idx), count in zip(pairs.T.tolist(),
                                                 counts.tolist()):
            system_name = store.system_names[system_idx]
            code = store.systems[system_name].code_of(code_idx).code
            code_counter[(system_name, code)] += int(count)
    top_codes = [
        (system, code, count)
        for (system, code), count in code_counter.most_common(top_n_codes)
    ]

    # Monthly utilization series (month index since epoch).
    months = (store.day // 30).astype(np.int64)
    month_ids, month_counts = np.unique(months, return_counts=True)
    monthly = dict(zip(month_ids.tolist(), month_counts.tolist()))

    return CohortStats(
        n_patients=n_patients,
        n_events=n_events,
        events_per_patient_mean=mean,
        events_per_patient_median=median,
        events_per_patient_p90=p90,
        contacts_by_care_level=level_counts,
        top_codes=top_codes,
        monthly_events=monthly,
    )
