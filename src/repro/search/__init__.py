"""Stochastic mapping search over section->bank and phase->core maps.

The paper's Table I rests on one hand-crafted dedicated-bank
placement; this package answers "how far from optimal is it?" by
searching the placement space with seeded, byte-deterministic
stochastic walks:

* :mod:`repro.search.space` — the candidate representation, the
  analytic feasibility pre-filter, the deterministic repair moves for
  IM-overflow and core collisions, and the mutation proposals;
* :mod:`repro.search.cost` — pluggable cost oracles (power, clock
  floor, weighted composite) over ``simulate(mapping=...)``;
* :mod:`repro.search.anneal` — the simulated-annealing and greedy
  hill-climb drivers plus the :class:`SearchOutcome` record.

Entry points elsewhere: the ``search-anneal`` / ``search-greedy``
policy family in :data:`repro.gen.policies.POLICIES`, the ``search``
run family in :mod:`repro.sweep.runners`, the ``python -m repro.eval
search`` subcommand (``repro-search/1`` artifacts) and the
``search`` bench of ``benchmarks/run_all.py``.
"""

from .anneal import (
    ALGORITHMS,
    ANNEAL_T0,
    ANNEAL_T_END,
    SEARCH_ITERATIONS,
    START_POLICIES,
    SearchOutcome,
    outcome_to_mapping,
    search_mapping,
    search_token,
)
from .cost import (
    COMPOSITE_CLOCK_WEIGHT_UW_PER_MHZ,
    ORACLE_DURATION_S,
    ORACLE_KINDS,
    CostOracle,
    get_oracle,
)
from .space import (
    Candidate,
    candidate_from_plan,
    candidate_required_mhz,
    candidate_to_mapping,
    make_candidate,
    normalize_cores,
    plan_from_candidate,
    propose,
    repair,
    slot_phases,
    violations,
)

__all__ = [
    "ALGORITHMS",
    "ANNEAL_T0",
    "ANNEAL_T_END",
    "COMPOSITE_CLOCK_WEIGHT_UW_PER_MHZ",
    "Candidate",
    "CostOracle",
    "ORACLE_DURATION_S",
    "ORACLE_KINDS",
    "SEARCH_ITERATIONS",
    "START_POLICIES",
    "SearchOutcome",
    "candidate_from_plan",
    "candidate_required_mhz",
    "candidate_to_mapping",
    "get_oracle",
    "make_candidate",
    "normalize_cores",
    "outcome_to_mapping",
    "plan_from_candidate",
    "propose",
    "repair",
    "search_mapping",
    "search_token",
    "slot_phases",
    "violations",
]
