"""Causal influence, signalling, and neighbourhood analysis for reversible channels.

Two concrete models share one interface: reversible classical channels
(permutations over product alphabets, exact integer arithmetic) and reversible
quantum channels (unitaries over tensor-product spaces, tolerance-based). On
top of them sit the probe-process construction and the derived relations:
causal influence, signalling, causal neighbourhoods, memory-channel
decompositions, and the interaction-without-disturbance classification, plus a
brute-force oracle and ring-automaton neighbourhood tooling.
"""

from .classical import ClassicalChannel, ClassicalInstrument
from .causal import (
    DisturbanceClassification,
    HierarchyReport,
    MemoryDecomposition,
    TProcessResult,
    Witness,
    check_interaction_without_disturbance,
    find_witness,
    has_causal_influence,
    hierarchy_report,
    influence_relation,
    inverse_nosignalling_check,
    memory_decomposition,
    neighbourhood,
    probe_conjugation_matches_evolution,
    replay_witness,
    t_process,
)
from .automata import RingAutomaton, build_ring, cone_growth, neighbourhood_map, neighbourhood_maps
from .errors import BudgetError, ConsistencyError, SpecError
from .oracle import CrossValidationReport, OracleBudget, OracleVerdict, cross_validate, definition_check
from .quantum import DensityOperator, StateMap, UnitaryChannel
from .systems import CompositeSystem, SubsystemLabel, composite, reorder_permutation

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ClassicalChannel",
    "ClassicalInstrument",
    "CompositeSystem",
    "ConsistencyError",
    "CrossValidationReport",
    "DensityOperator",
    "DisturbanceClassification",
    "HierarchyReport",
    "MemoryDecomposition",
    "OracleBudget",
    "OracleVerdict",
    "RingAutomaton",
    "SpecError",
    "StateMap",
    "SubsystemLabel",
    "TProcessResult",
    "UnitaryChannel",
    "Witness",
    "build_ring",
    "check_interaction_without_disturbance",
    "composite",
    "cone_growth",
    "cross_validate",
    "definition_check",
    "find_witness",
    "has_causal_influence",
    "hierarchy_report",
    "influence_relation",
    "inverse_nosignalling_check",
    "memory_decomposition",
    "neighbourhood",
    "neighbourhood_map",
    "neighbourhood_maps",
    "probe_conjugation_matches_evolution",
    "replay_witness",
    "reorder_permutation",
    "t_process",
]
