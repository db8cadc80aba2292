"""Permutation-group engine for quasi-transitivity analysis."""

from .analysis import (CONSTANT_ONE, NON_CONSTANT, QUASI_TRANSITIVE,
                       ActionReport, OrbitDecomposition, OrbitReport,
                       PairClass, QuasiVerdict, analyze, is_frobenius,
                       is_primitive, is_three_halves, is_two_transitive,
                       orbits, pair_class_profile, quasi_verdict, subdegrees)
from .constructions import (LabeledAction, a7_on_15, action_on_k_subsets,
                            affine_frobenius, alternating_group, coset_action,
                            cyclic_group, dihedral_group, disjoint_sum,
                            pgammal2, pgammal2_cosets, psl2, psl2_cosets,
                            regular_action, symmetric_group)
from .genfile import (GeneratorFile, ParseError, file_from_group,
                      format_generators, group_from_file, parse_generators)
from .group import PermGroup, StabilizerChain, build_chain
from .perm import Permutation
from .verifier import (LemmaViolation, Step4Record, SweepConfig, SweepResult,
                       lemma_monitor, step1_quadratic, step4_check, sweep)

__all__ = [
    "ActionReport", "CONSTANT_ONE", "GeneratorFile", "LabeledAction",
    "LemmaViolation", "NON_CONSTANT", "OrbitDecomposition", "OrbitReport",
    "PairClass", "ParseError", "PermGroup", "Permutation", "QUASI_TRANSITIVE",
    "QuasiVerdict", "StabilizerChain", "Step4Record", "SweepConfig",
    "SweepResult", "a7_on_15", "action_on_k_subsets", "affine_frobenius",
    "alternating_group", "analyze", "build_chain", "coset_action",
    "cyclic_group", "dihedral_group", "disjoint_sum", "file_from_group",
    "format_generators", "group_from_file", "is_frobenius", "is_primitive",
    "is_three_halves", "is_two_transitive", "lemma_monitor", "orbits",
    "pair_class_profile", "parse_generators", "pgammal2", "pgammal2_cosets",
    "psl2", "psl2_cosets", "quasi_verdict", "regular_action",
    "step1_quadratic", "step4_check", "subdegrees", "sweep",
    "symmetric_group",
]

__version__ = "0.1.0"
