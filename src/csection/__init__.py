"""Toolkit for sections of maximal subgroups in finite permutation groups.

The section of a maximal subgroup M of G is the factor (M meet K)/L taken
over a chief pair (K, L), meaning L <= M while K is not; the result is
independent of the pair chosen, up to isomorphism.  This package computes
such sections deterministically, decides supersolvability, identifies small
simple factors, and checks the statement that a group all of whose maximal
subgroups have supersolvable sections has composition factors that are
cyclic of prime order or linear fractional groups L2(p) with p*p - 1
divisible by 16.
"""

from .catalog import (BatteryEntry, GroupSpec, build_group, builtin_battery,
                      named_spec, parse_group_spec, product_spec, spec_from_group)
from .groups import CapExceededError, InputError, PermGroup, normalizer
from .iso import GroupId, abelian_invariants, fingerprint, identify, is_isomorphic, l2_parameters
from .lattice import (SubgroupClass, all_subgroups, certify_maximal, maximal_subgroups,
                      minimal_normal_subgroups, normal_subgroups, subgroup_count,
                      subgroups_of_index)
from .perms import Permutation, parse_cycle_lists
from .sections import (ChiefPair, CSection, NoChiefPairError, NotAChiefPairError,
                       NotMaximalError, VerdictReport, check_conclusion, check_hypothesis,
                       chief_pairs_for_maximal, make_report, sec, unique_class_check,
                       verify_example, verify_lemma1, verify_lemma2a, verify_lemma3,
                       verify_lemma4, verify_theorem_instance)
from .series import (ChiefSeries, FactorDescriptor, chief_series, composition_factors,
                     is_nilpotent, is_simple, is_supersolvable)

__version__ = "0.1.0"

__all__ = [
    "BatteryEntry", "CSection", "CapExceededError", "ChiefPair", "ChiefSeries",
    "FactorDescriptor", "GroupId", "GroupSpec", "InputError", "NoChiefPairError",
    "NotAChiefPairError", "NotMaximalError", "PermGroup", "Permutation", "SubgroupClass",
    "VerdictReport", "abelian_invariants", "all_subgroups", "build_group",
    "builtin_battery", "certify_maximal", "check_conclusion", "check_hypothesis",
    "chief_pairs_for_maximal", "chief_series", "composition_factors",
    "fingerprint", "identify",
    "is_isomorphic", "is_nilpotent", "is_simple", "is_supersolvable",
    "l2_parameters", "make_report", "maximal_subgroups",
    "minimal_normal_subgroups", "named_spec", "normal_subgroups", "normalizer",
    "parse_cycle_lists", "parse_group_spec", "product_spec", "sec", "spec_from_group",
    "subgroup_count", "subgroups_of_index",
    "unique_class_check", "verify_example", "verify_lemma1", "verify_lemma2a",
    "verify_lemma3", "verify_lemma4", "verify_theorem_instance",
    "__version__",
]
