"""Discrepancy-two certification for finite sets of homogeneous
arithmetic progressions: pattern realizability, skip-graph coloring,
closed-form classifiers for small sets, extremal search, and the
equal-sum-subsets hardness transformation."""

from .classify import Classification, UnsupportedSizeError, classify
from .numeric import crt_merge, two_adic_valuation
from .pattern import (
    Pattern,
    PatternSyntaxError,
    Realization,
    SignedPattern,
    SignInferenceError,
    format_pattern,
    infer_signs,
    parse_pattern,
    realize,
)
from .realizability import (
    CycleVerdict,
    RealizabilityVerdict,
    SubpathReport,
    basic_parity_test,
    both_paths_agree,
    check_subpath,
    strict_realizability,
    valid_odd_cycle,
    weakly_realizable,
)
from .reduction import (
    ESSInstance,
    ESSWitness,
    ReductionInstance,
    build_d1_instance,
    ess_solve,
    mod_nM_audit,
    witness_cycle,
)
from .search import RuleVerdict, SearchResult, longest_odd_cycle, longest_path, rule_scan
from .skipgraph import (
    Coloring,
    OddCycleCertificate,
    PeriodCapExceeded,
    SkipGraph,
    build_graph,
    find_odd_cycle,
    solve_block,
    two_color,
    verify_discrepancy,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "Coloring",
    "CycleVerdict",
    "ESSInstance",
    "ESSWitness",
    "OddCycleCertificate",
    "Pattern",
    "PatternSyntaxError",
    "PeriodCapExceeded",
    "Realization",
    "RealizabilityVerdict",
    "ReductionInstance",
    "RuleVerdict",
    "SearchResult",
    "SignInferenceError",
    "SignedPattern",
    "SkipGraph",
    "SubpathReport",
    "UnsupportedSizeError",
    "basic_parity_test",
    "both_paths_agree",
    "build_d1_instance",
    "build_graph",
    "check_subpath",
    "classify",
    "crt_merge",
    "ess_solve",
    "find_odd_cycle",
    "format_pattern",
    "infer_signs",
    "longest_odd_cycle",
    "longest_path",
    "mod_nM_audit",
    "parse_pattern",
    "realize",
    "rule_scan",
    "solve_block",
    "strict_realizability",
    "two_adic_valuation",
    "two_color",
    "valid_odd_cycle",
    "verify_discrepancy",
    "weakly_realizable",
    "witness_cycle",
]
