"""Discrepancy-two certification for finite sets of homogeneous
arithmetic progressions: pattern realizability, skip-graph coloring,
closed-form classifiers for small sets, extremal search, and the
equal-sum-subsets hardness transformation.

``_LAZY`` below is the package's surface: every public name but
``classify``, with the module that defines it, imported on first access
(PEP 562).  So a module that no eager import pulls in loads only when
one of its names is used.
"""

import importlib

# ``classify`` must stay eager: importing the submodule ``hapdisc.classify``
# binds it as a package attribute, which would then shadow the function of
# the same name.
from .classify import classify

_LAZY = {
    "Classification": "classify",
    "UnsupportedSizeError": "classify",
    "two_adic_valuation": "numeric",
    "Pattern": "pattern",
    "PatternSyntaxError": "pattern",
    "Realization": "pattern",
    "SignInferenceError": "pattern",
    "SignedPattern": "pattern",
    "format_pattern": "pattern",
    "infer_signs": "pattern",
    "parse_pattern": "pattern",
    "realize": "pattern",
    "CycleVerdict": "realizability",
    "RealizabilityVerdict": "realizability",
    "SubpathReport": "realizability",
    "check_subpath": "realizability",
    "strict_realizability": "realizability",
    "valid_odd_cycle": "realizability",
    "weakly_realizable": "realizability",
    "ESSInstance": "reduction",
    "ESSWitness": "reduction",
    "ReductionInstance": "reduction",
    "build_d1_instance": "reduction",
    "ess_solve": "reduction",
    "witness_cycle": "reduction",
    "RuleVerdict": "search",
    "SearchResult": "search",
    "longest_odd_cycle": "search",
    "longest_path": "search",
    "rule_scan": "search",
    "Coloring": "skipgraph",
    "OddCycleCertificate": "skipgraph",
    "PeriodCapExceeded": "skipgraph",
    "SkipGraph": "skipgraph",
    "build_graph": "skipgraph",
    "find_odd_cycle": "skipgraph",
    "solve_block": "skipgraph",
    "two_color": "skipgraph",
    "verify_discrepancy": "skipgraph",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = sorted(["classify", *_LAZY])
