"""Discrepancy-two certification for finite sets of homogeneous
arithmetic progressions: pattern realizability, skip-graph coloring,
closed-form classifiers for small sets, extremal search, and the
equal-sum-subsets hardness transformation.

``classify``, ``numeric``, ``pattern`` and ``realizability`` load with the
package.  ``skipgraph`` (the block solver), ``search`` and ``reduction``
load on first use of one of their public names, so each CLI verb loads
only what it runs: ``classify``, ``check`` and ``realize`` none of the
three, ``color``, ``cycle`` and ``verify`` ``skipgraph``, ``longest``
``search`` and ``reduce`` ``reduction``.
"""

import importlib

from .classify import Classification, UnsupportedSizeError, classify
from .numeric import two_adic_valuation
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
    check_subpath,
    strict_realizability,
    valid_odd_cycle,
    weakly_realizable,
)

# Each public name of a deferred module -> that module, imported on first access
# (PEP 562).  ``classify`` must stay eager: importing the submodule
# ``hapdisc.classify`` binds it as a package attribute, which would then
# shadow the function of the same name.
_LAZY = {
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
    "build_d1_instance",
    "build_graph",
    "check_subpath",
    "classify",
    "ess_solve",
    "find_odd_cycle",
    "format_pattern",
    "infer_signs",
    "longest_odd_cycle",
    "longest_path",
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
