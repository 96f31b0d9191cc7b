import types

import hapdisc

PUBLIC_NAMES = [
    "Classification",
    "Coloring",
    "CycleVerdict",
    "ESSInstance",
    "ESSWitness",
    "OddCycleCertificate",
    "Pattern",
    "PatternSyntaxError",
    "PeriodCapExceeded",
    "RealizabilityVerdict",
    "Realization",
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
    "crt_merge",
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


def test_public_surface_is_pinned():
    # a name added to or dropped from the package's surface must be added
    # or dropped here too, and __all__ must list exactly the names the
    # package binds (submodules are bound as attributes once imported)
    assert sorted(hapdisc.__all__) == PUBLIC_NAMES
    bound = {
        name
        for name, value in vars(hapdisc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(hapdisc.__all__) == bound
