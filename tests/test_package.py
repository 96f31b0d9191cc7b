import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

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


# Runs the verbs in a fresh interpreter and reports, as one JSON line, each
# verb's exit code and stdout and whether numpy was loaded after the verbs
# that never build a block graph, and again after ``color``.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import hapdisc, hapdisc.cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = hapdisc.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue()]

runs = [
    run("--version"),
    run("classify", "-s", "1,2,3"),
    run("check", "-p", "[5 1 10]"),
    run("realize", "-p", "[2 1 3]", "--start", "0"),
    run("longest", "-s", "1,5,7"),
    run("reduce", "-a", "1,2,3"),
]
before = "numpy" in sys.modules
color = run("color", "-s", "2,3,4")
print(json.dumps({"runs": runs, "before": before, "color": color, "after": "numpy" in sys.modules}))
"""


def test_only_block_verbs_import_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(hapdisc.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [code for code, _ in report["runs"]] == [0, 1, 0, 0, 0, 0]
    assert report["runs"][4][1] == "3 path 7 11 [1 5 1 7 1 5 1]\n"
    assert report["before"] is False
    code, line = report["color"]
    assert code == 0 and report["after"] is True
    digest = hashlib.sha256(line.encode("ascii")).hexdigest()
    assert digest == "4ea7720885ed0030d5fb9be1248036ac25459291dfb30a877274cedcef338b31"
