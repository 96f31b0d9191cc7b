import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

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
    "ess_solve",
    "find_odd_cycle",
    "format_pattern",
    "longest_odd_cycle",
    "longest_path",
    "parse_pattern",
    "realize",
    "rule_scan",
    "solve_block",
    "strict_realizability",
    "two_color",
    "valid_odd_cycle",
    "verify_discrepancy",
    "weakly_realizable",
    "witness_cycle",
]


def test_public_surface_is_pinned():
    # a name added to or dropped from the package's surface must be added
    # or dropped here too.  Every name resolves; the names the package
    # binds at import (submodules are bound as attributes once imported)
    # and the ones it resolves lazily from their module are exactly __all__.
    assert sorted(hapdisc.__all__) == PUBLIC_NAMES
    bound = {
        name
        for name, value in vars(hapdisc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    lazy = set(hapdisc._LAZY)
    assert not bound & lazy
    assert bound | lazy == set(hapdisc.__all__)
    for name in hapdisc.__all__:
        value = getattr(hapdisc, name)
        assert getattr(value, "__name__", None) == name, name
    assert set(hapdisc.__all__) <= set(dir(hapdisc))


# Runs the argv lists given as its first argument through ``cli.main`` in a
# fresh interpreter and reports, as one JSON line, which hapdisc modules and
# whether json, numpy and dataclasses were loaded after ``import hapdisc, hapdisc.cli``
# and after each verb, each verb's exit code and stdout, and the type of
# ``hapdisc.classify`` once its submodule is imported by name.
_IMPORT_PROBE = """
import ast, contextlib, io, sys
import hapdisc, hapdisc.cli

def state():
    return {
        "hapdisc": sorted(m for m in sys.modules if m.startswith("hapdisc.")),
        "json": "json" in sys.modules,
        "numpy": "numpy" in sys.modules,
        "dataclasses": "dataclasses" in sys.modules,
    }

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = hapdisc.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), state()]

report = {"import": state()}
report["runs"] = [run(argv) for argv in ast.literal_eval(sys.argv[1])]
import hapdisc.classify
report["classify"] = type(hapdisc.classify).__name__
import json
print(json.dumps(report))
"""

EAGER = ["hapdisc.classify", "hapdisc.cli", "hapdisc.pattern", "hapdisc.realizability"]


def _probe(*argvs):
    env = dict(os.environ, PYTHONPATH=str(Path(hapdisc.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, repr([list(argv) for argv in argvs])],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    # the block solver, the search and the reduction wait for a verb
    assert report["import"] == {"hapdisc": EAGER, "json": False, "numpy": False, "dataclasses": False}
    assert report["classify"] == "function"
    # the records are named tuples: no verb, numpy's included, loads dataclasses
    assert not any(state["dataclasses"] for _, _, state in report["runs"])
    return report["runs"]


def test_only_block_verbs_import_numpy():
    runs = _probe(
        ["--version"],
        ["classify", "-s", "1,2,3"],
        ["check", "-p", "[5 1 10]"],
        ["realize", "-p", "[2 1 3]", "--start", "0"],
        ["longest", "-s", "1,5,7"],
        ["reduce", "-a", "1,2,3"],
        # blocks below the union-find's cut are decided by the BFS, and a
        # coloring is printed from its sign bytes
        ["cycle", "-s", "1,3,5,8"],
        ["color", "-s", "1,2,3"],
        ["cycle", "-s", "2,3,4"],
        ["color", "-s", "3,5,7,16", "--json"],
        ["color", "-s", "2,3,4"],
        # a block of 95472 vertices is decided by the numpy union-find
        ["cycle", "-s", "13,24,27,51"],
    )
    assert [code for code, _, _ in runs] == [0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    assert runs[4][1] == "3 path 7 11 [1 5 1 7 1 5 1]\n"
    assert not any(state["numpy"] for _, _, state in runs[:-1])
    line = runs[-2][1]
    digest = hashlib.sha256(line.encode("ascii")).hexdigest()
    assert digest == "4ea7720885ed0030d5fb9be1248036ac25459291dfb30a877274cedcef338b31"
    assert runs[-1][1] == "odd cycle: [+24 +27 -51] at 4080\n" and runs[-1][2]["numpy"]


# each verb's argv, exit code and the modules it loads beyond the eager ones
VERB_CASES = [
    (["classify", "-s", "1,2,3"], 1, []),
    (["check", "-p", "[5 1 10]"], 0, []),
    (["realize", "-p", "[2 1 3]", "--start", "0"], 0, []),
    (["color", "-s", "2,3,4"], 0, ["hapdisc.skipgraph"]),
    (["cycle", "-s", "1,3,5,8"], 0, ["hapdisc.skipgraph"]),
    (["verify", "--coloring", "COLORING", "-s", "2,3", "--horizon", "12"], 0, ["hapdisc.skipgraph"]),
    (["longest", "-s", "1,5,7"], 0, ["hapdisc.search"]),
    (["reduce", "-a", "1,2,3"], 0, ["hapdisc.reduction"]),
]


@pytest.mark.parametrize("argv, code, deferred", VERB_CASES, ids=[argv[0] for argv, _, _ in VERB_CASES])
def test_each_verb_loads_only_its_modules(argv, code, deferred, tmp_path):
    coloring = tmp_path / "coloring.txt"
    coloring.write_text("+1 -1 " * 6)
    argv = [str(coloring) if arg == "COLORING" else arg for arg in argv]
    (plain, _, state), (json_code, out, json_state) = _probe(argv, argv + ["--json"])
    assert plain == json_code == code
    assert state["hapdisc"] == sorted(EAGER + deferred) and not state["json"]
    assert json_state["hapdisc"] == state["hapdisc"] and json_state["json"]
    json.loads(out)
