"""Mutation checks: each row breaks the library in one place, and the
tests it names must then fail.

    python tests/mutants.py

Run from anywhere; the checkout is the parent of this file.  For each row
of ``MUTANTS`` (file, old text, new text, test ids) the script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
replaces the old text, which must occur exactly once in the file, by the
new text, and runs the test ids there under ``timeout 120``.  A mutant is
killed when its tests fail or time out.  First the ids of every row run
on the unmutated copy, where they must pass.  The exit code is 1 if a
mutant survives, an old text is not found exactly once, or a test id
cannot be collected; so a refactor that moves mutated code must update
its rows.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

GATE = "tests/test_search.py::test_search_gate_admits_exactly_the_merging_steps"
DIGEST = "tests/test_realizability.py::test_realizability_golden_digest"
LEAK = "tests/test_search.py::test_search_tables_do_not_leak_between_skip_sets"
WINDOW = "tests/test_properties.py::test_no_signing_window_matches_signing_scan"
SIGNED_WINDOW = "tests/test_properties.py::test_signed_verdict_matches_walk_scan"
# three pinned blocks whose later rounds need every pointer step, hook and jump
UNION_FIND = ("tests/test_skipgraph.py::test_union_find_later_rounds_pinned",)

# (file, old text, new text, test ids that must fail)
MUTANTS = (
    # the search admits -a only where g divides d
    ("src/hapdisc/search.py", "if d % g == r", "if d % g == 0", (GATE,)),
    # every move's residue is 0
    ("src/hapdisc/search.py", "gate.append((g, shift % g,", "gate.append((g, 0,", (GATE,)),
    # the shift is not reduced mod g
    ("src/hapdisc/search.py", "gate.append((g, shift % g,", "gate.append((g, shift,", (GATE,)),
    # -a is listed before +a
    (
        "src/hapdisc/search.py",
        "for sign, shift in ((1, 0), (-1, a)):",
        "for sign, shift in ((-1, a), (1, 0)):",
        (GATE,),
    ),
    # the residue test modulo g/2
    ("src/hapdisc/search.py", "if d % g == r", "if d % (g // 2) == r % (g // 2)", (GATE,)),
    # the move tables are kept under a key that drops the largest skip
    (
        "src/hapdisc/search.py",
        "    gate, tables = _tables(skip_list)\n",
        "    _, tables = _tables(skip_list[:-1])\n"
        "    gate = functools.cache(lambda modulus: _gate(modulus, skip_list))\n",
        (LEAK,),
    ),
    # the tables and the gate are those of the set without its largest skip
    (
        "src/hapdisc/search.py",
        "gate, tables = _tables(skip_list)",
        "gate, tables = _tables(skip_list[:-1])",
        ("tests/test_search.py::test_longest_path_rows",),
    ),
    # the depth cap does not flag the row
    (
        "src/hapdisc/search.py",
        "            truncated = True\n            return\n",
        "            return\n",
        ("tests/test_search.py::test_lower_bound_flag",),
    ),
    # the cycle distance prune does not flag the row
    (
        "src/hapdisc/search.py",
        "truncated = True  # the one cycle prune",
        "pass  # the one cycle prune",
        ("tests/test_search.py::test_capped_none_flags_lower_bound",),
    ),
    # the union-find's pointer step drops the parity fold
    (
        "src/hapdisc/skipgraph.py",
        "return key.take(k >> 1) ^ (k & 1)",
        "return key.take(k >> 1)",
        UNION_FIND + ("tests/test_skipgraph.py::test_union_find_matches_bfs_on_small_sets",),
    ),
    # the union-find finds an odd component at vertex 0 in every block, which
    # the BFS that restarts from it would hide
    (
        "src/hapdisc/skipgraph.py",
        "    return signs\n",
        "    return 0\n",
        ("tests/test_skipgraph.py::test_union_find_matches_bfs_on_small_sets",),
    ),
    # a later round hooks its roots but does not jump them
    (
        "src/hapdisc/skipgraph.py",
        "_jump(key, _hook(key, u, w))",
        "_hook(key, u, w)",
        UNION_FIND,
    ),
    # a hook gives the hooked root the parity of the edge's ends, not the opposite
    ("src/hapdisc/skipgraph.py", "flip = (ku ^ kw ^ 1) & 1", "flip = (ku ^ kw) & 1", UNION_FIND),
    # the signing walk swaps the shifts of + and -
    (
        "src/hapdisc/realizability.py",
        "a if sign < 0 else 0",
        "0 if sign < 0 else a",
        (DIGEST,),
    ),
    # r one multiple of n lower, and M without its factor n: both still give
    # coprime skips and the same answers on small instances, so only the
    # hand-checked values see them
    (
        "src/hapdisc/reduction.py",
        "r = n * (numerator // (2 * n) + 1)",
        "r = n * (numerator // (2 * n))",
        ("tests/test_reduction.py::test_build_d1_instance_hand_checked",),
    ),
    (
        "src/hapdisc/reduction.py",
        "big_m = n * diff_product *",
        "big_m = diff_product *",
        ("tests/test_reduction.py::test_build_d1_instance_hand_checked",),
    ),
    # the window takes the smallest start, walking starts upward from 0
    (
        "src/hapdisc/realizability.py",
        "range(k - 1, -1, -1):\n            if not _signings",
        "range(k):\n            if not _signings",
        (WINDOW, DIGEST),
    ),
    # a signed window's starts are tried upward from 0
    (
        "src/hapdisc/realizability.py",
        "range(k - 1, -1, -1):\n            report = _span",
        "range(k):\n            report = _span",
        (SIGNED_WINDOW, DIGEST),
    ),
    # a signed window's inner sum stays 0 as its start walks down
    ("src/hapdisc/realizability.py", "            inner += sign * a\n", "", (SIGNED_WINDOW, DIGEST)),
    # a span's last step is taken to leave an odd multiple when it steps up
    (
        "src/hapdisc/realizability.py",
        "(a_last if sign_last < 0 else 0)",
        "(a_last if sign_last > 0 else 0)",
        ("tests/test_properties.py::test_span_verdicts_match_two_step_scan", DIGEST),
    ),
    # the walk reports the step after the one it died at
    ("src/hapdisc/realizability.py", "return [], k", "return [], k + 1", (WINDOW,)),
    # a closed walk keeps its return to the start, so every cycle repeats a term
    (
        "src/hapdisc/realizability.py",
        "    if closed:\n        sums.pop()\n",
        "",
        (
            "tests/test_realizability.py::test_triangle_cycle_valid_at_0",
            "tests/test_records.py::test_record_repr_and_immutability[CycleVerdict]",
        ),
    ),
    # the walk order puts - before +: other cycle certificates and search rows
    (
        "src/hapdisc/pattern.py",
        "tuple(sign < 0 for sign, _ in steps)",
        "tuple(sign > 0 for sign, _ in steps)",
        (
            "tests/test_skipgraph.py::test_find_odd_cycle_triangle",
            "tests/test_search.py::test_search_results_pinned[cycle-1-3-5-22-31]",
        ),
    ),
    # a signed pattern accepts any sign
    (
        "src/hapdisc/pattern.py",
        '            if sign not in (1, -1):\n                raise ValueError(f"sign must be +1 or -1, got {sign}")\n',
        "",
        (
            "tests/test_pattern.py::test_construction_errors[signed-bad-sign]",
            "tests/test_pattern.py::test_construction_errors[signed-zero-sign]",
        ),
    ),
    # an unsigned pattern accepts skips below 1
    (
        "src/hapdisc/pattern.py",
        '        if any(s < 1 for s in skips):\n            raise ValueError(f"skips must be positive, got {skips}")\n',
        "",
        (
            "tests/test_pattern.py::test_construction_errors[zero-skip]",
            "tests/test_pattern.py::test_construction_errors[negative-skip]",
        ),
    ),
)


def run_tests(tree: Path, ids) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = ["timeout", str(TIMEOUT_S), sys.executable, "-m", "pytest", "-q", "-x"]
    command += ["-p", "no:cacheprovider", *ids]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode


def copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(
        ROOT / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__", ".hypothesis")
    )
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="hapdisc-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        ids = sorted({test for *_, tests in MUTANTS for test in tests})
        code = run_tests(clean, ids)
        print(f"unmutated: exit {code}")
        if code != 0:
            return 1
        for n, (name, old, new, tests) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{n}"
            copy_tree(tree)
            path = tree / name
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{n} {name}: old text found {text.count(old)} times: {old!r}")
                bad += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            code = run_tests(tree, tests)
            # 1: a test failed; 124: timeout; 0 or anything else is wrong
            verdict = {0: "SURVIVED", 1: "killed", 124: "killed (timeout)"}.get(code, f"exit {code}")
            print(f"{n} {name}: {old!r} -> {new!r}: {verdict}")
            bad += not verdict.startswith("killed")
            shutil.rmtree(tree)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
