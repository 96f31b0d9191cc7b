import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hapdisc.cli
import hapdisc.reduction
import hapdisc.skipgraph
from hapdisc.cli import main
from hapdisc.pattern import Pattern, parse_pattern
from hapdisc.realizability import SubpathReport, strict_realizability
from hapdisc.reduction import ESSInstance, build_d1_instance
from hapdisc.skipgraph import Coloring, build_graph, solve_block


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_classify_forcing_exits_one(capsys):
    code, data = run_json(capsys, "classify", "-s", "1,2,3")
    assert code == 1
    assert data["forces"] is True
    assert data["rule"] == "size3"
    assert data["cycle"] == {"pattern": "[+2 +1 -3]", "start": 0}


def test_classify_non_forcing_exits_zero(capsys):
    code, data = run_json(capsys, "classify", "-s", "1,3,4")
    assert code == 0
    assert data["forces"] is False


def test_classify_oversized_set_is_usage_error(capsys):
    code, _, err = run(capsys, "classify", "-s", "3,9,16,18,19,20")
    assert code == 2
    assert "sizes 1-4" in err


def test_check_unsigned_no_signing_window(capsys):
    # no signing of [5 1 10] walks, and [5 1] and [1 10] each have one
    code, data = run_json(capsys, "check", "-p", "[5 1 10]")
    assert code == 0
    assert data["status"] == "forbidden"
    assert data["failure"] == {"i": 0, "j": 2, "reason": "no-signing"}


def test_check_signed_parity(capsys):
    code, data = run_json(capsys, "check", "-p", "[+4 +3 -1 +2]")
    assert data["status"] == "forbidden"
    assert data["failure"]["reason"] == "parity"


def test_check_realizable(capsys):
    code, data = run_json(capsys, "check", "-p", "[-1 +3 -1]")
    assert data == {"status": "realizable", "start": 1, "signed": "[-1 +3 -1]"}


def test_check_long_unsigned_pattern(capsys):
    # 1 200 unsigned steps, one signing-walk frame each
    code, out, _ = run(capsys, "check", "-p", "[" + " ".join(["1"] * 1200) + "]")
    assert code == 0
    assert out.startswith("weakly-realizable at 0 via [+1 -1 +1 -1 ")


def test_check_long_forbidden_unsigned_pattern(capsys):
    # the signing walk dies at step 402, and the window walks back from
    # it: [1 2] has a signing and [2 1 2] none
    skips = (1,) * 400 + (2, 1, 2)
    assert strict_realizability(Pattern(skips)).failure == SubpathReport(400, 402, None, None, False, False)
    code, out, _ = run(capsys, "check", "-p", "[" + " ".join(map(str, skips)) + "]")
    assert code == 0
    assert out == "forbidden (no signing fits steps 400..402)"


def test_integers_past_the_str_digit_limit(capsys):
    # pairwise-coprime 84-digit skips whose least start has about 5 000
    # digits, and 121-digit elements whose M has more than 4 300
    limit = sys.get_int_max_str_digits()
    f = math.factorial(60)
    pattern = "[" + " ".join(str(k * f + 1) for k in range(1, 61)) + "]"
    elements = [i * 10**120 + i for i in range(1, 11)]
    code, checked, _ = run(capsys, "check", "-p", pattern)
    assert code == 0 and sys.get_int_max_str_digits() == limit
    code, reduced, _ = run(capsys, "reduce", "-a", ",".join(map(str, elements)), "--json")
    assert code == 0 and sys.get_int_max_str_digits() == limit
    start = strict_realizability(parse_pattern(pattern)).witness_start
    M = build_d1_instance(ESSInstance.of(elements)).M
    assert min(start, M) > 10**4300
    sys.set_int_max_str_digits(0)
    try:
        status, at, printed, *_ = checked.split()
        assert (status, at, int(printed)) == ("realizable", "at", start)
        assert json.loads(reduced)["M"] == M
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv", [["check", "-p", "[0]"], ["classify"]], ids=["value-error", "argparse-error"]
)
def test_digit_limit_restored_on_error(capsys, argv):
    limit = sys.get_int_max_str_digits()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert sys.get_int_max_str_digits() == limit


def test_realize_round_trip(capsys):
    code, data = run_json(capsys, "realize", "-p", "[2 1 3]", "--start", "0")
    assert code == 0
    assert data == {"start": 0, "signs": [1, 1, -1], "skips": [2, 1, 3], "terms": [0, 2, 3, 0]}


def test_realize_signed_defaults_to_witness(capsys):
    code, data = run_json(capsys, "realize", "-p", "[+18+9-3+16+20+3-9-18+3-19-20]")
    assert data["start"] == 360


def test_realize_unsigned_needs_start(capsys):
    code, _, err = run(capsys, "realize", "-p", "[2 1 3]")
    assert code == 2
    assert "--start" in err


def test_realize_unrealizable_signed_needs_start(capsys):
    code, out, err = run(capsys, "realize", "-p", "[+4 +3 -1 +2]")
    assert (code, out) == (2, "")
    assert err == "error: pattern is not weakly realizable (parity fails on steps 0..3); give --start explicitly"


def test_realize_signed_names_the_minimal_window(capsys):
    # [+1 -1] walks from 0, and no start walks [-1 -1]
    code, out, err = run(capsys, "realize", "-p", "[+1 -1 -1]")
    assert (code, out) == (2, "")
    assert err == "error: pattern is not weakly realizable (parity fails on steps 1..2); give --start explicitly"


def test_longest_rows(capsys):
    code, out, _ = run(capsys, "longest", "-s", "1,3", "--kind", "path")
    assert code == 0
    assert out == "2 path 3 1 [1 3 1]"
    code, out, _ = run(capsys, "longest", "-s", "1,2,3", "--kind", "cycle", "--max-len", "9")
    assert code == 0
    assert out == "3 cycle 3 0 [2 1 3]"
    code, out, _ = run(capsys, "longest", "-s", "1,3", "--kind", "cycle")
    assert out == "none"


def test_color_non_forcing_prints_line(capsys):
    code, data = run_json(capsys, "color", "-s", "2,3,4")
    assert code == 0
    assert data["period"] == 24
    assert len(data["coloring"].split()) == 24


def test_color_forcing_prints_certificate(capsys):
    code, data = run_json(capsys, "color", "-s", "1,2,3")
    assert code == 1
    assert data["odd_cycle"]["start"] == 0
    assert data["odd_cycle"]["skips"] == [2, 1, 3]


@pytest.mark.parametrize(
    "verb,skips,exit_code",
    [("color", "1,2,3", 1), ("color", "2,3,4", 0), ("cycle", "1,2,3", 0), ("cycle", "2,3,4", 0)],
)
def test_one_block_pass_per_verb(capsys, monkeypatch, verb, skips, exit_code):
    calls = []
    solve = hapdisc.skipgraph.solve_block

    def counted(g):
        calls.append(g.period)
        return solve(g)

    monkeypatch.setattr(hapdisc.skipgraph, "solve_block", counted)
    code, _, _ = run(capsys, verb, "-s", skips)
    assert code == exit_code
    assert len(calls) == 1


def test_cycle_verb_exit_zero_either_way(capsys):
    code, data = run_json(capsys, "cycle", "-s", "1,2,3")
    assert code == 0
    assert data["certificate"]["terms"][0] == data["certificate"]["terms"][-1]
    code, data = run_json(capsys, "cycle", "-s", "1,3")
    assert code == 0
    assert data["certificate"] is None


def test_max_period_flag(capsys):
    code, _, err = run(capsys, "color", "-s", "2,3,4", "--max-period", "10")
    assert code == 2
    assert "24" in err


def test_max_period_zero_is_a_cap(capsys):
    code, _, err = run(capsys, "color", "-s", "2,3,4", "--max-period", "0")
    assert code == 2
    assert "exceeds the cap 0" in err


@pytest.mark.parametrize("verb", ["color", "cycle"])
def test_max_period_default_is_the_only_cap(capsys, monkeypatch, verb):
    monkeypatch.setenv("HAPDISC_MAX_PERIOD", "10")
    code, _, _ = run(capsys, verb, "-s", "2,3,4")
    assert code == 0
    # period 2**25 is refused before a block is built
    monkeypatch.setattr(hapdisc.skipgraph, "solve_block", lambda g: pytest.fail("block built"))
    code, out, err = run(capsys, verb, "-s", str(2**24))
    assert (code, out) == (2, "")
    assert "exceeds the cap 16777216" in err


@pytest.mark.parametrize("verb", ["color", "cycle"])
def test_block_past_int64_keys_is_refused_unallocated(capsys, verb):
    # period 2**63: the union-find's keys 2*v would overflow int64, so the
    # block is refused before anything is allocated, and exit 1 keeps
    # meaning that the set forces discrepancy two
    code, out, err = run(capsys, verb, "-s", f"1,{2**62}", "--max-period", str(10**20))
    assert (code, out) == (2, "")
    assert err == "error: out of memory: a block of 9223372036854775808 vertices cannot be allocated"


@pytest.mark.parametrize(
    "message, line",
    [("8.00 TiB", "error: out of memory: 8.00 TiB"), ("", "error: out of memory")],
    ids=["message", "empty"],
)
def test_out_of_memory_exits_two(capsys, monkeypatch, message, line):
    def solve_block(g):
        raise MemoryError(message)

    monkeypatch.setattr(hapdisc.skipgraph, "solve_block", solve_block)
    for verb in ("color", "cycle"):
        assert run(capsys, verb, "-s", "2,3,4") == (2, "", line)


def test_reduce_refuses_before_building(capsys, monkeypatch):
    # the transformed skips are never built, let alone printed: 25 elements
    # pass the element limit, and 21 and 24 powers of two, which have no
    # witness, reach a level past the level limit
    built = []
    monkeypatch.setattr(hapdisc.reduction, "build_d1_instance", built.append)
    for values, message in [
        (range(1, 26), "brute-force scan supports up to 24 elements, got 25"),
        (
            [2**i for i in range(21)],
            "equal-sum scan at |Y| = 8 indexes and walks 497420 subsets, "
            "past the limit of 400000",
        ),
        (
            [2**i for i in range(24)],
            "equal-sum scan at |Y| = 6 indexes and walks 480700 subsets, "
            "past the limit of 400000",
        ),
    ]:
        code, out, err = run(capsys, "reduce", "-a", ",".join(map(str, values)))
        assert (code, out, built) == (2, "", [])
        assert err == f"error: {message}"


def test_reduce_json_schema(capsys):
    code, data = run_json(capsys, "reduce", "-a", "1,2")
    assert code == 0
    assert (data["M"], data["r"], data["t"]) == (30, 6, 151)
    assert data["s"] == [241, 301]
    assert data["ess"] == {"answer": False}

    code, data = run_json(capsys, "reduce", "-a", "1,2,3")
    assert data["ess"]["answer"] is True
    assert data["ess"]["X"] == [1, 2]
    assert data["ess"]["Y"] == [3]
    assert data["cycle"].startswith("[+")


def test_verify_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "color", "-s", "2,3,4")
    path = tmp_path / "coloring.txt"
    path.write_text(out + "\n")
    code, data = run_json(capsys, "verify", "--coloring", str(path), "-s", "2,3,4", "--horizon", "240")
    assert code == 0
    assert data["max_discrepancy"] == 1


def test_verify_erdos_indexing_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "color", "-s", "2,3,4", "--erdos-indexing")
    path = tmp_path / "coloring.txt"
    path.write_text(out + "\n")
    code, data = run_json(
        capsys, "verify", "--coloring", str(path), "-s", "2,3,4",
        "--horizon", "2400", "--erdos-indexing",
    )
    assert data["max_discrepancy"] == 1


def test_verify_detects_bad_coloring(capsys, tmp_path):
    path = tmp_path / "coloring.txt"
    path.write_text(" ".join(["+1"] * 24))
    code, data = run_json(capsys, "verify", "--coloring", str(path), "-s", "2,3,4", "--horizon", "240")
    assert data["max_discrepancy"] >= 2


@pytest.mark.parametrize(
    "name, content",
    [("missing.txt", None), (".", None), ("coloring.txt", b"\xff\xfe")],
    ids=["missing", "directory", "not-utf8"],
)
def test_verify_unreadable_coloring_is_usage_error(capsys, tmp_path, name, content):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    code, _, err = run(capsys, "verify", "--coloring", str(path), "-s", "2,3,4", "--horizon", "240")
    assert code == 2
    assert err.startswith(f"error: cannot read coloring file {path}: ")
    if content is not None:
        assert err.endswith(": not UTF-8 text")


@pytest.mark.parametrize(
    "skips, cut",
    [("2,3,4", None), ("2,3,4", 1), ("1,3", 1)],
    ids=["bfs", "union-find", "union-find-skip-1"],
)
def test_color_erdos_coloring_is_mirrored(capsys, monkeypatch, skips, cut):
    # the union-find contracts the smallest skip's pairs, skip 1's included
    if cut is not None:
        monkeypatch.setattr(hapdisc.skipgraph, "_VECTOR_MIN_PERIOD", cut)
    _, plain, _ = run(capsys, "color", "-s", skips)
    code, mirrored, _ = run(capsys, "color", "-s", skips, "--erdos-indexing")
    assert code == 0
    assert mirrored.split() == plain.split()[::-1] != plain.split()


@pytest.mark.parametrize(
    "skips, extra",
    [
        ("3,5,7,16", []),  # 3360 vertices: the BFS
        ("1,5,23,43,53", []),  # 524170 vertices: the union-find, skip 1's pairs contracted
        ("17,28,29,60", []),  # 414120 vertices: the union-find, skip 17's pairs contracted
        ("7,9,11,13,16", ["--erdos-indexing"]),
    ],
    ids=["bfs", "union-find-skip-1", "union-find", "union-find-erdos"],
)
def test_color_json_is_the_line_as_json(capsys, skips, extra):
    # the coloring's JSON is built around its line, not by json.dumps
    _, line, _ = run(capsys, "color", "-s", skips, *extra)
    code = main(["color", "-s", skips, *extra, "--json"])
    out = capsys.readouterr().out
    period = build_graph(map(int, skips.split(","))).period
    assert code == 0
    assert out == json.dumps({"period": period, "coloring": line}) + "\n"


@pytest.mark.parametrize(
    "verb,key,exit_code",
    [("color", "odd_cycle", 1), ("cycle", "certificate", 0)],
    ids=["color", "cycle"],
)
def test_color_erdos_certificate_is_mirrored(capsys, verb, key, exit_code):
    code, data = run_json(capsys, verb, "-s", "1,2,3", "--erdos-indexing")
    assert code == exit_code
    cert = data[key]
    assert cert["start"] == 12
    assert cert["signs"] == [-1, -1, 1]


def _row(argv, exit_code, human_line, json_line):
    return pytest.param(argv, exit_code, human_line, json_line, id=f"{' '.join(argv[:3])}-{exit_code}")


COLORING_234 = "+1 +1 -1 -1 -1 +1 +1 +1 +1 -1 -1 +1 -1 +1 +1 +1 +1 +1 -1 +1 -1 +1 +1 +1"


@pytest.mark.parametrize(
    "argv,exit_code,human_line,json_line",
    [
        _row(
            ["classify", "-s", "1,2,3"],
            1,
            "forces discrepancy two: yes (rule size3; a=2, b=1, c=3; cycle [+2 +1 -3] at 0)",
            '{"forces": true, "rule": "size3", "labeling": {"a": 2, "b": 1, "c": 3}, '
            '"cycle": {"pattern": "[+2 +1 -3]", "start": 0}}',
        ),
        _row(
            ["classify", "-s", "1,2,3,4"],
            1,
            "forces discrepancy two: yes (rule size4-bullet-1; a=2, b=1, c=3; cycle [+2 +1 -3] at 0)",
            '{"forces": true, "rule": "size4-bullet-1", "labeling": {"a": 2, "b": 1, "c": 3}, '
            '"cycle": {"pattern": "[+2 +1 -3]", "start": 0}, "satisfied_bullets": ["size4-bullet-1"]}',
        ),
        _row(
            ["classify", "-s", "1,2,7,10"],
            1,
            "forces discrepancy two: yes (rule size4-bullet-2; a=10, b=2, x=1, y=7; cycle [+2 -10 +2 +7 -1] at 48)",
            '{"forces": true, "rule": "size4-bullet-2", "labeling": {"a": 10, "b": 2, "x": 1, "y": 7}, '
            '"cycle": {"pattern": "[+2 -10 +2 +7 -1]", "start": 48}, "satisfied_bullets": ["size4-bullet-2"]}',
        ),
        # at three times its reduced scale
        _row(
            ["classify", "-s", "3,9,12,27"],
            1,
            "forces discrepancy two: yes (rule size4-bullet-3; a=12, x=9, y=27, z=3; cycle [+12 +9 -27 +9 -3] at 168)",
            '{"forces": true, "rule": "size4-bullet-3", "labeling": {"a": 12, "x": 9, "y": 27, "z": 3}, '
            '"cycle": {"pattern": "[+12 +9 -27 +9 -3]", "start": 168}, "satisfied_bullets": ["size4-bullet-3"]}',
        ),
        _row(
            ["classify", "-s", "1,3,5,8"],
            1,
            "forces discrepancy two: yes (rule size4-bullet-4; a=8, x=3, y=5, z=1; cycle [+8 +1 -3 +1 -5 +1 -3] at 48)",
            '{"forces": true, "rule": "size4-bullet-4", "labeling": {"a": 8, "x": 3, "y": 5, "z": 1}, '
            '"cycle": {"pattern": "[+8 +1 -3 +1 -5 +1 -3]", "start": 48}, "satisfied_bullets": ["size4-bullet-4"]}',
        ),
        _row(
            ["classify", "-s", "4,9"],
            0,
            "forces discrepancy two: no",
            '{"forces": false, "rule": "none", "labeling": null}',
        ),
        _row(["color", "-s", "2,3,4"], 0, COLORING_234, f'{{"period": 24, "coloring": "{COLORING_234}"}}'),
        _row(
            ["color", "-s", "1,2,3"],
            1,
            "odd cycle: [+2 +1 -3] at 0",
            '{"odd_cycle": {"start": 0, "signs": [1, 1, -1], "skips": [2, 1, 3], "terms": [0, 2, 3, 0]}}',
        ),
        _row(
            ["cycle", "-s", "1,3,5,8"],
            0,
            "odd cycle: [+8 +1 -3 +1 -5 +1 -3] at 48",
            '{"certificate": {"start": 48, "signs": [1, 1, -1, 1, -1, 1, -1], '
            '"skips": [8, 1, 3, 1, 5, 1, 3], "terms": [48, 56, 57, 54, 55, 50, 51, 48]}}',
        ),
        _row(["cycle", "-s", "2,3,4"], 0, "none", '{"certificate": null}'),
        _row(
            ["check", "-p", "[5 1 10]"],
            0,
            "forbidden (no signing fits steps 0..2)",
            '{"status": "forbidden", "failure": {"i": 0, "j": 2, "reason": "no-signing"}}',
        ),
        _row(
            ["check", "-p", "[1 3 2]"],
            0,
            "realizable at 8 via [+1 -3 -2]",
            '{"status": "realizable", "start": 8, "signed": "[+1 -3 -2]"}',
        ),
        # no signing of [1 1 1] is strict, so the first weak one is reported
        _row(
            ["check", "-p", "[1 1 1]"],
            0,
            "weakly-realizable at 0 via [+1 -1 +1]",
            '{"status": "weakly-realizable", "start": 0, "signed": "[+1 -1 +1]"}',
        ),
        _row(
            ["check", "-p", "[+4 +3 -1 +2]"],
            0,
            "forbidden (parity fails on steps 0..3)",
            '{"status": "forbidden", "failure": {"i": 0, "j": 3, "reason": "parity"}}',
        ),
        # parity fails on steps 0..2 too, but [+1 -1] walks: the window is
        # steps 1..2, where the signing walk dies
        _row(
            ["check", "-p", "[+1 -1 -1]"],
            0,
            "forbidden (parity fails on steps 1..2)",
            '{"status": "forbidden", "failure": {"i": 1, "j": 2, "reason": "parity"}}',
        ),
        _row(
            ["realize", "-p", "[2 1 3]", "--start", "0"],
            0,
            "[+2 +1 -3] at 0: terms 0 2 3 0",
            '{"start": 0, "signs": [1, 1, -1], "skips": [2, 1, 3], "terms": [0, 2, 3, 0]}',
        ),
        _row(
            ["realize", "-p", "[+2 +1 -3]", "--start", "1"],
            0,
            "[+2 +1 -3] at 1: terms 1 3 4 1 (parity violations at [0, 1, 2])",
            '{"start": 1, "signs": [1, 1, -1], "skips": [2, 1, 3], "terms": [1, 3, 4, 1], '
            '"parity_violations": [0, 1, 2]}',
        ),
        _row(
            ["longest", "-s", "1,5,7", "--kind", "path"],
            0,
            "3 path 7 11 [1 5 1 7 1 5 1]",
            '{"kind": "path", "length": 7, "start": 11, "pattern": "[1 5 1 7 1 5 1]", '
            '"signed": "[-1 +5 -1 +7 -1 +5 -1]", "lower_bound": false}',
        ),
        _row(
            ["longest", "--max-len", "3", "-s", "1,5,7"],
            0,
            "3 path 3 1 [1 5 1] (lower bound)",
            '{"kind": "path", "length": 3, "start": 1, "pattern": "[1 5 1]", '
            '"signed": "[-1 +5 -1]", "lower_bound": true}',
        ),
        _row(
            ["longest", "-s", "1,3,4,6,10,59", "--kind", "cycle", "--max-len", "25"],
            0,
            "6 cycle 25 6840 [6 3 1 4 6 3 1 10 3 1 4 6 3 1 4 10 1 3 6 3 1 4 3 59 4] (lower bound)",
            '{"kind": "odd-cycle", "length": 25, "start": 6840, '
            '"pattern": "[6 3 1 4 6 3 1 10 3 1 4 6 3 1 4 10 1 3 6 3 1 4 3 59 4]", '
            '"signed": "[+6 +3 -1 +4 +6 +3 -1 +10 +3 -1 +4 +6 +3 -1 -4 +10 +1 -3 +6 +3 -1 +4 +3 -59 -4]", '
            '"lower_bound": true}',
        ),
        _row(["longest", "-s", "1,2", "--kind", "cycle"], 0, "none", '{"result": null}'),
        # no cycle fits in 5 steps, but cap 9 finds a 7-cycle
        _row(
            ["longest", "-s", "1,3,5,8", "--kind", "cycle", "--max-len", "5"],
            0,
            "none (lower bound)",
            '{"result": null, "lower_bound": true}',
        ),
        _row(
            ["reduce", "-a", "1,2,3"],
            0,
            "M=1680 r=12 t=18481 s=[25201, 30241, 35281] ess: positive X=[1, 2] Y=[3] "
            "cycle=[+25201 -35281 +30241 -18481 -1680]",
            '{"M": 1680, "r": 12, "t": 18481, "s": [25201, 30241, 35281], '
            '"ess": {"answer": true, "X": [1, 2], "Y": [3]}, "cycle": "[+25201 -35281 +30241 -18481 -1680]"}',
        ),
        _row(
            ["reduce", "-a", "1,2,4"],
            0,
            "M=6552 r=18 t=111385 s=[137593, 157249, 196561] ess: negative",
            '{"M": 6552, "r": 18, "t": 111385, "s": [137593, 157249, 196561], "ess": {"answer": false}}',
        ),
        _row(
            ["verify", "--coloring", "COLORING", "-s", "2,3,4", "--horizon", "240"],
            0,
            "max |d(s,k)| = 1 up to horizon 240",
            '{"max_discrepancy": 1, "horizon": 240}',
        ),
    ],
)
@pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
def test_output_contract(capsys, tmp_path, argv, exit_code, human_line, json_line, as_json):
    # every verb writes its one exact stdout line, JSON key order
    # included, nothing on stderr, and the README's exit code, in both
    # output modes
    coloring = tmp_path / "coloring.txt"
    block = solve_block(build_graph((2, 3, 4)))
    assert isinstance(block, Coloring)
    coloring.write_text(block.line() + "\n")
    argv = [str(coloring) if a == "COLORING" else a for a in argv]
    code = main(argv + ["--json"] if as_json else argv)
    captured = capsys.readouterr()
    assert code == exit_code
    assert captured.err == ""
    lines = captured.out.split("\n")
    assert len(lines) == 2 and lines[0] and lines[1] == ""
    assert lines[0] == (json_line if as_json else human_line)
    if as_json:
        assert isinstance(json.loads(lines[0]), dict)


@pytest.mark.parametrize(
    "skips,read,exit_code",
    [
        # a 524 170-token coloring whose reader stops after 10 bytes
        ("1,5,23,43,53", 10, 0),
        # a forcing set whose reader is gone before the one line is written
        ("1,2,3", 0, 1),
    ],
)
def test_closed_pipe_keeps_the_exit_code(skips, read, exit_code):
    env = dict(os.environ, PYTHONPATH=str(Path(hapdisc.cli.__file__).parents[1]))
    argv = [sys.executable, "-m", "hapdisc.cli", "color", "-s", skips]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        if read:
            assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        assert proc.wait(timeout=60) == exit_code
        assert proc.stderr.read() == b""


def test_usage_error_on_bad_skips(capsys):
    code, _, err = run(capsys, "classify", "-s", "1,x,3")
    assert code == 2
    assert "comma-separated" in err


@pytest.mark.parametrize(
    "argv,err",
    [
        (["classify", "-s", "-1,2"], "error: skips must be positive, got (-1, 2)"),
        (["classify", "--skips", "-1,2"], "error: skips must be positive, got (-1, 2)"),
        (["reduce", "-a", "-1,1"], "error: elements must be positive, got (-1, 1)"),
        (["reduce", "--elements", "-1,1"], "error: elements must be positive, got (-1, 1)"),
    ],
    ids=["-s", "--skips", "-a", "--elements"],
)
def test_negative_list_reaches_the_library_check(capsys, argv, err):
    # argparse alone would take "-1,2" for an option and print its usage
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err + "\n")


@pytest.mark.parametrize(
    "argv,err",
    [
        (["classify", "-s", ","], "error: skip set must be nonempty"),
        (["color", "-s", ","], "error: skip set must be nonempty"),
        (["longest", "-s", ","], "error: skip set must be nonempty"),
        (
            ["verify", "--coloring", "COLORING", "-s", ",", "--horizon", "3"],
            "error: skip set must be nonempty",
        ),
        (["reduce", "-a", ","], "error: instance must be nonempty"),
    ],
    ids=["classify", "color", "longest", "verify", "reduce"],
)
def test_empty_list_reaches_the_library_check(capsys, tmp_path, argv, err):
    # the CLI parses a list of no integers and leaves it to the library
    coloring = tmp_path / "coloring.txt"
    coloring.write_text("+1 -1\n")
    code = main([str(coloring) if a == "COLORING" else a for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err + "\n")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# --- every verb on small, partly malformed argv, all in one process ---------

_ints = st.integers(-3, 20).map(str)  # at most 20, so no --max-len drawn exceeds 20
_junk = st.sampled_from(
    ["", "x", "-", "--", "-s", "-p", "-a", "--json", "--kind", "--start", "--horizon",
     "--coloring", "--max-len", "--max-period", "--erdos-indexing", "--bogus", "-h",
     "1,,2", "1.5", "1e3", "0x10", "[", "]", "[+2 +1 -3]", "[2 0 1]", "+", "color", "path"]
)
_token = st.one_of(_ints, _junk)
_skips = st.one_of(
    st.lists(st.integers(1, 24), min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.lists(st.integers(-2, 24), min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    _token,
)
_pattern = st.one_of(
    st.lists(
        st.tuples(st.sampled_from(["", "+", "-"]), st.integers(0, 12)), min_size=1, max_size=6
    ).map(lambda steps: "[" + " ".join(f"{s}{a}" for s, a in steps) + "]"),
    _token,
)
_big = st.one_of(st.integers(-50, 10**6), st.integers(10**30, 10**31)).map(str)


@st.composite
def _argv(draw, coloring_files):
    """A verb, the budget it runs under, and a body of 40 tokens or fewer:
    a well-formed body, the same with one token replaced, inserted or
    dropped, or tokens drawn at random."""
    verb = draw(st.sampled_from(
        ["classify", "color", "cycle", "check", "realize", "longest", "reduce", "verify"]
    ))
    budget = []
    if verb in ("color", "cycle"):
        budget = ["--max-period", str(draw(st.one_of(st.just(1 << 14), st.integers(0, 1 << 14))))]
    elif verb == "longest":
        budget = ["--max-len", str(draw(st.integers(1, 20)))]
    body = {
        "classify": lambda: ["-s", draw(_skips)],
        "color": lambda: ["-s", draw(_skips), *draw(st.sampled_from([[], ["--erdos-indexing"]]))],
        "cycle": lambda: ["-s", draw(_skips), *draw(st.sampled_from([[], ["--erdos-indexing"]]))],
        "check": lambda: ["-p", draw(_pattern)],
        "realize": lambda: ["-p", draw(_pattern), "--start", draw(_big)],
        "longest": lambda: ["-s", draw(_skips), "--kind", draw(st.sampled_from(["path", "cycle", "x"]))],
        "reduce": lambda: ["-a", draw(st.lists(st.integers(-3, 60), min_size=1, max_size=6).map(
            lambda xs: ",".join(map(str, xs))))],
        "verify": lambda: ["--coloring", draw(st.sampled_from(coloring_files)), "-s", draw(_skips),
                           "--horizon", draw(_big)],
    }[verb]()
    body += draw(st.sampled_from([[], ["--json"]]))
    how = draw(st.sampled_from(["keep", "keep", "replace", "insert", "drop", "random"]))
    if how == "random":
        body = draw(st.lists(_token, max_size=36))
    elif how != "keep":
        at = draw(st.integers(0, len(body) - (how != "insert")))
        tail = body[at + (how != "insert"):]
        body = body[:at] + ([] if how == "drop" else [draw(_token)]) + tail
    return [verb, *budget, *body]


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
            assert code in (0, 1, 2), (argv, code)
        except SystemExit as exc:  # argparse: --help, --version or a usage error
            assert exc.code in (0, 2), (argv, exc.code)
            code = f"SystemExit({exc.code})"
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def coloring_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("colorings")
    files = {"good.txt": "+1 -1 +1 -1", "bad.txt": "+1 0 -1", "empty.txt": ""}
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return [str(root / name) for name in [*files, "missing.txt"]]


def test_main_exit_codes_on_any_small_argv(coloring_files):
    # main returns 0, 1 or 2, or argparse exits 0 or 2, and nothing else
    # escapes.  The parser is built once per process, so a second run of
    # the same argv must print and return exactly what the first did.
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(_argv(coloring_files))
    @example(["--version"])
    @example(["color", "--max-period", "16384", "-s", "2,3,4"])
    @example(["color", "--max-period", "16384", "-s", "1,2,3", "--erdos-indexing"])
    @example(["classify", "-s", "1,2,3", "--json"])
    @example(["verify", "--coloring", coloring_files[0], "-s", "1", "--horizon", "8"])
    @example(["longest", "--max-len", "5", "-s", "1,5,7", "--max-len", "0"])
    @example([])
    @example(["classify", "-s", "-1,2"])
    @example(["reduce", "-a", "-1,1"])
    @example(["color", "-s", f"1,{2**62}", "--max-period", str(10**20)])
    def check(argv):
        assert len(argv) <= 40
        assert _run_in_process(argv) == _run_in_process(argv), argv

    check()
