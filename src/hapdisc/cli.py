"""Command-line front end.

Verbs map one-to-one onto the library: classify (closed forms, sizes
1-4), color / cycle (skip-graph block), check (pattern realizability),
realize (walk a pattern from a start term), longest (pruned search),
reduce (equal-sum-subsets transformation) and verify (discrepancy of a
stored coloring).  The library returns records and has no output
methods: each verb formats its record here, building the JSON payload
and the human line side by side from the record's fields, and returns
(payload, human line, exit code) without printing.  ``realize`` and
every odd-cycle certificate share one walk object, ``{start, signs,
skips, terms}``.  ``main`` writes the one stdout line, the human line by
default or the payload as JSON with --json (a payload that is already
JSON text, such as a coloring's, as it is), and turns a ValueError into
``error: ...`` and a MemoryError into ``error: out of memory...`` on
stderr.  Exit codes: 0 success, 1 when classify/color establish that
the set forces discrepancy two (so shell scripts can branch on it), 2
for usage or input errors and for a block too large to allocate.

Functions of ``skipgraph``, ``search`` and ``reduction`` are looked up on
their module at call time, so a patch of, say,
``hapdisc.skipgraph.solve_block`` reaches the verb.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from typing import TYPE_CHECKING

from . import __version__
from .classify import classify
from .pattern import (
    DEFAULT_PERIOD_CAP,
    Pattern,
    Realization,
    SignedPattern,
    format_pattern,
    infer_signs,
    parse_pattern,
    realize,
)
from .realizability import strict_realizability, weakly_realizable

if TYPE_CHECKING:
    from .skipgraph import Coloring, OddCycleCertificate


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r}; expected comma-separated integers")
    return values


def _mirrored(args, period: int, found):
    """A coloring or odd cycle moved onto progression positions 1..period
    under --erdos-indexing, else unchanged.

    Position i is vertex period - i, so a coloring reads backwards and
    every step of a cycle flips its sign.
    """
    if not args.erdos_indexing:
        return found
    from .skipgraph import Coloring, OddCycleCertificate

    if isinstance(found, Coloring):
        return Coloring(found.signs[::-1])
    sp = SignedPattern(tuple((-s, a) for s, a in found.signed_pattern.steps))
    return OddCycleCertificate(sp, period - found.start)


def _walk_json(walk: Realization) -> dict:
    """The walk object of ``realize`` and of every odd-cycle certificate."""
    sp = walk.pattern
    return {"start": walk.start, "signs": list(sp.signs), "skips": list(sp.skips), "terms": list(walk.terms)}


def _cycle(cert: OddCycleCertificate) -> tuple[dict, str]:
    walk = _walk_json(realize(cert.signed_pattern, cert.start))
    return walk, f"odd cycle: {format_pattern(cert.signed_pattern)} at {cert.start}"


def _cmd_classify(args) -> tuple[dict, str, int]:
    result = classify(_parse_int_list(args.skips, "skip set"))
    payload: dict = {"forces": result.forces, "rule": result.rule, "labeling": result.labeling}
    human = "forces discrepancy two: no"
    if result.forces:
        cycle = format_pattern(result.predicted_cycle)
        payload["cycle"] = {"pattern": cycle, "start": result.predicted_start}
        labeling = ", ".join(f"{k}={v}" for k, v in result.labeling.items())
        human = (
            f"forces discrepancy two: yes (rule {result.rule}; {labeling}; "
            f"cycle {cycle} at {result.predicted_start})"
        )
    if result.satisfied_bullets:
        payload["satisfied_bullets"] = list(result.satisfied_bullets)
    return payload, human, int(result.forces)


def _block(args) -> tuple[int, Coloring | OddCycleCertificate]:
    from . import skipgraph

    g = skipgraph.build_graph(_parse_int_list(args.skips, "skip set"), args.max_period)
    return g.period, _mirrored(args, g.period, skipgraph.solve_block(g))


def _cmd_color(args) -> tuple[dict | str | None, str, int]:
    from .skipgraph import Coloring

    period, found = _block(args)
    if isinstance(found, Coloring):
        # JSON escapes none of "+-1 ", so the payload is the line wrapped,
        # not the line scanned again by json.dumps; only --json prints it
        line = found.line()
        return (f'{{"period": {period}, "coloring": "{line}"}}' if args.json else None), line, 0
    walk, human = _cycle(found)
    return {"odd_cycle": walk}, human, 1


def _cmd_cycle(args) -> tuple[dict, str, int]:
    from .skipgraph import Coloring

    _, found = _block(args)
    if isinstance(found, Coloring):
        return {"certificate": None}, "none", 0
    walk, human = _cycle(found)
    return {"certificate": walk}, human, 0


def _cmd_check(args) -> tuple[dict, str, int]:
    verdict = strict_realizability(parse_pattern(args.pattern))
    failure = verdict.failure
    payload: dict = {"status": verdict.status}
    if failure is not None:
        payload["failure"] = {"i": failure.i, "j": failure.j, "reason": failure.reason}
        human = f"forbidden ({failure.reason} fails on steps {failure.i}..{failure.j})"
    else:
        signed = format_pattern(verdict.signed)
        payload["start"] = verdict.witness_start
        payload["signed"] = signed
        human = f"{verdict.status} at {verdict.witness_start} via {signed}"
    return payload, human, 0


def _cmd_realize(args) -> tuple[dict, str, int]:
    p, start = parse_pattern(args.pattern), args.start
    if isinstance(p, Pattern):
        if start is None:
            raise ValueError("--start is required for unsigned patterns")
        p = infer_signs(p, start)
    elif start is None:
        start = weakly_realizable(p).witness_start
        if start is None:
            raise ValueError("pattern is not weakly realizable; give --start explicitly")
    walk = realize(p, start)
    payload = _walk_json(walk)
    human = f"{format_pattern(p)} at {start}: terms {' '.join(map(str, walk.terms))}"
    if walk.parity_violations:
        payload["parity_violations"] = list(walk.parity_violations)
        human += f" (parity violations at {payload['parity_violations']})"
    return payload, human, 0


def _cmd_longest(args) -> tuple[dict, str, int]:
    from . import search

    skips = _parse_int_list(args.skips, "skip set")
    if args.kind == "path":
        result = search.longest_path(skips, args.max_len)
    else:
        result = search.longest_odd_cycle(skips, args.max_len)
    if result is None:
        return {"result": None}, "none", 0
    pattern = format_pattern(result.pattern)
    payload = {
        "kind": result.kind,
        "length": result.length,
        "start": result.start,
        "pattern": pattern,
        "signed": format_pattern(result.signed),
        "lower_bound": result.lower_bound,
    }
    human = f"{len(set(skips))} {result.kind.replace('odd-', '')} {result.length} {result.start} {pattern}"
    return payload, human + (" (lower bound)" if result.lower_bound else ""), 0


def _cmd_reduce(args) -> tuple[dict, str, int]:
    from . import reduction

    inst = reduction.ESSInstance.of(_parse_int_list(args.elements, "instance"))
    # ess_solve's limits refuse an instance before its skips are built
    witness = reduction.ess_solve(inst)
    ri = reduction.build_d1_instance(inst)
    payload: dict = {
        "M": ri.M,
        "r": ri.r,
        "t": ri.t,
        "s": list(ri.s),
        "ess": {"answer": witness is not None},
    }
    human = f"M={ri.M} r={ri.r} t={ri.t} s={list(ri.s)}"
    if witness is not None:
        xv, yv = witness.values(inst)
        payload["ess"]["X"] = list(xv)
        payload["ess"]["Y"] = list(yv)
        cycle = reduction.witness_cycle(ri, witness)
        payload["cycle"] = format_pattern(cycle)
        human += f" ess: positive X={list(xv)} Y={list(yv)} cycle={format_pattern(cycle)}"
    else:
        human += " ess: negative"
    return payload, human, 0


def _read_coloring(path: str) -> list[int]:
    signs = {"+1": 1, "1": 1, "+": 1, "-1": -1, "-": -1}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise ValueError(f"cannot read coloring file {path}: {reason}")
    for tok in tokens:
        if tok not in signs:
            raise ValueError(f"bad coloring token {tok!r}; expected +1 or -1")
    if not tokens:
        raise ValueError(f"coloring file {path} is empty")
    return [signs[tok] for tok in tokens]


def _cmd_verify(args) -> tuple[dict, str, int]:
    from . import skipgraph

    coloring = skipgraph.Coloring.from_values(_read_coloring(args.coloring))
    coloring = _mirrored(args, coloring.period, coloring)
    worst = skipgraph.verify_discrepancy(coloring, _parse_int_list(args.skips, "skip set"), args.horizon)
    human = f"max |d(s,k)| = {worst} up to horizon {args.horizon}"
    return {"max_discrepancy": worst, "horizon": args.horizon}, human, 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hapdisc",
        description="decide and certify when a skip set forces discrepancy two",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    def add_cap(p):
        p.add_argument(
            "--max-period",
            type=int,
            default=DEFAULT_PERIOD_CAP,
            help=f"largest allowed period 2*lcm(S); default {DEFAULT_PERIOD_CAP}",
        )
        p.add_argument(
            "--erdos-indexing",
            action="store_true",
            help="mirror output onto progression positions 1..period",
        )

    p = sub.add_parser("classify", help="closed-form decision for |S| <= 4")
    p.add_argument("-s", "--skips", required=True, help="comma-separated skip set")
    add_json(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("color", help="2-color one period block or print an odd cycle")
    p.add_argument("-s", "--skips", required=True)
    add_json(p)
    add_cap(p)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("cycle", help="search the block graph for an odd cycle")
    p.add_argument("-s", "--skips", required=True)
    add_json(p)
    add_cap(p)
    p.set_defaults(func=_cmd_cycle)

    p = sub.add_parser("check", help="realizability verdict for a pattern")
    p.add_argument("-p", "--pattern", required=True, help="pattern in bracket notation")
    add_json(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("realize", help="walk a pattern from a start term")
    p.add_argument("-p", "--pattern", required=True)
    p.add_argument("--start", type=int, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("longest", help="longest realizable path or odd cycle")
    p.add_argument("-s", "--skips", required=True)
    p.add_argument("--kind", choices=("path", "cycle"), default="path")
    p.add_argument("--max-len", type=int, default=64)
    add_json(p)
    p.set_defaults(func=_cmd_longest)

    p = sub.add_parser("reduce", help="equal-sum-subsets to discrepancy-one instance")
    p.add_argument("-a", "--elements", required=True, help="comma-separated integers")
    add_json(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="max discrepancy of a stored coloring")
    p.add_argument("--coloring", required=True, help="file of +1/-1 tokens, one period")
    p.add_argument("-s", "--skips", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument(
        "--erdos-indexing",
        action="store_true",
        help="treat the file as progression positions 1..period",
    )
    add_json(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Integers of any size are read and printed exactly, so CPython's
    # int<->str digit limit is lifted for this run and the caller's value
    # restored after it: tests and benchmarks call main in-process.  The
    # parser is built once per process; each parse_args returns a fresh
    # Namespace.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        # argparse reads "-1,2" as an option, so a list option's value of that
        # form is joined to it ("-s=-1,2") and reaches the library's check.
        argv = sys.argv[1:] if argv is None else list(argv)
        for k in range(len(argv) - 2, -1, -1):
            if argv[k] in ("-s", "--skips", "-a", "--elements") and re.match(r"-\d", argv[k + 1]):
                argv[k : k + 2] = [f"{argv[k]}={argv[k + 1]}"]
        args = _build_parser().parse_args(argv)
        try:
            payload, human, code = args.func(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:  # a block too large to allocate is not a verdict
            print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
            return 2
        line = human
        if args.json:
            import json

            line = payload if isinstance(payload, str) else json.dumps(payload)
        try:
            print(line, flush=True)
        except BrokenPipeError:
            # The reader closed early (``| head``): stdout goes to devnull so
            # the flush at exit cannot fail again, and the verb keeps its code.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
