"""What each workload's op runs, and the independent check of its output.

An op calls hapdisc exactly as the matching CLI verb does.  Library
functions are looked up on their modules at call time, so the tracer's
wrappers see every call.  A check returns (failure reason or None, the
output as text for the digest); it uses only ``oracle`` and the answers
``inputs`` computed without hapdisc.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import statistics

import oracle

hcli = importlib.import_module("hapdisc.cli")
hclassify = importlib.import_module("hapdisc.classify")
hpattern = importlib.import_module("hapdisc.pattern")
hreal = importlib.import_module("hapdisc.realizability")
hreduction = importlib.import_module("hapdisc.reduction")
hsearch = importlib.import_module("hapdisc.search")
hskip = importlib.import_module("hapdisc.skipgraph")

CYCLE_MAX_LEN = 25


class Context:
    """What the checks learn during a run: the input properties."""

    def __init__(self):
        self.props = {}
        self.forcing_verdict = False  # the last check saw a forcing verdict

    def note(self, name, value):
        self.props.setdefault(name, []).append(value)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _steps_text(steps):
    return " ".join(f"{sign:+d}{a}" for sign, a in steps)


# --- blocks: `hapdisc color --json` and `hapdisc cycle --json` -------------


def run_cli(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = hcli.main(op["args"])
    return rc, out.getvalue()


def check_cli(op, result, ctx):
    rc, out = result
    verb, skips, expect = op["args"][0], op["key"], op["expect"]
    period = 2 * math.lcm(*skips)
    if verb == "color":
        forces = rc == 1
        if rc == 0:
            reason = oracle.coloring_json_failure(out, skips, period)
        elif rc == 1:
            reason = oracle.cycle_json_failure(json.loads(out)["odd_cycle"], skips)
        else:
            reason = f"color exited {rc}"
        ctx.forcing_verdict = forces
        ctx.note("forces", forces)
        ctx.note("period", period)
    else:
        cert = json.loads(out)["certificate"]
        forces = cert is not None
        reason = f"cycle exited {rc}" if rc != 0 else None
        if forces:
            reason = reason or oracle.cycle_json_failure(cert, skips)
    if forces != expect:
        reason = reason or f"{verb} says forces={forces}, the double-cover oracle {expect}"
    ctx.note(f"ops.{verb}", 1)
    return reason, f"{verb} {op['args'][2]} {rc} {_digest(out)}"


# --- sweep: classify, then the block solver --------------------------------


def run_sweep(op):
    verdict = hclassify.classify(op["args"])
    g = hskip.build_graph(op["args"])
    coloring = hskip.two_color(g)
    cert = hskip.find_odd_cycle(g) if coloring is None else None
    return verdict, g.period, coloring, cert


def check_sweep(op, result, ctx):
    verdict, period, coloring, cert = result
    skips = op["args"]
    if period != 2 * math.lcm(*skips):
        return "wrong period", ""
    if verdict.forces != (coloring is None):
        return "classify and color disagree", ""
    if coloring is not None:
        reason = oracle.coloring_failure(coloring.values, skips, period)
        shown = _digest(coloring.values.tobytes().hex())
    else:
        steps = cert.signed_pattern.steps
        reason = oracle.walk_failure(steps, cert.start, set(skips), closed=True)
        shown = f"{cert.start} {_steps_text(steps)}"
    if reason is None and verdict.forces:
        reason = oracle.walk_failure(
            verdict.predicted_cycle.steps, verdict.predicted_start, set(skips), closed=True
        )
    ctx.forcing_verdict = verdict.forces
    ctx.note("forces", verdict.forces)
    ctx.note("period", period)
    ctx.note(f"size{len(skips)}", 1)
    return reason, f"{skips} {verdict.rule} {shown}"


# --- search: extremal paths and cycles, then the rule engine ---------------


def run_search(op):
    if op["kind"] == "rowscan":
        args = op["args"]
        if "steps" in args:
            pattern = hpattern.SignedPattern(tuple(map(tuple, args["steps"])))
        else:
            pattern = hpattern.Pattern(tuple(args["skips"]))
        return hsearch.rule_scan(pattern)
    skips = op["args"]
    path = hsearch.longest_path(skips)
    cycle = hsearch.longest_odd_cycle(skips, max_len=CYCLE_MAX_LEN)
    found = [path] + ([cycle] if cycle is not None else [])
    rules = [hsearch.rule_scan(p) for r in found for p in (r.signed, r.pattern)]
    return path, cycle, rules


def check_search(op, result, ctx):
    if op["kind"] == "rowscan":
        # the stored row realizes, so no forbidden-shape rule may fire
        ctx.note("ops.rowscan", 1)
        return ("rule_scan rejects a realizable row" if result.forbidden else None), f"rowscan {result}"
    skips, min_len = op["args"], op["expect"] or 0
    path, cycle, rules = result
    steps = path.signed.steps
    reason = oracle.walk_failure(steps, path.start, set(skips))
    if reason is None and (path.length != len(steps) or path.pattern.skips != path.signed.skips):
        reason = "path length or pattern does not match its steps"
    if reason is None and path.length < min_len:
        reason = f"path of {path.length} steps is shorter than the stored row ({min_len})"
    if reason is None and cycle is not None:
        reason = oracle.walk_failure(cycle.signed.steps, cycle.start, set(skips), closed=True)
    if reason is None and (rules[0].forbidden or rules[1].forbidden):
        reason = "rule_scan rejects a realizable path"
    ctx.note(f"size{len(skips)}", 1)
    ctx.note("path_length", path.length)
    ctx.note("cycle_length", cycle.length if cycle is not None else 0)
    shown = f"{path.start} {_steps_text(steps)}"
    if cycle is not None:
        shown += f" | {cycle.start} {_steps_text(cycle.signed.steps)} {cycle.lower_bound}"
    shown += " | " + " ".join(str(r.rule_id) for r in rules)
    return reason, f"{skips} {shown}"


# --- arith: `check` on long patterns and `reduce` on ESS instances ---------


def run_arith(op):
    if op["kind"] == "check":
        return hreal.strict_realizability(hpattern.parse_pattern(op["args"]["text"]))
    inst = hreduction.ESSInstance.of(op["args"])
    ri = hreduction.build_d1_instance(inst)
    witness = hreduction.ess_solve(inst)
    if witness is None:
        return ri, None, None, None
    cycle = hreduction.witness_cycle(ri, witness)
    return ri, witness, cycle, hreal.weakly_realizable(cycle)


def check_arith(op, result, ctx):
    if op["kind"] == "reduce":
        return _check_reduce(op, result, ctx)
    v, args, expect = result, op["args"], op["expect"]
    ctx.note(f"check.{op['key']}", 1)
    ctx.note("pattern_length", args["text"].count(" ") + 1)
    shown = f"{v.status} {v.witness_start}"
    if op["key"] == "row":
        if v.status != expect:
            return f"stored row reported {v.status}", shown
        return oracle.walk_failure(v.signed.steps, v.witness_start), shown
    if expect is None:
        if v.status != "forbidden":
            return f"forbidden pattern reported {v.status}", shown
        f, steps = v.failure, args["steps"]
        shown += f" {f.i} {f.j} {f.reason}"
        ctx.note("failure_step", f.j / len(steps))
        if oracle.least_start(steps[f.i : f.j + 1]) is not None:
            return f"reported subpath {f.i}..{f.j} is walkable", shown
        return None, shown
    if [v.status, v.witness_start] != expect:
        return f"expected {expect[0]} at {expect[1]}, got {shown}", shown
    return None, shown


def _check_reduce(op, result, ctx):
    elements, cls, expect = op["args"], op["key"], op["expect"]
    ri, witness, cycle, verdict = result
    reason = oracle.reduction_failure(elements, ri.M, ri.r, ri.s, ri.t)
    ctx.note(f"ess.{cls}.positive", witness is not None)
    ctx.note(f"ess.{cls}.n", len(elements))
    if (witness is not None) != expect:
        reason = reason or f"ess_solve says {witness is not None}, the meet-in-the-middle oracle {expect}"
    if witness is None:
        return reason, f"{elements} none {_digest(hex(ri.M))}"
    reason = reason or oracle.ess_witness_failure(elements, witness.x_indices, witness.y_indices)
    if reason is None and verdict.status != "weakly-realizable":
        reason = f"witness cycle reported {verdict.status}"
    if reason is None:
        skips = set(ri.skip_set)
        reason = oracle.walk_failure(cycle.steps, verdict.witness_start, skips, closed=True, strict=False)
    # hex: the start can pass the limit on int-to-decimal conversion
    shown = f"{elements} {witness.x_indices} {witness.y_indices} {_digest(hex(verdict.witness_start))}"
    return reason, shown


WORKLOADS = {
    "blocks": (run_cli, check_cli),
    "sweep": (run_sweep, check_sweep),
    "search": (run_search, check_search),
    "arith": (run_arith, check_arith),
}

def summarize(props):
    """Input properties recorded with the results."""
    out = {}
    for name, values in sorted(props.items()):
        if all(isinstance(v, bool) for v in values):
            out[name + ".share"] = sum(values) / len(values)
        elif name.startswith(("ops.", "check.", "size")):
            out[name] = len(values)
        else:
            out[name] = {"min": min(values), "median": statistics.median(values), "max": max(values)}
    return out
