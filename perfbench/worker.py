"""One benchmark run in a fresh, single-threaded process.

Usage: python3 perfbench/worker.py --workload NAME --seconds S
       [--trace 0|1] [--ops N]  < ops.json
       python3 perfbench/worker.py --setup-only

The worker times its own ``import hapdisc, hapdisc.cli``, reads one pass
of the workload's ops (made by ``inputs``) from stdin, and runs them as a
closed loop: the next op starts only when the previous one has returned.
Each op's output is checked outside the timed region.  Untraced, it runs
as many whole passes as fit in ``--seconds`` of op time at the speed of
the first pass, so every run measures the same multiset of ops.  Traced,
it runs one pass untraced and then one traced.  ``--ops`` cuts the pass
short, for a self-test.  The last line of stdout is one JSON object.

Times are scaled to a fixed machine speed.  Shared cloud hosts change
speed: on a 2-vCPU Xeon VM the same pure-Python loop took 0.34-0.54 s
from one few-second phase to the next, and 25 s runs of the same workload
differed by up to 1.8x in ops/s.  So after each 0.1 s of ops the worker
times a fixed reference loop, and scales those ops' times by REF_S / (the
mean of the reference times just before and after them).  The wall-clock
figures go into the report as well.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

REF_S = 0.0015  # the reference loop's time at the speed results are scaled to
CHUNK_S = 0.1  # op time between two timings of the reference loop


def reference_s():
    """Best of two timings of a fixed pure-Python loop: how fast the
    machine runs right now."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def _attempt(run, check, op, ctx, call=None):
    """Run one op and check it: (failure reason or None, shown output, op seconds)."""
    start = time.perf_counter()
    try:
        result = call(run, op) if call else run(op)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return f"raised {exc!r}", "", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    ctx.forcing_verdict = False
    try:
        reason, shown = check(op, result, ctx)
    except Exception as exc:
        reason, shown = f"check raised {exc!r}", ""
    return reason, shown, elapsed


class Pass:
    """Latencies (wall and scaled), failures and the output digest of a
    sequence of ops."""

    def __init__(self, digest_ops):
        self.digest_ops = digest_ops
        self.wall = []
        self.scaled = []
        self.refs = []
        self.failures = []
        self.digest = hashlib.sha256()
        self._chunk = []
        self._ref = reference_s()

    def add(self, reason, shown, elapsed):
        if len(self.wall) < self.digest_ops:
            self.digest.update(shown.encode() + b"\n")
        self.wall.append(elapsed)
        if reason is not None:
            self.failures.append(f"op {len(self.wall) - 1}: {reason}")
        self._chunk.append(elapsed)
        if sum(self._chunk) >= CHUNK_S:
            self.flush()

    def flush(self):
        if self._chunk:
            ref = reference_s()
            self.refs.append(ref)
            factor = 2 * REF_S / (self._ref + ref)
            self.scaled += [t * factor for t in self._chunk]
            self._chunk, self._ref = [], ref


def latency_metrics(lat):
    lat = sorted(lat)
    n = len(lat)
    return {
        "ops_per_s": n / sum(lat),
        "p50_ms": 1e3 * statistics.median(lat),
        "p90_ms": 1e3 * lat[math.ceil(0.9 * n) - 1],  # nearest rank
    }


def run_pass(done, ops, run, check, ctx, call=None):
    """Run every op once; return the indices of ops with a forcing verdict."""
    forcing = []
    for k, op in enumerate(ops):
        wrapped = call and (lambda r, o, k=k: call(k, r, o))
        done.add(*_attempt(run, check, op, ctx, wrapped))
        if ctx.forcing_verdict:
            forcing.append(k)
    return forcing


def measured(ops, run, check, ctx, seconds):
    gc.collect()
    done = Pass(len(ops))
    run_pass(done, ops, run, check, ctx)
    for _ in range(max(1, round(seconds / sum(done.wall))) - 1):
        run_pass(done, ops, run, check, ctx)
    done.flush()
    metrics = dict(latency_metrics(done.scaled), peak_rss_mb=peak_rss_mb())
    return done, metrics, {"wall": latency_metrics(done.wall), "reference_ms": 1e3 * statistics.median(done.refs)}


def peak_rss_mb():
    """Peak RSS of this process image.  ru_maxrss is not used: after a
    spawn it can carry the parent's peak into the child."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced(ops, run, check, ctx):
    import tracing

    plain = Pass(0)
    run_pass(plain, ops, run, check, ctx)
    plain.flush()
    tracer = tracing.Tracer()
    tracer.install()
    ctx.props.clear()  # record the inputs of one pass
    done = Pass(len(ops))
    forcing = run_pass(done, ops, run, check, ctx, tracer.run_op)
    done.flush()
    metrics = layer_metrics(tracer, forcing, sum(plain.wall), sum(done.wall))
    overhead = sum(done.scaled) - sum(plain.scaled)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / sum(plain.scaled)
    done.wall += plain.wall
    done.failures += plain.failures
    return done, metrics, {"untraced_wall_s": sum(plain.wall), "traced_wall_s": sum(done.wall)}


def layer_metrics(tracer, forcing_ops, plain_s, traced_s):
    calls, incl, own = tracer.totals()
    merges = sum(n for (name, _), n in tracer.counts.items() if name == "numeric.crt_merge")
    search_merges = sum(
        n for (name, where), n in tracer.counts.items()
        if name == "numeric.crt_merge" and where and where.startswith("search.")
    )
    search_self = sum(t for name, t in own.items() if name.startswith("search."))

    def ratio(a, b):
        return a / b if b else 0.0

    two_color = incl["skipgraph.two_color"]
    weak = incl["realizability.weakly_realizable"]
    return {
        "two_color.s": two_color,
        "two_color.vertices_per_s": ratio(tracer.work["skipgraph.two_color"], two_color),
        "find_odd_cycle.s": incl["skipgraph.find_odd_cycle"],
        "find_odd_cycle.calls": calls["skipgraph.find_odd_cycle"],
        "bfs_passes_per_set": ratio(sum(tracer.block_passes[k] for k in forcing_ops), len(forcing_ops)),
        "coloring_line.s": incl["skipgraph.Coloring.line"],
        "build_graph.s": incl["skipgraph.build_graph"],
        "main.self_s": own["cli.main"],
        "classify.us_per_call": 1e6 * ratio(incl["classify.classify"], calls["classify.classify"]),
        "classify.calls": calls["classify.classify"],
        "weakly_realizable.us_per_step": 1e6 * ratio(weak, tracer.work["realizability.weakly_realizable"]),
        "weakly_realizable.calls": calls["realizability.weakly_realizable"],
        "strict_realizability.s": incl["realizability.strict_realizability"],
        "valid_odd_cycle.s": incl["realizability.valid_odd_cycle"],
        "valid_odd_cycle.calls": calls["realizability.valid_odd_cycle"],
        "crt_merge.calls": merges,
        "crt_merge.per_s": ratio(merges, plain_s),
        "crt_solve.calls": calls["numeric.crt_solve"],
        "realize.calls": calls["pattern.realize"],
        "realize.s": incl["pattern.realize"],
        "parse_pattern.s": incl["pattern.parse_pattern"],
        "longest_path.s": incl["search.longest_path"],
        "longest_odd_cycle.s": incl["search.longest_odd_cycle"],
        "rule_scan.s": incl["search.rule_scan"],
        "merges_per_s": ratio(search_merges, search_self),
        "ess_solve.s": incl["reduction.ess_solve"],
        "ess_solve.calls": calls["reduction.ess_solve"],
        "ess_solve.share": ratio(incl["reduction.ess_solve"], traced_s),
        "build_d1_instance.s": incl["reduction.build_d1_instance"],
        "witness_cycle.s": incl["reduction.witness_cycle"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None, help="run only the first N ops of the pass")
    ap.add_argument("--setup-only", action="store_true", help="time the import and exit")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    import hapdisc
    import hapdisc.cli  # noqa: F401

    setup_wall_s = time.perf_counter() - start
    setup = {"setup_s": setup_wall_s * REF_S / reference_s(), "setup_wall_s": setup_wall_s}
    src = os.environ["PERFBENCH_SRC"]
    if os.path.commonpath([os.path.realpath(hapdisc.__file__), src]) != src:
        sys.exit(f"hapdisc was imported from {hapdisc.__file__}, not from {src}")
    if args.setup_only:
        print(json.dumps(setup))
        return

    import workloads

    run, check = workloads.WORKLOADS[args.workload]
    ops = json.load(sys.stdin)[: args.ops]
    ctx = workloads.Context()
    if args.trace:
        done, metrics, extra = traced(ops, run, check, ctx)
    else:
        done, metrics, extra = measured(ops, run, check, ctx, args.seconds)
    print(json.dumps({
        **setup,
        **extra,
        "attempted": len(done.wall),
        "failed": len(done.failures),
        "failures": done.failures[:5],
        "metrics": metrics,
        "digest": done.digest.hexdigest(),
        "inputs": workloads.summarize(ctx.props),
    }))


if __name__ == "__main__":
    main()
