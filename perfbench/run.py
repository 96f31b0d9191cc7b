"""hapdisc benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload {blocks,sweep,search,arith} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --selftest

Run from the root of a source checkout; hapdisc is imported from ./src.
The parent makes the seeded inputs (``inputs``) and hands one pass of them
to a fresh single-threaded worker (``worker``).  Untraced (--trace 0), the
worker runs whole passes for about S seconds of op time and the run
reports ops_per_s, p50_ms, p90_ms, setup_s (the median import time of
seven fresh processes) and peak_rss_mb; times are scaled to a reference
machine speed, as ``worker`` explains.  Traced (--trace 1), the worker
runs one pass untraced and one with spans around every public hapdisc
function, and the run reports per-layer numbers and the tracing overhead.
The last stdout line is the JSON result; the line before it is a report
with the machine, the failed ratio, the wall-clock figures, the digest of
the outputs and the input properties.  Failed ops (an op that raises,
exits with an unexpected code or fails its check) are counted in "failed"
and make "correct" false.  The metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("blocks", "sweep", "search", "arith")
SETUP_PROBES = 6  # fresh workers that only time the import; plus the measuring worker
TIMEOUT_S = 170

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _env():
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PERFBENCH_SRC=str(SRC.resolve()),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _python(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_env(), input=stdin,
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def run_worker(workload, seed, seconds, trace, extra=()):
    ops = inputs.GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    args = [str(HERE / "worker.py"), "--workload", workload,
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    return json.loads(_python(args, json.dumps(ops)))


def setup_seconds(worker_setup):
    probe = [str(HERE / "worker.py"), "--setup-only"]
    samples = [json.loads(_python(probe))["setup_s"] for _ in range(SETUP_PROBES)]
    return statistics.median(samples + [worker_setup])


def machine(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "commit": _commit(), "seed": seed}


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def one_run(workload, seed, seconds, trace, extra=()):
    """Run one workload; return (report, result) as printed."""
    out = run_worker(workload, seed, seconds, trace, extra)
    attempted, failed = out["attempted"], out["failed"]
    if trace:
        values, units = out["metrics"], LAYER_UNITS
    else:
        values, units = dict(out["metrics"], setup_s=setup_seconds(out["setup_s"])), UNITS
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    report = {
        "workload": workload,
        "trace": trace,
        "machine": machine(seed),
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        "failures": out["failures"],
        "wall_clock": {k: out[k] for k in ("wall", "reference_ms", "untraced_wall_s", "traced_wall_s", "setup_wall_s") if k in out},
        "digest": out["digest"],
        "inputs": out["inputs"],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def selftest():
    """Every workload for a few ops, untraced and traced: the worker
    reports exactly the metrics BENCHMARK.json names, and no op fails."""
    for workload in WORKLOADS:
        for trace, units in ((0, UNITS), (1, LAYER_UNITS)):
            out = run_worker(workload, 1, 0, trace, ["--ops", "4"])
            got = set(out["metrics"]) | ({"setup_s"} if not trace else set())
            if got != set(units):
                raise SystemExit(f"selftest {workload}: metrics differ from BENCHMARK.json: {got ^ set(units)}")
            if out["failed"]:
                raise SystemExit(f"selftest {workload}: failed ops {out['failures']}")
            print(f"selftest {workload} trace={trace}: {len(got)} metrics, {out['attempted']} ops, failed_ratio 0")
    print("selftest ok")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "hapdisc" / "__init__.py").is_file():
        sys.exit(f"error: no hapdisc sources under {SRC}; run from a source checkout")
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    report, result = one_run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
