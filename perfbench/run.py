#!/usr/bin/env python3
"""circreg benchmark: end-to-end timings with a correctness gate, or, with
``--trace 1``, per-layer spans and counts recorded from outside ``src/``.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

Workloads are described in ``workloads.py``.  A run builds the inputs from
the seed, then runs timed passes until the next one would overrun
``--seconds``; the first pass also counts and checks the tables verify sweeps.
Every output is checked by ``gate.py``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (per-case medians, every sample, run metadata and, when traced, the
spans of the last traced pass) goes to ``perfbench/results/``.

Times are reported at a fixed machine speed.  On a shared host the speed a
process gets drifts over minutes, by more than a metric may worsen, so each
pass also times a fixed pure-Python kernel (``reference_kernel``) twice after
every step, and its times are scaled by ``REF_NOMINAL_S`` over the pass's
median kernel time.  The raw seconds are kept in the run record.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 11

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "subsets_per_s": "1/s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
    "case_s": "s",
}
LAYER_UNITS = {
    "betti.orbit_s": "s",
    "betti.orbit_reps": "count",
    "homology.rank_s": "s",
    "homology.rank_calls": "count",
    "homology.rank_cells": "count",
    "homology.calls": "count",
    "homology.self_s": "s",
    "betti.sweep_self_s": "s",
    "betti.faces": "count",
    "betti.memo_hit_ratio": "ratio",
    "betti.tables": "count",
    "verify.instances": "count",
    "graphs.s": "s",
    "complexes.s": "s",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
    "betti.workers2_speedup": "ratio",
}

clock = time.perf_counter

# The reference kernel's median time on a 2-vCPU 2.1 GHz Xeon VM under
# Python 3.11; a pass's times are scaled by this over the kernel's median
# time in that pass, so they read as seconds on that machine at rest.
REF_NOMINAL_S = 0.085
REF_PER_STEP = 2
_REF_NB = [sum(1 << j for j in range(16) if j != i and (i * 7 + j * 3) % 5 < 2) for i in range(16)]


def reference_kernel() -> int:
    """Fixed work made of what the sweep does: bitmask independence tests,
    a memo keyed by vertex tuples, and GF(2) elimination by XOR.  It calls
    nothing in circreg, so no change to the program moves it."""
    memo, total = {}, 0
    for m in range(1, 1 << 16):
        if all(not (_REF_NB[i] & m) for i in range(16) if m >> i & 1):
            key = tuple(i for i in range(16) if m >> i & 1)
            memo[key] = memo.get(key[:-1], 0) + 1
            total += len(key)
    pivots = {}
    for r in range(1, 200):
        row = (r * 2654435761) & 0xFFFF
        while row:
            h = row.bit_length() - 1
            if h not in pivots:
                pivots[h] = row
                break
            row ^= pivots[h]
    return total + len(memo) + len(pivots)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="circreg benchmark")
    p.add_argument("--workload", required=True, choices=("sweep", "verify"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Child mode used to time set-up from a fresh interpreter.
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_pass(wl, checker, tracer=None):
    """One pass over the workload's steps, each followed by the reference
    kernel; outputs are checked after the clock stops.  Returns (pass
    seconds, {label: seconds}, outputs, speed), the seconds raw and speed
    the factor that scales them to the reference machine."""
    times, results, ref = {}, [], []
    for step in wl.steps:
        t0 = clock()
        try:
            out, err = step.run(tracer), None
        except Exception:  # a failing case is counted, not fatal
            out, err = None, traceback.format_exc(limit=3)
        times[step.label] = clock() - t0
        results.append((step, out, err))
        for _ in range(REF_PER_STEP):
            t0 = clock()
            reference_kernel()
            ref.append(clock() - t0)
    for step, out, err in results:
        checker.step(step, out, err)
    return sum(times.values()), times, results, REF_NOMINAL_S / statistics.median(ref)


def first_pass(wl, checker):
    """The first timed pass, with one counting wrapper on the sweep as verify
    calls it (about 1,800 calls, well under 0.1% of the pass).  Checks every
    table verify sweeps and returns (pass seconds, step seconds, speed,
    subsets swept, instances checked); subsets is None if the sweep could
    not be wrapped."""
    import layers
    from tracer import Target, Tracer

    inner = []
    collect = Target(layers.TABLE, "betti.table", lambda tr, a, k, r: inner.append((a[0], r)))
    tracer = Tracer()
    with tracer.installed([collect]):
        wall, times, results, speed = run_pass(wl, checker)
    for g, t in inner:
        checker.table(g, t)
    graphs = [g for g, _ in inner] + [s.graph for s in wl.steps if s.suite is None]
    subsets = sum((1 << g.n) - 1 for g in graphs if g.edges)
    if tracer.missing and any(s.suite for s in wl.steps):
        subsets = None
    instances = sum(
        len(out["instances"]) if s.suite else 1 for s, out, err in results if err is None
    )
    return wall, times, speed, subsets, instances


def measure_setup(args) -> float:
    """Median seconds for a fresh interpreter to import circreg and build
    the workload's inputs, at the reference speed (the kernel is timed
    after each probe); the first probe only warms the bytecode cache."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times, ref = [], []
    for i in range(SETUP_PROBES + 1):
        t0 = clock()
        # No timeout: waiting with one polls in steps of up to 50 ms.
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(clock() - t0)
            t0 = clock()
            reference_kernel()
            ref.append(clock() - t0)
    return statistics.median(times) * REF_NOMINAL_S / statistics.median(ref)


def timed_run(wl, checker, seconds: float) -> dict:
    """Timed passes until the next one would overrun *seconds*."""
    import resource

    start = clock()
    wall, times, speed, subsets, instances = first_pass(wl, checker)
    walls, steps, speeds, elapsed = [wall], [times], [speed], [clock() - start]
    while clock() - start + statistics.median(elapsed) <= seconds:
        t0 = clock()
        wall, times, _, speed = run_pass(wl, checker)
        walls.append(wall)
        steps.append(times)
        speeds.append(speed)
        elapsed.append(clock() - t0)
    wall = statistics.median(w * f for w, f in zip(walls, speeds))
    per_step = {
        label: statistics.median(s[label] * f for s, f in zip(steps, speeds))
        for label in steps[0]
    }
    metrics = {
        "wall_s": wall,
        "instances_per_s": instances / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if subsets is not None:
        metrics["subsets_per_s"] = subsets / wall
    metrics["case_s"] = per_step[wl.case]
    return {"metrics": metrics, "cases": per_step, "raw_wall_s": statistics.median(walls),
            "pass_s": walls, "step_s": steps, "speed": speeds,
            "subsets_per_pass": subsets, "instances_per_pass": instances}


def workers2_speedup(wl, checker):
    """Serial seconds over workers=2 seconds on the workload's workers2
    case, or None when the sweep takes no workers or there is one core."""
    import circreg.betti
    import gate

    if "workers" not in inspect.signature(circreg.betti.hochster_betti_table).parameters:
        return None
    if nproc() < 2:
        return None
    try:
        t0 = clock()
        serial = wl.workers2(1)
        t1 = clock()
        parallel = wl.workers2(2)
        t2 = clock()
    except Exception:  # counted as a failed output, like a failing step
        checker.record([f"workers=2 case raised: {traceback.format_exc(limit=3)}"])
        return None
    if isinstance(serial, dict):
        same = gate.report_digest(serial) == gate.report_digest(parallel)
    else:
        same = serial == parallel
    checker.record([] if same else ["workers=2 output differs from workers=1"])
    return (t1 - t0) / (t2 - t1)


def traced_run(wl, checker, seconds: float) -> dict:
    """Alternate untraced and traced passes, then time workers=2."""
    import layers
    import tracer as tr

    t = tr.Tracer()
    plain, traced, samples = [], [], []
    nesting = True
    start = clock()
    while True:
        t0 = clock()
        wall, _, _, speed = run_pass(wl, checker)
        plain.append(wall * speed)
        t.reset()
        with t.installed(layers.TARGETS):
            wall, _, _, speed = run_pass(wl, checker, tracer=t)
        traced.append(wall * speed)
        samples.append(layers.pass_metrics(t))
        nesting = nesting and tr.nesting_ok(t.spans)
        if 2 * clock() - t0 - start > seconds:
            break
    # median_low keeps counts whole; they are the same in every pass.
    metrics = {k: statistics.median_low(s[k] for s in samples) for k in samples[0]}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    speedup = workers2_speedup(wl, checker)
    if speedup is not None:
        metrics["betti.workers2_speedup"] = speedup
    return {
        "metrics": metrics,
        "plain_pass_s": plain,
        "traced_pass_s": traced,
        "layer_samples": samples,
        "missing_targets": t.missing,
        "nesting_ok": nesting,
        "spans": {"fields": ["name", "parent", "start", "end"], "last_pass": t.spans},
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "circreg" / "__init__.py").is_file():
        print(f"perfbench: no circreg package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        return 0
    import gate

    setup_s = None if args.trace else measure_setup(args)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    checker = gate.Checker()
    if args.trace:
        record = traced_run(wl, checker, args.seconds)
        units = LAYER_UNITS
    else:
        record = timed_run(wl, checker, args.seconds)
        record["metrics"]["setup_s"] = setup_s
        units = E2E_UNITS
    metrics = record["metrics"]
    record["meta"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_lines": src_lines(),
        "case_s": wl.case,
    }
    record["problems"] = checker.problems
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    for problem in checker.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if not record.get("nesting_ok", True):
        print("perfbench: a child span lies outside its parent", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: case_s={wl.case}; record in {out.relative_to(ROOT)}")
    result = {
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
