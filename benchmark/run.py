"""Run one fracsol benchmark workload and print its metrics.

    python3 benchmark/run.py --workload hform-grid --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each operation starts when the
previous one has finished.  The run repeats whole rounds of the
workload's operations until ``--seconds`` have passed, then checks every
output against references computed apart from fracsol.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s,
ops_per_s, op_p50_ms, peak_rss_mb); every time in them is scaled to a
nominal CPU speed measured alongside it (see ``Speed``).  With
``--trace 1`` the run alternates untraced rounds with rounds in which
every layer function is wrapped, and reports per-layer metrics and the
tracing overhead.  The result, and the spans of the first traced round,
are also written under ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gzip
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
# fresh interpreters per run whose median set-up time is reported
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60
# timed samples of a fixed loop per CPU when choosing where to run
CALIBRATION_SAMPLES = 15
# Speed calibration (see ``Speed``): an interpreter loop and a numpy
# kernel are timed between operations, at most every CAL_INTERVAL_S, each
# as the fastest of CAL_REPEATS.  CAL_NOMINAL_S holds their usual times on
# the machine the bounds were measured on (Xeon, 2.1 GHz, KVM, Python
# 3.11.7, numpy 2.4.6), so scaled times read as times on that machine.
CAL_LOOP = 20_000
CAL_KERNEL_SIZE = 2000
CAL_REPEATS = 2
CAL_INTERVAL_S = 0.1
CAL_WINDOW_S = 0.5
CAL_NOMINAL_S = (1.2e-3, 0.45e-3)
# Lanczos coefficients (g = 7) of the calibration kernel
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hform-grid", "series-grid", "gl-verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spin(n=60_000):
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def _kernel(z):
    """Lanczos log-gamma of a complex array, the shape of fracsol's work."""
    z = z - 1.0
    x = np.full_like(z, _LANCZOS[0])
    for k in range(1, 9):
        x = x + _LANCZOS[k] / (z + k)
    t = z + 7.5
    return np.sum((z + 0.5) * np.log(t) - t + np.log(x))


class Speed:
    """How slow this CPU runs fixed code right now, sampled over time.

    On a shared machine the same code runs up to 1.7x slower for tens of
    seconds at a time, longer than a run's rounds can outwait, and the
    slowdown falls unevenly on interpreter-bound and numpy-bound code.
    Each sample times a fixed interpreter loop and a fixed numpy kernel;
    its slowness is the geometric mean of their times over
    CAL_NOMINAL_S.  An operation's time divided by the median slowness
    within CAL_WINDOW_S of it moved 2-5% across 30-second windows where
    the raw time moved 7-20%.  No change to the program can move the
    loop or the kernel.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.z = rng.uniform(0.5, 3.0, CAL_KERNEL_SIZE) + 1j * rng.uniform(
            -40.0, 40.0, CAL_KERNEL_SIZE)
        self.times = []
        self.loop_slowness = []
        self.slowness = []

    def sample(self):
        clock = time.perf_counter
        best = [math.inf, math.inf]
        for _ in range(CAL_REPEATS):
            t0 = clock()
            _spin(CAL_LOOP)
            t1 = clock()
            _kernel(self.z)
            t2 = clock()
            best = [min(best[0], t1 - t0), min(best[1], t2 - t1)]
        self.times.append(clock())
        loop, kernel = best[0] / CAL_NOMINAL_S[0], best[1] / CAL_NOMINAL_S[1]
        self.loop_slowness.append(loop)
        self.slowness.append(math.sqrt(loop * kernel))

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= CAL_INTERVAL_S:
            self.sample()

    def scale(self, start, end):
        """One over the median slowness around [start, end]."""
        lo = bisect.bisect_left(self.times, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + CAL_WINDOW_S)
        return 1.0 / statistics.median(self.slowness[lo:hi] or self.slowness)


def pin_to_quietest_cpu():
    """Pin this process, and the set-up probes it starts, to the CPU on
    which a fixed interpreter loop runs fastest.

    On a shared machine a CPU whose sibling is busy runs interpreter-bound
    code up to 1.7x slower.  Left alone, the scheduler moves a run between
    CPUs every second or two, so latencies split into two modes and the
    median of a run lands in either one.
    """
    if not hasattr(os, "sched_setaffinity"):  # not offered outside Linux
        return None, {}
    cpus = sorted(os.sched_getaffinity(0))
    timings = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        samples = []
        for _ in range(CALIBRATION_SAMPLES):
            t0 = time.perf_counter()
            _spin()
            samples.append(time.perf_counter() - t0)
        timings[cpu] = statistics.median(samples)
    cpu = min(timings, key=timings.get)
    os.sched_setaffinity(0, {cpu})
    return cpu, timings


def measure_setup(workload, seed):
    """Median import and solve times over fresh interpreters.

    Each probe's times are scaled by the interpreter loop's slowness just
    before and after it (``Speed``): an import follows that loop, not the
    numpy kernel."""
    import_s, solve_s = [], []
    for _ in range(SETUP_REPEATS):
        speed = Speed()
        for _ in range(3):
            speed.sample()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        for _ in range(3):
            speed.sample()
        scale = 1.0 / statistics.median(speed.loop_slowness)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        import_s.append(probe["import_s"] * scale)
        solve_s.append(probe["solve_s"] * scale)
    total = [a + b for a, b in zip(import_s, solve_s)]
    return statistics.median(total), statistics.median(import_s), statistics.median(solve_s)


class Phase:
    """Outputs and latencies of a sequence of whole rounds."""

    def __init__(self):
        self.rounds = 0
        self.elapsed = 0.0
        self.latencies = []
        self.starts = []
        self.outputs = []  # (op index, output or raised exception)


def run_rounds(ops, seconds=None, rounds=None, tracer=None, speed=None):
    phase = Phase()
    clock = time.perf_counter
    start = clock()
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = phase.rounds * len(ops) + i
            if speed is not None:
                speed.maybe_sample()
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:  # a refused operation counts as failed
                out = exc
            phase.latencies.append(clock() - t0)
            phase.starts.append(t0)
            phase.outputs.append((i, out))
        phase.rounds += 1
        if tracer is not None:
            tracer.sampling = False
        if rounds is not None and phase.rounds >= rounds:
            break
        if seconds is not None and clock() - start >= seconds:
            break
    phase.elapsed = clock() - start
    if speed is not None:
        speed.sample()  # the loop's speed after the last operation
    return phase


def check_outputs(ops, phases):
    """(attempted, failed, correct, worst error / tolerance per op kind)."""
    refs = [op.reference() for op in ops]
    attempted = failed = 0
    correct = True
    worst = {}
    reported = set()
    for phase in phases:
        for i, out in phase.outputs:
            attempted += 1
            op = ops[i]
            if isinstance(out, Exception):
                failed += 1
                if i not in reported:
                    reported.add(i)
                    print(f"op {i} ({op.kind}) raised {out!r}: {op.detail}", file=sys.stderr)
                continue
            err = op.check(out, refs[i])
            worst[op.kind] = max(worst.get(op.kind, 0.0), err)
            if not err <= 1.0:
                failed += 1
                correct = False
                if i not in reported:
                    reported.add(i)
                    print(f"op {i} ({op.kind}) off by {err:.3g} x tolerance: {op.detail}",
                          file=sys.stderr)
    return attempted, failed, correct, worst


def layer_accuracy(tracer):
    """Worst relative error of the sampled foxh and wright calls against
    the references, and the largest residual verify reported."""
    import references

    foxh_err = 0.0
    for spec, z, value in tracer.samples["foxh"]:
        if spec.l != 0 or spec.m != spec.q:
            continue
        want = references.fox_h(spec.lower, spec.upper, z)
        if want != 0.0:
            foxh_err = max(foxh_err, abs(value - want) / abs(want))
    wright_err = 0.0
    for spec, z, value in tracer.samples["wright"]:
        want, _ = references.wright_series(spec.upper, spec.lower, z)
        wright_err = max(wright_err, abs(value - want) / max(abs(want), 1e-300))
    residual = max(tracer.samples["verify"], default=0.0)
    return foxh_err, wright_err, residual


def timed_run(args, ops, setup):
    """End-to-end metrics from speed-scaled operation times.

    Every round repeats the same operations, so each operation is timed
    once per round.  Each timing is scaled by the CPU's speed around it
    (``Speed``), and an operation's time is the median of its scaled
    timings.  ``ops_per_s`` is the number of operations in a round over
    the sum of their times, ``op_p50_ms`` the median of those times.  The
    plain wall-clock rate, the median of all raw latencies and the loop
    times go to the output file as well.
    """
    speed = Speed()
    phase = run_rounds(ops, seconds=args.seconds, speed=speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, correct, worst = check_outputs(ops, [phase])
    scaled = [[] for _ in ops]
    for (i, _), start, latency in zip(phase.outputs, phase.starts, phase.latencies):
        scaled[i].append(latency * speed.scale(start, start + latency))
    op_s = [statistics.median(v) for v in scaled]
    completed = sum(1 for _, out in phase.outputs[: len(ops)] if not isinstance(out, Exception))
    metrics = {
        "setup_s": (setup[0], "s"),
        "ops_per_s": (completed / sum(op_s), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(op_s), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    done = sum(1 for _, out in phase.outputs if not isinstance(out, Exception))
    slowness_q = statistics.quantiles(speed.slowness, n=4)
    extra = {"rounds": phase.rounds, "elapsed_s": phase.elapsed, "worst_err_over_tol": worst,
             "wall_ops_per_s": done / phase.elapsed,
             "all_latencies_p50_ms": 1e3 * statistics.median(phase.latencies),
             "slowness_quartiles": slowness_q, "speed_samples": len(speed.slowness),
             "op_ms": [1e3 * v for v in op_s]}
    return attempted, failed, correct, metrics, extra


def traced_run(args, ops, setup):
    """Alternate untraced and traced rounds, so that drift in the machine's
    speed falls on both sides of the overhead figure alike."""
    from tracing import Tracer

    tracer = Tracer()
    base, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        base.append(run_rounds(ops, rounds=1))
        tracer.install()
        try:
            tracer.sampling = not traced
            traced.append(run_rounds(ops, rounds=1, tracer=tracer))
        finally:
            tracer.uninstall()
    attempted, failed, correct, worst = check_outputs(ops, base + traced)
    metrics = tracer.metrics(len(traced))
    foxh_err, wright_err, residual = layer_accuracy(tracer)
    base_s = sum(p.elapsed for p in base)
    traced_s = sum(p.elapsed for p in traced)
    metrics.update({
        "setup.import_s": (setup[1], "s"),
        "setup.solve_s": (setup[2], "s"),
        "foxh.max_rel_err": (foxh_err, "ratio"),
        "wright.max_rel_err": (wright_err, "ratio"),
        "verify.max_residual": (residual, "ratio"),
        "trace.overhead_pct": (100.0 * (traced_s / base_s - 1.0), "%"),
    })
    write_spans(args, tracer)
    extra = {"rounds": len(traced), "untraced_s": base_s, "traced_s": traced_s,
             "worst_err_over_tol": worst}
    return attempted, failed, correct, metrics, extra


def write_spans(args, tracer):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for span_id, parent, op_id, name, start, end in tracer.spans:
            fh.write(json.dumps({"span": span_id, "parent": parent, "op": op_id, "name": name,
                                 "start_s": start, "dur_s": end - start}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracsol" / "__init__.py").is_file():
        print(f"run.py: no fracsol sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cpu, calibration = pin_to_quietest_cpu()
    setup = measure_setup(args.workload, args.seed)
    import workloads

    ops = workloads.build_ops(args.workload, workloads.make_inputs(args.workload, args.seed))
    run = traced_run if args.trace else timed_run
    attempted, failed, correct, metrics, extra = run(args, ops, setup)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(dict(result, run=dict(extra, cpu=cpu, calibration_s=calibration)), fh,
                  indent=1, default=str)
    if any(not math.isfinite(v) for v, _ in metrics.values()):
        print("run.py: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
