"""Layer benchmark: the log-gamma kernel, single Mittag-Leffler and Fox-H
evaluations, acceptance criterion 7's H identity suite, the GL spline
profile, the GL residual of acceptance criterion 4 and CLI cold start.

Writes one JSON file of rows, each with the time it measured and the
accuracy it reached:

- ``gammafn.ln_gamma_vec``: ns per element on two 4,096-element complex
  arrays, a mixed one with Re z on both sides of 0.5 and a right-half-plane
  one (Re z >= 0.5, where no element takes the reflection) shaped like the
  contour's kernel arguments, and the largest relative error of Gamma on
  300 elements of each; and us per 0-d call, one at a time over the first
  300 z of the mixed array, with the largest relative error of those calls;
- ``wright.mittag_leffler``: us per ``E_{0.5,1}(z)`` at z = 1.3 and -2,
  and the relative error against its closed form exp(z^2) erfc(-z);
- ``foxh.eval_mellin_barnes``: us per scalar evaluation at a small, a
  moderate and a deep-decay argument (decay level nu (mu z)^(1/nu) =
  100), warm (the spec's constants built) and cold (rebuilt on every
  call), with the kernel calls one call makes, the nodes they evaluate and
  those off the real axis (the contour lines) among them, the saddle
  searches (``_root`` calls, the root-finds on the real axis) it runs, and
  the relative error against mpmath.meijerg; and us per warm array
  evaluation of acceptance criterion
  4's spec at 320 log-spaced z in [1e-3, 1e2], which spans the default
  line and the slid saddle lines, with the same kernel and search counts, the
  contour bands the call forms and the largest relative error against
  one scalar call per z;
- ``acceptance.criterion_7``: seconds per run of acceptance criterion 7's
  H identity suite as its test runs it (288 scalar ``eval_mellin_barnes``
  calls on 54 specs), warm (every spec's constants built) and cold
  (rebuilt before every run), with the same kernel and
  search counts and the suite's worst identity error;
- ``verify._HProfile``: us per build of the Grunwald-Letnikov spline
  profile of acceptance criterion 4's solution at x = 1 (320 H values
  and the spline), warm (the spec's constants built), and the largest
  relative error at 50 midpoints between its nodes against a direct
  ``eval_mellin_barnes``, and us per read of that profile on the
  13,001-node Grunwald-Letnikov lattice of t = 1.3, h = 1e-4, with the
  largest relative error at 50 of those nodes against a direct
  ``eval_mellin_barnes``;
- ``verify.residual_pde``: seconds per call on acceptance criterion 4's
  grid (five x, two t, h = 1e-4), warm (the spec's constants built), with
  the ``eval_mellin_barnes_batch`` calls, contour bands, kernel
  (``_log_integrand``) calls, kernel nodes and saddle searches one call
  makes and the report's max_rel_err;
- ``cli``: wall seconds and peak RSS of a fresh interpreter running
  ``eval ml`` and an H-form ``verify`` (medians of 5), and the
  accuracy of what each printed (``E_{0.5,1}(1.3)`` against its closed
  form, the verify report's max_rel_err).

Times are perf_counter medians.  ``scaled`` divides them by the
benchmark's Speed probe (benchmark/run.py), so they read as times on the
machine the benchmark's bounds were measured on.

    python3 scripts/bench_layers.py --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

from run import Speed  # noqa: E402

from fracsol import foxh, pde, verify, wright  # noqa: E402
from fracsol.foxh import HFunctionSpec, convergence_params, power_scale  # noqa: E402
from fracsol.gammafn import ln_gamma_vec  # noqa: E402

# H^{3,0}_{1,3} = G^{3,0}_{1,3}[z | 1.2; 0, 0.3, 0.7], and the same spec
# with every weight 1/4 (omega = 0.5, a slowly decaying integrand)
MEIJER = HFunctionSpec(m=3, l=0, upper=((1.2, 1.0),), lower=((0.0, 1.0), (0.3, 1.0), (0.7, 1.0)))
SPECS = {"meijer-k1": (MEIJER, 1.0), "meijer-k0.25": (power_scale(MEIJER, 0.25), 0.25)}
# a row's time is the median over BLOCKS blocks of the median of REPEATS
# calls; each block is scaled by the Speed samples just before and after it
BLOCKS = 15
REPEATS = 7
# acceptance criterion 4's H-form problem, whose profile the GL check reads
GL_PROBLEM = {"alpha": 0.8, "m": 1, "d": 0.0, "A": 1.0, "B": 0.0, "C": 0.0, "a": 0.0}
# acceptance criterion 4's grid and GL step
GL_GRID = [(float(x), float(t)) for x in np.linspace(0.8, 1.5, 5) for t in np.linspace(0.8, 1.5, 2)]
GL_STEP = 1e-4
# E_{0.5,1}(1.3) = exp(1.69) erfc(-1.3)
CLI_COMMANDS = {
    "eval-ml": ["eval", "ml", "--alpha", "0.5", "--beta", "1", "--z", "1.3"],
    "verify-h-form": ["verify", "--json", json.dumps(GL_PROBLEM),
                      "--grid", "x=1:1:1,t=1:1.2:2", "--tol", "1e-3"],
}
COLD_RUNS = 5


def timed(fn, speed, blocks=BLOCKS, repeats=REPEATS):
    """(raw, scaled) median seconds per call of fn."""
    raw, scaled = [], []
    for _ in range(blocks):
        speed.sample()
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        speed.sample()
        t = statistics.median(times)
        raw.append(t)
        scaled.append(t / statistics.mean(speed.slowness[-2:]))
    return statistics.median(raw), statistics.median(scaled)


def meijer_reference(z, k):
    """H at z of MEIJER with every weight k: G[z^(1/k)] / k by power_scale."""
    with mpmath.workdps(40):
        g = mpmath.meijerg([[], [1.2]], [[0.0, 0.3, 0.7], []], mpmath.mpf(z) ** (1 / mpmath.mpf(k)))
        return float(g) / k


def lngamma_rows(speed):
    rng = np.random.default_rng(0)
    arrays = {
        "mixed": rng.uniform(-20.0, 20.0, 4096) + 1j * rng.uniform(-60.0, 60.0, 4096),
        # the Gamma(B_j - beta_j s) factors of an l = 0 spec on a line left
        # of its poles, at tau >= 0
        "right-half-plane": rng.uniform(0.5, 20.0, 4096) - 1j * rng.uniform(0.0, 60.0, 4096),
    }
    rows = []
    for name, z in arrays.items():
        t, ts = timed(lambda: ln_gamma_vec(z), speed)
        rows.append({"layer": "gammafn.ln_gamma_vec", "array": name,
                     "ns_per_element": t / z.size * 1e9,
                     "scaled_ns_per_element": ts / z.size * 1e9,
                     "max_rel_err": gamma_error(z[:300], ln_gamma_vec(z[:300]))})
    # one 0-d call per z, as each Wright series term makes them
    z = arrays["mixed"][:300]
    t, ts = timed(lambda: [ln_gamma_vec(v) for v in z], speed)
    rows.append({"layer": "gammafn.ln_gamma_vec", "array": "0-d",
                 "us": t / z.size * 1e6, "scaled_us": ts / z.size * 1e6,
                 "max_rel_err": gamma_error(z, [complex(ln_gamma_vec(v)) for v in z])})
    return rows


def gamma_error(z, got):
    """The largest relative error of Gamma = exp(got) over z, against mpmath."""
    with mpmath.workdps(30):
        return max(
            abs(complex(mpmath.exp(mpmath.mpc(g) - mpmath.loggamma(mpmath.mpc(x)))) - 1.0)
            for g, x in zip(got, z)
        )


def ml_rows(speed):
    rows = []
    for z in (1.3, -2.0):
        t, ts = timed(lambda: wright.mittag_leffler(0.5, 1.0, z), speed)
        want = math.exp(z * z) * math.erfc(-z)
        got = complex(wright.mittag_leffler(0.5, 1.0, z))
        rows.append({"layer": "wright.mittag_leffler", "alpha": 0.5, "beta": 1.0, "z": z,
                     "us": t * 1e6, "scaled_us": ts * 1e6, "rel_err": abs(got - want) / abs(want)})
    return rows


def count_nodes(fn):
    """Kernel calls fn() makes, and the nodes they evaluate: all, and those
    off the real axis; and the saddle searches (``_root`` calls) it runs."""
    sizes, searches = [], []
    log_integrand, root = foxh._log_integrand, foxh._root

    def counting(spec, s):
        s = np.asarray(s)
        sizes.append((s.size, int(np.count_nonzero(s.imag > 0.0))))
        return log_integrand(spec, s)

    def searching(c, f, lo, hi, u):
        searches.append(u)
        return root(c, f, lo, hi, u)

    foxh._log_integrand, foxh._root = counting, searching
    try:
        fn()
    finally:
        foxh._log_integrand, foxh._root = log_integrand, root
    return {"kernel_calls": len(sizes), "saddle_searches": len(searches),
            "nodes": sum(n for n, _ in sizes), "line_nodes": sum(n for _, n in sizes)}


def count_bands(fn):
    """The contour bands fn() forms, with count_nodes' counts."""
    bands, formed = foxh._contour_bands, []

    def counting(c, z):
        for band in bands(c, z):
            formed.append(band)
            yield band

    foxh._contour_bands = counting
    try:
        counts = count_nodes(fn)
    finally:
        foxh._contour_bands = bands
    return {"bands": len(formed), **counts}


def foxh_rows(speed):
    rows = []
    for name, (spec, k) in SPECS.items():
        c = convergence_params(spec)
        points = {"small": 1e-3, "moderate": 2.0, "deep": (100.0 / c.nu) ** c.nu / c.mu}
        for where, z in points.items():
            want = meijer_reference(z, k)
            for cache in ("warm", "cold"):

                def call():
                    if cache == "cold":
                        foxh._constants.cache_clear()
                    return foxh.eval_mellin_barnes(spec, z)

                call()
                t, ts = timed(call, speed)
                if cache == "cold":
                    foxh._constants.cache_clear()
                counts = count_nodes(lambda: foxh.eval_mellin_barnes(spec, z))
                got = foxh.eval_mellin_barnes(spec, z)
                rows.append({
                    "layer": "foxh.eval_mellin_barnes", "spec": name, "point": where,
                    "z": z, "cache": cache, "us": t * 1e6, "scaled_us": ts * 1e6,
                    **counts, "rel_err": abs(got - want) / abs(want),
                })
    spec = pde.solve(pde.DiffusionProblem(**GL_PROBLEM)).form.small.spec
    zs = np.geomspace(1e-3, 1e2, 320)
    got = foxh.eval_mellin_barnes(spec, zs)
    t, ts = timed(lambda: foxh.eval_mellin_barnes(spec, zs), speed)
    want = np.array([foxh.eval_mellin_barnes(spec, z) for z in zs])
    live = want != 0.0
    rows.append({
        "layer": "foxh.eval_mellin_barnes", "spec": "criterion-4", "point": f"array-{zs.size}",
        "z": [float(zs[0]), float(zs[-1])], "cache": "warm", "us": t * 1e6, "scaled_us": ts * 1e6,
        **count_bands(lambda: foxh.eval_mellin_barnes(spec, zs)),
        "rel_err": float(np.max(np.abs(got[live] / want[live] - 1.0))),
    })
    return rows


def identity_error(a, b):
    """Relative difference of two values, 0 when both are 0."""
    if a == 0.0 and b == 0.0:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def criterion7():
    """Acceptance criterion 7's H identity suite, as its test runs it: the
    worst relative error of the inversion, power-scale, power-shift and
    Gauss-multiplication identities of nine solution specs at four z."""
    worst = 0.0
    h = foxh.eval_mellin_barnes
    for alpha in (0.5, 0.8, 1.5):
        for m in (0, 1, 2):
            problem = pde.DiffusionProblem(alpha=alpha, m=m, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
            spec = pde.solve(problem).form.small.spec
            inv, scaled = foxh.invert_argument(spec), power_scale(spec, 2.0)
            shifted = foxh.shift_by_power(spec, 1.0)
            aug = HFunctionSpec(m=spec.m + 2, l=0, upper=spec.upper + ((1.0, 2.0),),
                                lower=((0.5, 1.0), (1.0, 1.0)) + spec.lower)
            aug1 = HFunctionSpec(m=spec.m + 1, l=0, upper=spec.upper + ((1.0, 1.0),),
                                 lower=((1.0, 1.0),) + spec.lower)
            red2, red1 = foxh.gauss_multiplication_reduce(aug, 2), foxh.gauss_multiplication_reduce(aug1, 1)
            for z in (0.5, 1.0, 2.0, 5.0):
                base = h(spec, z)
                worst = max(
                    worst,
                    identity_error(base, 2.0 * h(scaled, z * z)),
                    identity_error(z * base, h(shifted, z)),
                    identity_error(h(aug1, z), red1.scale * h(red1.spec, red1.argument_multiplier * z)),
                    identity_error(h(aug, z), red2.scale * h(red2.spec, red2.argument_multiplier * z)),
                    identity_error(base, h(inv, 1.0 / z)),
                )
    return worst


def criterion7_rows(speed):
    rows = []
    for cache in ("warm", "cold"):

        def run():
            if cache == "cold":
                foxh._constants.cache_clear()
            return criterion7()

        worst = run()
        t, ts = timed(run, speed, blocks=5, repeats=3)
        if cache == "cold":
            foxh._constants.cache_clear()
        rows.append({"layer": "acceptance.criterion_7", "cache": cache, "h_calls": 288, "specs": 54,
                     "s": t, "scaled_s": ts, **count_nodes(run), "max_rel_err": worst})
    return rows


def profile_rows(speed):
    form = pde.solve(pde.DiffusionProblem(**GL_PROBLEM)).form.small

    def build():
        return verify._HProfile(form.spec, coef=form.arg_coef, power=form.power, v_max=1.5, h=1e-4)

    profile = build()
    t, ts = timed(build, speed)
    mids = 0.5 * (profile.xs[:-1] + profile.xs[1:])
    log_w = mids[np.linspace(0, mids.size - 1, 50).astype(int)]
    want = foxh.eval_mellin_barnes(form.spec, np.exp(log_w))
    got = profile((np.exp(log_w) / profile.coef) ** (-1.0 / profile.power))
    build_row = {"layer": "verify._HProfile", "op": "build", "nodes": profile.xs.size,
                 "us": t * 1e6, "scaled_us": ts * 1e6,
                 "max_rel_err": float(np.max(np.abs(got / want - 1.0)))}
    # the lattice gl_fractional_derivative reads at t = 1.3; 50 of its
    # nodes inside the profile's range are checked
    lattice = np.maximum(1.3 - np.arange(13001) * GL_STEP, 0.0)
    t, ts = timed(lambda: profile(lattice), speed)
    got = profile(lattice)
    check = np.flatnonzero(got != 0.0)[np.linspace(0, np.count_nonzero(got) - 1, 50).astype(int)]
    want = foxh.eval_mellin_barnes(form.spec, profile.coef * lattice[check] ** -profile.power)
    read_row = {"layer": "verify._HProfile", "op": "read", "lattice_nodes": lattice.size,
                "us": t * 1e6, "scaled_us": ts * 1e6,
                "max_rel_err": float(np.max(np.abs(got[check] / want - 1.0)))}
    return [build_row, read_row]


def residual_row(speed):
    prob = pde.DiffusionProblem(**GL_PROBLEM)
    sol = pde.solve(prob)

    def call():
        return verify.residual_pde(sol, prob, GL_GRID, h=GL_STEP)

    calls, batch = [], verify.eval_mellin_barnes_batch

    def counting_batch(spec, z):
        calls.append(z)
        return batch(spec, z)

    # warm: the spec's constants are built before counting
    report = call()
    verify.eval_mellin_barnes_batch = counting_batch
    try:
        counts = count_bands(call)
    finally:
        verify.eval_mellin_barnes_batch = batch
    t, ts = timed(call, speed)
    return {"layer": "verify.residual_pde", "grid_points": len(GL_GRID), "h": GL_STEP,
            "s": t, "scaled_s": ts, "h_batch_calls": len(calls), **counts,
            "max_rel_err": report.max_rel_err}


# runs the CLI, then prints the peak RSS of its own address space (VmHWM,
# kB) to stderr: ru_maxrss survives exec, so a child of this larger
# process would report this process's peak
COLD_RUN = """import runpy, sys
sys.argv[0] = "fracsol"
try:
    runpy.run_module("fracsol.cli", run_name="__main__")
finally:
    with open("/proc/self/status") as status:
        print(next(line for line in status if line.startswith("VmHWM")).split()[1], file=sys.stderr)
"""


def cold_run(argv):
    """(wall seconds, peak RSS in MB, stdout) of one fresh `fracsol` run."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", COLD_RUN, *argv], env=env,
                          capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    return wall, int(done.stderr.split()[-1]) / 1024.0, done.stdout


def cli_rows():
    rows = []
    for name, argv in CLI_COMMANDS.items():
        runs = [cold_run(argv) for _ in range(COLD_RUNS)]
        out = runs[-1][2]
        if name == "eval-ml":
            got = float(out.splitlines()[1].split(",")[1])
            accuracy = {"rel_err": abs(got / (math.exp(1.69) * math.erfc(-1.3)) - 1.0)}
        else:
            verdict = out.splitlines()[-1]
            accuracy = {"verdict": verdict.split()[0],
                        "max_rel_err": float(verdict.split("max_rel_err=")[1].split()[0])}
        rows.append({
            "layer": "cli", "command": name, "runs": COLD_RUNS,
            "wall_s": statistics.median(r[0] for r in runs),
            "peak_rss_mb": statistics.median(r[1] for r in runs), **accuracy,
        })
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    speed = Speed()
    rows = lngamma_rows(speed) + ml_rows(speed) + foxh_rows(speed) + criterion7_rows(speed)
    rows += profile_rows(speed)
    rows.append(residual_row(speed))
    rows += cli_rows()
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "fracsol").glob("*.py"))
    report = {
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "src_lines": src_lines, "rows": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for row in rows:
        print(json.dumps(row))


if __name__ == "__main__":
    main()
