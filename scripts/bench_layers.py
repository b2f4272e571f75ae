"""Layer benchmark: the log-gamma kernel and single Fox-H evaluations.

Writes one JSON file of rows, each with the time it measured and the
accuracy it reached against mpmath:

- ``gammafn.ln_gamma_vec``: ns per element on a 4,096-element complex
  array shaped like the contour's kernel arguments, and the largest
  relative error of Gamma on 300 of them;
- ``foxh.eval_mellin_barnes``: us per scalar evaluation at a small, a
  moderate and a deep-decay argument (decay level nu (mu z)^(1/nu) =
  100), warm (the spec's constants and saddle table built) and cold
  (rebuilt on every call), with the kernel nodes one call evaluates,
  those off the real axis (the contour lines) among them, and the
  relative error against mpmath.meijerg.

Times are perf_counter medians.  ``scaled`` divides them by the
benchmark's Speed probe (benchmark/run.py), so they read as times on the
machine the benchmark's bounds were measured on.

    python3 scripts/bench_layers.py --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

from run import Speed  # noqa: E402

from fracsol import foxh  # noqa: E402
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


def timed(fn, speed):
    """(raw, scaled) median seconds per call of fn."""
    raw, scaled = [], []
    for _ in range(BLOCKS):
        speed.sample()
        times = []
        for _ in range(REPEATS):
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


def lngamma_row(speed):
    rng = np.random.default_rng(0)
    z = rng.uniform(-20.0, 20.0, 4096) + 1j * rng.uniform(-60.0, 60.0, 4096)
    t, ts = timed(lambda: ln_gamma_vec(z), speed)
    got = ln_gamma_vec(z[:300])
    with mpmath.workdps(30):
        err = max(
            abs(complex(mpmath.exp(mpmath.mpc(g) - mpmath.loggamma(mpmath.mpc(x)))) - 1.0)
            for g, x in zip(got, z[:300])
        )
    return {"layer": "gammafn.ln_gamma_vec", "ns_per_element": t / z.size * 1e9,
            "scaled_ns_per_element": ts / z.size * 1e9, "max_rel_err": err}


def count_nodes(spec, z):
    """Kernel nodes of one evaluation, all and off the real axis."""
    sizes = []
    log_integrand = foxh._log_integrand

    def counting(spec, s):
        s = np.asarray(s)
        sizes.append((s.size, int(np.count_nonzero(s.imag > 0.0))))
        return log_integrand(spec, s)

    foxh._log_integrand = counting
    try:
        foxh.eval_mellin_barnes(spec, z)
    finally:
        foxh._log_integrand = log_integrand
    return sum(a for a, _ in sizes), sum(b for _, b in sizes)


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
                nodes, line_nodes = count_nodes(spec, z)
                got = foxh.eval_mellin_barnes(spec, z)
                rows.append({
                    "layer": "foxh.eval_mellin_barnes", "spec": name, "point": where,
                    "z": z, "cache": cache, "us": t * 1e6, "scaled_us": ts * 1e6,
                    "nodes": nodes, "line_nodes": line_nodes,
                    "rel_err": abs(got - want) / abs(want),
                })
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    speed = Speed()
    rows = [lngamma_row(speed)] + foxh_rows(speed)
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
