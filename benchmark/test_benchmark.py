"""Tests of the benchmark itself: its references agree with closed forms,
and every check fails on an output perturbed by 1e-6.

    python3 -m pytest benchmark
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import references as ref
import workloads as W

BENCH_DIR = Path(__file__).resolve().parent


# --------------------------------------------------------------------------
# references against closed forms

@pytest.mark.parametrize("z", [0.05, 1.0, 8.0, 50.0, 300.0])
def test_fox_h_exponential(z):
    # H^{1,0}_{0,1}[z | -; (0, 1)] = e^{-z}, deep into decay
    assert ref.fox_h([(0.0, 1.0)], [], z) == pytest.approx(math.exp(-z), rel=1e-12)


@pytest.mark.parametrize("z", [0.01, 0.5, 3.0, 40.0])
def test_fox_h_incomplete_gamma(z):
    # H^{2,0}_{1,2}[z | (1, 1); (0, 1), (1/2, 1)] = Gamma(1/2, z)
    want = float(mpmath.gammainc(0.5, z))
    assert ref.fox_h([(0.0, 1.0), (0.5, 1.0)], [(1.0, 1.0)], z) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("z", [0.3, 1.0, 3.0])
def test_fox_h_weight_half_against_meijerg(z):
    # upper weight 1/2 as in the alpha = 0.5 solutions; power scaling by 2
    # and Gauss duplication turn it into a Meijer G-function:
    # H = 2^(b1+b2) / (2 pi) G^{4,0}_{1,4}(z^2/16 | 1; b1/2, (b1+1)/2, b2/2, (b2+1)/2)
    b1, b2 = 0.13, 0.71
    with mpmath.workdps(30):
        g = mpmath.meijerg(
            [[], [1]], [[b1 / 2, (b1 + 1) / 2, b2 / 2, (b2 + 1) / 2], []], z * z / 16
        )
        want = float(2 ** (b1 + b2) / (2 * mpmath.pi) * g)
    got = ref.fox_h([(b1, 1.0), (b2, 1.0)], [(1.0, 0.5)], z)
    assert got == pytest.approx(want, rel=1e-11)


def _alpha1_problem(m=1, d=0.3, A=1.1, B=0.2, C=-0.1):
    sq = math.sqrt((1 - B / A) ** 2 - 4 * C / A)
    a = 0.5 * (1 + sq - B / A - 2 * (2 - d))
    return dict(alpha=1.0, m=m, d=d, A=A, B=B, C=C, a=a)


def _exp_closed_form(p, x, t):
    """The sign = +1 exponential solution and its t-derivative."""
    A, B, C, d, m = p["A"], p["B"], p["C"], p["d"], p["m"]
    sq = math.sqrt((1 - B / A) ** 2 - 4 * C / A)
    px = -0.5 * (B / A - 1 + sq)
    pt = -((1 + m) / (d - 2)) * (d - 2 + sq)
    q = (1 + m) / (A * (d - 2) ** 2)
    u = x**px * t**pt * math.exp(-q * x ** (2 - d) * t ** (-(1 + m)))
    ut = u * (pt / t + q * (1 + m) * x ** (2 - d) * t ** (-(2 + m)))
    return u, ut


@pytest.mark.parametrize("x,t", [(0.7, 0.5), (1.3, 1.1), (2.0, 0.4)])
def test_alpha1_h_form_is_closed_form(x, t):
    p = _alpha1_problem()
    u, _ = _exp_closed_form(p, x, t)
    assert ref.pde_value(p, x, t) == pytest.approx(ref.alpha1_ratio(p) * u, rel=1e-11)


@pytest.mark.parametrize("x,t", [(0.7, 0.5), (1.3, 1.1)])
def test_gl_reference_alpha1(x, t):
    # alpha = 1: D^alpha u = u_t exactly, and the GL sum is the backward
    # difference (u(t) - u(t - h)) / h
    p = _alpha1_problem()
    k = ref.alpha1_ratio(p)
    h = 1e-4
    expected, exact = ref.pde_gl_reference(p, x, t, h)
    u_t = k * _exp_closed_form(p, x, t)[1]
    backward = k * (_exp_closed_form(p, x, t)[0] - _exp_closed_form(p, x, t - h)[0]) / h
    assert exact == pytest.approx(u_t, rel=1e-10)
    # the expansion stops at h^2; the h^3 term and the rounding of the
    # difference are both ~1e-12 of u_t here
    assert expected == pytest.approx(backward, rel=1e-9)


@pytest.mark.parametrize("kind,x", [
    ("exp", -5.0), ("exp", 0.3), ("exp", 5.0), ("cosh", 0.0), ("cosh", 2.7),
    ("cos", 0.4), ("cos", 1.3), ("erfc", 0.0), ("erfc", 1.1), ("erfc", 2.0),
])
def test_mittag_leffler_series_closed_forms(kind, x):
    alpha, beta, z = W.ml_reduction(kind, x)
    closed = ref.ml_closed_form(kind, x)
    value, cond = ref.mittag_leffler(alpha, beta, z)
    assert value.real == pytest.approx(closed, rel=1e-14, abs=1e-300)
    assert value.imag == 0.0
    assert cond >= 1.0


def test_wright_series_bessel():
    # 0Psi1[-; (1, 1) | z] = I_0(2 sqrt z)
    value, _ = ref.wright_series([], [(1.0, 1.0)], 2.5)
    assert value.real == pytest.approx(float(mpmath.besseli(0, 2 * math.sqrt(2.5))), rel=1e-14)


def test_wright_coefficients_sum_to_series():
    upper, lower, z = [(0.3, 1.0), (1.0, 1.0)], [(1.6, 2.5)], 1.7
    coeffs = ref.wright_coefficients(upper, lower, 1.0, 60)
    value, _ = ref.wright_series(upper, lower, z)
    assert sum(c * z**j for j, c in enumerate(coeffs)) == pytest.approx(value, rel=1e-14)


def test_heat_roots():
    s1, s2 = ref.diffusion_roots(1.0, 0, 0.0, 1.0, 0.0, 0.0, 0.0)
    assert sorted((s1, s2)) == pytest.approx([-0.5, 0.0])


# --------------------------------------------------------------------------
# the checks have teeth

def _perturb(value, eps=1e-6):
    return value * (1 + eps)


def _ops(workload, seed=3):
    return W.build_ops(workload, W.make_inputs(workload, seed))


def test_inputs_repeat_per_seed():
    for workload in W.WORKLOADS:
        assert repr(W.make_inputs(workload, 5)) == repr(W.make_inputs(workload, 5))
        assert repr(W.make_inputs(workload, 5)) != repr(W.make_inputs(workload, 6))


@pytest.mark.parametrize("kind", ["pde-hform", "ode-hform"])
def test_h_value_checks(kind):
    ops = [op for op in _ops("hform-grid") if op.kind == kind]
    # one small, one moderate and one deep-decay point, and the alpha = 1 case
    picks = ops[::3] if kind == "ode-hform" else ops[::5]
    for op in picks:
        out = op.call()
        want = op.reference()
        assert op.check(out, want) <= 1.0
        assert op.check(_perturb(out), want) > 1.0


def test_series_value_checks():
    for op in _ops("series-grid"):
        if op.kind not in ("pde-wright", "ml"):
            continue
        out = op.call()
        want = op.reference()
        assert op.check(out, want) <= 1.0
        assert op.check(_perturb(out), want) > 1.0


def test_coefficient_checks():
    op = next(op for op in _ops("series-grid") if op.kind == "coeff")
    out = op.call()
    want = op.reference()
    assert op.check(out, want) <= 1.0
    series, report = out[0]
    bad_series = dataclasses.replace(series, coeffs=tuple(_perturb(c) for c in series.coeffs))
    assert op.check([(bad_series, report)] + out[1:], want) > 1.0
    points = list(report.points)
    points[-1] = dataclasses.replace(points[-1], lhs=_perturb(points[-1].lhs))
    bad_report = dataclasses.replace(report, points=tuple(points))
    assert op.check([(series, bad_report)] + out[1:], want) > 1.0


def test_gl_check():
    op = _ops("gl-verify")[1]
    report = op.call()
    want = op.reference()
    assert op.check(report, want) <= 1.0
    bad = dataclasses.replace(report, points=tuple(
        dataclasses.replace(p, lhs=_perturb(p.lhs), rhs=_perturb(p.rhs)) for p in report.points
    ))
    assert op.check(bad, want) > 1.0


# --------------------------------------------------------------------------
# tracing

def test_tracer_wraps_and_restores():
    from fracsol import gammafn, pde, wright
    from tracing import Tracer

    originals = (pde.evaluate, wright.ln_gamma_vec, gammafn.ln_gamma_vec)
    op = next(op for op in _ops("series-grid") if op.kind == "pde-wright")
    tracer = Tracer()
    tracer.install()
    try:
        assert pde.evaluate is not originals[0]
        op.call()
    finally:
        tracer.uninstall()
    assert (pde.evaluate, wright.ln_gamma_vec, gammafn.ln_gamma_vec) == originals
    metrics = tracer.metrics(1)
    assert metrics["wright.evals"][0] > 0
    assert metrics["wright.terms"][0] > metrics["wright.evals"][0]
    assert metrics["gammafn.scalar_calls"][0] > 0
    assert metrics["foxh.evals"][0] == 0


def test_refuses_without_sources(tmp_path):
    # a directory holding only the benchmark cannot build the program
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "series-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
