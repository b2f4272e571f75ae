"""Acceptance suite: nine end-to-end criteria, each asserted at its stated
tolerance and runtime budget, with one PASS/FAIL line printed per criterion.

Run with `pytest -v tests/test_acceptance.py -s` to see the per-criterion
lines inline.
"""

import math
import time

import numpy as np
import pytest

from fracsol import foxh, wright
from fracsol.errors import QuadratureFailureError
from fracsol.fracseries import euler_apply, rl_derivative
from fracsol.pde import (
    DiffusionProblem,
    exp_closed_form,
    s_roots,
    series_members,
    similarity_reduce,
    solve,
)
from fracsol.verify import residual_ode_coefficients, residual_pde


def report(n, label, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {label} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def coefficient_residual(problem, n_coeffs=20):
    sol = solve(problem)
    worst = 0.0
    for series, op in series_members(sol, order=n_coeffs + 10):
        rep = residual_ode_coefficients(series, op, problem.alpha, n_coeffs)
        worst = max(worst, rep.max_rel_err)
    return worst


def test_criterion_1_heat_kernel():
    t0 = time.perf_counter()
    prob = DiffusionProblem(alpha=1.0, m=0, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
    sol = exp_closed_form(prob)
    grid = [(x, t) for x in np.linspace(0.5, 2, 5) for t in np.linspace(0.5, 2, 5)]
    rep = residual_pde(sol, prob, grid)
    dt = time.perf_counter() - t0
    ok = rep.max_rel_err < 1e-8 and dt < 1.0
    report(1, "heat kernel u_t = u_xx", ok,
           f"max_rel_err={rep.max_rel_err:.3e} tol=1e-8, {dt:.2f}s < 1s")


def test_criterion_2_exp_form_m1():
    t0 = time.perf_counter()
    prob = DiffusionProblem(alpha=1.0, m=1, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
    sol = exp_closed_form(prob)
    grid = [(x, t) for x in np.linspace(0.5, 2, 5) for t in np.linspace(0.5, 2, 5)]
    rep = residual_pde(sol, prob, grid)
    dt = time.perf_counter() - t0
    ok = rep.max_rel_err < 1e-8 and dt < 1.0
    report(2, "m=1 closed form u_t = t u_xx", ok,
           f"max_rel_err={rep.max_rel_err:.3e} tol=1e-8, {dt:.2f}s < 1s")


def test_criterion_3_coefficient_verification():
    t0 = time.perf_counter()
    prob = DiffusionProblem(alpha=2.5, m=1, d=1.0, A=1.0, B=0.5, C=0.1, a=0.0)
    worst = coefficient_residual(prob)
    prob_d2 = DiffusionProblem(alpha=2.5, m=1, d=2.0, A=1.0, B=0.0, C=0.0, a=1.0)
    worst = max(worst, coefficient_residual(prob_d2))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 1.0
    report(3, "termwise RL = operator image, 3 members x 20 coefficients", ok,
           f"max_rel_err={worst:.3e} tol=1e-10, {dt:.2f}s < 1s")


def test_criterion_4_gl_residual():
    t0 = time.perf_counter()
    prob = DiffusionProblem(alpha=0.8, m=1, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
    sol = solve(prob)
    xs = np.linspace(0.8, 1.5, 5)
    ts = np.linspace(0.8, 1.5, 2)
    grid = [(float(x), float(t)) for x in xs for t in ts]
    assert len(grid) == 10
    rep = residual_pde(sol, prob, grid, h=1e-4)
    dt = time.perf_counter() - t0
    ok = rep.max_rel_err <= 1e-3 and dt < 60.0
    report(4, "H-form solution vs GL derivative, h=1e-4", ok,
           f"max_rel_err={rep.max_rel_err:.3e} tol=1e-3, {dt:.1f}s < 60s")


def test_criterion_5_gamma_identity_suite():
    from fracsol.fracseries import gamma_product_identity_check
    from fracsol.errors import PoleError

    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    while checked < 1000:
        a = float(rng.uniform(1e-3, 5.0))
        m = int(rng.integers(1, 6))
        b = float(rng.uniform(-3.0, 3.0))
        try:
            lhs, rhs = gamma_product_identity_check(a, m, b)
        except PoleError:
            continue
        denom = max(abs(lhs), abs(rhs), 1e-300)
        if denom < 1e-6:
            continue
        worst = max(worst, abs(lhs - rhs) / denom)
        checked += 1
    dt = time.perf_counter() - t0
    ok = worst < 1e-11 and dt < 1.0
    report(5, "gamma product identity, 1000 seeded draws", ok,
           f"max_rel_err={worst:.3e} tol=1e-11, {dt:.2f}s < 1s")


def test_criterion_6_wright_reductions():
    worst_exp = 0.0
    for x in np.linspace(-5, 5, 101):
        got = complex(wright.mittag_leffler(1, 1, x)).real
        worst_exp = max(worst_exp, abs(got - math.exp(x)) / math.exp(x))
    worst_cosh = 0.0
    for x in np.linspace(0, 3, 31):
        got = complex(wright.mittag_leffler(2, 1, x * x)).real
        worst_cosh = max(worst_cosh, abs(got - math.cosh(x)) / math.cosh(x))
    worst = max(worst_exp, worst_cosh)
    ok = worst < 1e-10
    report(6, "E_{1,1} = exp and E_{2,1}(x^2) = cosh x", ok,
           f"max_rel_err={worst:.3e} tol=1e-10")


def case1_spec(alpha, m):
    prob = DiffusionProblem(alpha=alpha, m=m, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
    return solve(prob).form.small.spec


def test_criterion_7_h_identity_suite():
    z_set = (0.5, 1.0, 2.0, 5.0)
    worst = 0.0
    for alpha in (0.5, 0.8, 1.5):
        for m in (0, 1, 2):
            spec = case1_spec(alpha, m)
            inv = foxh.invert_argument(spec)
            scaled = foxh.power_scale(spec, 2.0)
            shifted = foxh.shift_by_power(spec, 1.0)
            aug = foxh.HFunctionSpec(
                m=spec.m + 2, l=0,
                upper=spec.upper + ((1.0, 2.0),),
                lower=((0.5, 1.0), (1.0, 1.0)) + spec.lower,
            )
            red2 = foxh.gauss_multiplication_reduce(aug, 2)
            aug1 = foxh.HFunctionSpec(
                m=spec.m + 1, l=0,
                upper=spec.upper + ((1.0, 1.0),),
                lower=((1.0, 1.0),) + spec.lower,
            )
            red1 = foxh.gauss_multiplication_reduce(aug1, 1)
            for z in z_set:
                base = foxh.eval_mellin_barnes(spec, z)
                # eq10: H(z) = k H_scaled(z^k)
                worst = max(worst, _rel(base, 2.0 * foxh.eval_mellin_barnes(scaled, z * z)))
                # eq11: z^sigma H(z) = H_shifted(z)
                worst = max(worst, _rel(z * base, foxh.eval_mellin_barnes(shifted, z)))
                # eq12 at r in {1, 2}
                worst = max(worst, _rel(
                    foxh.eval_mellin_barnes(aug1, z),
                    red1.scale * foxh.eval_mellin_barnes(
                        red1.spec, red1.argument_multiplier * z),
                ))
                worst = max(worst, _rel(
                    foxh.eval_mellin_barnes(aug, z),
                    red2.scale * foxh.eval_mellin_barnes(
                        red2.spec, red2.argument_multiplier * z),
                ))
                # eq9: H(z) = H_inverted(1/z).  The inverted spec has m = 0,
                # and its contour slides right to the real saddle, the mirror
                # of the slide that evaluates base, so the contract is
                # checked at every point, deep decay included.
                worst = max(worst, _rel(base, foxh.eval_mellin_barnes(inv, 1.0 / z)))
    ok = worst < 1e-6
    report(7, "argument-transform identity contracts", ok,
           f"max_rel_err={worst:.3e} tol=1e-6")


def _rel(a, b):
    if a == 0.0 and b == 0.0:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_8_asymptotic_ratio():
    spec = case1_spec(0.8, 1)
    zs = np.geomspace(5.0, 50.0, 12)
    ratios = np.array(
        [foxh.eval_mellin_barnes(spec, z) / foxh.asymptotic_estimate(spec, z) for z in zs]
    )
    variation = float(np.ptp(ratios) / abs(np.mean(ratios)))
    ok = variation < 0.05
    report(8, "decay-envelope ratio stabilizes", ok,
           f"variation={variation:.4f} < 0.05 over z in [5,50]")


def test_criterion_9_reduction_consistency():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(200):
        prob = DiffusionProblem(
            alpha=float(rng.uniform(0.2, 3.5)),
            m=int(rng.integers(0, 3)),
            d=float(rng.uniform(-2.0, 1.8)),
            A=float(rng.uniform(0.5, 3.0)),
            B=float(rng.uniform(-1.0, 1.0)),
            C=float(rng.uniform(-1.0, 1.0)),
            a=float(rng.uniform(-1.0, 1.0)),
        )
        got = [complex(r) for r in similarity_reduce(prob).operator().roots]
        want = [complex(s) for s in s_roots(prob)]
        err = min(
            max(abs(got[0] - want[0]), abs(got[1] - want[1])),
            max(abs(got[0] - want[1]), abs(got[1] - want[0])),
        )
        worst = max(worst, err)
    ok = worst < 1e-10
    report(9, "similarity-reduction roots match the closed formula", ok,
           f"max_abs_err={worst:.3e} tol=1e-10, 200 seeded problems")
