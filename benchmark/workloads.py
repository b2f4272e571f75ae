"""Workload inputs, operations and output checks.

Each workload is one round of operations drawn from the seed.  A run
repeats the round, so every run attempts whole rounds of the same
operations.  Parameters are drawn inside fixed strata, so the mix of
cheap and expensive operations, and with it the cost of a round, is the
same for every seed.

Checks compare against :mod:`references`, which never calls fracsol, or
against properties the paper guarantees.  Tolerances:

- H values: 1e-9 relative, the two-pass agreement at which the contour
  refinement of ``foxh`` stops.
- Wright and Mittag-Leffler values: 1e-13 * max(1, cond) relative, where
  cond = sum |t_k| (1 + kappa_k) / |sum t_k| from the extended-precision
  reference and kappa_k is the term's sensitivity to its gamma arguments
  (see ``references.wright_series``): the series stops at terms below
  1e-15 of the sum, each term carries the log-gamma kernel's ~1e-14
  relative error, and cancellation and arguments near a pole of Gamma
  amplify both.  The tolerance never grows past 1e-9.
- Series coefficients: 1e-11 relative (log-gamma sums up to ~10^3 with
  ~1e-15 relative error, exponentiated, with a 10x margin); the termwise
  residual gate is acceptance criterion 3's 1e-10.
- Grunwald-Letnikov: the residual gate and the finite-difference side
  use acceptance criterion 4's 1e-3, the accuracy of the first-order GL
  path.  The GL derivative itself is compared with its own expansion
  through h^2 computed from the exact solution, at 1e-7 relative: what is
  left is the program's spline-profile interpolation, observed at 2e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from fracsol import ode, pde, verify, wright
from fracsol.ode import OdeProblem
from fracsol.pde import DiffusionProblem

WORKLOADS = ("hform-grid", "series-grid", "gl-verify")

H_TOL = 1e-9
SERIES_TOL = 1e-13
SERIES_MAX_COND = 1e4
COEFF_TOL = 1e-11
TERMWISE_GATE = 1e-10
GL_GATE = 1e-3
GL_EXPANSION_TOL = 1e-7
GL_STEP = 1e-4


@dataclass
class Op:
    """One operation: ``call`` runs the program, ``reference`` computes
    what the check needs (untimed), ``check`` returns the worst relative
    error scaled by its tolerance (<= 1 passes)."""

    kind: str
    call: Callable[[], Any]
    reference: Callable[[], Any]
    check: Callable[[Any, Any], float]
    detail: dict = field(default_factory=dict)


def _ref():
    # imported on first use: references pulls in mpmath, which neither the
    # timed phase nor the set-up measurement should pay for
    import references

    return references


def _rel(got, want) -> float:
    got, want = complex(got), complex(want)
    return abs(got - want) / max(abs(want), 1e-300)


def _decay_arg(alpha, m, level):
    """H argument z at which the decay exponent nu (mu z)^(1/nu) equals level.

    For the solution specs nu = 2 - alpha and mu = rho^rho.
    """
    nu = 2.0 - alpha
    rho = alpha + m
    return (level / nu) ** nu / rho**rho


# --------------------------------------------------------------------------
# hform-grid

# (alpha range, m, d range); the last PDE stratum is the alpha = 1 case
# checked against the exponential closed form
_HFORM_PDE_STRATA = (
    ((0.45, 0.55), 0, (-0.2, 0.2)),
    ((0.75, 0.85), 1, (0.4, 0.6)),
    ((1.35, 1.45), 2, (-1.1, -0.9)),
    ((1.66, 1.68), 0, (0.9, 1.1)),
    ((1.0, 1.0), 1, (-0.3, 0.3)),
)
_HFORM_ODE_STRATA = (((0.6, 0.7), 0), ((1.35, 1.45), 1))
# (band, points per problem) of the decay exponent nu (mu z)^(1/nu) of
# the H argument: about 1, 2 and 100 e-folds, i.e. values near 1, 0.1
# and 1e-44.  The deep band sits inside one refinement-pass plateau of
# every stratum.  With one deep point per problem, 10 of the 35
# operations of a round cost less than the two-pass evaluations of
# m = 1 and alpha = 1 problems and 13 cost more, so op_p50_ms falls
# inside that group of 12 like operations, not on its edge.
_LEVELS = (((0.03, 0.08), 2), ((1.0, 4.0), 2), ((90.0, 120.0), 1))
_X_RANGE = (0.5, 2.0)
# prefactor exponent a of the H-form PDE problems other than alpha = 1;
# with PDE 4's alpha, it decides whether that stratum's points near
# value 1 take two contour passes or three
_HFORM_A_RANGE = (0.0, 0.2)


def _real_root_coeffs(rng):
    """A, B, C with (1 - B/A)^2 - 4 C / A > 0.1 (well separated real roots)."""
    A = float(rng.uniform(0.8, 1.2))
    B = float(rng.uniform(-0.3, 0.3))
    C = float(rng.uniform(-0.2, 0.1))
    while (1.0 - B / A) ** 2 - 4.0 * C / A < 0.1:
        C = float(rng.uniform(-0.2, 0.0))
    return A, B, C


def hform_inputs(rng):
    problems = []
    for (alo, ahi), m, (dlo, dhi) in _HFORM_PDE_STRATA:
        alpha = float(rng.uniform(alo, ahi)) if alo < ahi else alo
        d = float(rng.uniform(dlo, dhi))
        A, B, C = _real_root_coeffs(rng)
        if alpha == 1.0:
            a = _alpha1_special_a(m, d, A, B, C)
        else:
            a = float(rng.uniform(*_HFORM_A_RANGE))
        pts = []
        for (lo, hi), count in _LEVELS:
            for _ in range(count):
                x = float(rng.uniform(*_X_RANGE))
                z = _decay_arg(alpha, m, float(rng.uniform(lo, hi)))
                rho = alpha + m
                t = (x ** (2.0 - d) / (z * A * (d - 2.0) ** 2 * rho**m)) ** (1.0 / rho)
                pts.append((x, t))
        problems.append(
            ("pde", dict(alpha=alpha, m=m, d=d, A=A, B=B, C=C, a=a), pts)
        )
    for (alo, ahi), m in _HFORM_ODE_STRATA:
        alpha = float(rng.uniform(alo, ahi))
        a2 = float(rng.uniform(0.8, 1.2))
        a1 = float(rng.uniform(-0.5, 0.5))
        a0 = float(rng.uniform(-0.3, -0.05))  # a0 < 0 keeps the roots real
        rho = alpha + m
        pts = []
        for (lo, hi), count in _LEVELS:
            for _ in range(count):
                w = _decay_arg(alpha, m, float(rng.uniform(lo, hi)))
                pts.append((w * a2 * rho ** (m + 2)) ** (-1.0 / rho))
        problems.append(("ode", dict(alpha=alpha, m=m, a_coeffs=(a0, a1, a2)), pts))
    return problems


def _alpha1_special_a(m, d, A, B, C):
    """The prefactor exponent a at which one lower parameter of the
    alpha = 1 H-form equals 1, so that it reduces to the closed form."""
    sq = math.sqrt((1.0 - B / A) ** 2 - 4.0 * C / A)
    return 0.5 * (1.0 + sq - B / A - 2.0 * (2.0 - d))


def hform_ops(problems):
    ops = []
    for kind, p, pts in problems:
        if kind == "pde":
            sol = pde.solve(DiffusionProblem(**p))
            closed = pde.exp_closed_form(DiffusionProblem(**p)) if p["alpha"] == 1.0 else None
            for x, t in pts:
                ops.append(_hform_pde_op(sol, closed, p, x, t))
        else:
            sol = ode.solve(OdeProblem(**p))
            for z in pts:
                ops.append(
                    Op(
                        kind="ode-hform",
                        call=lambda sol=sol, z=z: sol.evaluate(z),
                        reference=lambda p=p, z=z: _ref().ode_value(p, z),
                        check=lambda got, want: _rel(got, want) / H_TOL,
                        detail=dict(problem=p, z=z),
                    )
                )
    return ops


def _hform_pde_op(sol, closed, p, x, t):
    if closed is None:
        reference = lambda: _ref().pde_value(p, x, t)  # noqa: E731
        check = lambda got, want: _rel(got, want) / H_TOL  # noqa: E731
    else:
        # alpha = 1: the H-form is a fixed multiple of the closed form
        def reference():
            closed_value = complex(pde.evaluate(closed, x, t)).real
            return _ref().pde_value(p, x, t), _ref().alpha1_ratio(p) * closed_value

        def check(got, want):
            return max(_rel(got, want[0]), _rel(got, want[1])) / H_TOL

    return Op(
        kind="pde-hform",
        call=lambda: pde.evaluate(sol, x, t),
        reference=reference,
        check=check,
        detail=dict(problem=p, x=x, t=t),
    )


# --------------------------------------------------------------------------
# series-grid

# (alpha range, m, d, complex roots, points).  The d != 2 solutions are
# the typical operation and make up the middle of the latency
# distribution, so that op_p50_ms sits inside one group of like
# operations rather than on the edge between two.  alpha and the
# prefactor exponent a set how many terms a member sums (the series
# converges faster for larger alpha), so their ranges are kept narrow:
# with alpha drawn over 0.4 and a over 1.5 the d = 1 members took 35 to
# 65 terms depending on the seed.
_WRIGHT_STRATA = (
    ((2.45, 2.55), 0, 1.0, False, 5),
    ((2.45, 2.55), 1, 0.0, False, 5),
    ((3.35, 3.45), 0, -1.0, True, 5),
    ((2.45, 2.55), 1, 2.0, False, 3),
    ((3.25, 3.35), 0, 2.0, False, 3),
)
# |argument| of every Wright member, where the series is accurate
_WRIGHT_ARG_RANGE = (1.0, 2.0)
# prefactor exponent a of every Wright-series problem
_WRIGHT_A_RANGE = (0.2, 0.4)
_ML_KINDS = ("exp", "cosh", "cos", "erfc", "general", "general")
_ML_RANGES = {"exp": (-4.5, 5.0), "cosh": (0.0, 3.0), "cos": (0.0, 1.3), "erfc": (0.0, 2.0)}
_COEFF_ORDER = 30
_COEFF_CHECKED = 20


def ml_reduction(kind, x):
    """(alpha, beta, z) of the Mittag-Leffler function with a closed form at x."""
    return {
        "exp": (1.0, 1.0, x),
        "cosh": (2.0, 1.0, x * x),
        "cos": (2.0, 1.0, -x * x),
        "erfc": (0.5, 1.0, -x),
    }[kind]


def series_inputs(rng):
    problems = []
    for (alo, ahi), m, d, complex_roots, npts in _WRIGHT_STRATA:
        alpha = float(rng.uniform(alo, ahi))
        A = float(rng.uniform(0.8, 1.2))
        if complex_roots:  # (1 - B/A)^2 <= 1.57 < 4C/A
            B, C = float(rng.uniform(-0.2, 0.2)), float(rng.uniform(0.7, 1.0))
        else:
            B, C = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.3, 0.1))
        a = float(rng.uniform(*_WRIGHT_A_RANGE))
        p = dict(alpha=alpha, m=m, d=d, A=A, B=B, C=C, a=a)
        pts = []
        for _ in range(npts):
            x = float(rng.uniform(0.5, 2.0))
            lam = _wright_arg_coef(p)
            target = float(rng.uniform(*_WRIGHT_ARG_RANGE))
            xarg = x ** (d - 2.0) if d != 2.0 else 1.0
            t = (target / abs(lam * xarg)) ** (1.0 / (alpha + m))
            pts.append((x, t))
        problems.append((p, pts))
    mls = []
    for kind in _ML_KINDS:
        if kind == "general":
            mls.append(
                (kind, float(rng.uniform(0.6, 1.8)), float(rng.uniform(0.6, 1.6)),
                 float(rng.uniform(-2.5, 4.0)))
            )
        else:
            mls.append((kind, float(rng.uniform(*_ML_RANGES[kind]))))
    return problems, mls


def _wright_arg_coef(p):
    rho = p["alpha"] + p["m"]
    if p["d"] == 2.0:
        K = p["A"] * p["a"] ** 2 - p["A"] * p["a"] + p["B"] * p["a"] + p["C"]
        return K * rho ** p["m"]
    return p["A"] * (p["d"] - 2.0) ** 2 * rho ** p["m"]


def _series_check(got, want):
    value, cond = want
    # capped so that no drawn argument can loosen a check past 1e-9
    return _rel(got, value) / (SERIES_TOL * min(max(1.0, cond), SERIES_MAX_COND))


def series_ops(inputs):
    problems, mls = inputs
    ops = []
    for p, pts in problems:
        sol = pde.solve(DiffusionProblem(**p))
        for x, t in pts:
            ops.append(
                Op(
                    kind="pde-wright",
                    call=lambda sol=sol, x=x, t=t: pde.evaluate(sol, x, t),
                    reference=lambda p=p, x=x, t=t: _ref().wright_pde_value(p, x, t),
                    check=_series_check,
                    detail=dict(problem=p, x=x, t=t),
                )
            )
    for ml in mls:
        if ml[0] == "general":
            _, al, be, z = ml
            reference = lambda al=al, be=be, z=z: _ref().mittag_leffler(al, be, z)  # noqa: E731
        else:
            kind, x = ml
            al, be, z = ml_reduction(kind, x)

            def reference(al=al, be=be, z=z, kind=kind, x=x):
                # the closed form is the value; the series supplies cond
                return _ref().ml_closed_form(kind, x), _ref().mittag_leffler(al, be, z)[1]

        ops.append(
            Op(
                kind="ml",
                call=lambda al=al, be=be, z=z: wright.mittag_leffler(al, be, z),
                reference=reference,
                check=_series_check,
                detail=dict(ml=ml),
            )
        )
    # termwise coefficient verification: one d != 2 and one d = 2 problem
    for p, _ in (problems[0], problems[3]):
        sol = pde.solve(DiffusionProblem(**p))
        ops.append(
            Op(
                kind="coeff",
                call=lambda sol=sol, alpha=p["alpha"]: _coefficient_verification(sol, alpha),
                reference=lambda p=p: [
                    (_ref().wright_coefficients(up, lo, lam, _COEFF_ORDER + 1), t_exp, up, lo)
                    for up, lo, lam, _, _, t_exp in _ref().wright_pde_members(p)
                ],
                check=_coeff_check,
                detail=dict(problem=p),
            )
        )
    return ops


def _coefficient_verification(sol, alpha):
    out = []
    for series, op in pde.series_members(sol, order=_COEFF_ORDER):
        report = verify.residual_ode_coefficients(series, op, alpha, _COEFF_CHECKED)
        out.append((series, report))
    return out


def _report_rel(point) -> float:
    return abs(complex(point.lhs) - complex(point.rhs)) / max(
        abs(complex(point.lhs)), abs(complex(point.rhs)), 1e-300
    )


def _coeff_check(got, want):
    if len(got) != len(want):
        return math.inf
    worst = 0.0
    for (series, report), (coeffs, t_exp, _, _) in zip(got, want):
        if len(series.coeffs) != len(coeffs) or abs(series.gamma0 - t_exp) > 1e-12:
            return math.inf
        for c_got, c_want in zip(series.coeffs, coeffs):
            worst = max(worst, _rel(c_got, c_want) / COEFF_TOL)
        if len(report.points) < _COEFF_CHECKED:
            return math.inf
        # the gate is recomputed from the points, not read from the report;
        # leading points with a zero right side must vanish absolutely
        for pt in report.points:
            worst = max(worst, _report_rel(pt) / TERMWISE_GATE)
    return worst


# --------------------------------------------------------------------------
# gl-verify

# (alpha range, m, d range, B range, C range, a range).  A call's cost is
# set by how many of its 320 profile nodes fall in deep decay, which
# depends on log(z_cut / z_lo) with z_lo ~ x^(2-d) / (A t_max^rho); the
# ranges are kept narrow so that this share, and the cost, barely moves
# with the seed.
_GL_STRATA = (
    ((0.78, 0.82), 1, (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
    ((0.6, 0.64), 0, (0.4, 0.5), (-0.2, 0.2), (-0.1, 0.05), (-0.2, 0.2)),
)
_GL_X_RANGE = (1.0, 1.15)
_GL_T_RANGE = (0.8, 1.4)
_GL_T_MAX_RANGE = (1.45, 1.55)


def gl_inputs(rng):
    out = []
    for (alo, ahi), m, drange, brange, crange, arange in _GL_STRATA:
        p = dict(
            alpha=float(rng.uniform(alo, ahi)), m=m, d=float(rng.uniform(*drange)),
            A=float(rng.uniform(0.95, 1.05)), B=float(rng.uniform(*brange)),
            C=float(rng.uniform(*crange)), a=float(rng.uniform(*arange)),
        )
        x = float(rng.uniform(*_GL_X_RANGE))
        ts = sorted(float(rng.uniform(*_GL_T_RANGE)) for _ in range(2))
        ts.append(float(rng.uniform(*_GL_T_MAX_RANGE)))
        out.append((p, x, ts))
    return out


def gl_ops(inputs):
    ops = []
    for p, x, ts in inputs:
        prob = DiffusionProblem(**p)
        sol = pde.solve(prob)
        grid = [(x, t) for t in ts]
        ops.append(
            Op(
                kind="gl",
                call=lambda sol=sol, prob=prob, grid=grid: verify.residual_pde(
                    sol, prob, grid, h=GL_STEP
                ),
                reference=lambda p=p, grid=grid: [
                    _ref().pde_gl_reference(p, x, t, GL_STEP) for x, t in grid
                ],
                check=lambda got, want, grid=grid: _gl_check(got, want, grid),
                detail=dict(problem=p, grid=grid),
            )
        )
    return ops


def _gl_check(report, want, grid):
    if [tuple(pt.point) for pt in report.points] != [tuple(g) for g in grid]:
        return math.inf
    worst = 0.0
    for pt, (expected_gl, exact) in zip(report.points, want):
        lhs, rhs = complex(pt.lhs).real, complex(pt.rhs).real
        worst = max(
            worst,
            abs(lhs - expected_gl) / abs(exact) / GL_EXPANSION_TOL,
            abs(rhs - exact) / abs(exact) / GL_GATE,
            _report_rel(pt) / GL_GATE,
        )
    return worst


# --------------------------------------------------------------------------

def make_inputs(workload: str, seed: int):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    if workload == "hform-grid":
        return hform_inputs(rng)
    if workload == "series-grid":
        return series_inputs(rng)
    return gl_inputs(rng)


def build_ops(workload: str, inputs):
    """Build the solution objects and the round of operations on them."""
    if workload == "hform-grid":
        return hform_ops(inputs)
    if workload == "series-grid":
        return series_ops(inputs)
    return gl_ops(inputs)
