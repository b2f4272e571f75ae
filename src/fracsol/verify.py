"""Independent verification engines.

Exactness comes from the termwise coefficient path (fracseries); the
Grunwald-Letnikov sum and central finite differences provide the
independent numeric cross-checks at their known (coarser) accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import foxh, fracseries, wright
from .errors import (
    PreconditionViolationError,
    StepTooLargeError,
    UnsupportedClassError,
)
from .fracseries import EulerPolynomialOperator, FracPowerSeries, align_series
from .foxh import HFunctionSpec, eval_mellin_barnes_batch
from .gammafn import is_nonpositive_integer
from .pde import (
    ClosedFormExp,
    DiffusionProblem,
    FoxHForm,
    PdeSolution,
    evaluate as pde_evaluate,
)
from .wright import WrightSpec

METHOD_TERMWISE = "termwise-exact"
METHOD_GL = "grunwald-letnikov"

_REL_FLOOR = 1e-300


@dataclass(frozen=True)
class ResidualPoint:
    point: tuple
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    counted: bool = True  # False when both sides are negligible vs the grid scale


@dataclass(frozen=True)
class ResidualReport:
    method: str
    points: tuple

    def __post_init__(self):
        if not self.points:
            raise ValueError("ResidualReport requires at least one point")

    @property
    def max_rel_err(self) -> float:
        counted = [p.rel_err for p in self.points if p.counted]
        return max(counted) if counted else 0.0

    def passes(self, tol: float) -> bool:
        return self.max_rel_err < tol


def _rel(lhs, rhs) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), _REL_FLOOR)


def _build_report(method, points_lhs_rhs) -> ResidualReport:
    scale = max((max(abs(l), abs(r)) for _, l, r in points_lhs_rhs), default=0.0)
    pts = []
    for point, lhs, rhs in points_lhs_rhs:
        counted = not (abs(lhs) < 1e-12 * scale and abs(rhs) < 1e-12 * scale)
        pts.append(
            ResidualPoint(
                point=tuple(point),
                lhs=lhs,
                rhs=rhs,
                abs_err=abs(lhs - rhs),
                rel_err=_rel(lhs, rhs),
                counted=counted,
            )
        )
    return ResidualReport(method=method, points=tuple(pts))


def gl_weights(alpha: float, n: int) -> np.ndarray:
    """Grunwald-Letnikov binomial weights (-1)^j C(alpha, j), j = 0..n."""
    j = np.arange(1, n + 1)
    return np.concatenate(([1.0], np.cumprod((j - 1.0 - alpha) / j)))


def gl_fractional_derivative(f, alpha: float, t: float, h: float) -> float:
    """First-order Grunwald-Letnikov approximation of the RL derivative.

    h^{-alpha} sum_j (-1)^j C(alpha, j) f(t - j h) with lower terminal 0.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if t <= 0 or h <= 0:
        raise ValueError("t and h must be positive")
    if h > t / 50.0:
        raise StepTooLargeError(f"h = {h:g} exceeds t/50 = {t / 50.0:g}")
    n = int(math.floor(t / h))
    w = gl_weights(alpha, n)
    ts = t - np.arange(n + 1) * h
    ts = np.where(ts < 0, 0.0, ts)
    try:
        vals = np.asarray(f(ts), dtype=float)
        if vals.shape != ts.shape:
            raise TypeError
    except TypeError:
        vals = np.array([float(f(tv)) for tv in ts])
    return float(h ** (-alpha) * np.dot(w, vals))


def _closed_form_residual(sol: PdeSolution, problem: DiffusionProblem, grid):
    """Exact-derivative residual for the alpha = 1 exponential closed form."""
    form: ClosedFormExp = sol.form
    A, B, C, d, m = problem.A, problem.B, problem.C, problem.d, problem.m
    px, pt, q = form.x_exponent, form.t_exponent, form.exp_coef
    pts = []
    for x, t in grid:
        u = complex(pde_evaluate(sol, x, t)).real
        gx = -q * (2.0 - d) * x ** (1.0 - d) * t ** (-(1.0 + m))
        gxx = -q * (2.0 - d) * (1.0 - d) * x ** (-d) * t ** (-(1.0 + m))
        gt = q * (1.0 + m) * x ** (2.0 - d) * t ** (-(2.0 + m))
        ux = u * (px / x + gx)
        uxx = u * ((px / x + gx) ** 2 - px / x**2 + gxx)
        ut = u * (pt / t + gt)
        rhs = t**m * (A * x**d * uxx + B * x ** (d - 1.0) * ux + C * x ** (d - 2.0) * u)
        pts.append(((x, t), ut, rhs))
    return _build_report(METHOD_TERMWISE, pts)


class _HProfile:
    """v -> scale * H[coef * v^(-power)] for v > 0, backed by a log-log
    spline of H.

    The Grunwald-Letnikov sum needs the function on a dense lattice; one
    contour quadrature per lattice node is prohibitive, so H is sampled on
    a logarithmic argument grid once and interpolated.  Beyond the point
    where the decay envelope is negligible the profile is exactly 0.
    """

    def __init__(self, spec, coef, power, v_max, h, scale=1.0, nodes: int = 320):
        # imported here so that importing the package loads no scipy
        from scipy.interpolate import CubicSpline

        self.coef = coef
        self.power = power
        self.scale = scale
        w_lo = coef * v_max ** (-power) * 0.5
        # cut where the decay envelope is hopelessly small
        w_hi = coef * max(h, 1e-8) ** (-power)
        conv = foxh.convergence_params(spec)
        if conv.nu > 0:
            # envelope exp(-nu (mu w)^(1/nu)) < 1e-60  =>  w > w_cut
            w_cut = (138.0 / conv.nu) ** conv.nu / conv.mu
            w_hi = min(w_hi, max(w_cut, w_lo * 10.0))
        self.w_hi = w_hi
        ws = np.exp(np.linspace(math.log(w_lo), math.log(w_hi), nodes))
        vals = eval_mellin_barnes_batch(spec, ws)
        self.positive = bool(np.all(vals > 0))
        self.spline = CubicSpline(np.log(ws), np.log(vals) if self.positive else vals)

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        ok = v > 0
        w = np.where(ok, self.coef * np.where(ok, v, 1.0) ** (-self.power), np.inf)
        inside = ok & (w <= self.w_hi)
        hv = self.spline(np.log(np.where(inside, w, 1.0)))
        if self.positive:
            hv = np.exp(hv)
        out[inside] = self.scale * hv[inside]
        return out


def _numeric_residual(sol: PdeSolution, problem: DiffusionProblem, grid, h: float):
    """GL time derivative vs finite-difference spatial operator."""
    A, B, C, d, m, alpha = (
        problem.A,
        problem.B,
        problem.C,
        problem.d,
        problem.m,
        problem.alpha,
    )

    def u_point(x, t):
        return complex(pde_evaluate(sol, x, t)).real

    def u_values(xs, t):
        form = sol.form
        if isinstance(form, FoxHForm):
            args = np.array([form.argument(xv, t) for xv in xs])
            scale = complex(sol.problem.constant(1)).real * xs**form.a
            return scale * eval_mellin_barnes_batch(form.spec, args)
        return np.array([u_point(xv, t) for xv in xs])

    profiles = {}
    t_max = max(t for _, t in grid)
    pts = []
    for x, t in grid:
        if isinstance(sol.form, FoxHForm):
            if x not in profiles:
                form: FoxHForm = sol.form
                profiles[x] = _HProfile(
                    form.spec,
                    coef=form.arg_coef * x ** (2.0 - form.d),
                    power=form.rho,
                    v_max=t_max,
                    h=h,
                    scale=complex(sol.problem.constant(1)).real * x**form.a,
                )
            f_t = profiles[x]
        else:
            def f_t(ts, _x=x):
                ts = np.atleast_1d(np.asarray(ts, dtype=float))
                return np.array([u_point(_x, tv) if tv > 0 else 0.0 for tv in ts])

        lhs = gl_fractional_derivative(f_t, alpha, t, h)

        # the stencil's rounding, about eps |u| / dx^2 in u_xx, against its
        # O(dx^4) truncation after one Richardson step
        dx = 2e-3 * x
        # the stencil's five distinct points, each evaluated once
        offsets = (-dx, -dx / 2.0, 0.0, dx / 2.0, dx)
        u = dict(zip(offsets, u_values(x + np.array(offsets), t)))

        def d1(step):
            return (u[step] - u[-step]) / (2.0 * step)

        def d2(step):
            return (u[step] - 2.0 * u[0.0] + u[-step]) / step**2

        ux = (4.0 * d1(dx / 2.0) - d1(dx)) / 3.0  # one Richardson step
        uxx = (4.0 * d2(dx / 2.0) - d2(dx)) / 3.0
        u0 = u[0.0]
        rhs = t**m * (A * x**d * uxx + B * x ** (d - 1.0) * ux + C * x ** (d - 2.0) * u0)
        pts.append(((x, t), lhs, rhs))
    return _build_report(METHOD_GL, pts)


def residual_pde(
    sol: PdeSolution, problem: DiffusionProblem, grid, h: float = 1e-4
) -> ResidualReport:
    """Residual of the diffusion equation on the given (x, t) grid.

    ClosedFormExp solutions with integer alpha go through the exact
    analytic-derivative path (h-independent); everything else uses the
    Grunwald-Letnikov time derivative and finite differences in x.
    """
    grid = [(float(x), float(t)) for x, t in grid]
    if any(x <= 0 or t <= 0 for x, t in grid):
        raise ValueError("grid points must be strictly positive")
    if isinstance(sol.form, ClosedFormExp) and float(problem.alpha).is_integer():
        return _closed_form_residual(sol, problem, grid)
    return _numeric_residual(sol, problem, grid, h)


def _termwise_report(lhs: FracPowerSeries, rhs: FracPowerSeries, n_coeffs: int) -> ResidualReport:
    """Coefficient residual of two series on their common exponent lattice:
    each lhs coefficient below rhs's lattice against 0, then the first
    n_coeffs aligned pairs."""
    offset, overlap = align_series(lhs, rhs)
    pts = [
        ((lhs.exponent(j),), lhs.coeffs[j], 0.0 + 0.0j)
        for j in range(min(offset, len(lhs.coeffs)))
    ]
    pts += [
        ((rhs.exponent(j),), lhs.coeffs[j + offset], rhs.coeffs[j])
        for j in range(min(overlap, n_coeffs))
    ]
    return _build_report(METHOD_TERMWISE, pts)


def residual_ode_coefficients(
    member: FracPowerSeries,
    op: EulerPolynomialOperator,
    alpha: float,
    n_coeffs: int,
) -> ResidualReport:
    """Termwise-exact comparison of D^alpha(member) against op(member).

    The two series are aligned on their common exponent lattice; leading
    derivative coefficients with no operator counterpart must vanish.
    """
    if member.order + 1 < n_coeffs:
        raise ValueError(f"member carries {member.order + 1} coefficients < {n_coeffs}")
    deriv = fracseries.rl_derivative(member, alpha)
    image = fracseries.euler_apply(op, member)
    return _termwise_report(deriv, image, n_coeffs)


def h_operator_identity_check(
    spec: HFunctionSpec,
    kind: str,
    alpha: float = 0.5,
    a: float = 1.0,
    z_points=(0.5, 1.0, 2.0),
    h: float = 1e-4,
) -> ResidualReport:
    """Numeric check of the two H-function operator identities.

    kind = "rl":  D^alpha of z -> H[a z^(-alpha_p)] (last upper entry
    (1, alpha_p)) equals z^(-alpha) * H with that entry shifted to
    (1 - alpha, alpha_p).  Grunwald-Letnikov supplies the left side.

    kind = "euler-shift":  (beta_1/alpha_p z d/dz + B_1) H[a z^(-alpha_p)]
    equals H with B_1 + 1; central differences supply the left side.
    """
    if spec.l != 0:
        raise UnsupportedClassError("identity check requires the l = 0 class")
    if a <= 0:
        raise PreconditionViolationError("requires a > 0")
    a_last, alpha_p = spec.upper[-1]
    if abs(a_last - 1.0) > 1e-12:
        raise PreconditionViolationError("last upper entry must be (1, alpha_p)")

    def h_args(zs):
        return a * np.asarray(zs, dtype=float) ** (-alpha_p)

    pts = []
    if kind == "rl":
        shifted = HFunctionSpec(
            m=spec.m,
            l=0,
            upper=spec.upper[:-1] + ((1.0 - alpha, alpha_p),),
            lower=spec.lower,
        )
        zmax = max(z_points)
        cache = _HProfile(spec, coef=a, power=alpha_p, v_max=zmax, h=h)
        rhs = eval_mellin_barnes_batch(shifted, h_args(z_points))
        for z, h_shifted in zip(z_points, rhs):
            lhs = gl_fractional_derivative(cache, alpha, z, h)
            pts.append(((z,), lhs, z ** (-alpha) * h_shifted))
    elif kind == "euler-shift":
        if spec.m < 1:
            raise PreconditionViolationError("euler-shift requires m >= 1")
        b1, beta1 = spec.lower[0]
        shifted = HFunctionSpec(
            m=spec.m,
            l=0,
            upper=spec.upper,
            lower=((b1 + 1.0, beta1),) + spec.lower[1:],
        )
        rhs = eval_mellin_barnes_batch(shifted, h_args(z_points))
        for z, h_shifted in zip(z_points, rhs):
            dz = 1e-6 * z
            g_hi, g_lo, g0 = eval_mellin_barnes_batch(spec, h_args([z + dz, z - dz, z]))
            dgdz = (g_hi - g_lo) / (2.0 * dz)
            lhs = (beta1 / alpha_p) * z * dgdz + b1 * g0
            pts.append(((z,), lhs, h_shifted))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return _build_report(METHOD_GL, pts)


def _wright_series_image(spec: WrightSpec, a: float, prefactor_exp: float, sigma: float, order: int):
    return FracPowerSeries(prefactor_exp, sigma, wright.coefficients(spec, order, a))


def wright_operator_identity_check(
    spec: WrightSpec,
    kind: str,
    alpha: float = 0.5,
    a: float = 1.0,
    R: float = 0.0,
    sigma: float = None,
    n_coeffs: int = 20,
) -> ResidualReport:
    """Coefficientwise check of the two Wright operator identities.

    kind = "rl": D^alpha of z^(B1-1) pPsiq[a z^beta1] (requires the first
    upper pair (1,1)) against the shifted-Wright display with the smallest
    admissible integer shift.

    kind = "euler": (1/alpha z d/dz + R) of z^(A1 sigma/alpha1 - alpha R)
    pPsiq[a z^sigma] against (sigma/(alpha1 alpha)) times the same form
    with A_1 raised by one.  Requires sigma > 0 (series lattice).
    """
    order = n_coeffs + 8
    if kind == "rl":
        if not spec.upper or abs(spec.upper[0][0] - 1.0) > 1e-12 or abs(
            spec.upper[0][1] - 1.0
        ) > 1e-12:
            raise PreconditionViolationError("requires first upper pair (1, 1)")
        if not spec.lower:
            raise PreconditionViolationError("requires at least one lower pair")
        b1c, beta1 = spec.lower[0]
        b1 = b1c.real
        if beta1 <= 0 or b1 <= 0:
            raise PreconditionViolationError("requires beta_1 > 0 and B_1 > 0")
        mshift = 0
        while is_nonpositive_integer(b1 + mshift * beta1 - alpha, tol=1e-9):
            mshift += 1
        lhs_series = fracseries.rl_derivative(
            _wright_series_image(spec, a, b1 - 1.0, beta1, order), alpha
        )
        shifted = WrightSpec(
            upper=((1.0, 1.0),)
            + tuple((ai + mshift * al, al) for ai, al in spec.upper[1:]),
            lower=((b1 + mshift * beta1 - alpha, beta1),)
            + tuple((bj + mshift * be, be) for bj, be in spec.lower[1:]),
        )
        rhs_series = _wright_series_image(
            shifted, a, b1 + mshift * beta1 - 1.0 - alpha, beta1, order
        ).scaled(a**mshift)
    elif kind == "euler":
        if sigma is None or sigma == 0:
            raise PreconditionViolationError("euler kind requires sigma != 0")
        if sigma < 0:
            raise PreconditionViolationError(
                "series-backed check supports sigma > 0 only"
            )
        if not spec.upper:
            raise PreconditionViolationError("requires at least one upper pair")
        a1, alpha1 = spec.upper[0]
        pexp = (a1.real * sigma) / alpha1 - alpha * R
        op = EulerPolynomialOperator(coeffs=(R, 1.0 / alpha), time_weight=0)
        lhs_series = fracseries.euler_apply(
            op, _wright_series_image(spec, a, pexp, sigma, order)
        )
        shifted = WrightSpec(
            upper=((a1 + 1.0, alpha1),) + spec.upper[1:], lower=spec.lower
        )
        rhs_series = _wright_series_image(shifted, a, pexp, sigma, order).scaled(
            sigma / (alpha1 * alpha)
        )
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return _termwise_report(lhs_series, rhs_series, n_coeffs)
