"""Independent verification engines.

Exactness comes from the termwise coefficient path (fracseries); the
Grunwald-Letnikov sum and central finite differences provide the
independent numeric cross-checks at their known (coarser) accuracy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import foxh, fracseries
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
    PdeSolution,
    evaluate as pde_evaluate,
)
from .wright import WrightSpec

METHOD_TERMWISE = "termwise-exact"
METHOD_GL = "grunwald-letnikov"

_REL_FLOOR = 1e-300


@dataclass(frozen=True, slots=True)
class ResidualPoint:
    point: tuple
    lhs: complex
    rhs: complex
    counted: bool = True  # False when both sides are negligible vs the grid scale

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def rel_err(self) -> float:
        return self.abs_err / max(abs(self.lhs), abs(self.rhs), _REL_FLOOR)


@dataclass(frozen=True)
class ResidualReport:
    method: str
    points: tuple

    def __post_init__(self):
        if not self.points:
            raise ValueError("ResidualReport requires at least one point")

    # Python float and bool, not numpy scalars, so that json can write them
    @property
    def max_rel_err(self) -> float:
        return float(max((p.rel_err for p in self.points if p.counted), default=0.0))

    def passes(self, tol: float) -> bool:
        return bool(self.max_rel_err < tol)


def _build_report(method, points_lhs_rhs) -> ResidualReport:
    scale = max((max(abs(l), abs(r)) for _, l, r in points_lhs_rhs), default=0.0)
    pts = []
    for point, lhs, rhs in points_lhs_rhs:
        counted = not (abs(lhs) < 1e-12 * scale and abs(rhs) < 1e-12 * scale)
        pts.append(ResidualPoint(point=tuple(point), lhs=lhs, rhs=rhs, counted=counted))
    return ResidualReport(method=method, points=tuple(pts))


def gl_weights(alpha: float, n: int) -> np.ndarray:
    """Grunwald-Letnikov binomial weights (-1)^j C(alpha, j), j = 0..n."""
    j = np.arange(1, n + 1)
    return np.concatenate(([1.0], np.cumprod((j - 1.0 - alpha) / j)))


def gl_fractional_derivative(f, alpha: float, t: float, h: float, w=None):
    """First-order Grunwald-Letnikov approximation of the RL derivative.

    h^{-alpha} sum_j (-1)^j C(alpha, j) f(t - j h) with lower terminal 0.
    f maps an array of t to an array of the same shape, real or complex;
    the sum is a float or a complex to match.  w, if given, is
    gl_weights(alpha, N) for some N >= t / h, built once for several t; the
    sum reads its first floor(t / h) + 1 entries.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if t <= 0 or h <= 0:
        raise ValueError("t and h must be positive")
    if h > t / 50.0:
        raise StepTooLargeError(f"h = {h:g} exceeds t/50 = {t / 50.0:g}")
    n = int(math.floor(t / h))
    w = gl_weights(alpha, n) if w is None else w[: n + 1]
    ts = t - np.arange(n + 1) * h
    ts = np.where(ts < 0, 0.0, ts)
    vals = np.asarray(f(ts))
    if vals.shape != ts.shape:
        raise ValueError(f"f returned shape {vals.shape} for {ts.shape} values of t")
    # pairwise summation: a BLAS dot may thread a long sum, and its digits
    # then depend on the thread count
    return (h ** (-alpha) * np.sum(w * vals)).item()


def _closed_form_residual(sol: PdeSolution, grid):
    """Exact-derivative residual for the alpha = 1 exponential closed form."""
    form: ClosedFormExp = sol.form
    problem = sol.problem
    A, B, C, d, m = problem.A, problem.B, problem.C, problem.d, problem.m
    px, pt, q = form.x_exponent, form.t_exponent, form.exp_coef
    pts = []
    for x, t in grid:
        u = problem.reported(complex(pde_evaluate(sol, x, t)))
        gx = -q * (2.0 - d) * x ** (1.0 - d) * t ** (-(1.0 + m))
        gxx = -q * (2.0 - d) * (1.0 - d) * x ** (-d) * t ** (-(1.0 + m))
        gt = q * (1.0 + m) * x ** (2.0 - d) * t ** (-(2.0 + m))
        ux = u * (px / x + gx)
        uxx = u * ((px / x + gx) ** 2 - px / x**2 + gxx)
        ut = u * (pt / t + gt)
        rhs = t**m * (A * x**d * uxx + B * x ** (d - 1.0) * ux + C * x ** (d - 2.0) * u)
        pts.append(((x, t), ut, rhs))
    return _build_report(METHOD_TERMWISE, pts)


@functools.cache
def _not_a_knot_inverse(n: int) -> np.ndarray:
    """Inverse of the not-a-knot slope equations on n uniform nodes, in
    units of the node spacing (scipy's CubicSpline default)."""
    a = np.zeros((n, n))
    i = np.arange(1, n - 1)
    a[i, i - 1], a[i, i], a[i, i + 1] = 1.0, 4.0, 1.0
    a[0, :2] = 1.0, 2.0
    a[-1, -2:] = 2.0, 1.0
    return np.linalg.inv(a)


_PROFILE_NODES = 320


class _HProfile:
    """v -> H[coef * v^(-power)] for v > 0, backed by a log-log spline of H.

    The Grunwald-Letnikov sum needs the function on a dense lattice; one
    contour quadrature per lattice node is prohibitive, so H is sampled on
    _PROFILE_NODES logarithmic arguments once and interpolated with a
    not-a-knot cubic spline.  Beyond the point where the decay envelope is
    negligible the profile is exactly 0.  H at the arguments in extra is
    evaluated in the same batch as the nodes and kept in self.extra.
    """

    def __init__(self, spec, coef, power, v_max, h, extra=()):
        self.coef = coef
        self.log_coef = math.log(coef)
        self.power = power
        w_lo = coef * v_max ** (-power) * 0.5
        # cut where the decay envelope is hopelessly small
        w_hi = coef * max(h, 1e-8) ** (-power)
        conv = foxh.convergence_params(spec)
        if conv.nu > 0:
            # envelope exp(-nu (mu w)^(1/nu)) < 1e-60  =>  w > w_cut
            w_cut = (138.0 / conv.nu) ** conv.nu / conv.mu
            w_hi = min(w_hi, max(w_cut, w_lo * 10.0))
        self.w_hi = w_hi
        self.xs = np.linspace(math.log(w_lo), math.log(w_hi), _PROFILE_NODES)
        self.dx = self.xs[1] - self.xs[0]
        vals = eval_mellin_barnes_batch(spec, np.concatenate((np.exp(self.xs), extra)))
        vals, self.extra = vals[:_PROFILE_NODES], vals[_PROFILE_NODES:]
        self.positive = bool(np.all(vals > 0))
        y = np.log(vals) if self.positive else vals
        m = np.diff(y) / self.dx
        rhs = np.concatenate((
            [(5.0 * m[0] + m[1]) / 2.0], 3.0 * (m[:-1] + m[1:]), [(m[-2] + 5.0 * m[-1]) / 2.0]
        ))
        s = _not_a_knot_inverse(_PROFILE_NODES) @ rhs
        # piecewise cubic in u = log w - xs[i], one column per interval,
        # highest power first
        t = (s[:-1] + s[1:] - 2.0 * m) / self.dx
        self.coeffs = np.stack((t / self.dx, (m - s[:-1]) / self.dx - t, s[:-1], y[:-1]))

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        # v <= 0 maps to x = inf, past the last node
        with np.errstate(divide="ignore"):
            x = self.log_coef - self.power * np.log(np.maximum(v, 0.0))
        inside = x <= self.xs[-1]
        # points outside are evaluated at the last node and discarded
        x = np.minimum(x, self.xs[-1])
        # truncation and the clip at 0 give the floor's interval
        i = np.clip(((x - self.xs[0]) / self.dx).astype(int), 0, len(self.xs) - 2)
        u = x - self.xs[i]
        hv = self.coeffs[0][i]
        for c in self.coeffs[1:]:
            hv *= u
            hv += c[i]
        if self.positive:
            np.exp(hv, out=hv)
        return np.where(inside, hv, 0.0)


def _numeric_residual(sol: PdeSolution, grid, h: float):
    """GL time derivative vs finite-difference spatial operator, both read
    from phi in u = c x^a phi(z), z = problem.z(x, t) = k t: the GL sum of
    u at x is that of s -> c x^a phi(k s), and the stencil values at (x, t)
    are c x'^a phi(problem.z(x', t)).  An H-form solution reads phi from
    one spline profile whose batch also holds every stencil argument.
    """
    problem, form = sol.problem, sol.form
    A, B, C, d, m, a = problem.A, problem.B, problem.C, problem.d, problem.m, problem.a
    x, t = np.array(grid).T
    k = problem.z(x, 1.0)
    # the stencil's rounding, about eps |u| / dx^2 in u_xx, against its
    # O(dx^4) truncation after one Richardson step; its five distinct
    # points, each evaluated once
    dx = 2e-3 * x
    xs = x[:, None] + dx[:, None] * np.array((-1.0, -0.5, 0.0, 0.5, 1.0))
    # through z, not arg_coef x'^(2-d) t^-rho: on the gl-verify inputs of
    # seeds 1-20 rhs moves by at most 2.2e-9 and stays within 5.0e-9 of u_t
    zs = problem.z(xs, t[:, None]).ravel()
    if form.small is not None:
        small, c = form.small, problem.reported(form.constants[0])
        # over the grid's largest z, at the step of its finest lattice
        phi = _HProfile(
            small.spec, coef=small.arg_coef, power=small.power, v_max=float(np.max(k * t)),
            h=float(np.min(k)) * h, extra=small.arg_coef * zs ** (-small.power),
        )
        at_stencil = phi.extra
    else:
        c = 1.0

        def phi(z):
            return problem.reported(np.array([form.evaluate(v) if v > 0 else 0.0 for v in z]))

        at_stencil = phi(zs)
    u_m2, u_m1, u0, u_p1, u_p2 = (c * xs**a * at_stencil.reshape(xs.shape)).T
    # one Richardson step on the central first and second differences
    ux = (4.0 * ((u_p1 - u_m1) / dx) - (u_p2 - u_m2) / (2.0 * dx)) / 3.0
    uxx = (
        4.0 * ((u_p1 - 2.0 * u0 + u_m1) / (dx / 2.0) ** 2) - (u_p2 - 2.0 * u0 + u_m2) / dx**2
    ) / 3.0
    rhs = t**m * (A * x**d * uxx + B * x ** (d - 1.0) * ux + C * x ** (d - 2.0) * u0)
    w = gl_weights(problem.alpha, int(math.floor(t.max() / h)))
    lhs = [
        gl_fractional_derivative(lambda s: c * xv**a * phi(kv * s), problem.alpha, tv, h, w)
        for (xv, tv), kv in zip(grid, k)
    ]
    return _build_report(METHOD_GL, list(zip(grid, lhs, rhs)))


def residual_pde(
    sol: PdeSolution, problem: DiffusionProblem, grid, h: float = 1e-4
) -> ResidualReport:
    """Residual of the diffusion equation on the given (x, t) grid.

    problem must be sol.problem, which the residual reads (ValueError
    otherwise).  ClosedFormExp solutions (alpha = 1) go through the exact
    analytic-derivative path (h-independent); everything else uses the
    Grunwald-Letnikov time derivative and finite differences in x.

    Both sides are complex when a constant is.  An H-form solution is
    read from one spline profile in z per call.  A Wright-series solution
    has none: its form runs at every GL node (102 s for one point at
    h = 1e-4), and the GL sum converges only as O(h^(1/2)) when a member
    has exponent 1/2; ``residual_ode_coefficients`` checks that branch.
    """
    grid = [(float(x), float(t)) for x, t in grid]
    if any(x <= 0 or t <= 0 for x, t in grid):
        raise ValueError("grid points must be strictly positive")
    if problem != sol.problem:
        raise ValueError("problem is not the solution's problem")
    if isinstance(sol.form, ClosedFormExp):
        return _closed_form_residual(sol, grid)
    return _numeric_residual(sol, grid, h)


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
    """Termwise-exact comparison of D^alpha(member) against op(member) on
    n_coeffs >= 1 aligned coefficients (ValueError otherwise).

    The two series are aligned on their common exponent lattice; leading
    derivative coefficients with no operator counterpart must vanish.
    """
    if n_coeffs < 1:
        raise ValueError(f"n_coeffs = {n_coeffs} compares no coefficient")
    if len(member.coeffs) < n_coeffs:
        raise ValueError(f"member carries {len(member.coeffs)} coefficients < {n_coeffs}")
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

    if kind == "rl":
        shifted = replace(spec, upper=spec.upper[:-1] + ((1.0 - alpha, alpha_p),))
        zmax = max(z_points)
        cache = _HProfile(spec, coef=a, power=alpha_p, v_max=zmax, h=h)
        w = gl_weights(alpha, int(math.floor(zmax / h)))
        rhs = eval_mellin_barnes_batch(shifted, h_args(z_points))
        pts = [
            ((z,), gl_fractional_derivative(cache, alpha, z, h, w), z ** (-alpha) * h_shifted)
            for z, h_shifted in zip(z_points, rhs)
        ]
    elif kind == "euler-shift":
        if spec.m < 1:
            raise PreconditionViolationError("euler-shift requires m >= 1")
        b1, beta1 = spec.lower[0]
        shifted = replace(spec, lower=((b1 + 1.0, beta1),) + spec.lower[1:])
        rhs = eval_mellin_barnes_batch(shifted, h_args(z_points))
        # every z's 3-point stencil in one batch, each on one contour line
        z = np.asarray(z_points, dtype=float)
        dz = 1e-6 * z
        g_hi, g_lo, g0 = eval_mellin_barnes_batch(
            spec, h_args(np.stack((z + dz, z - dz, z), axis=1).ravel())
        ).reshape(-1, 3).T
        lhs = (beta1 / alpha_p) * z * ((g_hi - g_lo) / (2.0 * dz)) + b1 * g0
        pts = [((zv,), lv, rv) for zv, lv, rv in zip(z_points, lhs, rhs)]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return _build_report(METHOD_GL, pts)


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
            fracseries.wright_series(spec, a, b1 - 1.0, beta1, order), alpha
        )
        shifted = WrightSpec(
            upper=((1.0, 1.0),)
            + tuple((ai + mshift * al, al) for ai, al in spec.upper[1:]),
            lower=((b1 + mshift * beta1 - alpha, beta1),)
            + tuple((bj + mshift * be, be) for bj, be in spec.lower[1:]),
        )
        rhs_series = fracseries.wright_series(
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
            op, fracseries.wright_series(spec, a, pexp, sigma, order)
        )
        shifted = WrightSpec(
            upper=((a1 + 1.0, alpha1),) + spec.upper[1:], lower=spec.lower
        )
        rhs_series = fracseries.wright_series(shifted, a, pexp, sigma, order).scaled(
            sigma / (alpha1 * alpha)
        )
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return _termwise_report(lhs_series, rhs_series, n_coeffs)
