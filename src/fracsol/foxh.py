"""Fox H-function: Mellin-Barnes contour evaluation and transformations.

The public evaluator handles the l = 0, real-parameter class (the only
class the solvers emit) for z > 0.  The contour is the vertical line
Re s = gamma with gamma = min_j(B_j / beta_j) - 1/2, which separates the
numerator poles for every l = 0 spec; for large arguments the line is
slid left to the real saddle of the integrand (a vectorized grid search)
so the quadrature keeps relative accuracy deep into the exponential
decay.

The trapezoid rule on the line is truncated from the decay rate: the
integrand falls like exp(-pi omega |tau| / 2), so the first pass spans
|tau| <= 30 / (pi omega / 2), and T then doubles, evaluating only the new
outer segments, until a tail bound is negligible.  Refinement halves h
and evaluates only the midpoints of the previous lattice, so each pass
costs as many nodes as all earlier ones together; it stops when two
passes agree to _REFINE_TOL (the nested error estimate of Trefethen &
Weideman, SIAM Rev. 56 (2014)).  A value whose modulus bound lies below
the double range returns 0.0 after the first pass; a stalled refinement
or a runaway T raises QuadratureFailureError.

A residue-based small-argument series is kept as an internal cross-check
oracle, together with a general-contour evaluator used by the identity
tests (argument inversion produces l > 0 specs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    NonConvergentError,
    NonDecayingError,
    QuadratureFailureError,
    ShapeMismatchError,
    UnsupportedClassError,
)
from .gammafn import gamma_reciprocal, ln_gamma_vec

_REFINE_TOL = 1e-9
_MAX_REFINE = 6
_H0 = 0.1
# the first pass spans |tau| <= _DECAY_LOGS / (pi omega / 2), where the
# integrand has fallen by e^-30 from its asymptotic envelope at tau = 0
_DECAY_LOGS = 30.0
# fewest first-pass nodes on each side of tau = 0
_N_MIN = 40
_MAX_DOUBLINGS = 6
# share of _REFINE_TOL the truncated tail may take
_TAIL_FRACTION = 1e-2
_EPS = np.finfo(float).eps
# log of half the smallest subnormal: a bound below it rounds to 0.0
_LOG_UNDERFLOW = math.log(2.0) * -1075
_SADDLE_GRID = 65
_SADDLE_STAGES = 3


@dataclass(frozen=True)
class HFunctionSpec:
    """Full parameter set (m, l; (A_i, alpha_i); (B_j, beta_j)) of an H-function."""

    m: int
    l: int
    upper: tuple
    lower: tuple

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple((float(a), float(al)) for a, al in self.upper))
        object.__setattr__(self, "lower", tuple((float(b), float(be)) for b, be in self.lower))
        if not (0 <= self.m <= self.q and 0 <= self.l <= self.p):
            raise ValueError(f"invalid (m,l) = ({self.m},{self.l}) for p={self.p}, q={self.q}")
        if (self.m, self.l) == (0, 0):
            raise ValueError("(m, l) = (0, 0) is not a valid H-function")
        if any(w <= 0 for _, w in self.upper + self.lower):
            raise ValueError("all weights alpha_i, beta_j must be positive")

    @property
    def p(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class HConvergence:
    """Derived convergence quantities of an H-function spec."""

    omega: float
    mu: float
    delta: float
    nu: float

    @property
    def arg_bound(self) -> float:
        return math.pi * self.omega / 2.0


class GaussReduction(NamedTuple):
    spec: HFunctionSpec
    scale: float
    argument_multiplier: float


def convergence_params(spec: HFunctionSpec) -> HConvergence:
    """omega, mu, delta, nu computed literally from their defining sums."""
    alphas = [w for _, w in spec.upper]
    betas = [w for _, w in spec.lower]
    omega = (
        math.fsum(alphas[: spec.l])
        - math.fsum(alphas[spec.l :])
        + math.fsum(betas[: spec.m])
        - math.fsum(betas[spec.m :])
    )
    mu = math.exp(
        math.fsum(a * math.log(a) for a in alphas)
        - math.fsum(b * math.log(b) for b in betas)
    )
    delta = (
        math.fsum(b for b, _ in spec.lower)
        - math.fsum(a for a, _ in spec.upper)
        + (spec.p - spec.q) / 2.0
    )
    nu = math.fsum(betas) - math.fsum(alphas)
    return HConvergence(omega=omega, mu=mu, delta=delta, nu=nu)


def _log_integrand(spec: HFunctionSpec, s):
    """Log of the gamma-ratio kernel (without z^s) on an array of s values."""
    s = np.asarray(s, dtype=complex)
    out = np.zeros_like(s)
    for b, be in spec.lower[: spec.m]:
        out = out + ln_gamma_vec(b - be * s)
    for a, al in spec.upper[: spec.l]:
        out = out + ln_gamma_vec(1.0 - a + al * s)
    for a, al in spec.upper[spec.l :]:
        out = out - ln_gamma_vec(a - al * s)
    for b, be in spec.lower[spec.m :]:
        out = out - ln_gamma_vec(1.0 - b + be * s)
    return out


def _trapezoid_line(spec: HFunctionSpec, z: float, gamma: float, omega: float) -> float:
    """Trapezoid rule on Re s = gamma (truncation and refinement as in the
    module docstring).

    The tail bound beyond T is |f(+-T)| / r, with r the smaller of
    pi omega / 2 and the local decay rate at the end nodes, which is below
    the asymptotic rate while a far-left saddle contour still decays like
    a Gaussian.  T stops growing once the bound is under _TAIL_FRACTION of
    the tolerance times the running integral, or under the rounding floor
    eps * sum|f| that no longer T can improve.
    """
    log_z = math.log(z)
    rate = math.pi * omega / 2.0

    def log_f(tau):
        s = gamma + 1j * tau
        return _log_integrand(spec, s) + s * log_z

    h = _H0
    n = max(int(math.ceil(_DECAY_LOGS / rate / h)), _N_MIN)
    lf = log_f(np.arange(-n, n + 1) * h)
    # every node is scaled by the first pass's largest modulus
    ref = float(np.max(lf.real))
    total = 0.0
    total_abs = 0.0
    for doubling in range(_MAX_DOUBLINGS + 1):
        total += float(np.sum(np.exp(lf - ref)).real)
        total_abs += float(np.sum(np.exp(lf.real - ref)))
        edge = lf.real[[0, -1]]
        decay = np.minimum((lf.real[[1, -2]] - edge) / h, rate)
        tail = float(np.sum(np.exp(edge - ref) / decay)) if decay.min() > 0 else math.inf
        bound = h * total_abs + tail
        if ref + math.log(bound / (2.0 * math.pi)) < _LOG_UNDERFLOW:
            # |H| <= that bound, which is below half the smallest subnormal
            return 0.0
        if tail <= h * max(_TAIL_FRACTION * _REFINE_TOL * abs(total), _EPS * total_abs):
            break
        if doubling == _MAX_DOUBLINGS:
            raise QuadratureFailureError(
                f"contour truncation did not settle by T = {n * h:g} at z = {z}"
            )
        k = np.arange(n + 1, 2 * n + 1)
        lf = log_f(np.concatenate((-k[::-1], k)) * h)
        n *= 2
    val = h * total
    for _ in range(_MAX_REFINE):
        total += float(np.sum(np.exp(log_f((np.arange(-n, n) + 0.5) * h) - ref)).real)
        h, n = h / 2.0, 2 * n
        new = h * total
        if abs(new - val) <= _REFINE_TOL * abs(new):
            return math.exp(ref) / (2.0 * math.pi) * new
        val = new
    raise QuadratureFailureError(
        f"contour refinement stalled at z = {z} "
        f"(last value {math.exp(ref) / (2.0 * math.pi) * val!r})"
    )


def _real_minimum(spec: HFunctionSpec, z: float, lo: float, hi: float) -> float:
    """Minimise log|integrand(sigma)| + sigma log z over real sigma in [lo, hi].

    Grid search: each stage evaluates the integrand once on _SADDLE_GRID
    points and narrows the bracket to the neighbours of the smallest value.
    """
    log_z = math.log(z)
    for _ in range(_SADDLE_STAGES):
        sigma = np.linspace(lo, hi, _SADDLE_GRID)
        phi = _log_integrand(spec, sigma).real + sigma * log_z
        phi[~np.isfinite(phi)] = np.inf
        i = int(np.argmin(phi))
        lo, hi = sigma[max(i - 1, 0)], sigma[min(i + 1, _SADDLE_GRID - 1)]
    return float(sigma[i])


def _saddle_contour(spec: HFunctionSpec, z: float, gamma0: float) -> float:
    """Slide the contour left to the real saddle when that lies left of gamma0.

    Only attempted for m = q specs, where the integrand has no zeros on
    the real axis left of the numerator poles and log|integrand| is
    smooth there.
    """
    if spec.m != spec.q:
        return gamma0
    conv = convergence_params(spec)
    if conv.nu <= 0:
        return gamma0
    hi = min(b / be for b, be in spec.lower) - 1e-3
    scale = (conv.mu * z) ** (1.0 / conv.nu) if conv.mu * z > 0 else 1.0
    lo = hi - 3.0 * scale - 20.0
    sstar = _real_minimum(spec, z, lo, hi)
    return sstar if sstar < gamma0 else gamma0


def eval_mellin_barnes(spec: HFunctionSpec, z: float) -> float:
    """Numerical Mellin-Barnes integral of the H-function at real z > 0."""
    if spec.l != 0:
        raise UnsupportedClassError("contour evaluator handles l = 0 specs only")
    if z <= 0:
        raise ValueError("eval_mellin_barnes requires z > 0")
    conv = convergence_params(spec)
    if conv.omega <= 0:
        raise NonConvergentError(f"omega = {conv.omega:g} <= 0: integral diverges")
    gamma0 = min(b / be for b, be in spec.lower[: spec.m]) - 0.5
    gamma = _saddle_contour(spec, z, gamma0)
    return _trapezoid_line(spec, z, gamma, conv.omega)


def _eval_general(spec: HFunctionSpec, z: float) -> float:
    """Contour evaluation without the l = 0 restriction (test cross-check).

    The line must separate the left poles of Gamma(1 - a_i + alpha_i s)
    from the right poles of Gamma(b_j - beta_j s); no saddle logic, so
    only moderate arguments are reliable.
    """
    if z <= 0:
        raise ValueError("requires z > 0")
    conv = convergence_params(spec)
    if conv.omega <= 0:
        raise NonConvergentError(f"omega = {conv.omega:g} <= 0")
    left = max((a - 1.0) / al for a, al in spec.upper[: spec.l]) if spec.l else -math.inf
    right = min(b / be for b, be in spec.lower[: spec.m]) if spec.m else math.inf
    if left >= right:
        raise UnsupportedClassError("no separating contour between pole families")
    if math.isinf(left):
        gamma = right - 0.5
    elif math.isinf(right):
        # m = 0: no right poles, the contour slides right freely; park it on
        # the real saddle so small function values are not lost to
        # cancellation against an O(1) integrand
        gamma = _real_minimum(spec, z, left + 1e-3, left + 20.0 + 10.0 * abs(math.log(z)))
    else:
        gamma = 0.5 * (left + right)
    return _trapezoid_line(spec, z, gamma, conv.omega)


def series_expansion(spec: HFunctionSpec, z: float, kmax: int = 300) -> float:
    """Residue series over the right poles s = (B_j + k) / beta_j (oracle).

    Requires l = 0 and all right poles simple; declines (ShapeMismatchError)
    on pole collisions.  Valid as a small/moderate-argument cross-check.
    """
    if spec.l != 0:
        raise UnsupportedClassError("series oracle handles l = 0 specs only")
    poles = []
    for j, (b, be) in enumerate(spec.lower[: spec.m]):
        for k in range(kmax + 1):
            poles.append(((b + k) / be, j, k))
    poles.sort()
    for (p1, *_), (p2, *_) in zip(poles, poles[1:]):
        if abs(p1 - p2) < 1e-8:
            raise ShapeMismatchError("coincident right poles: series oracle declines")
    total = 0.0
    for j, (b, be) in enumerate(spec.lower[: spec.m]):
        tail = 0
        for k in range(kmax + 1):
            s0 = (b + k) / be
            log_rest = 0.0 + 0.0j
            sign = 1.0
            for jj, (b2, be2) in enumerate(spec.lower[: spec.m]):
                if jj == j:
                    continue
                log_rest += complex(ln_gamma_vec(b2 - be2 * s0))
            for a, al in spec.upper:
                rec = gamma_reciprocal(a - al * s0)
                if rec == 0:
                    sign = 0.0
                    break
                log_rest -= complex(ln_gamma_vec(a - al * s0))
            for b2, be2 in spec.lower[spec.m :]:
                rec = gamma_reciprocal(1.0 - b2 + be2 * s0)
                if rec == 0:
                    sign = 0.0
                    break
                log_rest -= complex(ln_gamma_vec(1.0 - b2 + be2 * s0))
            if sign == 0.0:
                term = 0.0
            else:
                lt = log_rest + s0 * math.log(z) - complex(ln_gamma_vec(k + 1.0))
                term = ((-1.0) ** k / be) * float(np.exp(lt).real)
            total += term
            if abs(term) < 1e-16 * max(abs(total), 1e-300):
                tail += 1
                if tail >= 3 and k > 2:
                    break
            else:
                tail = 0
    return total


def invert_argument(spec: HFunctionSpec) -> HFunctionSpec:
    """Argument-inversion identity: H^{m,l}_{p,q}[z] = H^{l,m}_{q,p}[1/z | swapped]."""
    return HFunctionSpec(
        m=spec.l,
        l=spec.m,
        upper=tuple((1.0 - b, be) for b, be in spec.lower),
        lower=tuple((1.0 - a, al) for a, al in spec.upper),
    )


def power_scale(spec: HFunctionSpec, k: float) -> HFunctionSpec:
    """Weight-scaling identity: eval(spec, z) = k * eval(scaled, z^k), k > 0."""
    if k <= 0:
        raise ValueError("power_scale requires k > 0")
    return HFunctionSpec(
        m=spec.m,
        l=spec.l,
        upper=tuple((a, k * al) for a, al in spec.upper),
        lower=tuple((b, k * be) for b, be in spec.lower),
    )


def shift_by_power(spec: HFunctionSpec, sigma: float) -> HFunctionSpec:
    """Power-shift identity: z^sigma * eval(spec, z) = eval(shifted, z)."""
    return HFunctionSpec(
        m=spec.m,
        l=spec.l,
        upper=tuple((a + sigma * al, al) for a, al in spec.upper),
        lower=tuple((b + sigma * be, be) for b, be in spec.lower),
    )


def gauss_multiplication_reduce(spec: HFunctionSpec, r: int) -> GaussReduction:
    """Strip a Gauss-multiplication block: an upper (1, r) entry plus lower
    (j/r, 1) entries for j = 1..r inside the m-group.

    Contract: eval(spec, z) = scale * eval(reduced, r^r * z) with
    scale = (2 pi)^{(r-1)/2} / sqrt(r).
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    tol = 1e-12
    up_idx = None
    for i in range(spec.l, spec.p):
        a, al = spec.upper[i]
        if abs(a - 1.0) < tol and abs(al - r) < tol:
            up_idx = i
            break
    if up_idx is None:
        raise ShapeMismatchError(f"no upper entry (1, {r}) outside the l-group")
    low_idx = []
    used = set()
    for j in range(1, r + 1):
        found = None
        for i in range(spec.m):
            if i in used:
                continue
            b, be = spec.lower[i]
            if abs(b - j / r) < tol and abs(be - 1.0) < tol:
                found = i
                break
        if found is None:
            raise ShapeMismatchError(f"missing lower entry ({j}/{r}, 1) in the m-group")
        used.add(found)
        low_idx.append(found)
    new_upper = tuple(e for i, e in enumerate(spec.upper) if i != up_idx)
    new_lower = tuple(e for i, e in enumerate(spec.lower) if i not in used)
    reduced = HFunctionSpec(m=spec.m - r, l=spec.l, upper=new_upper, lower=new_lower)
    scale = (2.0 * math.pi) ** ((r - 1) / 2.0) / math.sqrt(r)
    return GaussReduction(spec=reduced, scale=scale, argument_multiplier=float(r) ** r)


def asymptotic_estimate(spec: HFunctionSpec, z: float) -> float:
    """Large-z decay envelope exp(-nu mu^{1/nu} z^{1/nu}) z^{(2 delta + 1)/(2 nu)}.

    The unknown O(.) constant is not included; callers compare ratios.
    """
    if spec.l != 0:
        raise UnsupportedClassError("decay envelope applies to l = 0 specs")
    conv = convergence_params(spec)
    if conv.nu <= 0:
        raise NonDecayingError(f"nu = {conv.nu:g} <= 0: no exponential decay")
    zp = z ** (1.0 / conv.nu)
    return math.exp(-conv.nu * conv.mu ** (1.0 / conv.nu) * zp) * z ** (
        (2.0 * conv.delta + 1.0) / (2.0 * conv.nu)
    )
