"""Fox H-function: Mellin-Barnes contour evaluation and transformations.

The evaluator handles real-parameter specs of every (m, l) at z > 0, as
long as a vertical line separates the left poles of Gamma(1 - A_i +
alpha_i s), i <= l, from the right poles of Gamma(B_j - beta_j s), j <= m
(Mathai, Saxena & Haubold, The H-Function, 2010, ch. 1).  The solvers
emit l = 0 specs; argument inversion turns them into m = 0 specs.
eval_mellin_barnes takes a scalar z, which gives a float, or a 1-D array
of z, which gives an array of the same length (eval_mellin_barnes_batch
is its array-only form); a scalar is a batch of one, evaluated on the
same nodes as an array element.

The contour is the vertical line Re s = gamma in that strip, at gamma0 =
min_j(B_j / beta_j) - 1/2 for l = 0, max_i((A_i - 1) / alpha_i) + 1/2 for
m = 0 and the strip's midpoint otherwise.  For (m, l) = (q, 0) and large
arguments the line slides left to the real saddle of phi_z(s) = Re K(s) +
s log z, where K is the log of the gamma-ratio kernel, so the quadrature
keeps relative accuracy deep into the exponential decay; for (m, l) =
(0, p), the s -> -s mirror of that class, it slides right at small
arguments.  The saddle search evaluates the kernel in three array calls
for all z of a call: a grid they share, spaced in log|sigma - edge| from
the strip edge, a local grid per z, and each z's parabola vertex.

On a fixed line K does not depend on z; only s log z does.  The z of one
call are therefore split into bands that share an abscissa, and each
quadrature pass evaluates K once per band: every z that stays at gamma0
shares that line, and slid z are grouped under the saddle of one member
so that no member's phi_z at the band's abscissa exceeds its own saddle
value by more than _BAND_LOSS = 4 e-folds.  Its relative rounding error
then grows by at most e^4, to about 1e-14.  A band holds at most
_BAND_MAX z, so each pass's (z x nodes) arrays stay near 1 MB.

The quadrature is the trapezoid rule in tau on s = gamma + i tau, summed
over tau >= 0 only.  HFunctionSpec holds real parameters and z is real
and positive, so every gamma factor and z^s take conjugate values at
conjugate s: f(gamma - i tau) = conj f(gamma + i tau) (Mathai, Saxena &
Haubold, 2010).  The rule's sum over the whole line is therefore
f(gamma) + 2 Re sum_{tau > 0} f(gamma + i tau), which is real, and the
kernel is evaluated on half the nodes.  This holds on every contour here.

The first pass's step h0 is _H0 = 0.1 on the default line.  On a slid
band's line the integrand is close to a Gaussian in tau of width w =
1 / sqrt(K''(sigma)), K'' the real curvature of Re K at the abscissa,
which grows like sqrt(|sigma| / nu), and the nearest pole is dist =
|sigma - edge| away; there h0 = max(_H0, min(w / 4, dist / 5)), since
the trapezoid rule's error on an analytic integrand is set by its decay
scale and its strip of analyticity, not by a fixed step (Trefethen &
Weideman, SIAM Rev. 56 (2014)).  The saddle search's parabola gives K''
with no extra kernel call; a band whose search fitted none keeps _H0.

The rule is truncated from the decay rate: the integrand falls like
exp(-pi omega |tau| / 2), so the first pass spans 0 <= tau <= 30 /
(pi omega / 2), at least _N_MIN steps, and T then doubles, evaluating
only the new outer segment, until a bound on both tails is negligible.
Refinement halves h and evaluates only the midpoints of the previous
lattice, so each pass costs as many nodes as all earlier ones together;
it stops when two passes agree to _REFINE_TOL (the nested error
estimate of Trefethen & Weideman).  Every test is made per z: a band
keeps extending T, and then refining, until each of its z has passed.  A
value whose modulus bound lies below the double range returns 0.0 after
the first pass; a stalled refinement or a runaway T raises
QuadratureFailureError, and a value whose rounding, eps times the
integral of |f|, exceeds _CANCEL_TOL of |H| raises CancellationError (as
at small z on the fixed line of an m < q spec, where f is about z^(-1/2)
times larger than H).

A residue-based small-argument series is kept as an internal cross-check
oracle (it raises CancellationError where its terms cancel below double
precision, and NoConvergenceError where they have not settled by kmax).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CancellationError,
    NoConvergenceError,
    NonConvergentError,
    NonDecayingError,
    QuadratureFailureError,
    ShapeMismatchError,
    UnsupportedClassError,
)
from .gammafn import gamma_reciprocal, ln_gamma_vec

_REFINE_TOL = 1e-9
# a band's abscissa may lie at most _BAND_LOSS e-folds above a member's own
# saddle value phi_z(sigma*_z); that member's rounding error then grows by
# at most e^_BAND_LOSS, to about 1e-14 relative
_BAND_LOSS = 4.0
# at most this many z per band, so a pass's (z x nodes) arrays stay near 1 MB
_BAND_MAX = 32
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
# points of the saddle search's shared grid, and of each z's local grid
_SADDLE_GRID = 65
_SADDLE_LOCAL = 9
# ln_gamma_vec elements per call in _log_integrand
_LN_GAMMA_CHUNK = 4096
# series_expansion and the contour refuse a sum whose terms' rounding,
# eps * sum|t_k|, exceeds this share of |sum t_k| (the rule wright.evaluate
# uses)
_CANCEL_TOL = 1e-10


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
    """Log of the gamma-ratio kernel (without z^s) on an array of s values.

    The kernel is a product of factors Gamma(c0 + c1 s)^(+-1).  Their
    arguments go through ln_gamma_vec together, _LN_GAMMA_CHUNK elements
    per call: on the short arrays of the saddle search and the first
    contour passes one call replaces one per factor, whose fixed cost
    outweighs the cost per element, and on long passes the chunks bound
    the size of its temporaries.
    """
    s = np.asarray(s, dtype=complex)
    factors = (
        [(b, -be, 1.0) for b, be in spec.lower[: spec.m]]
        + [(1.0 - a, al, 1.0) for a, al in spec.upper[: spec.l]]
        + [(a, -al, -1.0) for a, al in spec.upper[spec.l :]]
        + [(1.0 - b, be, -1.0) for b, be in spec.lower[spec.m :]]
    )
    c0, c1, sign = (np.array(col)[:, None] for col in zip(*factors))
    flat = s.ravel()
    out = np.empty_like(flat)
    step = _LN_GAMMA_CHUNK // len(factors)
    for i in range(0, flat.size, step):
        out[i : i + step] = (sign * ln_gamma_vec(c0 + c1 * flat[i : i + step])).sum(axis=0)
    return out.reshape(s.shape)


def _trapezoid_line(
    spec: HFunctionSpec, z: np.ndarray, gamma: float, omega: float, h0: float
) -> np.ndarray:
    """Trapezoid rule on Re s = gamma for every z of a band, starting from
    the step h0 (the step rule, truncation and refinement are in the module
    docstring).

    The parameters and z are real, so f(gamma - i tau) = conj f(gamma + i tau)
    and the rule's sum over the whole line is f(gamma) + 2 Re sum_{tau > 0}
    f(gamma + i tau): every pass evaluates the kernel at tau >= 0 only.
    Each pass evaluates the gamma-ratio kernel once on its new nodes; every
    z then adds only s log z.  The tests stay per z: the tail beyond T on
    each side is |f(T)| / r, with r the smaller of pi omega / 2 and the
    local decay rate at the end node, which is below the asymptotic rate
    while a far-left saddle contour still decays like a Gaussian.  T grows
    until every z's bound on both tails is under _TAIL_FRACTION of the
    tolerance times its running integral, or under the rounding floor
    eps * sum|f| that no longer T can improve; refinement goes on until
    every z's last two passes agree.  A z whose agreed value is below
    eps sum|f| / _CANCEL_TOL raises CancellationError.
    """
    rate = math.pi * omega / 2.0
    out = np.zeros(len(z))
    # the z still open, as positions in out; per-z state is kept for these only
    idx = np.arange(len(z))
    log_z = np.log(z)[:, None]

    def log_f(tau):
        s = gamma + 1j * tau
        return _log_integrand(spec, s) + s * log_z

    h = h0
    n = max(int(math.ceil(_DECAY_LOGS / rate / h)), _N_MIN)
    lf = log_f(np.arange(n + 1) * h)
    # the weights of f(tau) and of its mirror f(-tau) = conj f(tau); the
    # node tau = 0 is its own mirror
    weight = np.full(n + 1, 2.0)
    weight[0] = 1.0
    # every node is scaled by the first pass's largest modulus for its z
    ref = np.max(lf.real, axis=1, keepdims=True)
    total = np.zeros(len(z))
    total_abs = np.zeros(len(z))
    for doubling in range(_MAX_DOUBLINGS + 1):
        scaled = lf - ref
        # |f| and Re f from one exponential
        mag = np.exp(scaled.real) * weight
        total += (mag * np.cos(scaled.imag)).sum(axis=1)
        total_abs += mag.sum(axis=1)
        edge = lf.real[:, -1]
        decay = np.minimum((lf.real[:, -2] - edge) / h, rate)
        # both tails; a z whose end nodes do not decay has an unbounded tail
        tail = 2.0 * np.divide(
            np.exp(edge - ref[:, 0]), decay, out=np.full(decay.shape, math.inf),
            where=decay > 0,
        )
        # |H| <= (h sum|f| + tail) e^ref / 2 pi; below half the smallest
        # subnormal it is 0.0
        floor = _LOG_UNDERFLOW + math.log(2.0 * math.pi) - ref[:, 0]
        live = np.log(h * total_abs + tail) >= floor
        if not live.all():
            idx, log_z, ref, total, total_abs, tail = (
                a[live] for a in (idx, log_z, ref, total, total_abs, tail)
            )
            if not idx.size:
                return out
        settled = tail <= h * np.maximum(
            _TAIL_FRACTION * _REFINE_TOL * np.abs(total), _EPS * total_abs
        )
        if settled.all():
            break
        if doubling == _MAX_DOUBLINGS:
            raise QuadratureFailureError(
                f"contour truncation did not settle by T = {n * h:g} "
                f"at z = {z[idx[~settled][0]]}"
            )
        lf = log_f(np.arange(n + 1, 2 * n + 1) * h)
        weight = 2.0
        n *= 2
    val = h * total
    # h * total_abs is the integral of |f| on the truncation lattice
    total_abs *= h
    for _ in range(_MAX_REFINE):
        scaled = log_f((np.arange(n) + 0.5) * h) - ref
        total += 2.0 * (np.exp(scaled.real) * np.cos(scaled.imag)).sum(axis=1)
        h, n = h / 2.0, 2 * n
        new = h * total
        agree = np.abs(new - val) <= _REFINE_TOL * np.abs(new)
        cancels = agree & (_EPS * total_abs > _CANCEL_TOL * np.abs(new))
        if cancels.any():
            k = np.flatnonzero(cancels)[0]
            raise CancellationError(
                f"contour integrand cancels at z = {z[idx[k]]}: "
                f"integral of |f| / |integral of f| = {total_abs[k] / abs(new[k]):.3g}"
            )
        out[idx[agree]] = np.exp(ref[agree, 0]) / (2.0 * math.pi) * new[agree]
        if agree.all():
            return out
        idx, log_z, ref, total, total_abs, val = (
            a[~agree] for a in (idx, log_z, ref, total, total_abs, new)
        )
    raise QuadratureFailureError(
        f"contour refinement stalled at z = {z[idx[0]]} "
        f"(last value {math.exp(ref[0, 0]) / (2.0 * math.pi) * val[0]!r})"
    )


def _real_minimum(
    spec: HFunctionSpec, log_z: np.ndarray, edge: float, d: int, gap: float, reach: float
):
    """Minimise phi_z(sigma) = log|integrand(sigma)| + sigma log z over real
    sigma = edge - d r, gap <= r <= reach, for every z at once.  Returns
    the minimisers, phi_z there and K''.

    The search evaluates the kernel in three array calls, however many z
    there are.  The first is a grid of _SADDLE_GRID points that every z
    shares, uniform in u = log r: the saddle moves out like (mu z)^(1/nu)
    and phi_z'' falls like nu / |sigma|, so log spacing resolves every z's
    saddle equally well.  The second is a local grid of _SADDLE_LOCAL
    points over the two cells beside each z's smallest value (z with the
    same smallest point share it).  A parabola in u through the local
    minimum and its neighbours gives the abscissa, where the third call
    evaluates phi_z: the returned phi_z is the function's value there, not
    the parabola's.  The parabola's curvature also gives K'' at the
    abscissa, returned third (NaN where no parabola was fitted).
    """

    def phi_at(u, lz, which=...):
        # phi_z on the abscissae u, the rows of u picked by which
        sigma = edge - d * np.exp(u)
        phi = _log_integrand(spec, sigma).real[which] + sigma[which] * lz
        return sigma[which], np.where(np.isfinite(phi), phi, np.inf)

    rows = np.arange(len(log_z))
    grid = np.linspace(math.log(gap), math.log(reach), _SADDLE_GRID)
    _, phi = phi_at(grid, log_z[:, None])
    cells, which = np.unique(np.argmin(phi, axis=1), return_inverse=True)
    lo = grid[np.maximum(cells - 1, 0)]
    step = (grid[np.minimum(cells + 1, _SADDLE_GRID - 1)] - lo) / (_SADDLE_LOCAL - 1)
    local = lo[:, None] + step[:, None] * np.arange(_SADDLE_LOCAL)
    _, phi = phi_at(local, log_z[:, None], which)
    j = np.argmin(phi, axis=1)
    k = np.clip(j, 1, _SADDLE_LOCAL - 2)
    below, above = phi[rows, k - 1] - phi[rows, k], phi[rows, k + 1] - phi[rows, k]
    curv = below + above
    # at an interior minimum below, above >= 0, so the vertex lies within
    # half a step of it and inside the bracket; a minimum at a bracket end
    # is returned as it is
    fit = (j == k) & np.isfinite(curv) & (curv > 0)
    shift = np.divide(below - above, 2.0 * curv, out=np.zeros(len(rows)), where=fit)
    u = local[which, j] + shift * step[which]
    # phi_uu = K'' r^2 + phi_sigma (dsigma/du), and phi_sigma = 0 at the
    # saddle: the parabola's curvature curv / step^2 gives K'' = phi_uu / r^2
    kpp = np.divide(
        curv, (step[which] * np.exp(u)) ** 2, out=np.full(len(rows), math.nan), where=fit
    )
    return (*phi_at(u, log_z), kpp)


def _contour_bands(
    spec: HFunctionSpec, conv: HConvergence, z: np.ndarray, left: float, right: float
):
    """Split the arguments into bands that share one contour abscissa.

    Yields (abscissa, indices into z, first-pass step h0), at most
    _BAND_MAX indices each.
    The default line gamma0 lies in the strip left < Re s < right.  The
    contour slides to the real saddle sigma*_z when that lies beyond
    gamma0 on the side without poles: left for (m, l) = (q, 0) with
    nu > 0, right for its mirror (0, p) with nu < 0.  There the integrand
    has no poles and log|integrand| is smooth.  One _real_minimum call
    finds every z's saddle, on a bracket from 1e-3 off the strip edge out
    past the farthest z's saddle.  Every other z stays on gamma0.  Slid z,
    nearest gamma0 first, are grouped under the saddle of one member such
    that phi_z(abscissa) - phi_z(sigma*_z) <= _BAND_LOSS for each; their
    h0 comes from K'' at that member's saddle.
    """
    gamma0 = right - 0.5 if spec.l == 0 else left + 0.5 if spec.m == 0 else 0.5 * (left + right)
    # d = 1 slides left, d = -1 right
    d = 1 if (spec.m, spec.l) == (spec.q, 0) else -1 if (spec.m, spec.l) == (0, spec.p) else 0
    fixed = np.arange(len(z))
    order = fixed[:0]
    if d * conv.nu > 0 and z.size:
        edge = right if d > 0 else left
        # the saddle moves out with the decay level nu (mu z)^(1/nu), so the
        # bracket sized for the farthest z holds every other z's saddle; the
        # width is capped past double underflow (decay level 900), so that
        # far members do not coarsen the search for the others, and is
        # taken in logs, where mu z cannot overflow
        log_z = np.log(z)
        log_width = (math.log(conv.mu) + (log_z.max() if d > 0 else log_z.min())) / conv.nu
        gap = 1e-3
        reach = gap + 3.0 * math.exp(min(log_width, math.log(900.0 / abs(conv.nu)))) + 20.0
        sstar, phi, kpp = _real_minimum(spec, log_z, edge, d, gap, reach)
        slid = d * sstar < d * gamma0
        fixed = np.flatnonzero(~slid)
        order = np.flatnonzero(slid)
        order = order[np.argsort(-d * sstar[order], kind="stable")]
        # Re K(sigma*) of the gamma-ratio kernel, known from the saddle search
        kernel = phi - sstar * log_z
    for start in range(0, fixed.size, _BAND_MAX):
        yield gamma0, fixed[start : start + _BAND_MAX], _H0
    while order.size:
        w = order[:_BAND_MAX]
        b, size = 0, 1
        if w.size > 1:
            # loss[a, b]: e-folds z_a loses on the saddle of z_b
            loss = kernel[w] + sstar[w] * log_z[w, None] - phi[w, None]
            covered = np.cumprod(loss <= _BAND_LOSS, axis=0).sum(axis=0)
            b = int(np.argmax(covered))
            size = covered[b]
        sigma, curv = sstar[w[b]], kpp[w[b]]
        # the step rule of the module docstring; a NaN curv (no fit) keeps _H0
        h0 = max(_H0, min(0.25 / math.sqrt(curv), abs(sigma - edge) / 5.0)) if curv > 0 else _H0
        yield float(sigma), w[:size], h0
        order = order[size:]


def eval_mellin_barnes(spec: HFunctionSpec, z):
    """Numerical Mellin-Barnes integral of the H-function at finite z > 0
    (ValueError otherwise).

    Takes every (m, l) whose pole families a vertical line separates, that
    is max_i (A_i - 1) / alpha_i < min_j B_j / beta_j over i <= l and
    j <= m; raises UnsupportedClassError when no line does.  z is a
    scalar, which gives a float, or a 1-D array, which gives an array of
    the same length; a scalar is evaluated as a batch of one by
    eval_mellin_barnes_batch.
    """
    zs = np.asarray(z, dtype=float)
    out = eval_mellin_barnes_batch(spec, np.atleast_1d(zs))
    return float(out[0]) if zs.ndim == 0 else out


def eval_mellin_barnes_batch(spec: HFunctionSpec, z) -> np.ndarray:
    """eval_mellin_barnes on a 1-D array of z > 0, returning an array.

    Arguments that share a contour abscissa share its kernel evaluations
    (see the module docstring).
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError("eval_mellin_barnes_batch takes a 1-D array of z")
    if not np.all(np.isfinite(z) & (z > 0)):
        raise ValueError("eval_mellin_barnes requires finite z > 0")
    conv = convergence_params(spec)
    if conv.omega <= 0:
        raise NonConvergentError(f"omega = {conv.omega:g} <= 0: integral diverges")
    # the rightmost pole of the Gamma(1 - A_i + alpha_i s), i <= l, and the
    # leftmost of the Gamma(B_j - beta_j s), j <= m
    left = max(((a - 1.0) / al for a, al in spec.upper[: spec.l]), default=-math.inf)
    right = min((b / be for b, be in spec.lower[: spec.m]), default=math.inf)
    if left >= right:
        raise UnsupportedClassError("no contour separates the two pole families")
    out = np.empty(len(z))
    for gamma, idx, h0 in _contour_bands(spec, conv, z, left, right):
        out[idx] = _trapezoid_line(spec, z[idx], gamma, conv.omega, h0)
    return out


def series_expansion(spec: HFunctionSpec, z: float, kmax: int = 300) -> float:
    """Residue series over the right poles s = (B_j + k) / beta_j (oracle).

    Requires l = 0 and all right poles simple; declines (ShapeMismatchError)
    on pole collisions.  Valid as a small/moderate-argument cross-check:
    raises CancellationError when eps * sum|t_k| exceeds _CANCEL_TOL times
    |sum t_k|, where the alternating terms cancel below double precision,
    and NoConvergenceError when a pole family reaches kmax before its
    terms fall below 1e-16 of the sum.
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
    total_abs = 0.0
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
            total_abs += abs(term)
            if abs(term) < 1e-16 * max(abs(total), 1e-300):
                tail += 1
                if tail >= 3 and k > 2:
                    break
            else:
                tail = 0
        else:
            raise NoConvergenceError(
                f"residue series of pole family {j} reached kmax = {kmax} at z = {z}"
            )
    if _EPS * total_abs > _CANCEL_TOL * abs(total):
        raise CancellationError(
            f"residue series cancels at z = {z}: sum|t| = {total_abs:.3g}, sum = {total:.3g}"
        )
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
