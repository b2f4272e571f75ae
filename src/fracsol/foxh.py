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
arguments.  K does not depend on z, so the saddle search reads a table
of Re K on the real axis beyond the strip edge, built in one kernel call
on a spec's first search and kept per spec with its other constants
(_constants); every later search, for any number of z, and the grouping
below, which reads Re K at the saddles from it, are array arithmetic.

On a fixed line K does not depend on z; only s log z does.  The z of one
call are therefore split into bands that share an abscissa, and K is
evaluated once per band and pass: the first passes of all the call's
bands together in one kernel call, and each later doubling or refinement
pass of a band in one more.  Every z that stays at gamma0 shares that
line, and slid z are grouped under the saddle of a member near the
band's first (its member nearest gamma0) so that no member's phi_z at
the band's abscissa exceeds its own saddle value by more than _BAND_LOSS
= 4 e-folds.  Its relative rounding error then grows by at
most e^4, to about 1e-14.  Since log f = K(s) + gamma log z + i tau log z
on the line, each pass's only (z x nodes) array is one float64 matrix of
cos(Im K + tau log z) (see _trapezoid_line).  Memory, not a count of z,
bounds a band: it holds at most _BAND_ELEMENTS // n z, n its first-pass
node count, so that matrix stays within 2^13 elements, 64 KiB, on the
first pass.  A band ends at a wide gap in log z, so z that a caller
differences, as a finite-difference stencil does, share one line.

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
Weideman, SIAM Rev. 56 (2014)).  A band takes w and dist at its first
member's saddle, which has the narrowest Gaussian and the nearest pole
of its members.  The saddle search's parabola gives K'' with no extra
kernel call; a band whose search fitted none keeps _H0.

The rule is truncated from the decay rate: the integrand falls like
exp(-pi omega |tau| / 2), so the first pass spans 0 <= tau <= 30 /
(pi omega / 2), at least _N_MIN steps, and T then doubles, evaluating
only the new outer segment, until a bound on both tails is negligible.
The trapezoid rule on an integrand analytic in a strip about the line
errs by about C exp(-2 pi a / h), a the strip's half-width (Trefethen &
Weideman, SIAM Rev. 56 (2014), Thm 5.1): the error at h is about the
square of the error at 2h over C, and T(2h), the rule on the even nodes
of the same lattice, costs no kernel call.  A z is settled by this
first pass, with no refinement, when (|T(h) - T(2h)| / |T(h)|)^2 times
max(1, integral|f| / |T(h)|) is below _FIRST_PASS_SHARE = 1e-3 of
_REFINE_TOL (the safety factor is derived in _trapezoid_line), when it
passes the cancellation test below, and when the lattice of T(2h)
resolves the integrand's phase: 2 max |Delta Im log f| between
neighbouring nodes is below pi.  Im log f is the analytic log the kernel
returns plus tau log z, not an angle(), so an undersampled oscillation
shows as a large step; without this guard T(h) and T(2h) can agree by
aliasing (as on a fixed line at tiny z, where tau log z turns by 6.9 per
step at z = 1e-30).  A 2 pi branch jump of the reflected log-gamma only
sends its z on to refinement.  Every other z is refined: refinement
halves h and evaluates only the midpoints of the previous lattice, so
each pass costs as many nodes as all earlier ones together; it stops
when two passes agree to _REFINE_TOL (the nested error estimate of
Trefethen & Weideman).  Every test is made per z: a band keeps
extending T, and then refining, until each of its z has passed.  A
value whose modulus bound lies below the double range returns 0.0 after
the first pass; a stalled refinement or a runaway T raises
QuadratureFailureError, and a value whose rounding, eps times the
integral of |f|, exceeds _CANCEL_TOL of |H| after any refinement pass
raises CancellationError, agreed or not (as at small z on the fixed line
of an m < q spec, where f is about z^(-1/2) times larger than H).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CancellationError,
    DivergentInputError,
    PreconditionViolationError,
    QuadratureFailureError,
    UnsupportedClassError,
)
from .gammafn import ln_gamma_vec

_REFINE_TOL = 1e-9
# share of _REFINE_TOL the squared first-pass estimate may take (the safety
# factor of _trapezoid_line)
_FIRST_PASS_SHARE = 1e-3
# a band's abscissa may lie at most _BAND_LOSS e-folds above a member's own
# saddle value phi_z(sigma*_z); that member's rounding error then grows by
# at most e^_BAND_LOSS, to about 1e-14 relative
_BAND_LOSS = 4.0
# a band's line lies at most _LINE_LOSS e-folds above its first member's
# saddle value (see _contour_bands)
_LINE_LOSS = 0.125
# a band's first-pass (z x nodes) cosine matrix holds at most this many
# elements, 64 KiB of float64
_BAND_ELEMENTS = 2**13
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
# the saddle table (see _real_minimum) starts _SADDLE_GAP off the strip
# edge and steps by _SADDLE_DV in v, 0.05 in log|sigma - edge| near the
# edge; far from it a step moves phi_z by about _SADDLE_STEP^2 / 2 = 0.21
# e-folds at the saddle.  The search first scans every _SADDLE_STRIDE-th
# point.
_SADDLE_GAP = 1e-3
_SADDLE_DV = 0.025
_SADDLE_STEP = 0.65
_SADDLE_STRIDE = 16
# ln_gamma_vec elements per call in _log_integrand
_LN_GAMMA_CHUNK = 4096
# the contour refuses a value whose rounding, eps times the integral of
# |f|, exceeds this share of |H| (the rule wright.evaluate applies to its
# terms)
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
        if not all(math.isfinite(a) and 0 < w < math.inf for a, w in self.upper + self.lower):
            raise ValueError("H parameters must be finite, weights finite and positive")

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


class _SpecConstants:
    """What the contour evaluator derives from a spec alone, built once per
    spec by _constants: the convergence parameters, the kernel's factor
    arrays, the strip left < Re s < right, the default line gamma0, the
    slide direction d (1 left, -1 right, 0 none), the strip edge the slide
    starts from and, on first use, the saddle table."""

    def __init__(self, spec: HFunctionSpec):
        self.spec = spec
        self.conv = convergence_params(spec)
        # the kernel is the product of the factors Gamma(c0 + c1 s)^sign
        factors = (
            [(b, -be, 1.0) for b, be in spec.lower[: spec.m]]
            + [(1.0 - a, al, 1.0) for a, al in spec.upper[: spec.l]]
            + [(a, -al, -1.0) for a, al in spec.upper[spec.l :]]
            + [(1.0 - b, be, -1.0) for b, be in spec.lower[spec.m :]]
        )
        self.c0, self.c1, self.sign = (np.array(col)[:, None] for col in zip(*factors))
        # the rightmost pole of the Gamma(1 - A_i + alpha_i s), i <= l, and
        # the leftmost of the Gamma(B_j - beta_j s), j <= m
        self.left = max(((a - 1.0) / al for a, al in spec.upper[: spec.l]), default=-math.inf)
        self.right = min((b / be for b, be in spec.lower[: spec.m]), default=math.inf)
        l, m, left, right = spec.l, spec.m, self.left, self.right
        self.gamma0 = right - 0.5 if l == 0 else left + 0.5 if m == 0 else 0.5 * (left + right)
        self.d = 1 if (m, l) == (spec.q, 0) else -1 if (m, l) == (0, spec.p) else 0
        self.edge = right if self.d > 0 else left

    @property
    def scale(self) -> float:
        """a of the table's map r(v) = (a log(1 + e^v))^2."""
        return _SADDLE_STEP / (2.0 * _SADDLE_DV * math.sqrt(abs(self.conv.nu)))

    @functools.cached_property
    def table(self):
        """(v, sigma, Re K(sigma)) on sigma = edge - d r(v), v uniform in
        steps of _SADDLE_DV from r = _SADDLE_GAP out to r = 3 * 900 / |nu| +
        20, past the saddle at decay level 900, far beyond double
        underflow; one kernel call.  A non-finite Re K is stored as +inf,
        which no minimum picks.  A |nu| above about 4e6 overflows v and
        raises UnsupportedClassError."""
        ends = (_SADDLE_GAP, _SADDLE_GAP + 3.0 * 900.0 / abs(self.conv.nu) + 20.0)
        try:
            v0, v1 = (math.log(math.expm1(math.sqrt(r) / self.scale)) for r in ends)
        except OverflowError:
            msg = f"nu = {self.conv.nu:g} overflows the saddle table"
            raise UnsupportedClassError(msg) from None
        v = v0 + _SADDLE_DV * np.arange(math.ceil((v1 - v0) / _SADDLE_DV) + 1)
        sigma = self.edge - self.d * (self.scale * np.logaddexp(0.0, v)) ** 2
        kernel = _log_integrand(self.spec, sigma).real
        return v, sigma, np.where(np.isfinite(kernel), kernel, math.inf)


# keyed by the frozen, hashable spec: a solution's evaluations reuse its
# few specs, and an entry holds a few hundred table points
_constants = functools.lru_cache(maxsize=128)(_SpecConstants)


def _log_integrand(spec: HFunctionSpec, s):
    """Log of the gamma-ratio kernel (without z^s) on an array of s values.

    The kernel is a product of factors Gamma(c0 + c1 s)^(+-1).  Their
    arguments go through ln_gamma_vec together, _LN_GAMMA_CHUNK elements
    per call: on the short arrays of the first contour passes one call
    replaces one per factor, whose fixed cost outweighs the cost per
    element, and on long passes the chunks bound the size of its
    temporaries.
    """
    c = _constants(spec)
    s = np.asarray(s, dtype=complex)
    flat = s.ravel()
    out = np.empty_like(flat)
    step = _LN_GAMMA_CHUNK // len(c.c0)
    for i in range(0, flat.size, step):
        out[i : i + step] = (c.sign * ln_gamma_vec(c.c0 + c.c1 * flat[i : i + step])).sum(axis=0)
    return out.reshape(s.shape)


def _first_pass_steps(omega: float, h0: float) -> int:
    """Steps n of the first pass at step h0: its nodes are tau = k h0,
    0 <= k <= n (the truncation rule of the module docstring)."""
    return max(int(math.ceil(_DECAY_LOGS / (math.pi * omega / 2.0) / h0)), _N_MIN)


def _band_size(omega: float, h0: float) -> int:
    """The most z a band on step h0 may hold: its first-pass (z x nodes)
    array stays within _BAND_ELEMENTS, or holds one z when one z's is
    larger (omega near 0)."""
    return max(_BAND_ELEMENTS // (_first_pass_steps(omega, h0) + 1), 1)


def _trapezoid_line(
    spec: HFunctionSpec, z: np.ndarray, gamma: float, omega: float, h0: float, k: np.ndarray
) -> np.ndarray:
    """Trapezoid rule on Re s = gamma for every z of a band, starting from
    the step h0, with k the kernel on the band's first-pass nodes (the step
    rule, truncation, first-pass rule and refinement are in the module
    docstring).

    The parameters and z are real, so f(gamma - i tau) = conj f(gamma + i tau)
    and the rule's sum over the whole line is f(gamma) + 2 Re sum_{tau > 0}
    f(gamma + i tau): every pass evaluates the kernel at tau >= 0 only.
    Each later pass evaluates the gamma-ratio kernel once on its new nodes,
    and the sum separates: log f = K(s) + gamma log z + i tau log z on the line.
    In units of e^ref, ref = max Re K + gamma log z per z, the moduli
    e^(Re K_j - max Re K), their sum, the tail bounds and the steps of Im K
    are the same for every z; the only (z x nodes) work is cos(Im K_j +
    tau_j log z), summed against the weights of T(h) and of T(2h).  The
    tests stay per z: the tail beyond T on each side is |f(T)| / r, with r
    the smaller of pi omega / 2 and the local decay rate at the end node,
    which is below the asymptotic rate while a far-left saddle contour
    still decays like a Gaussian.  T grows until every z's bound on both
    tails is under _TAIL_FRACTION of the tolerance times its running
    integral, or under the rounding floor eps * sum|f| that no longer T
    can improve.

    The truncation passes also sum the even nodes, the rule T(2h), and
    track the largest step of Im log f between neighbouring nodes, max(dmax
    + h log z, -(dmin + h log z)) over the steps of Im K.  By
    Thm 5.1 of Trefethen & Weideman the errors are E(h) ~ C q^2 and E(2h)
    ~ C q, so E(h) ~ E(2h)^2 / C, and |T(h) - T(2h)| estimates E(2h).
    With e = |T(h) - T(2h)| / |T(h)| and r = integral|f| / |T(h)|, the
    relative error of T(h) is about e^2 |T(h)| / C.  C is of the order of
    the integral of |f| on lines inside the strip, which the lattice does
    not see; the test e^2 max(1, r) <= _FIRST_PASS_SHARE * _REFINE_TOL
    keeps the error within _REFINE_TOL as long as C >= _FIRST_PASS_SHARE
    min(|T|, |T|^2 / integral|f|): the factor max(1, r) admits a C as
    small as |H|, or smaller than |H| by the cancellation ratio when f
    cancels, and the share 1e-3 a further 1000 below that.  A z that also
    passes the cancellation test and whose phase steps are below pi / 2
    (so the 2h lattice samples the oscillation above its Nyquist rate)
    returns T(h); the rest are refined until every z's last two passes
    agree.  A z whose value after a refinement pass, agreed or not, is
    below eps sum|f| / _CANCEL_TOL raises CancellationError.
    """
    rate = math.pi * omega / 2.0
    out = np.zeros(len(z))
    # the z still open, as positions in out; per-z state is kept for these only
    idx = np.arange(len(z))
    log_z = np.log(z)

    def cosine_sums(tau, im_k, columns):
        # sum_j columns[c, j] cos(Im K_j + tau_j log z) for each open z: the
        # pass's one (z x nodes) array, reduced by einsum in a fixed order (a
        # BLAS product may thread, and its digits then depend on the count)
        arg = np.multiply.outer(log_z, tau)
        arg += im_k
        return np.einsum("zj,cj->zc", np.cos(arg, out=arg), columns)

    h = h0
    n = k.size - 1
    cols = np.arange(n + 1)
    # every node is scaled by the first pass's largest modulus for its z,
    # e^ref with ref = top + gamma log z
    top = k.real.max()
    ref = top + gamma * log_z
    # per z, the sum over all nodes and over the even ones, the rule at 2h
    sums = np.zeros((len(z), 2))
    total_abs = 0.0
    # the extreme steps of Im K between neighbouring nodes; there is no
    # step before the first node
    steps = np.diff(k.imag)
    lo, hi = steps.min(), steps.max()
    for doubling in range(_MAX_DOUBLINGS + 1):
        # the weights of f(tau) and of its mirror f(-tau) = conj f(tau); the
        # node tau = 0 is its own mirror
        mag = np.exp(k.real - top) * np.where(cols > 0, 2.0, 1.0)
        sums += cosine_sums(cols * h, k.imag, np.stack((mag, np.where(cols % 2, 0.0, mag))))
        total_abs += mag.sum()
        decay = min((k.real[-2] - k.real[-1]) / h, rate)
        # both tails; a band whose end nodes do not decay has an unbounded tail
        tail = 2.0 * math.exp(k.real[-1] - top) / decay if decay > 0 else math.inf
        # |H| <= (h sum|f| + tail) e^ref / 2 pi; below half the smallest
        # subnormal it is 0.0
        live = math.log(h * total_abs + tail) >= _LOG_UNDERFLOW + math.log(2.0 * math.pi) - ref
        idx, log_z, ref, sums = (a[live] for a in (idx, log_z, ref, sums))
        if not idx.size:
            return out
        floor = h * np.maximum(_TAIL_FRACTION * _REFINE_TOL * np.abs(sums[:, 0]), _EPS * total_abs)
        if np.all(tail <= floor):
            break
        if doubling == _MAX_DOUBLINGS:
            raise QuadratureFailureError(
                f"contour truncation did not settle by T = {n * h:g} "
                f"at z = {z[idx[tail > floor][0]]}"
            )
        cols = np.arange(n + 1, 2 * n + 1)
        last = k.imag[-1]
        k = _log_integrand(spec, gamma + 1j * (cols * h))
        steps = np.diff(k.imag, prepend=last)
        lo, hi = min(lo, steps.min()), max(hi, steps.max())
        n *= 2
    val, val_2h = h * sums[:, 0], 2.0 * h * sums[:, 1]
    # h * total_abs is the integral of |f| on the truncation lattice
    total_abs *= h
    # the first pass is accepted on its squared estimate e^2 max(1, r),
    # r = integral|f| / |T(h)|, written without a division by |T(h)|
    size = np.abs(val)
    first = (val - val_2h) ** 2 * np.maximum(size, total_abs) <= (
        _FIRST_PASS_SHARE * _REFINE_TOL * size**3
    )
    # the largest step of Im log f = Im K + tau log z between neighbours
    phase = np.maximum(hi + h * log_z, -(lo + h * log_z))
    first &= (2.0 * phase < math.pi) & (_EPS * total_abs <= _CANCEL_TOL * size)
    out[idx[first]] = np.exp(ref[first]) / (2.0 * math.pi) * val[first]
    if first.all():
        return out
    idx, log_z, ref, val, total = (a[~first] for a in (idx, log_z, ref, val, sums[:, 0]))
    for _ in range(_MAX_REFINE):
        tau = (np.arange(n) + 0.5) * h
        k = _log_integrand(spec, gamma + 1j * tau)
        total += cosine_sums(tau, k.imag, 2.0 * np.exp(k.real - top)[None, :])[:, 0]
        h, n = h / 2.0, 2 * n
        new = h * total
        agree = np.abs(new - val) <= _REFINE_TOL * np.abs(new)
        # eps * integral|f| is fixed on the truncation lattice: a z whose
        # rounding exceeds _CANCEL_TOL of its value is refused whether or not
        # its passes agree, since above _REFINE_TOL of it they never can
        cancels = _EPS * total_abs > _CANCEL_TOL * np.abs(new)
        if cancels.any():
            j = np.flatnonzero(cancels)[0]
            # a sum that cancels to exactly 0.0 has an infinite ratio
            ratio = total_abs / abs(new[j]) if new[j] else math.inf
            raise CancellationError(
                f"contour integrand cancels at z = {z[idx[j]]}: "
                f"integral of |f| / |integral of f| = {ratio:.3g}"
            )
        out[idx[agree]] = np.exp(ref[agree]) / (2.0 * math.pi) * new[agree]
        if agree.all():
            return out
        idx, log_z, ref, total, val = (a[~agree] for a in (idx, log_z, ref, total, new))
    raise QuadratureFailureError(
        f"contour refinement stalled at z = {z[idx[0]]} "
        f"(last value {float(math.exp(ref[0]) / (2.0 * math.pi) * val[0])!r})"
    )


def _real_minimum(c: _SpecConstants, log_z: np.ndarray):
    """Minimise phi_z(sigma) = Re K(sigma) + sigma log z over the real
    sigma of the spec's saddle table, for every z at once.  Returns the
    minimisers, K'' there and Re K there.

    K does not depend on z, so the table, built in one kernel call on the
    spec's first search, serves every later z, and the search makes no
    kernel call.  The table is uniform in v, where r = |sigma - edge| =
    (a log(1 + e^v))^2.  Near the edge r grows like e^(2v), uniformly in
    log r, where a saddle's width is O(1).  Far from it, where the saddle
    moves out like (mu z)^(1/nu) and phi_z'' in log r grows like nu r, r
    grows like (a v)^2, so each step spans the same share of the saddle's
    width: a = _SADDLE_STEP / (2 _SADDLE_DV sqrt|nu|) makes a step move
    phi_z by about _SADDLE_STEP^2 / 2 e-folds there.  Per z, a coarse
    argmin over every _SADDLE_STRIDE-th point finds the saddle's cell and
    a fine argmin within _SADDLE_STRIDE points of it the nearest table
    point; a parabola in v through that point and its neighbours gives the
    abscissa, and its curvature curv gives K'' = curv / (dv r'(v))^2
    there.  A minimum at a table end is returned as it is, with K'' NaN.
    """
    v, sigma, kernel = c.table
    n, stride = sigma.size, _SADDLE_STRIDE
    rows = np.arange(len(log_z))
    log_z = log_z[:, None]
    coarse = np.argmin(kernel[::stride] + sigma[::stride] * log_z, axis=1) * stride
    window = np.clip(coarse[:, None] + np.arange(-stride, stride + 1), 0, n - 1)
    j = window[rows, np.argmin(kernel[window] + sigma[window] * log_z, axis=1)]
    k = np.clip(j, 1, n - 2)
    nodes = k[:, None] + np.arange(-1, 2)
    phi = kernel[nodes] + sigma[nodes] * log_z
    below, above = phi[:, 0] - phi[:, 1], phi[:, 2] - phi[:, 1]
    curv = below + above
    # at an interior minimum below, above >= 0, so the vertex lies within
    # half a step of it
    fit = (j == k) & np.isfinite(curv) & (curv > 0)
    shift = np.divide(below - above, 2.0 * curv, out=np.zeros(len(rows)), where=fit)
    vs = v[j] + shift * _SADDLE_DV
    # r(v) = (a softplus(v))^2 and r'(v) = 2 a^2 softplus(v) sigmoid(v)
    soft = np.logaddexp(0.0, vs)
    r, dr = (c.scale * soft) ** 2, 2.0 * c.scale**2 * soft / (1.0 + np.exp(-vs))
    # phi_vv = K'' r'^2 + phi_sigma (d^2 sigma / dv^2), and phi_sigma = 0 at
    # the saddle: the parabola's curvature curv / dv^2 gives K'' = phi_vv / r'^2
    kpp = np.divide(curv, (_SADDLE_DV * dr) ** 2, out=np.full(len(rows), math.nan), where=fit)
    sigma_min = c.edge - c.d * r
    # Re K there, from the vertex value phi_z(sigma[j]) - (below - above)^2 /
    # (8 curv); with no fit sigma_min = sigma[j], and this is the table's
    drop = np.divide((below - above) ** 2, 8.0 * curv, out=np.zeros(len(rows)), where=fit)
    return sigma_min, kpp, kernel[j] + (sigma[j] - sigma_min) * log_z[:, 0] - drop


def _end_at_gap(log_z: np.ndarray, size: int) -> int:
    """A band's z count: size, or less so that the band ends at the last
    gap in log z, within its last quarter, that is at least half the widest
    there.  log_z holds the remaining z in band order, the band's and the
    next one's at least.  z that a caller differences, as a
    finite-difference stencil does, are far closer than their neighbours
    and so share one line: the second difference would magnify the
    rounding gap between two lines by about 1 / dx^2."""
    if size >= log_z.size:
        return size
    lo = max(size - size // 4, 1)
    gaps = np.abs(np.diff(log_z[lo - 1 : size + 1]))
    return lo + int(np.flatnonzero(gaps >= gaps.max() / 2.0)[-1])


def _contour_bands(c: _SpecConstants, z: np.ndarray):
    """Split the arguments into bands that share one contour abscissa.

    Yields (abscissa, indices into z, first-pass step h0), at most
    _band_size(omega, h0) indices each.
    The default line gamma0 lies in the strip left < Re s < right.  The
    contour slides to the real saddle sigma*_z when that lies beyond gamma0
    on the side without poles: left for (m, l) = (q, 0) with nu > 0, right
    for its mirror (0, p) with nu < 0.  There the integrand has no poles and
    log|integrand| is smooth.  One _real_minimum call finds every z's saddle
    on the spec's saddle table, and Re K there, so the grouping evaluates no
    kernel.  Every other z stays on gamma0, in bands of neighbouring z.
    Slid z, nearest gamma0 first, share the deepest saddle on which the
    band's first member loses at most _LINE_LOSS, and the band takes the
    following z while phi_z(abscissa) - phi_z(sigma*_z) <= _BAND_LOSS for
    each.  h0 comes from the first member's saddle, the narrowest Gaussian
    and the nearest pole of the band.  The line stays near the first member:
    a member between it and gamma0 adds its offset log z - log z_line to the
    drift of Im log f along the line, and the first pass's phase test then
    sends it on to refinement; deeper members subtract it.  On the first
    member's own saddle, the line lies so near the pole that the deepest
    members miss the first-pass estimate.
    """
    d, omega = c.d, c.conv.omega
    log_z = np.log(z)
    fixed = np.arange(len(z))
    order = fixed[:0]
    if d * c.conv.nu > 0 and z.size:
        sstar, kpp, kernel = _real_minimum(c, log_z)
        slid = d * sstar < d * c.gamma0
        fixed = np.flatnonzero(~slid)
        order = np.flatnonzero(slid)
        order = order[np.argsort(-d * sstar[order], kind="stable")]
        phi = kernel + sstar * log_z
    fixed = fixed[np.argsort(z[fixed], kind="stable")]
    while fixed.size:
        size = _end_at_gap(log_z[fixed], _band_size(omega, _H0))
        yield c.gamma0, fixed[:size], _H0
        fixed = fixed[size:]
    while order.size:
        a = line = order[0]
        # the step rule of the module docstring; a NaN K'' (no fit) keeps _H0
        curv = kpp[a]
        h0 = max(_H0, min(0.25 / math.sqrt(curv), abs(sstar[a] - c.edge) / 5.0)) if curv > 0 else _H0
        w = order[: _band_size(omega, h0)]
        if w.size > 1:
            first = kernel[w] + sstar[w] * log_z[a] - phi[a]
            line = w[np.cumprod(first <= _LINE_LOSS).sum() - 1]
            loss = kernel[line] + sstar[line] * log_z[w] - phi[w]
            w = w[: np.cumprod(loss <= _BAND_LOSS).sum()]
        size = _end_at_gap(log_z[order[: w.size + 1]], w.size)
        yield float(sstar[line]), order[:size], h0
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
    c = _constants(spec)
    if c.conv.omega <= 0:
        raise DivergentInputError(f"omega = {c.conv.omega:g} <= 0: integral diverges")
    if c.left >= c.right:
        raise UnsupportedClassError("no contour separates the two pole families")
    out = np.empty(len(z))
    bands = list(_contour_bands(c, z))
    if not bands:
        return out
    omega = c.conv.omega
    # every band's first-pass nodes gamma + i k h0, 0 <= k <= n, go through
    # one kernel call, whose fixed cost would otherwise recur per band
    nodes = [gamma + 1j * (np.arange(_first_pass_steps(omega, h0) + 1) * h0)
             for gamma, _, h0 in bands]
    kernel = _log_integrand(spec, np.concatenate(nodes))
    first = np.split(kernel, np.cumsum([n.size for n in nodes[:-1]]))
    for (gamma, idx, h0), k in zip(bands, first):
        out[idx] = _trapezoid_line(spec, z[idx], gamma, omega, h0, k)
    return out


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
        raise PreconditionViolationError(f"no upper entry (1, {r}) outside the l-group")
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
            raise PreconditionViolationError(f"missing lower entry ({j}/{r}, 1) in the m-group")
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
        raise UnsupportedClassError(f"nu = {conv.nu:g} <= 0: no exponential decay")
    zp = z ** (1.0 / conv.nu)
    return math.exp(-conv.nu * conv.mu ** (1.0 / conv.nu) * zp) * z ** (
        (2.0 * conv.delta + 1.0) / (2.0 * conv.nu)
    )
