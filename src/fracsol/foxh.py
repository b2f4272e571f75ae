"""Fox H-function: Mellin-Barnes contour evaluation and transformations.

The evaluator handles real-parameter specs of every (m, l) at z > 0, as
long as a vertical line separates the left poles of Gamma(1 - A_i +
alpha_i s), i <= l, from the right poles of Gamma(B_j - beta_j s), j <= m
(Mathai, Saxena & Haubold, The H-Function, 2010, ch. 1).  The solvers
emit l = 0 specs; argument inversion turns them into m = 0 specs.
eval_mellin_barnes takes a scalar z, which gives a float, or a 1-D array
of z, which gives an array of the same length (eval_mellin_barnes_batch
is its array-only form); a scalar is a batch of one.  A z on gamma0 gets
the same nodes either way, but a slid z's line and first step come from
its band's first member, so its value in an array may differ from its
scalar value in the last digits (237 of 320 values of criterion 4's spec
on geomspace(1e-3, 1e3, 320), by up to 7.5e-12 relative).  A spec whose
kernel is 0 at gamma0 is refused (UnsupportedClassError).

The contour is the vertical line Re s = gamma in that strip, at gamma0 =
min_j(B_j / beta_j) - 1/2 for l = 0, max_i((A_i - 1) / alpha_i) + 1/2 for
m = 0 and the strip's midpoint otherwise.  For (m, l) = (q, 0) and large
arguments the line slides left to the real saddle of phi_z(s) = Re K(s) +
s log z, where K is the log of the gamma-ratio kernel, so the quadrature
keeps relative accuracy deep into the exponential decay; for (m, l) =
(0, p), the s -> -s mirror of that class, it slides right at small
arguments.  The saddle is the root of phi_z'(sigma) = K'(sigma) + log z,
K' a sum of digammas over the kernel's factors (Paris & Kaminski,
Asymptotics and Mellin-Barnes Integrals, 2001), found by a safeguarded
Newton iteration in log|sigma - edge| (_root) in real arithmetic, with no
kernel call.  K is convex on the spec's saddle bracket
(_SpecConstants.slide), so a z short of its slide threshold stays on
gamma0 with no root-find.

On a fixed line K does not depend on z; only s log z does.  The z of one
call are therefore split into bands that share an abscissa, and K is
evaluated once per band and pass: the first passes of all the call's
slid bands together in one kernel call, and each later doubling or
refinement pass of a band in one more.  gamma0's first-pass lattice is
fixed (the trapezoid lattice at step _H0 below), so the kernel on it is
kept with the spec's constants, and a z that gamma0's first pass settles
costs no kernel call.  Every z that stays at gamma0 joins one band on
that line, and slid z share a line just past the saddle of the band's
first member (its member nearest gamma0) so that no member's phi_z at the
band's abscissa exceeds its own saddle value by more than _BAND_LOSS = 4
e-folds.  Its relative rounding error then grows by at most e^4, to
about 1e-14.  A band ends only there, so a caller's finite-difference
stencil may straddle two lines: with each of its z on its own line,
verify's Richardson u_xx moved by at most 4.6e-6 of max(|u_xx|, |u| /
x^2) over 1,890 random solution stencils, against GL gates of 1e-3.
Since log f = K(s) + gamma log z + i tau log z on the line, each pass's
only (z x nodes) array is a float64 matrix of cos(Im K + tau log z) (see
_trapezoid_line), built in row blocks of at most _BLOCK_ELEMENTS = 2^13
elements, 64 KiB, or of one z when one z's nodes are more: the memory
bound lies there, not on a band, and _log_integrand chunks by it too.

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
of its members; the root-find returns K'' there.

The rule is truncated from the decay rate: the integrand falls like
exp(-pi omega |tau| / 2), so the first pass spans 0 <= tau <= 30 /
(pi omega / 2), at least _N_MIN steps.  On a slid line each factor
Gamma(A + iB) also grows like |B|^(A - 1/2) (Stirling; Paris & Kaminski,
Asymptotics and Mellin-Barnes Integrals, 2001), so a band on a saddle
line, with every A >= 1 on it, extends that span at
the decay rate until Stirling's Re K(sigma + i tau) - Re K(sigma) reads
-30 (_stirling_drop), never past n 2^_MAX_DOUBLINGS.  T then doubles,
evaluating only the new outer segment, until both tails are negligible.
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
Trefethen & Weideman) and the merged lattice passes the phase test, its
steps folded to within pi of their median, which undoes a branch jump;
without it two passes can agree by aliasing (on the fixed line of
H^{1,0}_{0,1}[z | (0, 80)] Im log f turns by 15 and 7 per node at h0 / 2
and h0 / 4).  Every test is made per z: a band keeps
extending T, and then refining, until each of its z has passed.  A
value whose modulus bound lies below the double range returns 0.0 after
the first pass; one whose bound lies above it, a stalled refinement or a
runaway T raises QuadratureFailureError, and a value whose rounding,
eps times the integral of |f|, exceeds CANCEL_TOL of |H| after any
refinement pass raises CancellationError, agreed or not (as at small z
on the fixed line of an m < q spec, where f is about z^(-1/2) times
larger than H).
"""

from __future__ import annotations

import functools
import itertools
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
from .gammafn import (
    CANCEL_TOL, EPS, LOG_MAX, _real_psi, is_nonpositive_integer, ln_gamma_vec
)

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
# elements of one block of a pass's (z x nodes) cosine matrix, 64 KiB of
# float64, and of one ln_gamma_vec call in _log_integrand
_BLOCK_ELEMENTS = 2**13
_MAX_REFINE = 6
_H0 = 0.1
# the first pass spans this many e-folds of the decay rate pi omega / 2, and
# on a fitted slid line at least as many of Stirling's Re K (module docstring)
_DECAY_LOGS = 30.0
# fewest first-pass nodes on each side of tau = 0
_N_MIN = 40
_MAX_DOUBLINGS = 6
# share of _REFINE_TOL the truncated tail may take
_TAIL_FRACTION = 1e-2
# log of half the smallest subnormal: a bound below it rounds to 0.0
_LOG_UNDERFLOW = math.log(2.0) * -1075


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
        # stored as int: the spec is the _constants key, where 1, 1.0 and True are one
        if not (float(self.m).is_integer() and float(self.l).is_integer()):
            raise ValueError(f"(m,l) = ({self.m},{self.l}) must be integers")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "l", int(self.l))
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
    log_mu = math.fsum(a * math.log(a) for a in alphas) - math.fsum(b * math.log(b) for b in betas)
    # saturates to inf past the double range, as it underflows to 0.0
    mu = math.exp(log_mu) if log_mu <= LOG_MAX else math.inf
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
    starts from, whether the kernel is 0 at gamma0 and, each built at its
    first use, the kernel on gamma0's first pass and the slid side's saddle
    bracket."""

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
        self.factors = factors
        self.c0, self.c1, self.sign = (np.array(col)[:, None] for col in zip(*factors))
        # the rightmost pole of the Gamma(1 - A_i + alpha_i s), i <= l, and
        # the leftmost of the Gamma(B_j - beta_j s), j <= m
        self.left = max(((a - 1.0) / al for a, al in spec.upper[: spec.l]), default=-math.inf)
        self.right = min((b / be for b, be in spec.lower[: spec.m]), default=math.inf)
        l, m, left, right = spec.l, spec.m, self.left, self.right
        self.gamma0 = right - 0.5 if l == 0 else left + 0.5 if m == 0 else 0.5 * (left + right)
        self.d = 1 if (m, l) == (spec.q, 0) else -1 if (m, l) == (0, spec.p) else 0
        self.edge = right if self.d > 0 else left
        # a 1/Gamma factor whose argument is 0, -1, ... at gamma0 zeroes the
        # kernel there, where the default line and the slide both start
        self.zero_at_gamma0 = any(
            sign < 0 and is_nonpositive_integer(c0 + c1 * self.gamma0) for c0, c1, sign in factors
        )

    @functools.cached_property
    def slide(self):
        """The saddle bracket (u0, u1, inner, outer, leave) in u = log r on the
        slid side sigma = edge - d r, where each factor's argument grows like
        |c1| r, with _real_kernel at both ends; None where no z slides.  u1
        is r = 3 * 900 / |nu| + 20, past the saddle at decay level 900.  u0
        is gamma0's r = 1/2, or, where a 1/Gamma factor's argument is 0 at
        some r >= 1/2 or K'' <= 0 at gamma0, where K'' turns positive past
        the outermost such zero.  K'' > 0 on the bracket, so phi_z has one
        minimum in it for each log z past -K'(u0) and short of -K'(u1).  A z
        leaves gamma0 past log z = leave: -K'(gamma0) when u0 is gamma0,
        else where phi_z(gamma0) passes phi_z(u0)."""
        if self.d * self.conv.nu <= 0:
            return None
        u0, u1 = math.log(0.5), math.log(3.0 * 900.0 / abs(self.conv.nu) + 20.0)
        zero = max((-(c0 + c1 * self.edge) / abs(c1) for c0, c1, sign in self.factors if sign < 0),
                   default=0.0)
        if zero >= math.exp(u1):
            return None
        inner = gamma0 = _real_kernel(self, u0)
        if zero >= 0.5 or gamma0[3] <= 0.0:
            u0 = _root(self, lambda p: (p[3], math.nan), math.log(max(zero, 0.5)), u1, math.nan)[4]
            inner = _real_kernel(self, u0)
        leave = -inner[2] if inner is gamma0 else (gamma0[1] - inner[1]) / (inner[0] - gamma0[0])
        return u0, u1, inner, _real_kernel(self, u1), leave

    @functools.cached_property
    def first_pass(self) -> np.ndarray:
        """The kernel on gamma0's first-pass nodes gamma0 + i k _H0, 0 <= k
        <= _first_pass_steps(omega, _H0), read-only; one kernel call."""
        n = _first_pass_steps(self.conv.omega, _H0)
        k = _log_integrand(self.spec, self.gamma0 + 1j * _H0 * np.arange(n + 1))
        k.flags.writeable = False
        return k


# keyed by the frozen, hashable spec: a solution's evaluations reuse its
# few specs, and an entry holds gamma0's first pass
_constants = functools.lru_cache(maxsize=128)(_SpecConstants)


def _log_integrand(spec: HFunctionSpec, s):
    """Log of the gamma-ratio kernel (without z^s) on an array of s values.

    The kernel is a product of factors Gamma(c0 + c1 s)^(+-1).  Their
    arguments go through ln_gamma_vec together, _BLOCK_ELEMENTS elements
    per call: on the short arrays of the first contour passes one call
    replaces one per factor, whose fixed cost outweighs the cost per
    element, and on long passes the chunks bound the size of its
    temporaries.
    """
    c = _constants(spec)
    s = np.asarray(s, dtype=complex)
    flat = s.ravel()
    out = np.empty_like(flat)
    step = _BLOCK_ELEMENTS // len(c.c0)
    for i in range(0, flat.size, step):
        out[i : i + step] = (c.sign * ln_gamma_vec(c.c0 + c.c1 * flat[i : i + step])).sum(axis=0)
    return out.reshape(s.shape)


def _first_pass_steps(omega: float, h0: float, drop=None) -> int:
    """Steps n of the first pass at step h0: its nodes are tau = k h0,
    0 <= k <= n (the truncation rule of the module docstring, drop that of
    _stirling_drop or None)."""
    rate = math.pi * omega / 2.0
    n = max(int(math.ceil(_DECAY_LOGS / rate / h0)), _N_MIN)
    cap = n << _MAX_DOUBLINGS
    while drop is not None and n < cap and (fall := drop(n * h0)) > -_DECAY_LOGS:
        n = min(n + math.ceil((fall + _DECAY_LOGS) / rate / h0), cap)
    return n


def _stirling_drop(c: _SpecConstants, sigma: float):
    """Stirling's estimate of Re K(sigma + i tau) - Re K(sigma) as a
    function of tau, or None where an argument A = c0 + c1 sigma is below
    1.  Each Gamma(w)^sign, w = A + i |c1| tau, adds sign (Re[(w - 1/2)
    log(w / A) + 1 / (12 w)] - 1 / (12 A)), next term below 1/360."""
    terms = [(c0 + c1 * sigma, abs(c1), sign) for c0, c1, sign in c.factors]
    if min(a for a, _, _ in terms) < 1.0:
        return None

    def drop(tau):
        return sum(
            sign * ((a - 0.5) * 0.5 * math.log1p((b * tau / a) ** 2) - b * tau * math.atan2(b * tau, a)
                    + a / (12.0 * (a * a + (b * tau) ** 2)) - 1.0 / (12.0 * a))
            for a, b, sign in terms
        )

    return drop


def _trapezoid_line(
    spec: HFunctionSpec, z: np.ndarray, gamma: float, omega: float, h0: float, k: np.ndarray
) -> np.ndarray:
    """Trapezoid rule on Re s = gamma for every z of a band, starting from
    the step h0, with k the kernel on the band's first-pass nodes (the step
    rule, truncation, first-pass rule and refinement are in the module
    docstring).

    Every pass evaluates the kernel at tau >= 0 only (module docstring).
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
    agree and the merged lattice's phase steps, each folded by a multiple
    of 2 pi to within pi of their median, are below pi / 2: a branch jump
    is one step, an undersampled oscillation most of them.  A z whose
    value after a refinement pass, agreed or not, is below eps sum|f| /
    CANCEL_TOL raises CancellationError.
    """
    rate = math.pi * omega / 2.0
    out = np.zeros(len(z))
    # the z still open, as positions in out; per-z state is kept for these only
    idx = np.arange(len(z))
    log_z = np.log(z)

    def cosine_sums(tau, im_k, columns):
        # sum_j columns[c, j] cos(Im K_j + tau_j log z) for each open z: the
        # pass's one (z x nodes) array, built in blocks of rows of at most
        # _BLOCK_ELEMENTS (one row when a row is longer) and reduced by
        # einsum in a fixed order (a BLAS product may thread, and its digits
        # then depend on the count)
        out = np.empty((log_z.size, len(columns)))
        rows = max(_BLOCK_ELEMENTS // tau.size, 1)
        for i in range(0, log_z.size, rows):
            arg = np.multiply.outer(log_z[i : i + rows], tau)
            arg += im_k
            np.einsum("zj,cj->zc", np.cos(arg, out=arg), columns, out=out[i : i + rows])
        return out

    def resolved(steps):
        # each open z's steps of Im log f = Im K + tau log z at step h are below pi / 2
        drift = h * log_z
        return (steps.max() + drift < math.pi / 2.0) & (steps.min() + drift > -math.pi / 2.0)

    # start: the pass's first node (tau = 0 is its own mirror, T(2h) the even nodes)
    h, n, start = h0, k.size - 1, 0
    # every node is scaled by the first pass's largest modulus for its z,
    # e^ref with ref = top + gamma log z
    top = k.real.max()
    ref = top + gamma * log_z
    # per z, the sum over all nodes and over the even ones, the rule at 2h
    sums = np.zeros((len(z), 2))
    total_abs = 0.0
    # Im K on the truncation lattice, pass by pass
    phase = [k.imag]
    for doubling in range(_MAX_DOUBLINGS + 1):
        kr = k.real
        # the weights of f(tau) and of its mirror f(-tau) = conj f(tau)
        weights = np.zeros((2, kr.size))
        mag = np.exp(kr - top, out=weights[0])
        mag[start == 0 :] *= 2.0
        weights[1, start % 2 :: 2] = mag[start % 2 :: 2]
        sums += cosine_sums(np.arange(float(start), n + 1) * h, k.imag, weights)
        total_abs += mag.sum()
        decay = min((kr[-2] - kr[-1]) / h, rate)
        # both tails; a band whose end nodes do not decay has an unbounded tail
        tail = 2.0 * math.exp(kr[-1] - top) / decay if decay > 0 else math.inf
        # |H| <= (h sum|f| + tail) e^ref / 2 pi; below half the smallest
        # subnormal it is 0.0
        live = math.log(h * total_abs + tail) >= _LOG_UNDERFLOW + math.log(2.0 * math.pi) - ref
        if not live.all():
            idx, log_z, ref, sums = (a[live] for a in (idx, log_z, ref, sums))
            if not idx.size:
                return out
        floor = h * np.maximum(_TAIL_FRACTION * _REFINE_TOL * np.abs(sums[:, 0]), EPS * total_abs)
        if tail <= floor.min():
            break
        if doubling == _MAX_DOUBLINGS:
            raise QuadratureFailureError(
                f"contour truncation did not settle by T = {n * h:g} "
                f"at z = {z[idx[tail > floor][0]]}"
            )
        start = n + 1
        k = _log_integrand(spec, gamma + 1j * (np.arange(float(start), 2 * n + 1) * h))
        phase.append(k.imag)
        n *= 2
    val, val_2h = h * sums[:, 0], 2.0 * h * sums[:, 1]
    # h * total_abs is the integral of |f| on the truncation lattice
    total_abs *= h
    # |H| <= e^ref max(1, integral|f|) / 2 pi: with that bound in range, no
    # value, refined or not, and no e^ref overflows; past it (a weight of
    # 1000 puts e^ref at e^2605 for H = 3.7e-4) the line sum is out of scale
    if ref.max() + max(0.0, math.log(total_abs)) >= LOG_MAX:
        raise QuadratureFailureError(
            f"contour sum at z = {z[idx[ref.argmax()]]} passes the double range "
            f"(scale e^{ref.max():.4g})"
        )
    # the first pass is accepted on its squared estimate e^2 max(1, r),
    # r = integral|f| / |T(h)|, written without a division by |T(h)|
    size = np.abs(val)
    first = (val - val_2h) ** 2 * np.maximum(size, total_abs) <= (
        _FIRST_PASS_SHARE * _REFINE_TOL * size**3
    )
    im_k = np.concatenate(phase)
    first &= resolved(im_k[1:] - im_k[:-1])
    first &= EPS * total_abs <= CANCEL_TOL * size
    out[idx[first]] = np.exp(ref[first]) / (2.0 * math.pi) * val[first]
    if first.all():
        return out
    idx, log_z, ref, val, total = (a[~first] for a in (idx, log_z, ref, val, sums[:, 0]))
    for _ in range(_MAX_REFINE):
        tau = (np.arange(n) + 0.5) * h
        k = _log_integrand(spec, gamma + 1j * tau)
        total += cosine_sums(tau, k.imag, 2.0 * np.exp(k.real - top)[None, :])[:, 0]
        # Im K on the merged lattice: each previous node, then its midpoint
        im_k = np.insert(im_k, np.arange(1, n + 1), k.imag)
        h, n = h / 2.0, 2 * n
        new = h * total
        # the phase test, on steps folded to within pi of their median
        steps = im_k[1:] - im_k[:-1]
        steps -= 2.0 * math.pi * np.round((steps - np.median(steps)) / (2.0 * math.pi))
        agree = (np.abs(new - val) <= _REFINE_TOL * np.abs(new)) & resolved(steps)
        # eps * integral|f| is fixed on the truncation lattice: a z whose
        # rounding exceeds CANCEL_TOL of its value is refused whether or not
        # its passes agree, since above _REFINE_TOL of it they never can
        cancels = EPS * total_abs > CANCEL_TOL * np.abs(new)
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


def _real_kernel(c: _SpecConstants, u: float):
    """The point (sigma, Re K = log|kernel|, K', K'', u) at sigma = edge - d
    e^u on the slid side: K' = sum sign c1 psi(c0 + c1 sigma), and K'' the
    same sum with c1^2 psi'."""
    sigma = c.edge - c.d * math.exp(u)
    k = k1 = k2 = 0.0
    for c0, c1, sign in c.factors:
        x = c0 + c1 * sigma
        psi, tri = _real_psi(x)
        k += sign * math.lgamma(x)
        k1 += sign * c1 * psi
        k2 += sign * c1 * c1 * tri
    return sigma, k, k1, k2, u


def _root(c: _SpecConstants, f, lo: float, hi: float, u: float):
    """The root in (lo, hi) of f(p) = (value, d value / d sigma), p =
    _real_kernel(c, u), value rising through 0 with u: Newton's method in u,
    where the saddle equation is close to linear, from u (or the midpoint),
    each point narrowing the bracket and a step out of it bisecting it.  At
    a step whose square is below EPS the next would not move sigma: returns
    the point after it, Re K and K' carried there by Taylor's formula, or
    the last point when the bracket collapses."""
    if not lo < u < hi:
        u = 0.5 * (lo + hi)
    while True:
        p = _real_kernel(c, u)
        value, slope = f(p)
        lo, hi = (u, hi) if value < 0.0 else (lo, u)
        # d value / du = -d e^u slope
        rate = -c.d * math.exp(u) * slope
        step = -value / rate if rate > 0.0 else math.nan
        if step * step <= EPS:
            ds = c.edge - c.d * math.exp(u + step) - p[0]
            return p[0] + ds, p[1] + ds * (p[2] + 0.5 * ds * p[3]), p[2] + ds * p[3], p[3], u + step
        u = u + step if lo < u + step < hi else 0.5 * (lo + hi)
        if not lo < u < hi:
            return p


def _loss(line, p) -> float:
    """phi_z(line) - phi_z(sigma*) for the z whose saddle is p, by log z =
    -K'(sigma*): K's Bregman divergence K(line) - K(p) - (line - p) K'(p)."""
    return line[1] - p[1] - (line[0] - p[0]) * p[2]


def _beyond(p, loss: float) -> float:
    """A start for the u past p at which _loss reaches loss, by its quadratic
    model in u, K''(p) (r (u - log r))^2 / 2, r = |p - edge|."""
    return p[4] + math.sqrt(2.0 * loss / p[3]) / math.exp(p[4]) if p[3] > 0.0 else math.nan


def _contour_bands(c: _SpecConstants, z: np.ndarray):
    """Split the arguments into bands that share one contour abscissa.

    Yields (abscissa, indices into z, first-pass step h0, step count n).  A
    z slides to its saddle sigma*_z, the root of phi_z' = K' + log z, when d
    log z passes the slide threshold of the spec's saddle bracket
    (_SpecConstants.slide); the others form one band on gamma0 with no
    root-find, the z short of every saddle in the bracket one band on its
    inner end's line, and every z past -K' at the reach one band on the
    reach line, both with _H0 and the decay rate's span.  Slid z go nearest
    gamma0 first.  A z's loss on a line is K's Bregman divergence from its
    saddle (_loss), so a band needs three root-finds, one for a lone z: its
    first member's saddle; the line past it on which that member loses
    _LINE_LOSS; and the saddle past the line that loses _BAND_LOSS, whose z
    is exp(-K').  The band ends at the first z past that, even inside a
    caller's stencil (the module docstring bounds what that costs).  h0
    comes from the first member's saddle, the narrowest Gaussian and the
    nearest pole of the band, and n from the line (module docstring).  The
    line stays near the first member: a member between it and gamma0 adds
    its offset log z - log z_line to the drift of Im log f along the line,
    and the first pass's phase test then sends it on to refinement; deeper
    members subtract it.
    """
    d, omega = c.d, c.conv.omega
    log_z = np.log(z)
    fixed, order = np.arange(len(z)), np.arange(0)
    if c.slide is not None and z.size:
        u0, u1, inner, outer, leave = c.slide
        end = inner
        past = d * log_z > min(d * leave, -d * inner[2])
        fixed, order = (~past).nonzero()[0], past.nonzero()[0]
        order = order[(d * log_z[order]).argsort(kind="stable")]
        # -d K' tends to offset + |nu| u
        offset = sum(sign * abs(c1) * math.log(abs(c1)) for _, c1, sign in c.factors)
    if fixed.size:
        yield c.gamma0, fixed, _H0, _first_pass_steps(omega, _H0)
    while order.size:
        lz = d * log_z[order]
        head = lz.item(0)
        if not -d * inner[2] < head < -d * outer[2]:
            # no saddle in the bracket: its inner end's line, or the reach line
            end = inner if head <= -d * inner[2] else outer
            size = np.searchsorted(lz, -d * inner[2], "right") if end is inner else order.size
            yield end[0], order[:size], _H0, _first_pass_steps(omega, _H0)
            order = order[size:]
            continue
        # both starts fall short of the saddle where -d K' is concave in u: the
        # asymptote's root, and a Newton step from the last end, short of it
        start = (head - offset) / abs(c.conv.nu)
        if end[3] > 0.0:
            start = max(start, end[4] + (head + d * end[2]) / (math.exp(end[4]) * end[3]))
        first = end = _root(c, lambda p: (-d * p[2] - head, -d * p[3]), u0, u1, start)
        line, size = first, 1
        if order.size > 1:
            line = outer if _loss(outer, first) <= _LINE_LOSS else _root(
                c, lambda p: (_loss(p, first) - _LINE_LOSS, p[2] - first[2]),
                first[4], u1, _beyond(first, _LINE_LOSS))
            end = outer if _loss(line, outer) <= _BAND_LOSS else _root(
                c, lambda p: (_loss(line, p) - _BAND_LOSS, (p[0] - line[0]) * p[3]),
                line[4], u1, _beyond(line, _BAND_LOSS))
            size = order.size if end is outer else max(np.searchsorted(lz, -d * end[2], "right"), 1)
        # the step rule and Stirling's span of the module docstring
        fitted = first[3] > 0
        h0 = max(_H0, min(0.25 / math.sqrt(first[3]), abs(first[0] - c.edge) / 5.0)) if fitted else _H0
        n = _first_pass_steps(omega, h0, _stirling_drop(c, line[0]) if fitted else None)
        yield line[0], order[:size], h0, n
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
    (see the module docstring): a band on gamma0 starts from the spec's
    stored first pass, and the slid bands' first passes go through one
    kernel call.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError("eval_mellin_barnes_batch takes a 1-D array of z")
    if not ((z > 0.0) & (z < math.inf)).all():
        raise ValueError("eval_mellin_barnes requires finite z > 0")
    c = _constants(spec)
    if c.conv.omega <= 0:
        raise DivergentInputError(f"omega = {c.conv.omega:g} <= 0: integral diverges")
    if c.left >= c.right:
        raise UnsupportedClassError("no contour separates the two pole families")
    if c.zero_at_gamma0:
        raise UnsupportedClassError(
            f"a 1/Gamma factor of the kernel is 0 at s = gamma0 = {c.gamma0:g}, the default line"
        )
    out = np.empty(len(z))
    bands = list(_contour_bands(c, z))
    # gamma0's band, yielded first, reads the stored first pass; the slid
    # bands' first-pass nodes gamma + i k h0, 0 <= k <= n, go through one
    # kernel call, whose fixed cost would otherwise recur per band
    lines = [c.first_pass] if bands and bands[0][0] == c.gamma0 else []
    slid = bands[len(lines) :]
    if slid:
        steps = [n + 1 for *_, n in slid]
        nodes = [gamma + 1j * h0 * np.arange(n) for (gamma, _, h0, _), n in zip(slid, steps)]
        kernel = _log_integrand(spec, np.concatenate(nodes))
        lines += [kernel[end - n : end] for end, n in zip(itertools.accumulate(steps), steps)]
    for (gamma, idx, h0, _), k in zip(bands, lines):
        out[idx] = _trapezoid_line(spec, z[idx], gamma, c.conv.omega, h0, k)
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

    def find(entries, indices, want):
        return next((i for i in indices if all(abs(x - w) < 1e-12 for x, w in zip(entries[i], want))), None)

    up = find(spec.upper, range(spec.l, spec.p), (1.0, r))
    if up is None:
        raise PreconditionViolationError(f"no upper entry (1, {r}) outside the l-group")
    used = []
    for j in range(1, r + 1):
        i = find(spec.lower, [i for i in range(spec.m) if i not in used], (j / r, 1.0))
        if i is None:
            raise PreconditionViolationError(f"missing lower entry ({j}/{r}, 1) in the m-group")
        used.append(i)
    reduced = HFunctionSpec(
        m=spec.m - r,
        l=spec.l,
        upper=tuple(e for i, e in enumerate(spec.upper) if i != up),
        lower=tuple(e for i, e in enumerate(spec.lower) if i not in used),
    )
    scale = (2.0 * math.pi) ** ((r - 1) / 2.0) / math.sqrt(r)
    return GaussReduction(spec=reduced, scale=scale, argument_multiplier=float(r) ** r)


def asymptotic_estimate(spec: HFunctionSpec, z: float) -> float:
    """Large-z decay envelope exp(-nu mu^{1/nu} z^{1/nu}) z^{(2 delta + 1)/(2 nu)}.

    The unknown O(.) constant is not included; callers compare ratios.
    z outside (0, inf) raises ValueError.
    """
    if not 0.0 < z < math.inf:
        raise ValueError(f"asymptotic_estimate requires finite z > 0, got {z!r}")
    if spec.l != 0:
        raise UnsupportedClassError("decay envelope applies to l = 0 specs")
    conv = convergence_params(spec)
    if conv.nu <= 0:
        raise UnsupportedClassError(f"nu = {conv.nu:g} <= 0: no exponential decay")
    zp = z ** (1.0 / conv.nu)
    return math.exp(-conv.nu * conv.mu ** (1.0 / conv.nu) * zp) * z ** ((conv.delta + 0.5) / conv.nu)
