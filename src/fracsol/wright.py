"""Generalized Wright function pPsi_q and its classical reductions.

The evaluator is series-only: callers outside the convergence region get
an exception, never a silently inaccurate number.  Parameters a_i, b_j
may be complex (conjugate root pairs from the solvers land here); the
weights alpha_i, beta_j are real and nonzero.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CancellationError, DivergentInputError, NoConvergenceError
from .gammafn import (
    CANCEL_TOL, EPS, LOG_MAX, gamma_reciprocal, is_nonpositive_integer, ln_gamma_vec
)

_EPS_REL = 1e-15
_TERM_CAP = 500


@dataclass(frozen=True)
class WrightSpec:
    """Parameter set of a pPsi_q generalized Wright function.

    ``upper`` holds the (a_i, alpha_i) pairs, ``lower`` the (b_j, beta_j)
    pairs.  Every number must be finite and every weight nonzero.
    """

    upper: tuple
    lower: tuple

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple((complex(a), float(al)) for a, al in self.upper))
        object.__setattr__(self, "lower", tuple((complex(b), float(be)) for b, be in self.lower))
        for a, w in self.upper + self.lower:
            if not (cmath.isfinite(a) and math.isfinite(w)) or w == 0.0:
                raise ValueError("Wright parameters must be finite, weights nonzero")


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Convergence dichotomy of the Wright series."""

    delta: float
    radius: float

    def convergent_at(self, z) -> bool:
        return abs(complex(z)) < self.radius


def convergence(spec: WrightSpec) -> ConvergenceVerdict:
    """Delta = sum(beta_j) - sum(alpha_i) and the resulting radius.

    delta > -1: entire; delta == -1: finite radius
    prod |alpha_i|^(-alpha_i) * prod |beta_j|^(beta_j); delta < -1: radius 0.
    """
    delta = math.fsum([w for _, w in spec.lower]) - math.fsum([w for _, w in spec.upper])
    if delta > -1.0:
        radius = math.inf
    elif delta == -1.0:
        log_r = -math.fsum(w * math.log(abs(w)) for _, w in spec.upper) + math.fsum(
            w * math.log(abs(w)) for _, w in spec.lower
        )
        radius = math.exp(log_r)
    else:
        radius = 0.0
    return ConvergenceVerdict(delta=delta, radius=radius)


def series_term(spec: WrightSpec, z, k: int) -> complex:
    """The k-th term of the defining series (0 when a lower pole kills it);
    NoConvergenceError when its modulus passes the double range."""
    z = complex(z)
    if z == 0:
        if k > 0:
            return 0.0 + 0.0j
        log_z_part = 0.0
    else:
        log_z_part = k * np.log(z)
    for b, be in spec.lower:
        if is_nonpositive_integer(b + be * k):
            return 0.0 + 0.0j
    lt = log_z_part - complex(ln_gamma_vec(k + 1.0))
    for a, al in spec.upper:
        lt += complex(ln_gamma_vec(a + al * k))
    for b, be in spec.lower:
        lt -= complex(ln_gamma_vec(b + be * k))
    if lt.real > LOG_MAX:
        raise NoConvergenceError(f"Wright series term {k} at z = {z} overflows")
    return complex(np.exp(lt))


def coefficients(spec: WrightSpec, order: int, lam: float = 1.0) -> tuple:
    """Coefficients lam^j * series_term(spec, 1, j), j = 0..order, of
    pPsiq[lam w] as a power series in w, for a real lam.  log|lam| goes
    into each term's log and sign(lam)^j stays outside it, so a coefficient
    is finite where lam^j overflows, and real ones stay real."""
    return tuple(
        math.copysign(1.0, lam) ** j * series_term(spec, abs(lam), j) for j in range(order + 1)
    )


def evaluate(spec: WrightSpec, z) -> complex:
    """Partial sums of the Wright series with compensated summation.

    Stops once three consecutive terms fall below 1e-15 relative to the
    partial sum.  Raises DivergentInputError outside the radius,
    NoConvergenceError when the 500-term cap is reached before that stop
    rule fires or a term overflows, and CancellationError when
    eps * sum|t_k| exceeds CANCEL_TOL = 1e-10 times |sum t_k|: the
    rounding of the largest terms alone would then exceed 1e-10 of the
    result (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4),
    and a non-finite z ValueError.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"the Wright series needs a finite z, got {z}")
    verdict = convergence(spec)
    if not verdict.convergent_at(z) and z != 0:
        raise DivergentInputError(
            f"|z| = {abs(z):g} outside convergence radius {verdict.radius:g}"
        )
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j  # Kahan compensation
    total_abs = 0.0
    small_run = 0
    for k in range(_TERM_CAP + 1):
        term = series_term(spec, z, k)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mag = abs(term)
        total_abs += mag
        if z == 0:
            return total
        if k > 0 and mag < _EPS_REL * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 3:
                if EPS * total_abs > CANCEL_TOL * abs(total):
                    raise CancellationError(
                        f"Wright series at z = {z} cancels: sum|t_k| / |sum t_k| = "
                        f"{total_abs / abs(total) if total else math.inf:.3g}"
                    )
                return total
        else:
            small_run = 0
    raise NoConvergenceError(
        f"Wright series did not converge within {_TERM_CAP} terms at z = {z}"
    )


def mittag_leffler(alpha: float, beta: float, z) -> complex:
    """E_{alpha,beta}(z) as the 1Psi1[(1,1); (beta,alpha)] reduction."""
    if alpha <= 0:
        raise ValueError("mittag_leffler requires alpha > 0")
    spec = WrightSpec(upper=((1.0, 1.0),), lower=((beta, alpha),))
    return evaluate(spec, z)


def classical_wright(z, alpha: float, beta: float) -> complex:
    """Psi(z; alpha, beta) = sum_{k>=1} z^k / (Gamma(alpha k + beta) k!).

    The sum starts at k = 1, so the usual k = 0 term 1/Gamma(beta) is
    left out.  Cross-library comparisons against the k = 0 convention must
    add it back.  With j = k - 1 the sum is z times
    1Psi2[(1, 1); (2, 1), (alpha + beta, alpha) | z], evaluated by
    :func:`evaluate` and under its guards; subtracting 1/Gamma(beta) from
    0Psi1 instead would lose all relative accuracy as z -> 0.  For
    alpha = 0, which is not a Wright weight, it is (e^z - 1) / Gamma(beta).
    """
    if alpha <= -1:
        raise ValueError("classical_wright requires alpha > -1")
    z = complex(z)
    if alpha == 0:
        return complex(np.expm1(z)) * gamma_reciprocal(beta)
    spec = WrightSpec(upper=((1.0, 1.0),), lower=((2.0, 1.0), (alpha + beta, alpha)))
    return z * evaluate(spec, z)
