"""Exact calculus on generalized power series sum_j c_j z^(gamma + rho j).

These are the verification backbone: termwise Riemann-Liouville
differentiation and Euler-operator application are exact on the exponent
lattice, so solution identities can be checked coefficient by
coefficient instead of through quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import wright
from .errors import (
    DegenerateLeadingError,
    ExponentMisalignmentError,
    ExponentOutOfRangeError,
    PoleError,
)
from .gammafn import POLE_TOL, gamma_ratio, is_nonpositive_integer, ln_gamma_vec

#: tolerance for recognizing coincident exponents when aligning series
EXPONENT_TOL = 1e-12

DEFAULT_ORDER_VERIFY = 50


@dataclass(frozen=True)
class FracPowerSeries:
    """Truncated generalized power series sum_j coeffs[j] * z^(gamma0 + rho j)."""

    gamma0: float
    rho: float
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "gamma0", float(self.gamma0))
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if self.rho <= 0:
            raise ValueError("exponent step rho must be positive")
        if not np.isfinite(np.asarray(self.coeffs, dtype=complex)).all():
            raise ValueError("series coefficients must be finite")

    def exponent(self, j: int) -> float:
        return self.gamma0 + self.rho * j

    def exponents(self) -> np.ndarray:
        """The exponent lattice gamma0 + rho j, one exponent per coefficient."""
        return self.gamma0 + self.rho * np.arange(len(self.coeffs))

    def scaled(self, factor) -> "FracPowerSeries":
        return FracPowerSeries(self.gamma0, self.rho, tuple(factor * c for c in self.coeffs))


def wright_series(spec, lam: float, gamma0: float, rho: float, order: int) -> FracPowerSeries:
    """z^gamma0 pPsiq[lam z^rho] as sum_j c_j z^(gamma0 + rho j), j = 0..order,
    the coefficient image of a Wright solution member or identity side."""
    return FracPowerSeries(gamma0, rho, wright.coefficients(spec, order, lam))


def rl_derivative(series: FracPowerSeries, alpha: float) -> FracPowerSeries:
    """Termwise Riemann-Liouville derivative of fractional order alpha > 0.

    z^p maps to Gamma(p+1)/Gamma(p+1-alpha) z^(p-alpha); exponents where
    p - alpha is a negative integer are annihilated (kernel of D^alpha).
    The lattice must start above -1, farther than POLE_TOL, so that no
    numerator Gamma(p+1) sits on a pole.
    """
    if alpha <= 0:
        raise ValueError("rl_derivative requires alpha > 0")
    if series.gamma0 + 1.0 <= POLE_TOL:
        raise ExponentOutOfRangeError(
            f"leading exponent {series.gamma0!r} is not above -1: not RL-differentiable"
        )
    p = series.exponents()
    new = np.asarray(series.coeffs) * gamma_ratio(p + 1.0, p + 1.0 - alpha)
    return FracPowerSeries(series.gamma0 - alpha, series.rho, tuple(new))


@dataclass(frozen=True)
class EulerPolynomialOperator:
    """Operator z^m (a_n z^n d^n/dz^n + ... + a_1 z d/dz + a_0).

    On z^p the bracket acts as multiplication by the characteristic
    polynomial P(p) = sum_i a_i p(p-1)...(p-i+1) = a_n prod_j (p - s_j);
    the z^m prefactor raises every exponent by time_weight.
    """

    coeffs: tuple  # a_0 .. a_n
    time_weight: int = 0
    # monomial coefficients of P(s), lowest degree first, and the roots
    # s_j; both derived once from coeffs
    monomials: tuple = field(init=False, repr=False, compare=False)
    roots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(a) for a in self.coeffs))
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError("the operator's coefficients must be finite")
        if self.time_weight < 0 or self.time_weight != int(self.time_weight):
            raise ValueError("time_weight must be a non-negative integer")
        object.__setattr__(self, "monomials", _char_monomials(self.coeffs))
        object.__setattr__(self, "roots", _char_roots(self.monomials))

    def char_value(self, s) -> np.ndarray:
        """P(s) via the falling-factorial expansion (exact in the
        coefficients), elementwise over an array of s (0-d for a scalar)."""
        s = np.asarray(s, dtype=complex)
        total = np.zeros_like(s)
        ff = np.ones_like(s)
        for i, a in enumerate(self.coeffs):
            total = total + a * ff
            ff = ff * (s - i)
        return total


def _char_monomials(coeffs) -> tuple:
    """sum_i a_i s(s-1)...(s-i+1) in monomial coefficients, lowest degree first."""
    mono = np.zeros(len(coeffs))
    ff = np.ones(1)  # s(s-1)...(s-i+1), lowest degree first
    for i, a in enumerate(coeffs):
        mono[: ff.size] += a * ff
        ff = np.append(0.0, ff) - i * np.append(ff, 0.0)  # times (s - i)
    return tuple(mono.tolist())


def _char_roots(c) -> tuple:
    """Roots of the characteristic polynomial with monomial coefficients c.

    Closed forms for degree n <= 2; companion-matrix eigenvalues
    (numpy.polynomial) plus one Newton step for n >= 3.
    """
    n = len(c) - 1
    if n == 0:
        return ()
    if abs(c[-1]) == 0.0:
        raise DegenerateLeadingError("leading coefficient a_n vanishes")
    if n == 1:
        return (complex(-c[0] / c[1]),)
    if n == 2:
        a, b, cc = c[2], c[1], c[0]
        sq = cmath.sqrt(b * b - 4.0 * a * cc)
        # stable quadratic formula
        qq = -0.5 * (b + (sq if b >= 0 else -sq))
        r1 = qq / a
        r2 = cc / qq if qq != 0 else 0.0 + 0.0j
        return (complex(r1), complex(r2))
    # imported here: it costs about 4 ms, and only n >= 3 needs it
    from numpy.polynomial import polynomial as P

    roots = P.polyroots(c)
    deriv = P.polyder(c)
    refined = []
    for r in roots:
        pv = P.polyval(r, c)
        dv = P.polyval(r, deriv)
        if dv != 0:
            r = r - pv / dv  # one Newton step
        refined.append(complex(r))
    return tuple(refined)


def euler_apply(op: EulerPolynomialOperator, series: FracPowerSeries) -> FracPowerSeries:
    """Apply the operator termwise: c_j -> c_j * P(gamma0 + rho j), exponents + m."""
    new = np.asarray(series.coeffs) * op.char_value(series.exponents())
    return FracPowerSeries(series.gamma0 + op.time_weight, series.rho, tuple(new))


def gamma_product_identity_check(a: float, m: int, b) -> tuple:
    """Both sides of the gamma product identity
    Gamma(1+ab+m)^{-1} prod_i Gamma(i/a+b+1) = (a^m Gamma(1+ab))^{-1} prod_i Gamma(i/a+b).

    Returns (lhs, rhs); raises PoleError when any argument sits on a pole.
    When either side would overflow a double, both are jointly rescaled by a
    common factor, which leaves their relative difference unchanged.
    """
    if a <= 0:
        raise ValueError("requires a > 0")
    if m < 1 or m != int(m):
        raise ValueError("m must be a positive integer")
    b = complex(b)
    i = np.arange(1, m + 1)
    # Gamma(1 + ab + m), Gamma(1 + ab), Gamma(i/a + b + 1), Gamma(i/a + b)
    args = np.concatenate(([1.0 + a * b + m, 1.0 + a * b], i / a + b + 1.0, i / a + b))
    at_pole = is_nonpositive_integer(args)
    if at_pole.any():
        raise PoleError(f"gamma argument {args[at_pole][0]} at a pole")
    lg = ln_gamma_vec(args)
    # each side summed left to right, as the identity reads
    logs = np.array([sum(lg[2 : m + 2], -lg[0]), sum(lg[m + 2 :], -m * math.log(a) - lg[1])])
    shift = logs.real.max()
    lhs, rhs = (complex(v) for v in np.exp(logs - (shift if abs(shift) >= 700.0 else 0.0)))
    return (lhs.real, rhs.real) if b.imag == 0.0 else (lhs, rhs)


def align_series(sa: FracPowerSeries, sb: FracPowerSeries):
    """Index offset aligning the exponent lattices of two series.

    Returns (offset, n_overlap) such that sa.exponent(j + offset) matches
    sb.exponent(j) for 0 <= j < n_overlap.  Raises ExponentMisalignmentError
    when the lattices are incompatible, or when sb starts below sa, where
    j + offset would be negative for the first terms.
    """
    if abs(sa.rho - sb.rho) > EXPONENT_TOL * max(1.0, abs(sa.rho)):
        raise ExponentMisalignmentError(
            f"exponent steps differ: {sa.rho:g} vs {sb.rho:g}"
        )
    off = (sb.gamma0 - sa.gamma0) / sa.rho
    offset = round(off)
    if abs(off - offset) > 1e-9:
        raise ExponentMisalignmentError(
            f"leading exponents {sa.gamma0:g}, {sb.gamma0:g} not on a common lattice"
        )
    if offset < 0:
        raise ExponentMisalignmentError(
            f"second series starts at {sb.gamma0:g}, below the first at {sa.gamma0:g}"
        )
    n_overlap = min(len(sa.coeffs) - offset, len(sb.coeffs))
    return offset, max(0, n_overlap)
