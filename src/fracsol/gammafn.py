"""Complex log-gamma kernel, and the real digamma and trigamma (_real_psi)
of the contour's saddle equation.

Every series term and every contour-integrand evaluation in this library
funnels through the complex functions here.  The implementation is a fixed
Lanczos approximation (g = 7, 9 coefficients) valid for Re z >= 0.5,
extended to the left half-plane by the reflection formula, whose log-sin
is one overflow-safe formula.  ln_gamma_vec evaluates the reflection, and
its log-sin, on the elements with Re z < 0.5 only: the contour's kernel
arguments mostly lie right of that line.  A 0-d argument, as each Wright
series term passes, runs numpy's scalar arithmetic throughout, the Lanczos
sum included, so its value's last bits may differ from the same z's in an
array (by up to about 8e-16 relative).

Branch note: in the reflected region the imaginary part of ``ln_gamma``
may differ from the principal branch by a multiple of 2*pi.  All call
sites exponentiate sums of log-gammas, so the offset is invisible; the
principal branch is returned wherever Re z >= 0.5.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import PoleError

_LANCZOS_G = 7.0
# Python floats: indexing an ndarray would make a numpy scalar per term
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_2PI = 0.91893853320467274178
_LOG_PI = 1.1447298858494001741

#: absolute distance below which an argument counts as sitting on a pole
POLE_TOL = 1e-14
#: for the Wright series, the contour and pde.evaluate: the double
#: precision, the smallest normal double, the log of the largest double, and
#: the share of a value that its rounding, EPS times the sum of its terms'
#: moduli, may take before CancellationError
EPS = np.finfo(float).eps
TINY = float(np.finfo(float).tiny)
LOG_MAX = float(np.log(np.finfo(float).max))
CANCEL_TOL = 1e-10


def is_nonpositive_integer(z, tol: float = POLE_TOL):
    """True when z lies within ``tol`` of 0, -1, -2, ...; elementwise (a
    boolean array) when z is an ndarray."""
    if isinstance(z, np.ndarray):
        r = np.round(z.real)
        # at -inf the distance is nan, whose comparison is false
        with np.errstate(invalid="ignore"):
            return (np.abs(z.imag) <= tol) & (r <= 0) & (np.abs(z.real - r) <= tol)
    z = complex(z)
    # false on nan, inf and Re z > 1/2, as in the array branch; round()
    # then sees a finite number
    if not (abs(z.imag) <= tol and -math.inf < z.real <= 0.5):
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol


def _core(z):
    # Lanczos sum, valid for Re z >= 0.5; z is a complex ndarray.  The sum
    # starts from its first term, so on a 0-d z, which the first subtraction
    # turns into a numpy scalar, every step is scalar arithmetic
    w = z - 1.0
    x = _LANCZOS[0] + _LANCZOS[1] / (w + 1)
    for k in range(2, len(_LANCZOS)):
        x = x + _LANCZOS[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (w + 0.5) * np.log(t) - t + np.log(x)


def _log_sin_pi(z):
    # log(sin(pi z)) correct mod 2*pi*i; z is a complex ndarray.  In the
    # closed upper half-plane sin(pi z) = e^{-i pi z} (e^{2 i pi z} - 1) / (2 i)
    # with |e^{2 i pi z}| <= 1, so no factor overflows and Im of the result
    # is continuous off the real axis; the lower half-plane is its conjugate.
    flip = z.imag < 0.0
    zz = np.where(flip, np.conj(z), z)
    out = -1j * np.pi * zz + np.log1p(-np.exp(2j * np.pi * zz)) + (1j * np.pi - np.log(2j))
    return np.where(flip, np.conj(out), out)


def ln_gamma_vec(z):
    """Vectorized log Gamma on complex arrays.  No pole checking."""
    z = np.asarray(z, dtype=complex)
    refl = z.real < 0.5
    # _core returns a numpy scalar for a 0-d z
    out = np.asarray(_core(np.where(refl, 1.0 - z, z)))
    out[refl] = _LOG_PI - _log_sin_pi(z[refl]) - out[refl]
    return out


def _real_psi(x: float):
    """(psi(x), psi'(x)) for real x off the poles 0, -1, ...: recurrence up to
    x >= 6, then the asymptotic series through 1/x^14 (next terms at x = 6
    below 2e-13 of psi, 3e-12 of psi'; Abramowitz & Stegun 6.3.18, 6.4.12)."""
    psi = tri = 0.0
    while x < 6.0:
        r = 1.0 / x
        psi -= r
        tri += r * r
        x += 1.0
    r = 1.0 / x
    v = r * r
    psi += math.log(x) - 0.5 * r - v * (1 / 12 - v * (1 / 120 - v * (1 / 252 - v * (
        1 / 240 - v * (1 / 132 - v * (691 / 32760 - v / 12))))))
    tri += r + v * (0.5 + r * (1 / 6 - v * (1 / 30 - v * (1 / 42 - v * (1 / 30 - v * (
        5 / 66 - v * (691 / 2730 - v * 7 / 6)))))))
    return psi, tri


def ln_gamma(z) -> complex:
    """log Gamma(z) for complex z, raising PoleError on the poles."""
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValueError(f"ln_gamma requires finite argument, got {z}")
    if is_nonpositive_integer(z):
        raise PoleError(f"ln_gamma pole at z = {z}")
    return complex(ln_gamma_vec(z))


def gamma(z) -> complex:
    """Gamma(z) via exp(ln_gamma(z))."""
    return np.exp(ln_gamma(z))


def gamma_reciprocal(z) -> complex:
    """1 / Gamma(z); entire, returns exactly 0 at the poles of Gamma."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"gamma_reciprocal requires finite argument, got {z}")
    if is_nonpositive_integer(z):
        return 0.0 + 0.0j
    return complex(np.exp(-ln_gamma_vec(z)))


def gamma_ratio(p, q):
    """Gamma(p) / Gamma(q) for real p, q, elementwise over broadcast arrays
    (a float for two scalars).

    A pole of the denominator sends the ratio to 0 (the Riemann-Liouville
    kernel convention); a pole of the numerator raises PoleError.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    at_pole = is_nonpositive_integer(p)
    if at_pole.any():
        raise PoleError(f"gamma_ratio numerator pole at p = {p[at_pole].flat[0]}")
    dead = is_nonpositive_integer(q)
    val = np.where(dead, 0.0, np.exp(ln_gamma_vec(p) - ln_gamma_vec(np.where(dead, 1.0, q))).real)
    return float(val) if val.ndim == 0 else val
