"""Reference values computed apart from fracsol.

Nothing here imports fracsol.  Three independent paths:

- Fox H values of the l = 0, m = q class (the only class the solvers emit)
  by the Mellin-Barnes integral, summed with scipy's log-gamma on a
  contour through the real saddle, with its own step and truncation.  The
  same integral with a polynomial factor P(s) gives z H'(z), z^2 H''(z)
  and their combinations, which the exact spatial operator and time
  derivative of a solution need.
- Generalized Wright and Mittag-Leffler series summed by mpmath at 40
  significant digits, so cancellation in double precision cannot reach
  them.
- Closed forms: exp, cosh, cos and exp(x^2) erfc(x).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.optimize import brentq
from scipy.special import loggamma, polygamma, psi

#: working precision of the mpmath series references, in digits
MP_DPS = 40

# trapezoid step as a fraction of the distance from the contour to the
# nearest pole: the discretisation error is about exp(-2 pi * 12) ~ 1e-33
_STEPS_PER_POLE_DISTANCE = 12.0
# the contour never sits closer than this to the first pole
_MIN_POLE_DISTANCE = 0.25
# truncate once the integrand is this many e-folds below its peak (~1e-22)
_TAIL_EFOLDS = 50.0


# --------------------------------------------------------------------------
# Fox H by the Mellin-Barnes integral

def _log_kernel(lower, upper, s):
    """log of prod Gamma(b_j - beta_j s) / prod Gamma(a_i - alpha_i s)."""
    out = np.zeros_like(s)
    for b, be in lower:
        out = out + loggamma(b - be * s)
    for a, al in upper:
        out = out - loggamma(a - al * s)
    return out


def _saddle(lower, upper, log_z, right):
    """Real minimum of log|kernel(sigma) z^sigma| left of ``right``."""

    def dphi(sigma):
        val = log_z
        for b, be in lower:
            val -= be * psi(b - be * sigma)
        for a, al in upper:
            val += al * psi(a - al * sigma)
        return val

    hi = right - 1e-12
    if dphi(hi) <= 0.0:
        return None
    lo = right - 1.0
    while dphi(lo) > 0.0:
        lo = right - 2.0 * (right - lo)
        if right - lo > 1e6:
            return None
    return brentq(dphi, lo, hi, xtol=1e-12, rtol=1e-14)


def fox_h(lower, upper, z, poly=(1.0,)):
    """H^{q,0}_{p,q}[z | (a_i, alpha_i); (b_j, beta_j)] at real z > 0.

    With ``poly`` = (c_0, c_1, ...) the kernel is multiplied by
    P(s) = sum c_k s^k; since (z d/dz) z^s = s z^s, P(s) = s gives z H'(z)
    and s(s - 1) gives z^2 H''(z).  All lower parameters belong to the
    m-group and the upper ones to the denominator, which is the class of
    every solver-built spec.
    """
    if z <= 0:
        raise ValueError("fox_h requires z > 0")
    lower = [(float(b), float(be)) for b, be in lower]
    upper = [(float(a), float(al)) for a, al in upper]
    omega = sum(be for _, be in lower) - sum(al for _, al in upper)
    if omega <= 0:
        raise ValueError("the Mellin-Barnes integral needs omega > 0")
    log_z = math.log(z)
    first_pole = min(b / be for b, be in lower)
    # 1/Gamma(a - alpha s) has its first real zero at a / alpha; the saddle
    # analysis holds only where the kernel has no real zeros
    right = min([first_pole] + [a / al for a, al in upper])
    sigma = _saddle(lower, upper, log_z, right)
    if sigma is None:
        sigma = right - 1.0
    sigma = min(sigma, first_pole - _MIN_POLE_DISTANCE)
    # the step must resolve both the nearest pole and the width of the
    # integrand's peak: shifting the line by delta toward the pole raises
    # the integrand by about exp(phi'' delta^2 / 2), so h = 0.5 / sqrt(phi'')
    # keeps the discretisation error near exp(-2 pi^2 / (0.25)) ~ 1e-34
    curvature = sum(be * be * polygamma(1, b - be * sigma) for b, be in lower) - sum(
        al * al * polygamma(1, a - al * sigma) for a, al in upper
    )
    h = (first_pole - sigma) / _STEPS_PER_POLE_DISTANCE
    if curvature > 0:
        h = min(h, 0.5 / math.sqrt(curvature))

    def log_f(tau):
        s = sigma + 1j * np.asarray(tau, dtype=float)
        out = _log_kernel(lower, upper, s) + s * log_z
        if tuple(poly) != (1.0,):
            out = out + np.log(np.polynomial.polynomial.polyval(s, poly).astype(complex))
        return out

    # the integrand decays like exp(-pi omega tau / 2); grow T until the
    # tail is negligible against the largest value seen
    T = 8.0 / omega + 8.0
    while True:
        coarse = log_f(np.linspace(0.0, T, 400)).real
        if coarse[-40:].max() < coarse.max() - _TAIL_EFOLDS:
            break
        T *= 1.5
    n = int(math.ceil(T / h))
    tau = np.arange(n + 1) * h
    lf = log_f(tau)
    peak = float(lf.real.max())
    vals = np.exp(lf - peak).real
    vals[0] *= 0.5
    # conjugate symmetry folds the line integral onto tau >= 0
    return math.exp(peak) * h / math.pi * float(math.fsum(vals))


def h_form_lower(s_roots, rho, m):
    """Lower parameters (-s_j / rho, 1), (j / rho, 1) of the H-form solution."""
    return [(-s / rho, 1.0) for s in s_roots] + [(j / rho, 1.0) for j in range(1, m + 1)]


def diffusion_roots(alpha, m, d, A, B, C, a):
    """Root pair s_{1,2} of the reduced characteristic equation (paper's formula)."""
    rho = alpha + m
    disc = (1.0 - B / A) ** 2 - 4.0 * C / A
    sq = math.sqrt(disc)
    pref = rho / (2.0 * (2.0 - d))
    return pref * (B / A + 2.0 * a - 1.0 + sq), pref * (B / A + 2.0 * a - 1.0 - sq)


def _h_form_integral(problem, x, t, poly):
    """The H-form's Mellin-Barnes integral with kernel factor P(s)."""
    alpha, m, d, A = problem["alpha"], problem["m"], problem["d"], problem["A"]
    rho = alpha + m
    roots = diffusion_roots(alpha, m, d, A, problem["B"], problem["C"], problem["a"])
    z = x ** (2.0 - d) * t ** (-rho) / (A * (d - 2.0) ** 2 * rho**m)
    return fox_h(h_form_lower(roots, rho, m), [(1.0, rho)], z, poly)


def pde_value(problem, x, t):
    """Reference H-form solution u = x^a H[x^(2-d) t^-rho / (A (d-2)^2 rho^m)], c_1 = 1."""
    return x ** problem["a"] * _h_form_integral(problem, x, t, (1.0,))


def _operator_poly(problem):
    """Q(s) with t^m (A x^d u_xx + B x^(d-1) u_x + C x^(d-2) u) = t^m x^(a+d-2) I_Q.

    With z = k x^e t^-rho (e = 2 - d) and u = x^a H(z):
      x u_x = x^a I_(a + e s),
      x^2 u_xx = x^a I_(a(a-1) + e(2a + e - 1) s + e^2 s(s-1)).
    """
    d, A, B, C, a = problem["d"], problem["A"], problem["B"], problem["C"], problem["a"]
    e = 2.0 - d
    c0 = A * a * (a - 1.0) + B * a + C
    c1 = A * (e * (2.0 * a + e - 1.0) - e * e) + B * e
    c2 = A * e * e
    return (c0, c1, c2)


def pde_spatial_operator(problem, x, t):
    """Exact t^m (A x^d u_xx + B x^(d-1) u_x + C x^(d-2) u) of the H-form.

    By the solution property this equals D_t^alpha u.
    """
    m, d, a = problem["m"], problem["d"], problem["a"]
    I = _h_form_integral(problem, x, t, _operator_poly(problem))
    return t**m * x ** (a + d - 2.0) * I


def pde_gl_reference(problem, x, t, h):
    """Expected first-order Grunwald-Letnikov value of D_t^alpha u at step h.

    For a function flat at t = 0 the GL sum expands as
      GL_h f = D^a f - (a/2) h D^(a+1) f + (a (3a + 1) / 24) h^2 D^(a+2) f + O(h^3),
    from (1 - e^(-x))^a / x^a = 1 - a x / 2 + a (3a + 1) x^2 / 24 - ...
    Here D^(a+k) u = (d/dt)^k (L u), and since t d/dt z^s = -rho s z^s,
    d/dt (t^n I_P) = t^(n-1) I_((n - rho s) P).
    Returns (expected GL value, exact D^alpha u).
    """
    alpha, m, d, a = problem["alpha"], problem["m"], problem["d"], problem["a"]
    rho = alpha + m
    pp = np.polynomial.polynomial
    q0 = np.asarray(_operator_poly(problem), dtype=float)
    q1 = pp.polymul((float(m), -rho), q0)
    q2 = pp.polymul((float(m) - 1.0, -rho), q1)
    pref = x ** (a + d - 2.0)
    lu = pref * t**m * _h_form_integral(problem, x, t, tuple(q0))
    dlu = pref * t ** (m - 1.0) * _h_form_integral(problem, x, t, tuple(q1))
    d2lu = pref * t ** (m - 2.0) * _h_form_integral(problem, x, t, tuple(q2))
    expected = lu - 0.5 * alpha * h * dlu + alpha * (3.0 * alpha + 1.0) / 24.0 * h * h * d2lu
    return expected, lu


def ode_value(problem, z):
    """Reference small-alpha ODE solution H[z^-rho / (a_n rho^(m+n))], c_1 = 1."""
    alpha, m = problem["alpha"], problem["m"]
    coeffs = problem["a_coeffs"]
    n = len(coeffs) - 1
    rho = alpha + m
    # P(s) = sum_i a_i s (s-1) ... (s-i+1), expanded into monomials
    poly = np.zeros(1)
    falling = np.array([1.0])
    for i, ai in enumerate(coeffs):
        poly = np.polynomial.polynomial.polyadd(poly, ai * falling)
        falling = np.polynomial.polynomial.polymul(falling, [-float(i), 1.0])
    roots = np.polynomial.polynomial.polyroots(poly)
    if np.max(np.abs(roots.imag)) > 1e-9:
        raise ValueError("reference covers real characteristic roots only")
    lower = h_form_lower(roots.real, rho, m)
    arg = z ** (-rho) / (coeffs[-1] * rho ** (m + n))
    return fox_h(lower, [(1.0, rho)], arg)


def alpha1_ratio(problem):
    """Predicted H-form / exp-closed-form ratio for alpha = 1 at the special a.

    With a = (1 + sqrt(D) - B/A - 2(2-d)) / 2 one lower parameter of the
    H-form equals 1, Gauss multiplication cancels the denominator, and
    H(z) = (2 pi)^(m/2) rho^(-1/2) (q z')^(b_1) e^(-q z') with q z' the
    closed form's exponent.  The ratio to the sign = +1 closed form is the
    constant (2 pi)^(m/2) rho^(-1/2) q^(b_1).
    """
    m, d, A, B, C = problem["m"], problem["d"], problem["A"], problem["B"], problem["C"]
    rho = 1.0 + m
    sq = math.sqrt((1.0 - B / A) ** 2 - 4.0 * C / A)
    q = rho / (A * (d - 2.0) ** 2)
    b1 = 1.0 - sq / (2.0 - d)
    return (2.0 * math.pi) ** (m / 2.0) / math.sqrt(rho) * q**b1


# --------------------------------------------------------------------------
# Wright and Mittag-Leffler series at extended precision

def wright_series(upper, lower, z, max_terms=4000):
    """pPsiq[(a_i, alpha_i); (b_j, beta_j) | z] summed by mpmath.

    Returns (value, condition) with
    condition = sum_k |t_k| (1 + kappa_k) / |sum t_k|, where
    kappa_k = sum over the term's gamma arguments g of |g psi(g)| is the
    term's relative sensitivity to relative changes in g.  It is the factor
    by which relative errors of the size of double rounding, in the terms
    and in the gamma arguments a_i + alpha_i k, b_j + beta_j k, reach the
    sum: near a pole of Gamma, one ulp in an argument moves the term by
    thousands of ulps, whichever code computes it.
    """
    with mpmath.workdps(MP_DPS):
        z = mpmath.mpmathify(z)
        total = mpmath.mpc(0)
        abs_total = mpmath.mpf(0)
        small = 0
        for k in range(max_terms):
            term = mpmath.power(z, k) / mpmath.factorial(k) if k else mpmath.mpf(1)
            kappa = mpmath.mpf(1)
            for a, al in upper:
                g = mpmath.mpmathify(a) + al * k
                term *= mpmath.gamma(g)
                kappa += abs(g * mpmath.digamma(g))
            for b, be in lower:
                g = mpmath.mpmathify(b) + be * k
                term *= mpmath.rgamma(g)
                if term != 0:
                    kappa += abs(g * mpmath.digamma(g))
            total += term
            abs_total += abs(term) * kappa
            if k > 2 and abs(term) < mpmath.mpf(10) ** (-MP_DPS) * abs(total):
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
        else:
            raise ArithmeticError("reference Wright series did not converge")
        cond = abs_total / abs(total) if total != 0 else mpmath.inf
        return complex(total), float(cond)


def mittag_leffler(alpha, beta, z):
    """E_{alpha,beta}(z) = sum z^k / Gamma(alpha k + beta) and its condition."""
    return wright_series([(1.0, 1.0)], [(beta, alpha)], z)


def wright_pde_members(problem):
    """Wright-series members (upper, lower, arg_coef, x_exp, x_arg_exp, t_exp).

    Built from the paper's formulas: for d != 2 the upper parameters are
    ((alpha-k-s_j)/rho, 1), ((alpha-k+i)/rho, 1), (1, 1) with argument
    A (d-2)^2 rho^m x^(d-2) t^rho; for d = 2 the root parameters drop
    out and the argument is K rho^m t^rho with K = A a^2 - A a + B a + C.
    """
    alpha, m, d = problem["alpha"], problem["m"], problem["d"]
    A, B, C, a = problem["A"], problem["B"], problem["C"], problem["a"]
    rho = alpha + m
    out = []
    for k in range(1, int(math.floor(alpha)) + 2):
        tail = [((alpha - k + i) / rho, 1.0) for i in range(1, m + 1)] + [(1.0, 1.0)]
        lower = [(1.0 + alpha - k, rho)]
        if d == 2:
            K = A * a * a - A * a + B * a + C
            out.append((tail, lower, K * rho**m, a, 0.0, alpha - k))
        else:
            disc = complex((1.0 - B / A) ** 2 - 4.0 * C / A)
            sq = disc**0.5
            pref = rho / (2.0 * (2.0 - d))
            roots = [pref * (B / A + 2.0 * a - 1.0 + sq), pref * (B / A + 2.0 * a - 1.0 - sq)]
            upper = [((alpha - k - s) / rho, 1.0) for s in roots] + tail
            out.append(
                (upper, lower, A * (d - 2.0) ** 2 * rho**m,
                 a + (d - 2.0) * (alpha - k) / rho, d - 2.0, alpha - k)
            )
    return out


def wright_pde_value(problem, x, t):
    """Reference Wright-series solution with c_k = 1, and its condition."""
    total = 0j
    abs_total = 0.0
    for upper, lower, lam, x_exp, x_arg_exp, t_exp in wright_pde_members(problem):
        z = lam * x**x_arg_exp * t ** (problem["alpha"] + problem["m"])
        val, cond = wright_series(upper, lower, z)
        pref = x**x_exp * t**t_exp
        total += pref * val
        abs_total += abs(pref * val) * cond
    return total, abs_total / abs(total)


def wright_coefficients(upper, lower, lam, n):
    """Series coefficients lam^j prod Gamma(a_i + alpha_i j) / (j! prod Gamma(b + beta j))."""
    out = []
    with mpmath.workdps(MP_DPS):
        for j in range(n):
            c = mpmath.power(lam, j) / mpmath.factorial(j)
            for a, al in upper:
                c *= mpmath.gamma(mpmath.mpmathify(a) + al * j)
            for b, be in lower:
                c *= mpmath.rgamma(mpmath.mpmathify(b) + be * j)
            out.append(complex(c))
    return out


# --------------------------------------------------------------------------
# closed forms

def ml_closed_form(kind, x):
    """Closed forms of Mittag-Leffler reductions at real x.

    exp:  E_{1,1}(x)     = exp(x)
    cosh: E_{2,1}(x^2)   = cosh(x)
    cos:  E_{2,1}(-x^2)  = cos(x)
    erfc: E_{1/2,1}(-x)  = exp(x^2) erfc(x)
    """
    if kind == "exp":
        return math.exp(x)
    if kind == "cosh":
        return math.cosh(x)
    if kind == "cos":
        return math.cos(x)
    if kind == "erfc":
        return float(mpmath.exp(x * x) * mpmath.erfc(x))
    raise ValueError(f"unknown closed form {kind!r}")
