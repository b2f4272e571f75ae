"""Similarity-reduction solver for the time-fractional anomalous
diffusion equation

    D_t^alpha u = t^m (A x^d u_xx + B x^(d-1) u_x + C x^(d-2) u),  x, t > 0.

The substitution u = x^a phi(z), z = x^((d-2)/(alpha+m)) t, collapses the
PDE to the n = 2 model fractional ODE of :mod:`fracsol.ode`, or at d = 2
to the n = 0 ODE D^alpha phi = K t^m phi in z = t, solved by its Wright
members.  A :class:`PdeSolution` from ``solve`` holds the problem and the
reduced :class:`fracsol.ode.OdeSolution`; at alpha = 1 one from
``exp_closed_form`` holds a :class:`ClosedFormExp`.  ``evaluate`` takes
either as a phase and log u, so x^a and the power of x in z do not count
against the double range; z, the H or Wright argument, phi and u do, and
so does a phi below the normal range that x^a > 1 lifts.  A problem's
numbers and constants must be finite (ValueError otherwise).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from . import ode
from .errors import (
    BranchMismatchError,
    ComplexRootsError,
    DegenerateDError,
    DomainError,
)
from .fracseries import DEFAULT_ORDER_VERIFY
from .gammafn import LOG_MAX, TINY


@dataclass(frozen=True)
class DiffusionProblem:
    """(alpha, m, d, A, B, C, a, constants) specifying the diffusion equation."""

    alpha: float
    m: int
    d: float
    A: float
    B: float = 0.0
    C: float = 0.0
    a: float = 0.0
    constants: tuple = None

    def __post_init__(self):
        if self.constants is not None:
            object.__setattr__(self, "constants", tuple(complex(c) for c in self.constants))
        numbers = (self.alpha, self.m, self.d, self.A, self.B, self.C, self.a)
        if not all(map(cmath.isfinite, numbers + (self.constants or ()))):
            raise ValueError("the problem's numbers and constants must be finite")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.m < 0 or self.m != int(self.m):
            raise ValueError("m must be a non-negative integer")
        if self.A <= 0:
            raise ValueError("A must be positive")

    @property
    def K(self) -> float:
        return self.A * self.a**2 - self.A * self.a + self.B * self.a + self.C

    @property
    def rho(self) -> float:
        return self.alpha + self.m

    def z(self, x: float, t: float) -> float:
        """The reduced variable z = x^((d-2)/rho) t of the ansatz u = x^a phi(z)."""
        return x ** ((self.d - 2.0) / self.rho) * t

    def reported(self, u: complex):
        """u, or its real part when every constant is real."""
        return u.real if all(c.imag == 0 for c in self.constants or ()) else u

    def constant(self, k: int) -> complex:
        """c_k (1-based); 1 when not supplied.  Extra constants are ignored."""
        if self.constants is None or k - 1 >= len(self.constants):
            return 1.0 + 0.0j
        return self.constants[k - 1]


def s_roots(problem: DiffusionProblem):
    """The closed-form root pair of the reduced characteristic equation.

    s_{1,2} = (alpha+m)/(2(2-d)) * (B/A + 2a - 1 +/- sqrt((1-B/A)^2 - 4C/A)).
    """
    if problem.d == 2:
        raise DegenerateDError("s_roots undefined for d = 2: the reduced ODE has n = 0")
    A, B, C, a = problem.A, problem.B, problem.C, problem.a
    disc = (1.0 - B / A) ** 2 - 4.0 * C / A
    sq = cmath.sqrt(disc)
    pref = problem.rho / (2.0 * (2.0 - problem.d))
    s1 = pref * ((B / A + 2.0 * a - 1.0) + sq)
    s2 = pref * ((B / A + 2.0 * a - 1.0) - sq)
    return complex(s1), complex(s2)


def similarity_reduce(problem: DiffusionProblem) -> ode.OdeProblem:
    """The OdeProblem of the reduced equation in problem.z: n = 2, or n = 0
    with a_0 = K at d = 2, where a_2 and a_1 vanish."""
    A, B, d, a = problem.A, problem.B, problem.d, problem.a
    rho = problem.rho
    a2 = A * (d - 2.0) ** 2 / rho**2
    a1 = ((d - 2.0) / rho) * (A * (d - 2.0) / rho + B + A * (2.0 * a - 1.0))
    a_coeffs = (problem.K, a1, a2) if d != 2 else (problem.K,)
    return ode.OdeProblem(alpha=problem.alpha, m=problem.m, a_coeffs=a_coeffs)


@dataclass(frozen=True)
class ClosedFormExp:
    """u = c x^x_exponent t^t_exponent exp(-exp_coef x^(2-d) t^-(1+m))."""

    x_exponent: float
    t_exponent: float
    exp_coef: float


@dataclass(frozen=True)
class PdeSolution:
    """Constructed solution of a diffusion problem: the reduced ODE's
    solution, u = x^a form(problem.z(x, t)), or the alpha = 1 exponential
    closed form."""

    problem: DiffusionProblem
    form: object  # ode.OdeSolution | ClosedFormExp


def solve(problem: DiffusionProblem) -> PdeSolution:
    """Reduce to the ODE (n = 0 at d = 2, else n = 2) and solve it, with
    the problem's constants c_k on the ODE solution's members.

    Complex characteristic roots follow the ODE's policy: the H form
    (alpha < 2) raises ComplexRootsError, the Wright members (alpha > 2)
    carry complex parameters.  alpha = 2 with d != 2 reduces to an ODE with
    alpha = n, which raises BranchMismatchError.
    """
    ode_sol = ode.solve(similarity_reduce(problem))
    constants = tuple(problem.constant(k) for k in range(1, len(ode_sol.constants) + 1))
    return PdeSolution(problem, replace(ode_sol, constants=constants))


def exp_closed_form(problem: DiffusionProblem, sign: int = +1) -> PdeSolution:
    """alpha = 1 exponential closed form, sign +1 or -1 picking the branch.

    u = c x^{-(1/2)(B/A - 1 +/- sqrt(D))} t^{-((1+m)/(d-2))(d-2 +/- sqrt(D))}
        exp(-(1+m) x^(2-d) / (A (d-2)^2 t^(1+m))),   D = (1-B/A)^2 - 4C/A.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, not {sign!r}")
    if problem.alpha != 1:
        raise BranchMismatchError("exp closed form requires alpha = 1")
    if problem.d == 2:
        raise DegenerateDError("exp closed form requires d != 2")
    A, B, C, d, m = problem.A, problem.B, problem.C, problem.d, problem.m
    disc = (1.0 - B / A) ** 2 - 4.0 * C / A
    if disc < 0:
        raise ComplexRootsError(f"discriminant {disc:g} < 0: the roots are complex")
    sq = sign * math.sqrt(disc)
    x_exp = -0.5 * (B / A - 1.0 + sq)
    t_exp = -((1.0 + m) / (d - 2.0)) * (d - 2.0 + sq)
    q = (1.0 + m) / (A * (d - 2.0) ** 2)
    form = ClosedFormExp(x_exponent=x_exp, t_exponent=t_exp, exp_coef=q)
    return PdeSolution(problem=problem, form=form)


def _exp(v: float) -> float:
    return math.exp(v) if v < LOG_MAX else math.inf


def evaluate(sol: PdeSolution, x: float, t: float) -> complex:
    """u = c e^(log u) at x, t > 0, taken as Python floats: the closed form's
    c and sum of logs, or c = phi/|phi| and log u = a log x + log|phi|, phi =
    form(z).  DomainError names z, the H or Wright argument, phi or u that
    passes the double range, or a phi below the normal range that x^a > 1
    lifts, where u is unknown; a u below the range is 0."""
    x, t = float(x), float(t)
    if not (0.0 < x < math.inf and 0.0 < t < math.inf):
        raise DomainError(f"(x, t) = ({x}, {t}) outside the domain x > 0, t > 0")
    form, problem, log_x, log_t = sol.form, sol.problem, math.log(x), math.log(t)
    if isinstance(form, ClosedFormExp):
        inner = _exp((2.0 - problem.d) * log_x - (1.0 + problem.m) * log_t)
        c = problem.constant(1)
        log_u = form.x_exponent * log_x + form.t_exponent * log_t - form.exp_coef * inner
    else:
        log_power = (problem.d - 2.0) / problem.rho * log_x
        log_z = log_power + log_t
        # z by pow, or by e^(log z) where x's power alone passes the double range
        z = problem.z(x, t) if abs(log_power) < LOG_MAX else _exp(log_z)
        if not 0.0 < z < math.inf:
            raise DomainError(f"z = e^{log_z:.6g} passes the double range at (x, t) = ({x!r}, {t!r})")
        phi, log_xa = form.evaluate(z), problem.a * log_x
        if abs(phi) < TINY and log_xa > 0.0:
            raise DomainError(f"phi(z) = {phi:.6g} at z = {z:.6g} lies below the normal range, and "
                              f"x^a = e^{log_xa:.6g} lifts it, at (x, t) = ({x!r}, {t!r})")
        c, log_u = (phi / abs(phi), log_xa + math.log(abs(phi))) if phi else (phi, 0.0)
    u = c * _exp(log_u)
    if cmath.isfinite(u):
        return u
    what = (f"x^{form.x_exponent:g} t^{form.t_exponent:g} exp(-k x^(2-d) t^-(1+m))"
            if isinstance(form, ClosedFormExp) else f"x^a phi(z) at z = {z:.6g}")
    raise DomainError(f"{what} passes the double range at (x, t) = ({x!r}, {t!r})")


def series_members(sol: PdeSolution, order: int = DEFAULT_ORDER_VERIFY):
    """Coefficient images of the Wright members in the reduced variable,
    paired with the Euler operator of the reduced equation.

    Returns a list of (FracPowerSeries, EulerPolynomialOperator).  The
    series live on the lattice gamma = alpha - k, rho = alpha + m of the
    reduced variable z; the operator encodes the right side of the reduced
    ODE (for d = 2 the constant K with time weight m).
    """
    form = sol.form
    if isinstance(form, ClosedFormExp) or form.small is not None:
        raise ValueError("series_members needs a Wright-series solution")
    op = form.problem.operator()
    return [(mem.series(order), op) for mem in form.members]
