"""Similarity-reduction solver for the time-fractional anomalous
diffusion equation

    D_t^alpha u = t^m (A x^d u_xx + B x^(d-1) u_x + C x^(d-2) u),  x, t > 0.

The substitution u = x^a phi(z), z = x^((d-2)/(alpha+m)) t, collapses the
PDE to the n = 2 model fractional ODE of :mod:`fracsol.ode`.  ``solve``
reduces and solves that ODE: a :class:`PdeSolution` is the problem and
its form, here the reduced :class:`fracsol.ode.OdeSolution` (Fox-H form
for 0 < alpha < 2, Wright series for alpha > 2, as ``ode.solve`` picks),
and u is x^a times that solution at ``DiffusionProblem.z(x, t)``.  At
d = 2 the reduction is the n = 0 ODE D^alpha phi = K t^m phi in z = t,
whose solutions are its Wright members for every alpha.  The alpha = 1
exponential closed form is built here directly; its form is a
:class:`ClosedFormExp`.  Every number of a problem, its constants
included, must be finite (ValueError otherwise).
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
    """alpha = 1 exponential closed form (both sign branches).

    u = c x^{-(1/2)(B/A - 1 +/- sqrt(D))} t^{-((1+m)/(d-2))(d-2 +/- sqrt(D))}
        exp(-(1+m) x^(2-d) / (A (d-2)^2 t^(1+m))),   D = (1-B/A)^2 - 4C/A.
    """
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


def evaluate(sol: PdeSolution, x: float, t: float) -> complex:
    """Evaluate a solution at a point of the open quadrant x, t > 0."""
    if x <= 0 or t <= 0:
        raise DomainError(f"(x, t) = ({x}, {t}) outside the domain x > 0, t > 0")
    form, problem = sol.form, sol.problem
    if isinstance(form, ClosedFormExp):
        return (
            problem.constant(1)
            * x**form.x_exponent
            * t**form.t_exponent
            * math.exp(-form.exp_coef * x ** (2.0 - problem.d) * t ** (-(1.0 + problem.m)))
        )
    return x**problem.a * form.evaluate(problem.z(x, t))


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
