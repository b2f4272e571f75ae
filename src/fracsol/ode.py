"""Explicit solutions of the model fractional Euler-type ODE

    D^alpha y(z) = z^m (a_n z^n y^(n) + ... + a_1 z y' + a_0 y),  z > 0.

Two branches: alpha < n gives a single Fox-H solution, alpha > n gives
[alpha]+1 generalized-Wright series members.  ``solve`` is the one place
that picks the branch; ``OdeProblem`` rejects alpha = n.  For n = 0 only
the Wright branch applies, and a_0 may have either sign.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import fracseries, wright
from .errors import (
    BranchMismatchError,
    ComplexRootsError,
    DegenerateLeadingError,
    DomainError,
    UnsupportedClassError,
)
from .foxh import HFunctionSpec, eval_mellin_barnes
from .fracseries import DEFAULT_ORDER_VERIFY, EulerPolynomialOperator, FracPowerSeries
from .wright import WrightSpec

_REAL_ROOT_TOL = 1e-9


@dataclass(frozen=True)
class OdeProblem:
    """(alpha, m, a_0..a_n) fully specifying the model equation."""

    alpha: float
    m: int
    a_coeffs: tuple  # a_0 .. a_n, leading a_n > 0 when n >= 1

    def __post_init__(self):
        object.__setattr__(self, "a_coeffs", tuple(float(a) for a in self.a_coeffs))
        if not all(map(math.isfinite, (self.alpha, self.m) + self.a_coeffs)):
            raise ValueError("alpha, m and a_coeffs must be finite")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.m < 0 or self.m != int(self.m):
            raise ValueError("m must be a non-negative integer")
        if len(self.a_coeffs) < 1:
            raise ValueError("need at least a_0")
        if self.n >= 1 and self.a_coeffs[-1] <= 0:
            raise DegenerateLeadingError("leading coefficient a_n must be positive")
        if self.alpha == self.n:
            raise BranchMismatchError(
                f"alpha = n = {self.n}: neither solution branch applies"
            )

    @property
    def n(self) -> int:
        return len(self.a_coeffs) - 1

    def operator(self) -> EulerPolynomialOperator:
        """The operator, whose P(s) = a_n s(s-1)...(s-n+1) + ... + a_1 s + a_0
        carries its expanded monomials and roots, with every root's residual
        checked against the coefficient norm: DegenerateLeadingError when
        one fails, as it does when the coefficients sit near underflow.

        Closed forms for n <= 2, companion-matrix eigenvalues plus one Newton
        step for n >= 3.
        """
        op = EulerPolynomialOperator(coeffs=self.a_coeffs, time_weight=self.m)
        norm = max(abs(c) for c in op.monomials)
        for s in op.roots:
            if abs(op.char_value(s)) > 1e-10 * norm * max(1.0, abs(s)) ** self.n:
                raise DegenerateLeadingError(f"characteristic root {s} failed its residual check")
        return op


@dataclass(frozen=True)
class SmallAlphaForm:
    """y(z) = H[ arg_coef * z^(-(alpha+m)) ] for alpha < n."""

    spec: HFunctionSpec
    arg_coef: float
    power: float  # alpha + m

    def evaluate(self, z: float) -> complex:
        w = self.arg_coef * z ** (-self.power)
        if 0.0 < w < math.inf:
            return eval_mellin_barnes(self.spec, w)
        raise DomainError(f"the H argument {w!r} at z = {z!r} passes the double range")


@dataclass(frozen=True)
class LargeAlphaMember:
    """One series member z^(alpha-k) * Psi[ lam * z^(alpha+m) ] for alpha > n."""

    k: int
    spec: WrightSpec
    lam: float
    leading_exponent: float  # alpha - k
    power: float  # alpha + m

    def evaluate(self, z: float) -> complex:
        w = self.lam * z ** self.power
        if math.isfinite(w):
            return z ** self.leading_exponent * wright.evaluate(self.spec, w)
        raise DomainError(f"the Wright argument {w!r} at z = {z!r} passes the double range")

    def series(self, order: int = DEFAULT_ORDER_VERIFY) -> FracPowerSeries:
        """Coefficient image on the lattice gamma = alpha - k, rho = alpha + m."""
        return fracseries.wright_series(
            self.spec, self.lam, self.leading_exponent, self.power, order
        )


@dataclass(frozen=True)
class OdeSolution:
    """Tagged solution: an H-form (alpha < n) or Wright members (alpha > n), each
    times its constant."""

    problem: OdeProblem
    roots: tuple
    constants: tuple
    small: SmallAlphaForm = None
    members: tuple = ()

    @property
    def branch(self) -> str:
        return "small-alpha" if self.small is not None else "large-alpha"

    def evaluate(self, z: float) -> complex:
        """The solution at z, or DomainError where a power of z, the H
        argument or the value passes the double range."""
        # a numpy float's powers warn and saturate where a float's raise OverflowError
        z = float(z)
        parts = (self.small,) if self.small is not None else self.members
        try:
            y = sum(c * part.evaluate(z) for c, part in zip(self.constants, parts))
        except OverflowError:
            y = math.inf
        if cmath.isfinite(y):
            return y
        raise DomainError(f"the solution at z = {z!r} passes the double range")


def _time_scale(problem: OdeProblem) -> float:
    """a_n (alpha + m)^(m + n), the coefficient of the solution's argument
    (its reciprocal on the H branch), or UnsupportedClassError past the double range."""
    an, rho, power = problem.a_coeffs[-1], problem.alpha + problem.m, problem.m + problem.n
    try:
        lam = an * rho**power
    except OverflowError:
        lam = math.inf
    if math.isfinite(lam):
        return lam
    raise UnsupportedClassError(
        f"a_n (alpha + m)^(m + n) = {an:g} * {rho:g}^{power} passes the double range"
    )


def _solve_small_alpha(problem: OdeProblem, roots) -> OdeSolution:
    """H-function solution for 0 < alpha < n (real characteristic roots only)."""
    if not all(abs(s.imag) <= _REAL_ROOT_TOL * max(1.0, abs(s)) for s in roots):
        raise ComplexRootsError(
            "characteristic roots are complex; the H form needs real lower parameters"
        )
    rho = problem.alpha + problem.m
    lower = tuple((-s.real / rho, 1.0) for s in roots) + tuple(
        (j / rho, 1.0) for j in range(1, problem.m + 1)
    )
    spec = HFunctionSpec(m=problem.m + problem.n, l=0, upper=((1.0, rho),), lower=lower)
    arg_coef = 1.0 / _time_scale(problem)
    small = SmallAlphaForm(spec=spec, arg_coef=arg_coef, power=rho)
    return OdeSolution(problem=problem, roots=roots, constants=(1.0,), small=small)


def wright_members(alpha: float, m: int, roots, lam: float) -> tuple:
    """The members k = 1..[alpha]+1 for characteristic roots ``roots``.

    Member k has upper parameters ((alpha-k-s)/rho, 1) for each root s,
    ((alpha-k+i)/rho, 1) for i = 1..m and (1, 1), and lower parameter
    (1+alpha-k, rho), rho = alpha + m.
    """
    rho = alpha + m
    members = []
    for k in range(1, int(math.floor(alpha)) + 2):
        upper = tuple(((alpha - k - s) / rho, 1.0) for s in roots)
        upper += tuple(((alpha - k + i) / rho, 1.0) for i in range(1, m + 1))
        upper += ((1.0, 1.0),)
        spec = WrightSpec(upper=upper, lower=((1.0 + alpha - k, rho),))
        members.append(
            LargeAlphaMember(
                k=k, spec=spec, lam=lam, leading_exponent=alpha - k, power=rho
            )
        )
    return tuple(members)


def _solve_large_alpha(problem: OdeProblem, roots) -> OdeSolution:
    """Wright-series solution members for alpha > n, k = 1..[alpha]+1."""
    members = wright_members(problem.alpha, problem.m, roots, _time_scale(problem))
    return OdeSolution(
        problem=problem, roots=roots, constants=(1.0,) * len(members), members=members
    )


def solve(problem: OdeProblem) -> OdeSolution:
    """The solution of the branch alpha < n (H form) or alpha > n (Wright
    members); the problem has already refused alpha = n."""
    roots = problem.operator().roots
    if problem.alpha < problem.n:
        return _solve_small_alpha(problem, roots)
    return _solve_large_alpha(problem, roots)
