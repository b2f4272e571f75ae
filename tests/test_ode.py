"""Tests for the fractional ODE solver: characteristic polynomial, the H-form
branch (order below n) and the Wright-series branch (order above n)."""

import math

import pytest
from numpy.testing import assert_allclose

from fracsol import foxh, fracseries, wright
from fracsol.errors import (
    BranchMismatchError,
    ComplexRootsError,
    DegenerateLeadingError,
)
from fracsol.fracseries import euler_apply, rl_derivative
from fracsol.ode import OdeProblem, solve, wright_members
from fracsol.verify import residual_ode_coefficients


class TestOdeProblem:
    def test_rejects_nonpositive_leading(self):
        with pytest.raises(DegenerateLeadingError):
            OdeProblem(alpha=0.5, m=0, a_coeffs=(0.0, -1.0))

    def test_rejects_alpha_equal_n(self):
        with pytest.raises(BranchMismatchError):
            solve(OdeProblem(alpha=2.0, m=0, a_coeffs=(0.0, 0.0, 1.0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["alpha", "m", "a_0", "a_n"])
def test_non_finite_number_refused(field, bad):
    fields = {"alpha": 0.5, "m": 0, "a_coeffs": (0.0, 1.0)}
    if field.startswith("a_"):
        fields["a_coeffs"] = (bad, 1.0) if field == "a_0" else (0.0, bad)
    else:
        fields[field] = bad
    with pytest.raises(ValueError, match="finite"):
        OdeProblem(**fields)


class TestCharacteristicPoly:
    def test_pure_second_order(self):
        # a2 z^2 y'': P(s) = s(s-1), roots {0, 1}
        cp = OdeProblem(alpha=0.5, m=0, a_coeffs=(0.0, 0.0, 1.0)).operator()
        assert sorted(r.real for r in cp.roots) == pytest.approx([0.0, 1.0])

    def test_linear(self):
        # a1 z y' - 2 y: P(s) = s - 2
        cp = OdeProblem(alpha=0.5, m=0, a_coeffs=(-2.0, 1.0)).operator()
        assert [complex(r) for r in cp.roots] == pytest.approx([2.0 + 0j])

    def test_double_root(self):
        # z^2 y'' + z y': P(s) = s(s-1) + s = s^2, double root 0
        cp = OdeProblem(alpha=0.5, m=0, a_coeffs=(0.0, 1.0, 1.0)).operator()
        assert [complex(r) for r in cp.roots] == pytest.approx([0.0 + 0j, 0.0 + 0j])


class TestSmallAlphaBranch:
    def test_structure(self):
        # n=2, m=1, alpha=0.8: q = m+n = 3, argument divisor a2 * 1.8^3
        prob = OdeProblem(alpha=0.8, m=1, a_coeffs=(0.0, 0.0, 1.0))
        sol = solve(prob)
        spec = sol.small.spec
        assert (spec.m, spec.l, spec.p, spec.q) == (3, 0, 1, 3)
        assert spec.upper == ((1.0, pytest.approx(1.8)),)
        assert sol.small.arg_coef == pytest.approx(1.0 / 1.8**3)

    def test_lower_parameters(self):
        # roots {0, 1} of a2 z^2 y'': lower entries (-s_j/rho, 1)
        prob = OdeProblem(alpha=0.5, m=0, a_coeffs=(0.0, 0.0, 1.0))
        sol = solve(prob)
        firsts = sorted(b for b, _ in sol.small.spec.lower)
        assert firsts == pytest.approx([-1 / 0.5, 0.0])

    def test_h_kernel_decay(self):
        # the H-function underlying the solution decays at large argument
        prob = OdeProblem(alpha=0.8, m=1, a_coeffs=(0.0, 0.0, 1.0))
        sol = solve(prob)
        spec = sol.small.spec
        v5 = abs(foxh.eval_mellin_barnes(spec, 5.0))
        v10 = abs(foxh.eval_mellin_barnes(spec, 10.0))
        assert v10 < v5

    def test_complex_roots_rejected(self):
        # z^2 y'' - z y' + y: P(s) = s^2 - 2s + 1... use one with complex roots:
        # P(s) = s(s-1) + s + 1 = s^2 + 1, roots +-i
        prob = OdeProblem(alpha=0.5, m=0, a_coeffs=(1.0, 1.0, 1.0))
        with pytest.raises(ComplexRootsError):
            solve(prob)


class TestLargeAlphaBranch:
    def test_member_count(self):
        prob = OdeProblem(alpha=2.5, m=0, a_coeffs=(0.0, 0.0, 1.0))
        sol = solve(prob)
        assert len(sol.members) == 3  # floor(2.5) + 1

    def test_leading_exponents(self):
        # member k has prefactor z^{alpha-k}; k=1 gives gamma0 = 1.5, rho = 2.5
        prob = OdeProblem(alpha=2.5, m=0, a_coeffs=(0.0, 0.0, 1.0))
        sol = solve(prob)
        s = sol.members[0].series(order=5)
        assert s.gamma0 == pytest.approx(1.5)
        assert s.rho == pytest.approx(2.5)

    def test_series_entire(self):
        # Delta = (alpha+m) - (n+m+1) = alpha - n - 1 > -1 whenever alpha > n
        prob = OdeProblem(alpha=2.5, m=1, a_coeffs=(0.0, 0.0, 1.0))
        sol = solve(prob)
        for member in sol.members:
            verdict = wright.convergence(member.spec)
            assert verdict.delta == pytest.approx(prob.alpha - prob.n - 1)
            assert verdict.radius == math.inf

    @pytest.mark.parametrize("k_idx", [0, 1, 2])
    def test_coefficient_residual(self, k_idx):
        # the solution property at coefficient level: D^alpha u matches the Euler-operator
        # image of u termwise
        # a_1 = 0.3 keeps the characteristic roots {0, 0.7} clear of the
        # degenerate coincidence s_i = alpha - k (which poles the k-th member)
        prob = OdeProblem(alpha=2.5, m=1, a_coeffs=(0.0, 0.3, 1.0))
        sol = solve(prob)
        member = sol.members[k_idx]
        u = member.series(order=25)
        lhs = rl_derivative(u, prob.alpha)
        rhs_series = euler_apply(prob.operator(), u)
        # align: euler image exponents sit one rho-step above the lhs start
        worst = 0.0
        for j in range(20):
            a = complex(lhs.coeffs[j + 1])
            b = complex(rhs_series.coeffs[j])
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
        assert worst < 1e-10

    def test_member_eval_matches_series(self):
        # two independent summation paths: Wright evaluator vs power series
        prob = OdeProblem(alpha=2.5, m=0, a_coeffs=(0.0, 0.0, 1.0))
        sol = solve(prob)
        member = sol.members[0]
        z = 0.5
        direct = complex(member.evaluate(z))
        series = member.series(order=60)
        summed = sum(c * z ** series.exponent(j) for j, c in enumerate(series.coeffs))
        assert_allclose(direct, summed, rtol=1e-10)


class TestWrightMembers:
    def test_without_roots(self):
        # the d = 2 diffusion members: no root parameters, any sign of lam
        members = wright_members(2.5, 1, (), -0.45)
        assert [mem.k for mem in members] == [1, 2, 3]
        for mem in members:
            rho = 3.5
            assert mem.lam == -0.45
            assert mem.power == rho
            assert mem.spec.upper == (
                ((mem.leading_exponent + 1.0) / rho + 0j, 1.0),
                (1.0 + 0j, 1.0),
            )
            assert mem.spec.lower == ((1.0 + mem.leading_exponent + 0j, rho),)

    def test_matches_solve(self):
        prob = OdeProblem(alpha=2.5, m=1, a_coeffs=(0.0, 0.3, 1.0))
        sol = solve(prob)
        assert wright_members(2.5, 1, sol.roots, 3.5**3) == sol.members


class TestDispatch:
    def test_small(self):
        sol = solve(OdeProblem(alpha=0.5, m=0, a_coeffs=(0.0, 0.0, 1.0)))
        assert sol.branch == "small-alpha"

    def test_large(self):
        sol = solve(OdeProblem(alpha=3.2, m=0, a_coeffs=(0.0, 0.0, 1.0)))
        assert sol.branch == "large-alpha"


class TestRootPermutationInvariance:
    @pytest.mark.parametrize("z", [0.5, 2.0])
    def test_lower_order_irrelevant(self, z):
        prob = OdeProblem(alpha=0.8, m=1, a_coeffs=(0.0, 0.5, 1.0))
        sol = solve(prob)
        spec = sol.small.spec
        perm = foxh.HFunctionSpec(
            m=spec.m, l=0, upper=spec.upper, lower=tuple(reversed(spec.lower))
        )
        assert_allclose(
            foxh.eval_mellin_barnes(spec, z),
            foxh.eval_mellin_barnes(perm, z),
            rtol=1e-10,
        )


class TestN0Problem:
    # D^alpha y = a_0 z^m y: only the Wright branch (alpha > 0 = n) applies,
    # so a_0 may have either sign
    @pytest.mark.parametrize("alpha", [0.6, 2.5])
    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("a0", [-0.7, 0.0, 0.7])
    def test_coefficient_residual(self, alpha, m, a0):
        prob = OdeProblem(alpha=alpha, m=m, a_coeffs=(a0,))
        sol = solve(prob)
        assert sol.branch == "large-alpha" and sol.roots == ()
        assert len(sol.members) == math.floor(alpha) + 1
        for member in sol.members:
            report = residual_ode_coefficients(member.series(28), prob.operator(), alpha, 20)
            assert report.passes(1e-10)


class TestRootCheck:
    def test_wrong_root_raises(self, monkeypatch):
        char_roots = fracseries._char_roots
        monkeypatch.setattr(
            fracseries, "_char_roots", lambda c: tuple(s + 1e-3 for s in char_roots(c))
        )
        for alpha in (0.8, 2.5):
            with pytest.raises(DegenerateLeadingError):
                solve(OdeProblem(alpha=alpha, m=1, a_coeffs=(0.0, 0.3, 1.0)))

    def test_coefficients_near_underflow_raise(self):
        # the reduced ODE of A = 1e-300: P(s) at its roots is subnormal and
        # fails the residual check against the coefficient norm
        prob = OdeProblem(alpha=0.8, m=1, a_coeffs=(0.0, 2.3456790123456794e-300,
                                                    1.2345679012345679e-300))
        with pytest.raises(DegenerateLeadingError, match="residual check"):
            solve(prob)
