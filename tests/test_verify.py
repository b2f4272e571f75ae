"""Tests for the verification engines: Grunwald-Letnikov derivative, PDE
residuals, coefficient-level residuals, and the operator-identity harnesses."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracsol import verify
from fracsol.errors import PreconditionViolationError, StepTooLargeError
from fracsol.fracseries import FracPowerSeries
from fracsol.ode import OdeProblem, solve_large_alpha
from fracsol.pde import DiffusionProblem, evaluate, exp_closed_form, solve
from fracsol.verify import (
    METHOD_GL,
    METHOD_TERMWISE,
    gl_fractional_derivative,
    gl_weights,
    h_operator_identity_check,
    residual_ode_coefficients,
    residual_pde,
    wright_operator_identity_check,
)
from fracsol.wright import WrightSpec

HEAT = DiffusionProblem(alpha=1.0, m=0, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)


class TestGlDerivative:
    def test_classical_derivative(self):
        got = gl_fractional_derivative(lambda t: np.asarray(t) ** 2, 1.0, 1.0, 1e-4)
        assert got == pytest.approx(2.0, abs=2e-4)

    def test_half_derivative_of_sqrt(self):
        got = gl_fractional_derivative(
            lambda t: np.sqrt(np.asarray(t)), 0.5, 1.0, 1e-4
        )
        assert got == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-3)

    def test_half_derivative_of_constant(self):
        # RL derivative of 1 is t^{-1/2}/Gamma(1/2), nonzero
        got = gl_fractional_derivative(
            lambda t: np.ones_like(np.asarray(t, dtype=float)), 0.5, 1.0, 1e-4
        )
        assert got == pytest.approx(1 / math.sqrt(math.pi), abs=1e-4)

    def test_step_guard(self):
        with pytest.raises(StepTooLargeError):
            gl_fractional_derivative(lambda t: t, 0.5, 1.0, 0.5)

    def test_first_order_convergence(self):
        # error on t^2 roughly halves when h halves
        exact = 2.0
        errs = []
        for h in (2e-4, 1e-4):
            got = gl_fractional_derivative(lambda t: np.asarray(t) ** 2, 1.0, 1.0, h)
            errs.append(abs(got - exact))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)

    def test_weights_alternating_binomials(self):
        w = gl_weights(0.5, 4)
        # (-1)^j C(1/2, j): 1, -1/2, -1/8, -1/16, -5/128
        assert_allclose(w, [1.0, -0.5, -0.125, -0.0625, -5 / 128], rtol=1e-13)


class TestResidualPde:
    def test_heat_kernel_exact_path(self):
        sol = exp_closed_form(HEAT)
        grid = [(x, t) for x in np.linspace(0.5, 2, 5) for t in np.linspace(0.5, 2, 5)]
        report = residual_pde(sol, HEAT, grid)
        assert report.method == METHOD_TERMWISE
        assert report.max_rel_err < 1e-8

    def test_exact_path_h_independent(self):
        sol = exp_closed_form(HEAT)
        grid = [(1.0, 1.0), (1.5, 0.8)]
        r1 = residual_pde(sol, HEAT, grid, h=1e-4)
        r2 = residual_pde(sol, HEAT, grid, h=5e-5)
        for p1, p2 in zip(r1.points, r2.points):
            assert p1.lhs == p2.lhs
            assert p1.rhs == p2.rhs

    def test_zero_solution(self):
        prob = DiffusionProblem(
            alpha=1.0, m=0, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0, constants=(0.0,)
        )
        sol = exp_closed_form(prob)
        report = residual_pde(sol, prob, [(1.0, 1.0)])
        assert report.points[0].abs_err == 0.0

    def test_gl_path_on_fractional_case(self):
        prob = DiffusionProblem(alpha=0.8, m=1, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
        sol = solve(prob)
        grid = [(1.0, 1.0), (1.2, 0.9)]
        report = residual_pde(sol, prob, grid, h=1e-3)
        assert report.method == METHOD_GL
        assert report.max_rel_err < 1e-2

    def test_gl_path_batches_h_values(self, monkeypatch):
        # one 320-node profile per x, then one call per grid point for the
        # five distinct points of the finite-difference stencil
        sizes = []
        batch = verify.eval_mellin_barnes_batch

        def counting(spec, z):
            sizes.append(len(z))
            return batch(spec, z)

        monkeypatch.setattr(verify, "eval_mellin_barnes_batch", counting)
        prob = DiffusionProblem(alpha=0.8, m=1, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
        residual_pde(solve(prob), prob, [(1.0, 1.0), (1.0, 1.2)], h=1e-3)
        assert sizes == [320, 5, 5]

    def test_finite_difference_rhs_on_alpha1_h_form(self):
        # alpha = 1 with the prefactor exponent at which the H-form is a
        # constant multiple of the exponential closed form, so the exact
        # u_t is the H value times the closed form's log-derivative in t
        a_special = 0.5 * (2 * 0.0 - 0.0 / 1.0 - 3 + math.sqrt((1 - 0) ** 2 - 0))
        prob = DiffusionProblem(alpha=1.0, m=0, d=0.0, A=1.0, B=0.0, C=0.0, a=a_special)
        sol = solve(prob)
        form = exp_closed_form(prob).form
        grid = [(x, t) for x in (0.6, 1.0, 1.7) for t in (0.7, 1.4)]
        report = residual_pde(sol, prob, grid, h=1e-3)
        for p in report.points:
            x, t = p.point
            u = complex(evaluate(sol, x, t)).real
            u_t = u * (form.t_exponent / t + form.exp_coef * x**2 * t**-2)
            assert complex(p.rhs).real == pytest.approx(u_t, rel=1e-7), p.point


class TestResidualOdeCoefficients:
    def test_wright_member(self):
        prob = OdeProblem(alpha=2.5, m=1, a_coeffs=(0.0, 0.3, 1.0))
        sol = solve_large_alpha(prob)
        member = sol.members[0].series(order=25)
        report = residual_ode_coefficients(
            member, prob.operator(), prob.alpha, n_coeffs=20
        )
        assert report.method == METHOD_TERMWISE
        assert report.max_rel_err < 1e-10

    def test_zero_series(self):
        prob = OdeProblem(alpha=2.5, m=1, a_coeffs=(0.0, 0.3, 1.0))
        zero = FracPowerSeries(gamma0=1.5, rho=3.5, coeffs=(0.0,) * 25)
        report = residual_ode_coefficients(zero, prob.operator(), 2.5, n_coeffs=20)
        assert report.max_rel_err == 0.0

    def test_perturbation_sensitivity(self):
        # a wrong series must be caught: perturb one coefficient by 1e-3
        prob = OdeProblem(alpha=2.5, m=1, a_coeffs=(0.0, 0.3, 1.0))
        sol = solve_large_alpha(prob)
        member = sol.members[0].series(order=25)
        coeffs = list(member.coeffs)
        coeffs[3] = complex(coeffs[3]) * (1 + 1e-3)
        bad = FracPowerSeries(member.gamma0, member.rho, tuple(coeffs))
        report = residual_ode_coefficients(bad, prob.operator(), prob.alpha, 20)
        assert report.max_rel_err > 1e-4


class TestHOperatorIdentities:
    @staticmethod
    def case1_spec():
        prob = DiffusionProblem(alpha=0.8, m=1, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
        return solve(prob).form.spec

    def test_euler_shift(self):
        report = h_operator_identity_check(
            self.case1_spec(), "euler-shift", z_points=(0.5, 1.0, 2.0)
        )
        assert report.max_rel_err < 1e-5

    def test_rl_alpha1_chain_rule(self):
        report = h_operator_identity_check(
            self.case1_spec(), "rl", alpha=1.0, a=1.0, z_points=(0.8, 1.0, 1.2), h=1e-4
        )
        assert report.max_rel_err < 1e-3

    def test_rl_fractional(self):
        report = h_operator_identity_check(
            self.case1_spec(), "rl", alpha=0.8, a=1.0, z_points=(0.8, 1.0, 1.2), h=1e-4
        )
        assert report.max_rel_err < 1e-3

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_rejects_nonpositive_a(self, a):
        with pytest.raises(PreconditionViolationError):
            h_operator_identity_check(self.case1_spec(), "rl", a=a)


class TestWrightOperatorIdentities:
    EXP = WrightSpec(((1.0, 1.0),), ((1.0, 1.0),))

    def test_euler_on_exp_series(self):
        # sigma = alpha = 1, R = 0: z d/dz of the e^z series, coefficient k/k!
        report = wright_operator_identity_check(
            self.EXP, "euler", alpha=1.0, a=1.0, R=0.0, sigma=1.0
        )
        assert report.max_rel_err < 1e-12

    def test_rl_integer_order(self):
        report = wright_operator_identity_check(self.EXP, "rl", alpha=1.0, a=1.0)
        assert report.max_rel_err < 1e-13

    def test_rl_half_order(self):
        report = wright_operator_identity_check(self.EXP, "rl", alpha=0.5, a=1.0)
        assert report.max_rel_err < 1e-10

    def test_rl_general_instance(self):
        spec = WrightSpec(((1.0, 1.0),), ((1.3, 0.7),))
        report = wright_operator_identity_check(spec, "rl", alpha=0.6, a=0.8)
        assert report.max_rel_err < 1e-10

    @pytest.mark.parametrize("upper", [(), ((1.0, 0.5),), ((0.5, 1.0),)])
    def test_rl_requires_upper_unit_pair(self, upper):
        spec = WrightSpec(upper, ((1.3, 0.7),))
        with pytest.raises(PreconditionViolationError):
            wright_operator_identity_check(spec, "rl", alpha=0.6, a=0.8)


class TestResidualReportShape:
    def test_rel_err_floor(self):
        sol = exp_closed_form(HEAT)
        report = residual_pde(sol, HEAT, [(1.0, 1.0)])
        p = report.points[0]
        assert p.rel_err == p.abs_err / max(abs(p.lhs), abs(p.rhs), 1e-300)

    def test_report_nonempty(self):
        sol = exp_closed_form(HEAT)
        report = residual_pde(sol, HEAT, [(1.0, 1.0)])
        assert len(report.points) == 1
