"""Tests for the verification engines: Grunwald-Letnikov derivative, PDE
residuals, coefficient-level residuals, and the operator-identity harnesses."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracsol import foxh, ode, verify
from fracsol.errors import PreconditionViolationError, StepTooLargeError
from fracsol.fracseries import FracPowerSeries
from fracsol.ode import OdeProblem
from fracsol.pde import DiffusionProblem, evaluate, exp_closed_form, solve
from fracsol.verify import (
    METHOD_GL,
    METHOD_TERMWISE,
    ResidualPoint,
    ResidualReport,
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

    def test_scalar_callable_rejected(self):
        # f maps an array of t to an array of the same shape
        with pytest.raises(ValueError):
            gl_fractional_derivative(lambda t: 1.0, 0.5, 1.0, 1e-4)

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

    def test_wright_series_branch_converges_as_root_h(self):
        # the GL sum on a Wright-series solution, evaluated by pde.evaluate
        # at every node, whose member t^(1/2) limits it to O(h^(1/2)):
        # halving h scales the error by 2^(-1/2)
        prob = DiffusionProblem(alpha=2.5, m=0, d=0.5, A=1.0, C=0.1, a=0.2)
        sol = solve(prob)
        assert sol.form.branch == "large-alpha"
        coarse, fine = (
            residual_pde(sol, prob, [(1.0, 1.0)], h=h) for h in (2e-2, 1e-2)
        )
        assert coarse.method == METHOD_GL
        # the finite-difference side does not depend on h
        assert coarse.points[0].rhs == fine.points[0].rhs
        ratio = fine.max_rel_err / coarse.max_rel_err
        assert 2**-0.75 <= ratio <= 2**-0.35, (coarse.max_rel_err, fine.max_rel_err)

    def test_wright_series_branch_scales_with_x(self):
        # at x != 1 the GL sum runs on s -> x^a phi(k s), k = x^((d-2)/rho):
        # the same nodes as the t-lattice sum of pde.evaluate
        prob = DiffusionProblem(alpha=2.5, m=0, d=0.5, A=1.0, C=0.1, a=0.2)
        sol = solve(prob)
        x, t, h = 1.7, 1.0, 2e-2
        (point,) = residual_pde(sol, prob, [(x, t)], h=h).points

        def u(ts):
            return np.array([complex(evaluate(sol, x, s)).real if s > 0 else 0.0 for s in ts])

        assert point.lhs == pytest.approx(gl_fractional_derivative(u, 2.5, t, h), rel=1e-12)

    def test_problem_must_be_the_solutions(self):
        other = DiffusionProblem(alpha=1.0, m=0, d=0.0, A=2.0)
        with pytest.raises(ValueError, match="solution's problem"):
            residual_pde(exp_closed_form(HEAT), other, [(1.0, 1.0)])

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
        # one call for the whole grid: the 320 nodes of its one profile in
        # z and the five distinct points of each grid point's stencil
        sizes = []
        batch = verify.eval_mellin_barnes_batch

        def counting(spec, z):
            sizes.append(len(z))
            return batch(spec, z)

        monkeypatch.setattr(verify, "eval_mellin_barnes_batch", counting)
        prob = DiffusionProblem(alpha=0.8, m=1, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
        grid = [(1.0, 1.0), (1.3, 1.1), (1.0, 1.2)]
        report = residual_pde(solve(prob), prob, grid, h=1e-3)
        assert sizes == [320 + 5 * 3]
        assert [p.point for p in report.points] == grid

    def test_grid_points_match_one_point_residuals(self):
        # criterion 4's grid: each x reads the one profile of the grid's
        # largest k, against its own profile in a one-point call
        prob = DiffusionProblem(alpha=0.8, m=1, d=0.0, A=1.0)
        sol = solve(prob)
        grid = [(float(x), t) for x in np.linspace(0.8, 1.5, 5) for t in (0.8, 1.5)]
        report = residual_pde(sol, prob, grid, h=1e-4)
        for p in report.points:
            (one,) = residual_pde(sol, prob, [p.point], h=1e-4).points
            assert p.lhs == pytest.approx(one.lhs, rel=1e-6), p.point

    def test_profile_is_the_largest_k_one_x_profile(self, monkeypatch):
        # where the decay cut binds (h <= z_cut / k_max), the grid's profile
        # has the nodes that the largest-k x would build on its own
        profiles = []
        profile_class = verify._HProfile

        def recording(*args, **kwargs):
            profiles.append(profile_class(*args, **kwargs))
            return profiles[-1]

        monkeypatch.setattr(verify, "_HProfile", recording)
        prob = DiffusionProblem(alpha=0.8, m=1, d=0.0, A=1.0)
        sol = solve(prob)
        grid = [(x, t) for x in (0.8, 1.15, 1.5) for t in (0.8, 1.5)]
        residual_pde(sol, prob, grid, h=1e-4)
        # k = x^((d-2)/rho) is largest at the smallest x here
        residual_pde(sol, prob, grid[:2], h=1e-4)
        grid_profile, one_x = profiles
        k_max = prob.z(0.8, 1.0)
        assert grid_profile.w_hi < grid_profile.coef * (k_max * 1e-4) ** -grid_profile.power
        assert_allclose(grid_profile.xs, one_x.xs, rtol=1e-14, atol=1e-14)

    def test_step_error_names_the_grid_step(self):
        prob = DiffusionProblem(alpha=0.8, m=1, d=0.0, A=1.0)
        with pytest.raises(StepTooLargeError, match=r"h = 0\.05 exceeds t/50 = 0\.02$"):
            residual_pde(solve(prob), prob, [(1.7, 1.0)], h=0.05)

    def test_complex_constant_is_kept(self):
        # u is linear in its constant: c = 1j gives 1j times the c = 1 sides,
        # on the GL path and on the closed-form path
        for base, sol_of in ((dict(alpha=0.8, m=1, d=0.0, A=1.0), solve),
                             (dict(alpha=1.0, m=0, d=0.0, A=1.0), exp_closed_form)):
            real, imag = (DiffusionProblem(**base, constants=(c,)) for c in (1.0, 1j))
            grid = [(1.0, 1.0), (1.3, 1.2)]
            want = residual_pde(sol_of(real), real, grid, h=1e-3)
            got = residual_pde(sol_of(imag), imag, grid, h=1e-3)
            for p, q in zip(want.points, got.points):
                assert type(p.lhs) is float and isinstance(p.rhs, float)
                assert q.lhs == pytest.approx(1j * p.lhs, rel=1e-14)
                assert q.rhs == pytest.approx(1j * p.rhs, rel=1e-14)
            assert got.max_rel_err == pytest.approx(want.max_rel_err, rel=1e-12)

    def test_h_batch_does_not_depend_on_blas_threads(self):
        # a gl-verify-like point set at one x (320 profile nodes and three
        # 5-point stencils): the contour sums in a fixed order, so one and
        # two OpenBLAS threads give the same bits
        code = (
            "import hashlib\n"
            "from fracsol import pde, verify\n"
            "p = pde.DiffusionProblem(alpha=0.62, m=0, d=0.45, A=1.0, B=0.1, C=-0.05, a=0.1)\n"
            "batch, vals = verify.eval_mellin_barnes_batch, []\n"
            "verify.eval_mellin_barnes_batch = lambda spec, z: vals.append(batch(spec, z)) or vals[-1]\n"
            "r = verify.residual_pde(pde.solve(p), p, [(1.1, 0.9), (1.1, 1.2), (1.1, 1.5)], h=1e-4)\n"
            "print([v.size for v in vals], hashlib.sha256(vals[0].tobytes()).hexdigest(),\n"
            "      [repr(q.lhs) for q in r.points])\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout)
        assert outs[0].startswith("[335]")
        assert outs[0] == outs[1]

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


def h_profile(alpha, m, d, x):
    """The GL profile that residual_pde builds at x for t <= 1.5, h = 1e-4,
    and its H spec."""
    prob = DiffusionProblem(alpha=alpha, m=m, d=d, A=1.0, B=0.0, C=0.0, a=0.0)
    form = solve(prob).form.small
    profile = verify._HProfile(
        form.spec, coef=form.arg_coef * x ** (2.0 - d), power=form.power, v_max=1.5, h=1e-4
    )
    return profile, form.spec


class TestHProfile:
    @pytest.mark.parametrize(
        "alpha, m, d, x, positive",
        [(0.8, 1, 0.0, 1.0, True), (0.62, 0, 0.45, 1.1, True), (1.9, 0, 0.0, 1.5, False)],
        ids=["criterion-4", "gl-verify-m0", "sign-changing"],
    )
    def test_matches_scipy_not_a_knot_spline(self, alpha, m, d, x, positive):
        from scipy.interpolate import CubicSpline

        profile, spec = h_profile(alpha, m, d, x)
        assert profile.positive is positive
        vals = verify.eval_mellin_barnes_batch(spec, np.exp(profile.xs))
        spline = CubicSpline(profile.xs, np.log(vals) if positive else vals)
        log_w = np.linspace(profile.xs[0], profile.xs[-1], 20001)[1:-1]
        want = np.exp(spline(log_w)) if positive else spline(log_w)
        got = profile((np.exp(log_w) / profile.coef) ** (-1.0 / profile.power))
        # a sign-changing profile is compared against its largest value
        scale = np.abs(want) if positive else np.max(np.abs(want))
        assert np.max(np.abs(got - want) / scale) <= 1e-12

    def test_bands_evaluate_no_kernel(self, monkeypatch):
        # criterion 4's 320-node profile batch: _real_minimum returns Re K
        # at the saddles, so once the saddle table exists, splitting the
        # batch into bands (several of them slid) evaluates no kernel
        profile, spec = h_profile(0.8, 1, 0.0, 1.0)
        c = foxh._constants(spec)
        c.table
        calls = []
        log_integrand = foxh._log_integrand
        monkeypatch.setattr(
            foxh, "_log_integrand", lambda spec, s: calls.append(s) or log_integrand(spec, s)
        )
        bands = list(foxh._contour_bands(c, np.exp(profile.xs)))
        assert calls == []
        assert sum(idx.size for _, idx, _ in bands) == profile.xs.size
        assert sum(line != c.gamma0 for line, _, _ in bands) >= 2

    def test_first_passes_share_one_kernel_call(self, monkeypatch):
        # criterion 4's 320-node profile batch: the first passes of all its
        # bands go through one kernel call, and each doubling or refinement
        # pass adds one more; the values equal each band's own evaluation
        profile, spec = h_profile(0.8, 1, 0.0, 1.0)
        c = foxh._constants(spec)
        c.table
        z = np.exp(profile.xs)
        bands = list(foxh._contour_bands(c, z))
        assert len(bands) >= 4
        calls = []
        log_integrand = foxh._log_integrand
        monkeypatch.setattr(
            foxh, "_log_integrand", lambda spec, s: calls.append(s) or log_integrand(spec, s)
        )
        want = np.empty(z.size)
        omega = c.conv.omega
        for gamma, idx, h0 in bands:
            tau = np.arange(foxh._first_pass_steps(omega, h0) + 1) * h0
            k = log_integrand(spec, gamma + 1j * tau)
            want[idx] = foxh._trapezoid_line(spec, z[idx], gamma, omega, h0, k)
        # the bands' doubling and refinement passes
        later = len(calls)
        calls.clear()
        got = foxh.eval_mellin_barnes_batch(spec, z)
        assert len(calls) == 1 + later
        assert np.array_equal(got, want)

    def test_zero_outside_its_range_without_warnings(self):
        profile, _ = h_profile(0.8, 1, 0.0, 1.0)
        v_hi = (profile.w_hi / profile.coef) ** (-1.0 / profile.power)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = profile(np.array([-1.0, 0.0, 0.5 * v_hi, 1.0]))
        assert got[:3].tolist() == [0.0, 0.0, 0.0]
        assert got[3] > 0.0


class TestResidualOdeCoefficients:
    def test_wright_member(self):
        prob = OdeProblem(alpha=2.5, m=1, a_coeffs=(0.0, 0.3, 1.0))
        sol = ode.solve(prob)
        member = sol.members[0].series(order=25)
        report = residual_ode_coefficients(
            member, prob.operator(), prob.alpha, n_coeffs=20
        )
        assert report.method == METHOD_TERMWISE
        assert report.max_rel_err < 1e-10

    @pytest.mark.parametrize("n_coeffs", [0, -3])
    def test_no_coefficient_compared_is_refused(self, n_coeffs):
        # a report over no coefficient used to pass with max_rel_err 0
        prob = OdeProblem(alpha=2.5, m=1, a_coeffs=(0.0, 0.3, 1.0))
        member = ode.solve(prob).members[0].series(order=25)
        with pytest.raises(ValueError, match="no coefficient"):
            residual_ode_coefficients(member, prob.operator(), prob.alpha, n_coeffs)

    def test_zero_series(self):
        prob = OdeProblem(alpha=2.5, m=1, a_coeffs=(0.0, 0.3, 1.0))
        zero = FracPowerSeries(gamma0=1.5, rho=3.5, coeffs=(0.0,) * 25)
        report = residual_ode_coefficients(zero, prob.operator(), 2.5, n_coeffs=20)
        assert report.max_rel_err == 0.0

    def test_perturbation_sensitivity(self):
        # a wrong series must be caught: perturb one coefficient by 1e-3
        prob = OdeProblem(alpha=2.5, m=1, a_coeffs=(0.0, 0.3, 1.0))
        sol = ode.solve(prob)
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
        return solve(prob).form.small.spec

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

    def test_errors_follow_replaced_sides(self):
        # the errors are read from lhs and rhs, so a point rebuilt with
        # another lhs reports that lhs's error
        report = ResidualReport(METHOD_GL, (ResidualPoint((1.0,), 1.0, 1.0),))
        assert report.passes(1e-3)
        bad = dataclasses.replace(report.points[0], lhs=5.0)
        assert (bad.abs_err, bad.rel_err) == (4.0, 0.8)
        report = dataclasses.replace(report, points=(bad,))
        assert report.max_rel_err == 0.8
        assert not report.passes(1e-3)

    def test_report_nonempty(self):
        sol = exp_closed_form(HEAT)
        report = residual_pde(sol, HEAT, [(1.0, 1.0)])
        assert len(report.points) == 1
