"""Tests for the anomalous-diffusion solver: similarity reduction, the three
solution branches, the integer-order closed form, and evaluation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracsol import fracseries
from fracsol.errors import (
    BranchMismatchError,
    ComplexRootsError,
    DegenerateDError,
    DegenerateLeadingError,
    DomainError,
    NoConvergenceError,
)
from fracsol.fracseries import EulerPolynomialOperator
from fracsol.ode import OdeProblem, wright_members
from fracsol.pde import (
    ClosedFormExp,
    DiffusionProblem,
    exp_closed_form,
    evaluate,
    s_roots,
    series_members,
    similarity_reduce,
    solve,
)

HEAT = DiffusionProblem(alpha=1.0, m=0, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["alpha", "m", "d", "A", "B", "C", "a", "constants"])
def test_non_finite_number_refused(field, bad):
    # a NaN constant used to evaluate to nan+nanj
    fields = dict(alpha=0.8, m=1, d=0.0, A=1.0)
    fields[field] = (1.0, complex(0.5, bad)) if field == "constants" else bad
    with pytest.raises(ValueError, match="finite"):
        DiffusionProblem(**fields)


class TestSRoots:
    def test_heat_case(self):
        s1, s2 = s_roots(HEAT)
        assert sorted((complex(s1).real, complex(s2).real)) == pytest.approx(
            [-0.5, 0.0]
        )

    def test_double_root(self):
        prob = DiffusionProblem(alpha=1.0, m=0, d=0.0, A=1.0, B=1.0, C=0.0, a=0.0)
        s1, s2 = s_roots(prob)
        assert complex(s1) == pytest.approx(complex(s2))

    def test_shifted_prefactor(self):
        prob = DiffusionProblem(alpha=1.0, m=0, d=0.0, A=1.0, B=0.0, C=0.0, a=1.0)
        s1, s2 = s_roots(prob)
        assert sorted((complex(s1).real, complex(s2).real)) == pytest.approx(
            [0.0, 0.5]
        )

    def test_d2_rejected(self):
        prob = DiffusionProblem(alpha=1.0, m=0, d=2.0, A=1.0, B=0.0, C=0.0, a=0.0)
        with pytest.raises(DegenerateDError):
            s_roots(prob)
        with pytest.raises(DegenerateDError):
            exp_closed_form(prob)


class TestSimilarityReduce:
    def test_heat_coefficients(self):
        ode_prob = similarity_reduce(HEAT)
        # a2 = A(d-2)^2/rho^2 = 4; a1 = ((d-2)/rho)(A(d-2)/rho + B + A(2a-1))
        assert ode_prob.a_coeffs == pytest.approx((0.0, 6.0, 4.0))

    def test_a0_equals_K(self):
        prob = DiffusionProblem(alpha=0.7, m=2, d=1.0, A=2.0, B=0.5, C=0.3, a=0.4)
        ode_prob = similarity_reduce(prob)
        assert ode_prob.a_coeffs[0] == pytest.approx(prob.K)
        assert prob.K == pytest.approx(2 * 0.16 - 2 * 0.4 + 0.5 * 0.4 + 0.3)

    def test_roots_match_s_roots(self):
        prob = DiffusionProblem(alpha=0.8, m=1, d=0.5, A=1.5, B=0.2, C=-0.1, a=0.3)
        ode_prob = similarity_reduce(prob)
        got = sorted(complex(r).real for r in ode_prob.operator().roots)
        want = sorted(complex(s).real for s in s_roots(prob))
        assert got == pytest.approx(want, abs=1e-10)

    def test_reduction_consistency_random(self):
        # 200 seeded problems: two independent formulas for the same roots
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(200):
            alpha = float(rng.uniform(0.2, 1.9))
            m = int(rng.integers(0, 3))
            d = float(rng.uniform(-2.0, 1.5))
            A = float(rng.uniform(0.5, 3.0))
            B = float(rng.uniform(-1.0, 1.0))
            C = float(rng.uniform(-1.0, 1.0))
            a = float(rng.uniform(-1.0, 1.0))
            prob = DiffusionProblem(alpha=alpha, m=m, d=d, A=A, B=B, C=C, a=a)
            ode_prob = similarity_reduce(prob)
            got = [complex(r) for r in ode_prob.operator().roots]
            want = [complex(s) for s in s_roots(prob)]
            # conjugate pairs sort unstably on floating-point real parts; take
            # the best of the two pairings instead
            err = min(
                max(abs(got[0] - want[0]), abs(got[1] - want[1])),
                max(abs(got[0] - want[1]), abs(got[1] - want[0])),
            )
            worst = max(worst, err)
        assert worst < 1e-10

    def test_map_exponent(self):
        # z = x^((d-2)/rho) t; the heat problem's exponent is -2
        assert HEAT.z(2.0, 3.0) == 2.0**-2.0 * 3.0


class TestSolveBranches:
    def test_subdiffusive_h_form(self):
        prob = DiffusionProblem(alpha=0.8, m=1, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
        sol = solve(prob)
        assert sol.form.branch == "small-alpha"
        spec = sol.form.small.spec
        assert spec.upper == ((1.0, pytest.approx(1.8)),)
        # s roots are {0, -0.9}: lower entries (-s/1.8, 1) plus (j/1.8, 1)
        firsts = sorted(b for b, _ in spec.lower)
        assert firsts == pytest.approx([0.0, 0.5, 1 / 1.8])
        assert all(w == 1.0 for _, w in spec.lower)

    def test_superdiffusive_wright_form(self):
        prob = DiffusionProblem(alpha=2.5, m=0, d=1.0, A=1.0, B=0.0, C=0.0, a=0.0)
        sol = solve(prob)
        assert sol.form.branch == "large-alpha"
        assert len(sol.form.members) == 3  # floor(2.5) + 1

    def test_alpha2_rejected(self):
        prob = DiffusionProblem(alpha=2.0, m=0, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
        with pytest.raises(BranchMismatchError):
            solve(prob)

    def test_d2_branch(self):
        prob = DiffusionProblem(alpha=0.8, m=0, d=2.0, A=1.0, B=0.5, C=0.3, a=0.5)
        sol = solve(prob)
        assert sol.form.branch == "large-alpha"

    def test_complex_roots_h_form_rejected(self):
        # (1 - B/A)^2 - 4C/A = -3 < 0: the H form has no real lower parameters
        prob = DiffusionProblem(alpha=0.8, m=0, d=0.0, A=1.0, B=0.0, C=1.0, a=0.0)
        with pytest.raises(ComplexRootsError):
            solve(prob)

    def test_complex_roots_wright_form(self):
        prob = DiffusionProblem(alpha=3.4, m=0, d=-1.0, A=1.0, B=0.1, C=0.8, a=0.3)
        sol = solve(prob)
        s1, s2 = s_roots(prob)
        for mem in sol.form.members:
            roots = sorted(
                (mem.leading_exponent - a * prob.rho for a, _ in mem.spec.upper[:2]),
                key=lambda s: s.imag,
            )
            assert roots == [pytest.approx(s2), pytest.approx(s1)]
        u = complex(evaluate(sol, 1.2, 0.9))
        assert abs(u.imag) < 1e-12 * abs(u.real)


class TestExpClosedForm:
    def test_heat_kernel(self):
        sol = exp_closed_form(HEAT)
        form = sol.form
        assert isinstance(form, ClosedFormExp)
        # plus branch: u = t^{-1/2} exp(-x^2/(4t))
        assert form.t_exponent == pytest.approx(-0.5)
        assert form.x_exponent == pytest.approx(0.0)
        assert form.exp_coef == pytest.approx(0.25)

    def test_heat_kernel_value(self):
        sol = exp_closed_form(HEAT)
        assert complex(evaluate(sol, 1.0, 1.0)).real == pytest.approx(
            math.exp(-0.25), rel=1e-12
        )

    def test_m1_form(self):
        prob = DiffusionProblem(alpha=1.0, m=1, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
        sol = exp_closed_form(prob)
        form = sol.form
        # u = t^{-1} exp(-x^2/(2 t^2))
        assert form.t_exponent == pytest.approx(-1.0)
        assert form.exp_coef == pytest.approx(0.5)
        x, t = 1.3, 0.7
        want = t**-1.0 * math.exp(-(x**2) / (2 * t**2))
        assert complex(evaluate(sol, x, t)).real == pytest.approx(want, rel=1e-12)

    def test_bounded_for_d_below_2(self):
        # exponential argument negative for all x,t > 0
        prob = DiffusionProblem(alpha=1.0, m=2, d=1.0, A=1.0, B=0.1, C=0.0, a=0.0)
        sol = exp_closed_form(prob)
        assert sol.form.exp_coef > 0

    def test_complex_discriminant_rejected(self):
        prob = DiffusionProblem(alpha=1.0, m=0, d=0.0, A=1.0, B=0.0, C=1.0, a=0.0)
        with pytest.raises(ComplexRootsError):
            exp_closed_form(prob)

    def test_fractional_alpha_rejected(self):
        prob = DiffusionProblem(alpha=0.5, m=0, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
        with pytest.raises(BranchMismatchError):
            exp_closed_form(prob)


class TestEvaluate:
    def test_domain_guard(self):
        sol = exp_closed_form(HEAT)
        with pytest.raises(DomainError):
            evaluate(sol, 0.0, 1.0)
        with pytest.raises(DomainError):
            evaluate(sol, 1.0, -0.5)

    def test_h_form_decay_in_small_t(self):
        # at t -> 0+ the H argument blows up and the value decays to 0
        prob = DiffusionProblem(alpha=0.8, m=1, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
        sol = solve(prob)
        ts = np.geomspace(1e-2, 1e-1, 5)
        vals = [abs(complex(evaluate(sol, 1.0, t))) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_wright_leading_term_dominance(self):
        # for tiny x the first series coefficient dominates to about 1%
        prob = DiffusionProblem(alpha=2.5, m=0, d=1.0, A=1.0, B=0.0, C=0.0, a=0.0)
        sol = solve(prob)
        from fracsol.wright import series_term

        x, t = 1.0, 1e-3
        full = complex(evaluate(sol, x, t))
        z = prob.z(x, t)
        leading = 0j
        for mem in sol.form.members:
            t0 = complex(series_term(mem.spec, mem.lam * z**mem.power, 0))
            leading += complex(prob.constant(mem.k)) * x**prob.a * z**mem.leading_exponent * t0
        assert abs(full - leading) < 0.01 * abs(full)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_wright_term_raises(self):
        # the d = 2 member argument is -684 here, and its terms pass the
        # double range before the series could settle
        prob = DiffusionProblem(
            alpha=0.4692, m=2, d=2.0, A=1.0792, B=0.0322, C=-1.938, a=0.7624
        )
        with pytest.raises(NoConvergenceError):
            evaluate(solve(prob), 0.3, 5.0)


class TestSolverVsReduction:
    @pytest.mark.parametrize("x,t", [(0.8, 1.0), (1.2, 0.9), (1.5, 1.4)])
    def test_pointwise_agreement(self, x, t):
        # H-form of the full solver vs ansatz composed with the reduced
        # ODE solution: two construction paths, same function
        prob = DiffusionProblem(alpha=0.8, m=1, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
        sol = solve(prob)
        from fracsol.ode import solve as ode_solve

        ode_sol = ode_solve(similarity_reduce(prob))
        z = x ** ((prob.d - 2.0) / prob.rho) * t
        via_ode = x**prob.a * complex(ode_sol.small.evaluate(z)).real
        direct = complex(evaluate(sol, x, t)).real
        assert_allclose(direct, via_ode, rtol=1e-8)


class TestExpFormConsistency:
    def test_proportional_to_case1(self):
        # alpha = 1 with the special prefactor exponent: the H-form and the
        # closed exponential form agree up to an (x,t)-independent constant
        a_special = 0.5 * (2 * 0.0 - 0.0 / 1.0 - 3 + math.sqrt((1 - 0) ** 2 - 0))
        prob = DiffusionProblem(alpha=1.0, m=0, d=0.0, A=1.0, B=0.0, C=0.0, a=a_special)
        h_sol = solve(prob)
        c_sol = exp_closed_form(prob)
        ratios = []
        for x in np.linspace(0.5, 2.0, 5):
            for t in np.linspace(0.5, 2.0, 5):
                num = complex(evaluate(h_sol, x, t)).real
                den = complex(evaluate(c_sol, x, t)).real
                ratios.append(num / den)
        ratios = np.array(ratios)
        assert np.ptp(ratios) / abs(np.mean(ratios)) < 1e-6


class TestZeroSolution:
    def test_all_constants_zero(self):
        prob = DiffusionProblem(
            alpha=0.8, m=1, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0, constants=(0.0,)
        )
        sol = solve(prob)
        assert complex(evaluate(sol, 1.0, 1.0)) == 0


class TestConstants:
    """How DiffusionProblem.constants scale a solution, pinned to the values
    the solver gave when these tests were written."""

    def test_missing_wright_constants_are_1(self):
        # three members, two constants: c_3 = 1
        prob = DiffusionProblem(
            alpha=2.5, m=0, d=1.0, A=1.0, B=0.2, C=-0.3, a=0.4, constants=(0.5, -2.0)
        )
        sol = solve(prob)
        assert evaluate(sol, 1.2, 0.9) == -3.7431555422523193 + 1.9182601754250624e-15j
        assert evaluate(sol, 0.7, 1.6) == 2.003841041084306 + 7.653010526810632e-16j

    def test_complex_c1_on_h_form(self):
        prob = DiffusionProblem(
            alpha=0.8, m=1, d=0.5, A=1.2, B=0.3, C=-0.1, a=0.2, constants=(0.5 - 1.5j,)
        )
        sol = solve(prob)
        assert_allclose(
            evaluate(sol, 0.8, 0.9), 0.4076264289352208 - 1.2228792868056624j, rtol=1e-12
        )
        assert_allclose(
            evaluate(sol, 1.2, 1.3), 0.465344576885265 - 1.3960337306557948j, rtol=1e-12
        )


class TestD2IsTheN0Ode:
    # A = 1, B = 0, a = 0.5: K = C - 0.25, exactly 0 at C = 0.25
    @pytest.mark.parametrize("C,K", [(-0.2, -0.45), (0.25, 0.0), (1.0, 0.75)])
    def test_reduction(self, C, K):
        prob = DiffusionProblem(alpha=1.5, m=1, d=2.0, A=1.0, C=C, a=0.5)
        assert prob.K == pytest.approx(K, abs=1e-15)
        assert similarity_reduce(prob) == OdeProblem(alpha=1.5, m=1, a_coeffs=(prob.K,))
        assert prob.z(1.7, 0.3) == 0.3

    @pytest.mark.parametrize("alpha", [0.7, 1.5, 2.5, 3.2])
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("C", [-0.2, 0.25, 1.0])
    def test_parity_with_wright_members(self, alpha, m, C):
        prob = DiffusionProblem(
            alpha=alpha, m=m, d=2.0, A=1.0, C=C, a=0.5, constants=(1.0, -0.5, 2.0, 0.3)
        )
        sol = solve(prob)
        members = wright_members(alpha, m, (), prob.K * prob.rho**m)
        assert sol.form.members == members
        pairs = series_members(sol, order=10)
        assert [s for s, _ in pairs] == [mem.series(10) for mem in members]
        assert all(op == EulerPolynomialOperator((prob.K,), m) for _, op in pairs)
        for x, t in ((0.7, 0.4), (1.0, 1.0), (1.6, 2.3)):
            want = x**0.5 * sum(prob.constant(mem.k) * mem.evaluate(t) for mem in members)
            assert evaluate(sol, x, t) == want


class TestRootCheck:
    def test_wrong_root_raises_in_series_members(self, monkeypatch):
        sol = solve(DiffusionProblem(alpha=2.5, m=1, d=1.0, A=1.0, B=0.5, C=0.1))
        char_roots = fracseries._char_roots
        monkeypatch.setattr(
            fracseries, "_char_roots", lambda c: tuple(s + 1e-3 for s in char_roots(c))
        )
        with pytest.raises(DegenerateLeadingError):
            series_members(sol)
