"""Tests for the anomalous-diffusion solver: similarity reduction, the three
solution branches, the integer-order closed form, and evaluation."""

import collections
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fracsol import fracseries, ode
from fracsol.errors import (
    BranchMismatchError,
    CancellationError,
    ComplexRootsError,
    DegenerateDError,
    DegenerateLeadingError,
    DomainError,
    FracsolError,
    NoConvergenceError,
    QuadratureFailureError,
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


@pytest.mark.parametrize(
    "fields, match",
    [({"alpha": 0.0}, "alpha"), ({"alpha": -1.0}, "alpha"), ({"m": 1.5}, "m must"),
     ({"m": -1}, "m must"), ({"A": 0.0}, "A must")],
    ids=["alpha-zero", "alpha-negative", "m-fractional", "m-negative", "A-zero"],
)
def test_problem_refused(fields, match):
    with pytest.raises(ValueError, match=match):
        DiffusionProblem(**{"alpha": 0.8, "m": 1, "d": 0.0, "A": 1.0, **fields})


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

    @pytest.mark.parametrize("sign", [0, 2, 0.5, math.nan])
    def test_sign_other_than_plus_or_minus_one_refused(self, sign):
        # sign = 0 would give x^0.5 t^-1 exp(-x^2/4t), not a solution of the heat equation
        with pytest.raises(ValueError, match="sign must be"):
            exp_closed_form(HEAT, sign)

    def test_fractional_alpha_rejected(self):
        prob = DiffusionProblem(alpha=0.5, m=0, d=0.0, A=1.0, B=0.0, C=0.0, a=0.0)
        with pytest.raises(BranchMismatchError):
            exp_closed_form(prob)


# a solution of each branch, the H form with and without the x^a factor
EXTREME_BRANCHES = {
    "h-form": solve(DiffusionProblem(alpha=0.5, m=0, d=0.0, A=1.0)),
    "h-form-shifted": solve(
        DiffusionProblem(alpha=1.5, m=2, d=0.5, A=1.2, B=0.3, C=-0.1, a=0.4)
    ),
    "wright": solve(DiffusionProblem(alpha=2.5, m=0, d=1.0, A=1.0, C=0.1, a=0.2)),
    "wright-d2": solve(DiffusionProblem(alpha=2.5, m=1, d=2.0, A=1.0, C=-0.2, a=0.5)),
    "closed-form": exp_closed_form(HEAT),
    # x^11 t^-6.5 exp(-x^2 / 4t)
    "closed-form-steep": exp_closed_form(
        DiffusionProblem(alpha=1.0, m=0, d=0.0, A=1.0, B=-10.0), sign=-1
    ),
}

# the heat kernel, the steep form x^11 t^-6.5 exp(-x^2/4t), and two with
# m > 0 and d != 0, one on each sign branch
CLOSED_FORM_SWEEP = [
    (HEAT, 1),
    (DiffusionProblem(alpha=1.0, m=0, d=0.0, A=1.0, B=-10.0), -1),
    (DiffusionProblem(alpha=1.0, m=1, d=0.5, A=1.3, B=0.4, C=-0.2), 1),
    (DiffusionProblem(alpha=1.0, m=2, d=-0.7, A=0.8, B=-0.3, C=0.1), -1),
]


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "branch, x, t",
        [("h-form", 1e-300, 1.0), ("h-form", 1e300, 1.0), ("h-form", 1e-200, 1e-200),
         ("wright", 1.0, 1e300), ("closed-form-steep", 1e-155, 4e-312)],
    )
    def test_double_range_refused(self, branch, x, t):
        # z, a power of x or t, or the value passes the double range: each
        # used to end in a bare OverflowError or ZeroDivisionError; the
        # steep closed form peaks in t at t = x^2 / 26, where its log is
        # -2 log x + 14.7, here 728
        with pytest.raises(DomainError, match="passes the double range"):
            evaluate(EXTREME_BRANCHES[branch], x, t)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "branch, x, t", [("closed-form", 1e300, 1.0), ("closed-form-steep", 1e27, 1e-3)]
    )
    def test_double_range_underflows_to_zero(self, branch, x, t):
        # x^2 overflows, and x^11 t^-6.5 overflows where exp(-2.5e56)
        # underflows: both values lie below the double range, as their logs show
        assert evaluate(EXTREME_BRANCHES[branch], x, t) == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_closed_form_in_range_from_logs(self):
        # t^-6.5 overflows, but the value, 2.4e286, is in range
        x, t = 1e-140, 1e-280 / 26.0
        with mpmath.workdps(30):
            xm, tm = mpmath.mpf(x), mpmath.mpf(t)
            want = xm**11 * tm**-6.5 * mpmath.exp(-(xm**2) / (4 * tm))
        got = evaluate(EXTREME_BRANCHES["closed-form-steep"], x, t)
        assert abs(got / float(want) - 1.0) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("problem, sign", CLOSED_FORM_SWEEP)
    def test_closed_form_sweep_vs_mpmath(self, problem, sign):
        # 1,500 log-uniform points per form against a 40-digit reference,
        # many with one factor subnormal and another large, where a product
        # of the factors stays finite but loses its digits
        sol = exp_closed_form(problem, sign)
        p, q, k = sol.form.x_exponent, sol.form.t_exponent, sol.form.exp_coef
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        rng = np.random.default_rng(7)
        xs = 10.0 ** rng.uniform(-40.0, 40.0, 1500)
        ts = 10.0 ** rng.uniform(-60.0, 60.0, 1500)
        for x, t in zip(xs.tolist(), ts.tolist()):
            with mpmath.workdps(40):
                xm, tm = mpmath.mpf(x), mpmath.mpf(t)
                arg = -k * xm ** (2.0 - problem.d) * tm ** -(1.0 + problem.m)
                want = xm**p * tm**q * mpmath.exp(arg)
            if want > huge:
                with pytest.raises(DomainError, match="passes the double range"):
                    evaluate(sol, x, t)
                continue
            got = evaluate(sol, x, t)
            if want < tiny:
                assert 0.0 <= got.real <= tiny * (1.0 + 1e-10), (x, t)
            else:
                assert abs(got / float(want) - 1.0) <= 1e-10, (x, t, got, want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_reduced_sweep_vs_mpmath(self, monkeypatch):
        # H-form solutions at log-uniform points, where x^a alone often
        # leaves the double range while u does not: a product x^a phi(z)
        # returned 0.0, lost digits or refused there.  Where phi is a normal
        # double, the reference is x^a phi(z) at 40 digits from the library's
        # phi at the same z, so it grades how u is formed from phi (each H
        # value is cached, so the reference's phi is the one u read).  Where
        # phi is below the normal range, |u| <= |phi| if x^a <= 1, and u is
        # refused otherwise, since its size is unknown; at w <= 1e-3, where
        # 15 terms of the residue sum converge, the sum grades u.  Where phi
        # raises QuadratureFailureError, so does u, and the sum tells a phi
        # past the range from one whose contour scale alone passes it
        from test_foxh import mp_residue_sum

        monkeypatch.setattr(ode, "eval_mellin_barnes", functools.cache(ode.eval_mellin_barnes))
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        rng = np.random.default_rng(7)
        problems, tally = 0, collections.Counter()
        while problems < 60:
            prob = DiffusionProblem(
                alpha=float(rng.uniform(0.5, 1.9)), m=int(rng.integers(0, 3)),
                d=float(rng.uniform(-1.0, 1.5)), A=float(rng.uniform(0.5, 2.0)),
                B=float(rng.uniform(-1.0, 1.0)), C=float(rng.uniform(-1.0, 1.0)),
                a=float(rng.uniform(-30.0, 30.0)),
            )
            try:
                sol = solve(prob)
            except ComplexRootsError:
                continue
            problems += 1
            small = sol.form.small
            for x, t in (10.0 ** rng.uniform(-40.0, 40.0, (50, 2))).tolist():
                z = prob.z(x, t)
                with mpmath.workdps(40):
                    xa, w = mpmath.mpf(x) ** prob.a, small.arg_coef * mpmath.mpf(z) ** -small.power
                try:
                    phi = sol.form.evaluate(z)
                except CancellationError:
                    tally["phi cancels"] += 1
                    continue
                except QuadratureFailureError:
                    with pytest.raises(QuadratureFailureError):
                        evaluate(sol, x, t)
                    assert w <= 1e-3
                    phi = mp_residue_sum(small.spec, w, dps=40, kmax=15, as_float=False)
                    past = abs(phi) > huge
                    tally["phi past the range" if past else "phi in range, scale past it"] += 1
                    continue
                try:
                    got = evaluate(sol, x, t)
                except DomainError:
                    got = None
                with mpmath.workdps(40):
                    want = xa * mpmath.mpc(phi)
                if abs(phi) < tiny and prob.a * math.log(x) > 0:
                    assert got is None, (prob, x, t, got)
                    tally["phi below, lifted: refused"] += 1
                    continue
                if abs(phi) < tiny and w <= 1e-3:
                    with mpmath.workdps(40):
                        want = xa * mp_residue_sum(small.spec, w, dps=40, kmax=15, as_float=False)
                    tally["phi below: residue sum"] += 1
                if abs(want) > huge:
                    assert got is None, (prob, x, t, got, want)
                elif abs(want) < tiny:
                    assert got is not None and abs(got) <= tiny, (prob, x, t, got, want)
                else:
                    assert got is not None and abs(got - want) <= 1e-12 * abs(want), (
                        prob, x, t, got, want)
                tally["graded"] += 1
        assert tally["graded"] + tally["phi below, lifted: refused"] >= 1500, tally
        assert all(tally[k] for k in ("phi below, lifted: refused", "phi below: residue sum",
                                      "phi past the range")), tally

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "a, x, t",
        [(40.0, 5.011872336272715e-9, 1.6e-8),  # u = 1.71817011642e-126
         (40.0, 1e-8, 1e-7),  # x^a = 1e-320 is subnormal
         (30.0, 1e-11, 1e-12),  # u = 3.97e-144
         (0.0, 1e-124, 1e-310)],  # x^-2.5 = 1e310 overflows, but z = 1
    )
    def test_reduced_points_vs_residue_sum(self, a, x, t):
        # u = x^a H(w), w = arg_coef z^-0.8, z = x^-2.5 t, with H from a
        # 50-digit residue sum at the exact z
        from test_foxh import mp_residue_sum

        sol = solve(DiffusionProblem(alpha=0.8, m=0, d=0.0, A=1.0, a=a))
        small = sol.form.small
        got = evaluate(sol, x, t)
        with mpmath.workdps(50):
            w = small.arg_coef * (mpmath.mpf(x) ** -2.5 * mpmath.mpf(t)) ** -0.8
            want = mpmath.mpf(x) ** a * mp_residue_sum(small.spec, w)
        assert abs(got / want - 1.0) <= 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_phi_below_the_range_lifted_by_x_a_refused(self):
        # phi(z) is 0.0 at a = -40, (1e-13, 1e-10): the lower parameters
        # 20.5 and 20 put H(w) near w^20, w = 2.5e-19, but x^-40 = 1e520
        # lifts u to -1.9e151, a normal double, where 0.0 was returned
        from test_foxh import mp_residue_sum

        sol = solve(DiffusionProblem(alpha=0.8, m=0, d=0.0, A=1.0, a=-40.0))
        small = sol.form.small
        with mpmath.workdps(50):
            w = small.arg_coef * (mpmath.mpf(1e-13) ** -2.5 * mpmath.mpf(1e-10)) ** -0.8
            want = mpmath.mpf(1e-13) ** -40 * mp_residue_sum(small.spec, w, as_float=False)
        assert 1e150 < -want < 1e152
        with pytest.raises(DomainError, match=r"phi\(z\) = 0.*below the normal range"):
            evaluate(sol, 1e-13, 1e-10)
        # at (1e100, 1) phi(z) = H(2.5e199) is 0.0 and x^4 = 1e400: no bound
        # on |H| there says whether u is in range
        sol = solve(DiffusionProblem(alpha=0.8, m=0, d=0.0, A=1.0, a=4.0))
        with pytest.raises(DomainError, match="below the normal range"):
            evaluate(sol, 1e100, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numpy_float_time_refused(self):
        # a numpy float t reaches the ODE solution as a numpy float z, whose
        # power used to warn and end in DivergentInputError
        with pytest.raises(DomainError, match="passes the double range"):
            evaluate(EXTREME_BRANCHES["wright"], 1.0, np.float64(1e300))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("num", [float, np.float64])
    @pytest.mark.parametrize(
        "branch, x, t, want",
        [("closed-form", 1e300, 1.0, 0.0), ("closed-form-steep", 1e300, 1.0, 0.0),
         ("closed-form-steep", 1.0, 1e-300, 0.0), ("h-form", 1e-300, 1.0, None)],
    )
    def test_numpy_floats_read_as_python_floats(self, branch, x, t, want, num):
        # a numpy float's power used to warn where a Python float's raises
        # the OverflowError that evaluate handles; the refusal names plain floats
        sol = EXTREME_BRANCHES[branch]
        if want is not None:
            assert evaluate(sol, num(x), num(t)) == want
            return
        with pytest.raises(DomainError, match=r"at \(x, t\) = \(1e-300, 1\.0\)$"):
            evaluate(sol, num(x), num(t))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("branch", sorted(EXTREME_BRANCHES))
    @settings(max_examples=100, deadline=None)
    @given(log_x=st.floats(-300.0, 300.0), log_t=st.floats(-300.0, 300.0))
    def test_extreme_points_finite_or_typed(self, branch, log_x, log_t):
        try:
            u = evaluate(EXTREME_BRANCHES[branch], 10.0**log_x, 10.0**log_t)
        except FracsolError:
            return
        assert np.isfinite(u)


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
        # u = c e^(log u), log u = a log x + log|phi|, to the last bit
        assert evaluate(sol, 1.2, 0.9) == -3.743155542252319 - 7.354420126794052e-16j
        assert evaluate(sol, 0.7, 1.6) == 2.003841041084306 - 6.750339744429038e-16j

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
            # evaluate's e^(a log x + log|phi|) is within 5.7e-16 of this product
            want = x**0.5 * sum(prob.constant(mem.k) * mem.evaluate(t) for mem in members)
            assert abs(evaluate(sol, x, t) - want) <= 1e-14 * abs(want)


class TestRootCheck:
    def test_wrong_root_raises_in_series_members(self, monkeypatch):
        sol = solve(DiffusionProblem(alpha=2.5, m=1, d=1.0, A=1.0, B=0.5, C=0.1))
        char_roots = fracseries._char_roots
        monkeypatch.setattr(
            fracseries, "_char_roots", lambda c: tuple(s + 1e-3 for s in char_roots(c))
        )
        with pytest.raises(DegenerateLeadingError):
            series_members(sol)
