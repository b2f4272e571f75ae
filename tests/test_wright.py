"""Tests for the generalized Wright series evaluator and its reductions."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracsol.errors import (
    CancellationError,
    DivergentInputError,
    FracsolError,
    NoConvergenceError,
)
from fracsol.wright import (
    WrightSpec,
    classical_wright,
    coefficients,
    convergence,
    evaluate,
    mittag_leffler,
    series_term,
)


def brute_sum(spec, z, kmax=60):
    """Direct high-precision partial sum, the independent oracle."""
    with mpmath.workdps(40):
        total = mpmath.mpc(0)
        for k in range(kmax):
            term = mpmath.power(z, k) / mpmath.factorial(k)
            for a, al in spec.upper:
                term *= mpmath.gamma(a + al * k)
            for b, be in spec.lower:
                term *= mpmath.rgamma(b + be * k)
            total += term
        return complex(total)


class TestConvergence:
    def test_delta_zero(self):
        v = convergence(WrightSpec(((1, 1),), ((1, 1),)))
        assert v.delta == 0.0
        assert v.radius == math.inf

    def test_no_upper(self):
        v = convergence(WrightSpec((), ((1, 1),)))
        assert v.delta == 1.0
        assert v.radius == math.inf

    def test_boundary_radius(self):
        # delta = -1: radius = prod |alpha|^-alpha * prod |beta|^beta = 1
        v = convergence(WrightSpec(((1, 1), (1, 1)), ((1, 1),)))
        assert v.delta == -1.0
        assert v.radius == pytest.approx(1.0)
        assert v.convergent_at(0.5)
        assert not v.convergent_at(2.0)

    def test_spec_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            WrightSpec(((1, 0),), ((1, 1),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, math.nan)])
    @pytest.mark.parametrize("where", ["upper value", "upper weight", "lower value",
                                       "lower weight"])
    def test_spec_rejects_non_finite_number(self, where, bad):
        pairs = {"upper": [[1.0, 1.0]], "lower": [[1.5, 2.0]]}
        group, part = where.split()
        if part == "weight" and isinstance(bad, complex):
            bad = bad.imag  # weights are real
        pairs[group][0][0 if part == "value" else 1] = bad
        with pytest.raises(ValueError, match="finite"):
            WrightSpec(pairs["upper"], pairs["lower"])


class TestEvaluate:
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_non_finite_z_refused(self, z):
        # each used to raise DivergentInputError "|z| = inf outside
        # convergence radius inf"
        with pytest.raises(ValueError, match="finite z"):
            evaluate(WrightSpec(((1, 1),), ((1, 0.5),)), z)

    def test_exp_reduction(self):
        # 1Psi1[(1,1);(1,1)] -- all gamma factors cancel, series is e^z
        spec = WrightSpec(((1, 1),), ((1, 1),))
        assert_allclose(complex(evaluate(spec, 1.0)), math.e, rtol=1e-13)

    def test_bessel_like(self):
        # 0Psi1[-;(1,1)](1) = sum 1/(k!)^2 = I_0(2)
        spec = WrightSpec((), ((1, 1),))
        assert_allclose(complex(evaluate(spec, 1.0)), brute_sum(spec, 1.0), rtol=1e-12)
        assert_allclose(complex(evaluate(spec, 1.0)).real, 2.2795853, rtol=1e-7)

    def test_cosh_reduction(self):
        # 1Psi1[(1,1);(1,2)](z) = E_{2,1}(z) = cosh(sqrt z)
        spec = WrightSpec(((1, 1),), ((1, 2),))
        assert_allclose(complex(evaluate(spec, 4.0)).real, math.cosh(2.0), rtol=1e-12)

    @pytest.mark.parametrize("z", [0.0, 0.25, 1.0, 4.0])
    def test_bessel_i0_identity(self, z):
        # 0Psi1[-;(1,1)](z) = I_0(2 sqrt z)
        spec = WrightSpec((), ((1, 1),))
        want = float(mpmath.besseli(0, 2 * math.sqrt(z)))
        assert_allclose(complex(evaluate(spec, z)).real, want, rtol=1e-10)

    def test_divergent_rejected(self):
        spec = WrightSpec(((1, 1), (1, 1)), ((1, 1),))
        with pytest.raises(DivergentInputError):
            evaluate(spec, 2.0)

    @pytest.mark.parametrize("z", [0.0, 1e-12, -0.5, 2j])
    def test_zero_radius(self, z):
        # Delta = 0.5 - 2 < -1: the radius is 0, and only z = 0 has a value,
        # the k = 0 term Gamma(1)^2 / Gamma(1)
        spec = WrightSpec(((1, 1), (1, 1)), ((1, 0.5),))
        assert convergence(spec).radius == 0.0
        if z == 0:
            assert evaluate(spec, z) == 1.0
        else:
            with pytest.raises(DivergentInputError, match="radius 0"):
                evaluate(spec, z)

    @pytest.mark.parametrize("spec_args", [
        ((( 1.0, 1.0),), ((1.0, 1.0),)),
        (((0.5, 1.0), (2.0, 1.0)), ((1.0, 1.0), (1.5, 2.0))),
        ((), ((0.8, 1.8),)),
    ])
    @pytest.mark.parametrize("z", [0.3, 1.7])
    def test_against_brute_sum(self, spec_args, z):
        spec = WrightSpec(*spec_args)
        assert_allclose(complex(evaluate(spec, z)), brute_sum(spec, z), rtol=1e-11)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 11])
    def test_term_recurrence(self, k):
        # term(k+1)/term(k) equals the closed-form gamma-ratio product
        spec = WrightSpec(((0.7, 1.3),), ((1.1, 0.9),))
        z = 1.4
        t0 = complex(series_term(spec, z, k))
        t1 = complex(series_term(spec, z, k + 1))
        with mpmath.workdps(40):
            ratio = mpmath.mpf(z) / (k + 1)
            for a, al in spec.upper:
                ratio *= mpmath.gamma(a + al * (k + 1)) / mpmath.gamma(a + al * k)
            for b, be in spec.lower:
                ratio *= mpmath.gamma(b + be * k) / mpmath.gamma(b + be * (k + 1))
            ratio = complex(ratio)
        assert_allclose(t1 / t0, ratio, rtol=1e-12)

    def test_lower_pole_zeroes_term(self):
        # lower parameter hits a Gamma pole at k=0: 1/Gamma(0) = 0 kills the
        # term instead of faulting
        spec = WrightSpec(((1, 1),), ((0, 1),))
        assert complex(series_term(spec, 1.0, 0)) == 0


class TestMittagLeffler:
    @pytest.mark.parametrize("x", np.linspace(-5, 5, 21))
    def test_e11_is_exp(self, x):
        assert_allclose(complex(mittag_leffler(1, 1, x)).real, math.exp(x), rtol=1e-10)

    def test_e21_cos(self):
        assert_allclose(
            complex(mittag_leffler(2, 1, -1.0)).real, math.cos(1.0), rtol=1e-12
        )

    def test_e12(self):
        # E_{1,2}(z) = (e^z - 1)/z
        assert_allclose(
            complex(mittag_leffler(1, 2, 1.0)).real, math.e - 1, rtol=1e-12
        )

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.5, 3.0])
    def test_e21_cosh(self, x):
        assert_allclose(
            complex(mittag_leffler(2, 1, x * x)).real, math.cosh(x), rtol=1e-10
        )

    @pytest.mark.parametrize("alpha,x", [(1, -20.0), (1, -40.0), (0.5, -6.0)])
    def test_cancellation_raises(self, alpha, x):
        # E_{1,1}(-20) = 2.06e-9 and E_{1/2,1}(-6) = 0.0928 lie below the
        # rounding of their largest terms: the sum would be noise
        with pytest.raises(CancellationError):
            mittag_leffler(alpha, 1, x)

    def test_term_cap_raises(self):
        # the terms of E_{1,1}(450) still fall at the 500-term cap, but the
        # partial sum is 0.95% short of exp(450)
        with pytest.raises(NoConvergenceError):
            mittag_leffler(1, 1, 450.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_term_raises(self):
        # E_{2,1}(6e5) = cosh(775): its largest terms pass the double range
        with pytest.raises(NoConvergenceError):
            mittag_leffler(2, 1, 6e5)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_e_half_negative_argument(self, x):
        # E_{1/2,1}(-x) = exp(x^2) erfc(x): alternating, cancellation ratio
        # up to ~400 at x = 2, well inside the guard
        assert_allclose(
            complex(mittag_leffler(0.5, 1, -x)).real,
            math.exp(x * x) * math.erfc(x),
            rtol=1e-10,
        )


class TestClassicalWright:
    def test_zero_argument(self):
        assert classical_wright(0.0, 0.5, 1.0) == 0

    @pytest.mark.parametrize("alpha", [-1.0, -2.5])
    def test_alpha_at_or_below_minus_1_refused(self, alpha):
        with pytest.raises(ValueError, match="alpha > -1"):
            classical_wright(0.5, alpha, 1.0)

    def test_sum_from_one(self):
        # Psi(1;1,1) = sum_{k>=1} 1/(k!)^2 = I_0(2) - 1  (k=1 start)
        want = float(mpmath.besseli(0, 2)) - 1.0
        assert_allclose(complex(classical_wright(1.0, 1.0, 1.0)).real, want, rtol=1e-12)

    def test_alpha_zero(self):
        # Psi(1;0,1): terms 1/Gamma(1) * 1/k!, k>=1, sum e - 1
        assert_allclose(
            complex(classical_wright(1.0, 0.0, 1.0)).real, math.e - 1, rtol=1e-12
        )

    @pytest.mark.parametrize(
        "z,alpha,beta", [(-100.0, 0.5, 1.0), (-200.0, 1.0, 1.0), (-20.0, 0.0, 1.0)]
    )
    def test_large_negative_argument(self, z, alpha, beta):
        # the direct sum gave 6.77 at the first point (the value is
        # -1.00000000024), and was off by 6.6e-5 and 4e-9 at the others
        try:
            got = classical_wright(z, alpha, beta)
        except FracsolError:
            return
        with mpmath.workdps(80):
            want = complex(
                mpmath.nsum(
                    lambda k: mpmath.mpf(z) ** k
                    / (mpmath.gamma(alpha * k + beta) * mpmath.factorial(k)),
                    [1, mpmath.inf],
                )
            )
        assert_allclose(complex(got), want, rtol=1e-10)

    @pytest.mark.parametrize("z", [1e-8, -1e-3, 0.5 + 0.5j])
    def test_small_argument_keeps_relative_accuracy(self, z):
        # Psi ~ z / Gamma(alpha + beta): subtracting 1/Gamma(beta) from
        # 0Psi1 would leave eps / |z| of relative error
        with mpmath.workdps(40):
            want = complex(
                mpmath.nsum(
                    lambda k: mpmath.mpc(z) ** k
                    / (mpmath.gamma(0.5 * k + 1.5) * mpmath.factorial(k)),
                    [1, mpmath.inf],
                )
            )
        assert_allclose(complex(classical_wright(z, 0.5, 1.5)), want, rtol=1e-14)
        # and for alpha = 0, e^z - 1 without cancellation
        assert_allclose(
            complex(classical_wright(z, 0.0, 1.5)),
            complex(mpmath.expm1(z) * mpmath.rgamma(1.5)),
            rtol=1e-14,
        )

    def test_alpha_zero_is_expm1(self):
        # numpy's complex expm1, on z with |Re z| and |Im z| from 1e-12 to 10
        rng = np.random.default_rng(11)
        parts = 10.0 ** rng.uniform(-12, 1, (2, 200)) * rng.choice((-1.0, 1.0), (2, 200))
        for z in parts[0] + 1j * parts[1]:
            want = complex(mpmath.expm1(mpmath.mpc(z)) * mpmath.rgamma(2.5))
            assert abs(classical_wright(z, 0.0, 2.5) - want) <= 1e-14 * abs(want)


class TestCoefficients:
    def test_exp_series(self):
        # 1Psi1[(1,1); (1,1) | lam w] = exp(lam w): coefficients lam^j / j!
        got = coefficients(WrightSpec(((1.0, 1.0),), ((1.0, 1.0),)), 6, lam=-1.5)
        want = [(-1.5) ** j / math.factorial(j) for j in range(7)]
        assert_allclose(np.array(got), want, rtol=1e-13)

    def test_power_past_the_double_range(self):
        # 1Psi1[(1,1); (1,1/2) | lam w] has coefficients lam^j / Gamma(1 + j/2);
        # (-1e4)^80 overflows a double, the coefficient does not
        spec = WrightSpec(((1.0, 1.0),), ((1.0, 0.5),))
        got = coefficients(spec, 80, lam=-1e4)
        for j in (79, 80):
            want = mpmath.mpf(-1e4) ** j * mpmath.rgamma(1 + mpmath.mpf(j) / 2)
            assert got[j].imag == 0.0
            # the term's log is about 625, and its rounding carries over
            assert_allclose(got[j].real, float(want), rtol=1e-12)

    def test_underflowing_coefficients_are_zero(self):
        # the d = 2 members of alpha = 2.5, m = 1, K = -0.45: lam = -1.575,
        # whose power 1608 passes the double range while the true
        # coefficients underflow
        for k in (1, 2, 3):
            spec = WrightSpec(
                (((2.5 - k + 1.0) / 3.5, 1.0), (1.0, 1.0)), ((1.0 + 2.5 - k, 3.5),)
            )
            got = np.array(coefficients(spec, 1608, lam=-1.575))
            assert np.all(got.imag == 0.0) and np.all(np.isfinite(got.real))
            assert got[-1] == 0.0 and got[1] != 0.0

    def test_matches_series_terms(self):
        spec = WrightSpec(((0.3 + 0.2j, 1.0), (1.0, 1.0)), ((1.7, 2.5),))
        got = coefficients(spec, 10)
        assert len(got) == 11
        assert got == tuple(series_term(spec, 1.0, j) for j in range(11))
