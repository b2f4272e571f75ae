"""Tests for generalized power-series calculus: termwise Riemann-Liouville
differentiation, the Euler polynomial operator, lattice alignment, and the
gamma product identity."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracsol.errors import (
    DegenerateLeadingError,
    ExponentMisalignmentError,
    ExponentOutOfRangeError,
    PoleError,
)
from fracsol.fracseries import (
    EulerPolynomialOperator,
    FracPowerSeries,
    align_series,
    euler_apply,
    gamma_product_identity_check,
    rl_derivative,
)


def monomial(p, c=1.0):
    return FracPowerSeries(gamma0=p, rho=1.0, coeffs=(c,))


@pytest.mark.parametrize(
    "call, error",
    [(lambda: FracPowerSeries(0.5, 0.0, (1.0,)), ValueError),
     (lambda: FracPowerSeries(0.5, -1.0, (1.0,)), ValueError),
     (lambda: FracPowerSeries(0.5, 1.0, (1.0, math.nan)), ValueError),
     (lambda: EulerPolynomialOperator(coeffs=(0.0, 1.0), time_weight=-1), ValueError),
     (lambda: EulerPolynomialOperator(coeffs=(1.0, 0.0)), DegenerateLeadingError),
     (lambda: EulerPolynomialOperator(coeffs=(math.nan, 1.0)), ValueError),
     (lambda: EulerPolynomialOperator(coeffs=(0.0, math.inf)), ValueError),
     (lambda: rl_derivative(monomial(1.0), 0.0), ValueError),
     (lambda: rl_derivative(monomial(1.0), -0.5), ValueError),
     (lambda: gamma_product_identity_check(0.0, 1, 0.5), ValueError),
     (lambda: gamma_product_identity_check(-1.0, 1, 0.5), ValueError),
     (lambda: gamma_product_identity_check(0.5, 0, 0.5), ValueError)],
    ids=["rho-zero", "rho-negative", "nan-coefficient", "time-weight-negative",
         "leading-coefficient-zero", "nan-operator-coefficient", "inf-operator-coefficient",
         "rl-alpha-zero", "rl-alpha-negative",
         "identity-a-zero", "identity-a-negative", "identity-m-zero"],
)
def test_refusals(call, error):
    with pytest.raises(error):
        call()


class TestRlDerivative:
    def test_half_derivative_of_sqrt(self):
        # D^{1/2} z^{1/2} = Gamma(3/2)/Gamma(1) * z^0 = sqrt(pi)/2
        out = rl_derivative(monomial(0.5), 0.5)
        assert out.gamma0 == pytest.approx(0.0)
        assert complex(out.coeffs[0]).real == pytest.approx(
            math.sqrt(math.pi) / 2, rel=1e-13
        )

    def test_kernel_function(self):
        # D^alpha z^{alpha-1} = 0 (the RL kernel): 1/Gamma(0) = 0
        out = rl_derivative(monomial(0.7 - 1.0), 0.7)
        assert complex(out.coeffs[0]) == 0

    def test_classical_derivative(self):
        out = rl_derivative(monomial(2.0), 1.0)
        assert complex(out.coeffs[0]).real == pytest.approx(2.0, rel=1e-14)
        assert out.gamma0 == pytest.approx(1.0)

    def test_rejects_low_exponent(self):
        with pytest.raises(ExponentOutOfRangeError):
            rl_derivative(monomial(-1.5), 0.5)

    def test_rejects_exponent_within_pole_tolerance_of_minus_one(self):
        # Gamma(p + 1) would sit on its pole at 0
        with pytest.raises(ExponentOutOfRangeError):
            rl_derivative(monomial(-1.0 + 1e-15), 0.5)

    def test_lattice_through_the_kernel(self):
        # gamma0 = alpha - 3, rho = 1: p + 1 - alpha = j - 2 is a pole of
        # the denominator at j = 0, 1, 2, where D^alpha annihilates z^p
        alpha = 2.5
        s = FracPowerSeries(gamma0=alpha - 3.0, rho=1.0, coeffs=[1.0 + 0.5j * j for j in range(12)])
        out = rl_derivative(s, alpha)
        assert out.coeffs[:3] == (0.0, 0.0, 0.0)
        with mpmath.workdps(40):
            want = [
                complex(c * mpmath.gamma(p + 1) / mpmath.gamma(p + 1 - alpha))
                for c, p in zip(s.coeffs[3:], s.exponents()[3:])
            ]
        assert_allclose(out.coeffs[3:], want, rtol=1e-13)

    def test_integer_alpha_matches_polynomial_derivative(self):
        # D^1 of 1 + 2z + 3z^2 + 4z^3 = 2 + 6z + 12z^2
        s = FracPowerSeries(gamma0=0.0, rho=1.0, coeffs=(1.0, 2.0, 3.0, 4.0))
        out = rl_derivative(s, 1.0)
        got = np.array([complex(c).real for c in out.coeffs])
        assert_allclose(got, [0.0, 2.0, 6.0, 12.0], rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("p", [0.3, 1.0, 2.6])
    @pytest.mark.parametrize("alpha,beta", [(0.4, 0.3), (0.5, 0.5), (1.2, 0.6)])
    def test_semigroup_on_powers(self, p, alpha, beta):
        # D^alpha D^beta z^p = D^{alpha+beta} z^p for p - beta > -1
        once = rl_derivative(rl_derivative(monomial(p), beta), alpha)
        combined = rl_derivative(monomial(p), alpha + beta)
        assert once.gamma0 == pytest.approx(combined.gamma0)
        assert_allclose(
            complex(once.coeffs[0]), complex(combined.coeffs[0]), rtol=1e-12
        )


class TestEulerOperator:
    def test_euler_eigenfunction(self):
        # z d/dz on z^3 -> 3 z^3
        op = EulerPolynomialOperator(coeffs=(0.0, 1.0), time_weight=0)
        out = euler_apply(op, monomial(3.0))
        assert complex(out.coeffs[0]).real == pytest.approx(3.0)
        assert out.gamma0 == pytest.approx(3.0)

    def test_root_form(self):
        # a2 z^2 d^2/dz^2 alone: P(s) = s(s-1), roots {0, 1}, P(2) = 2
        op = EulerPolynomialOperator(coeffs=(0.0, 0.0, 1.0), time_weight=0)
        assert sorted(r.real for r in op.roots) == pytest.approx([0.0, 1.0])
        out = euler_apply(op, monomial(2.0))
        assert complex(out.coeffs[0]).real == pytest.approx(2.0)

    def test_zero_series(self):
        op = EulerPolynomialOperator(coeffs=(1.0, 2.0, 3.0), time_weight=1)
        zero = FracPowerSeries(gamma0=0.5, rho=1.0, coeffs=(0.0, 0.0))
        out = euler_apply(op, zero)
        assert all(complex(c) == 0 for c in out.coeffs)

    def test_time_weight_raises_exponents(self):
        op = EulerPolynomialOperator(coeffs=(1.0,), time_weight=2)
        out = euler_apply(op, monomial(0.5))
        assert out.gamma0 == pytest.approx(2.5)

    def test_linearity(self):
        op = EulerPolynomialOperator(coeffs=(0.5, -1.0, 2.0), time_weight=0)
        a = FracPowerSeries(gamma0=0.3, rho=0.7, coeffs=(1.0, 2.0, -1.5))
        b = FracPowerSeries(gamma0=0.3, rho=0.7, coeffs=(0.5, -1.0, 3.0))
        summed = FracPowerSeries(
            gamma0=0.3,
            rho=0.7,
            coeffs=tuple(x + y for x, y in zip(a.coeffs, b.coeffs)),
        )
        lhs = euler_apply(op, summed)
        rhs_a = euler_apply(op, a)
        rhs_b = euler_apply(op, b)
        for j in range(3):
            assert complex(lhs.coeffs[j]) == pytest.approx(
                complex(rhs_a.coeffs[j]) + complex(rhs_b.coeffs[j])
            )

    def test_array_form_matches_per_coefficient_product(self):
        op = EulerPolynomialOperator(coeffs=(0.5, -1.0, 2.0, 0.25), time_weight=1)
        s = FracPowerSeries(gamma0=0.3, rho=0.7, coeffs=[(-1.0) ** j / (j + 1) + 1j * j for j in range(20)])
        out = euler_apply(op, s)
        want = [c * complex(op.char_value(s.exponent(j))) for j, c in enumerate(s.coeffs)]
        assert out.coeffs == tuple(want)
        assert out.gamma0 == s.gamma0 + 1

    def test_char_value_falling_factorial(self):
        # a2 z^2 d^2/dz^2 contributes a2 * s(s-1)
        op = EulerPolynomialOperator(coeffs=(0.0, 0.0, 1.0), time_weight=0)
        assert complex(op.char_value(4.0)).real == pytest.approx(12.0)


def old_char_monomials(coeffs):
    """The numpy.polynomial expansion the operator used to make."""
    from numpy.polynomial import polynomial as P

    acc = np.zeros(1)
    ff = np.array([1.0])
    for i, a in enumerate(coeffs):
        acc = P.polyadd(acc, a * ff)
        ff = P.polymul(ff, np.array([-float(i), 1.0]))
    return acc


class TestCharMonomials:
    @pytest.mark.parametrize("n", range(5))
    def test_equal_numpy_polynomial_expansion(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            coeffs = tuple(rng.normal(size=n + 1) * 10.0 ** rng.uniform(-3, 3, n + 1))
            op = EulerPolynomialOperator(coeffs=coeffs)
            assert np.array_equal(op.monomials, old_char_monomials(coeffs))

    def test_falling_factorials(self):
        # s(s-1)(s-2) = s^3 - 3 s^2 + 2 s
        assert EulerPolynomialOperator(coeffs=(0.0, 0.0, 0.0, 1.0)).monomials == (
            0.0,
            2.0,
            -3.0,
            1.0,
        )

    def test_pde_solve_leaves_numpy_polynomial_unimported(self):
        # the n = 2 roots come from the quadratic formula, so building an
        # H form and a Wright form off d = 2 does not import numpy.polynomial
        code = (
            "import sys\n"
            "from fracsol import pde\n"
            "for alpha in (0.8, 2.5):\n"
            "    pde.solve(pde.DiffusionProblem(alpha=alpha, m=0, d=1.0, A=1.0, C=-0.1))\n"
            "print('numpy.polynomial' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestGammaProductIdentity:
    def test_a2_m1(self):
        # lhs = Gamma(2)/Gamma(3) = 1/2; rhs = Gamma(1)/(2 Gamma(2)) = 1/2
        lhs, rhs = gamma_product_identity_check(2.0, 1, 0.5)
        assert lhs == pytest.approx(0.5, rel=1e-13)
        assert rhs == pytest.approx(0.5, rel=1e-13)

    def test_unit_case(self):
        lhs, rhs = gamma_product_identity_check(1.0, 1, 0.0)
        assert lhs == pytest.approx(1.0, rel=1e-14)
        assert rhs == pytest.approx(1.0, rel=1e-14)

    def test_pole_raises(self):
        # 1 + a*b + m = 0 for a=1, b=-3, m=2
        with pytest.raises(PoleError):
            gamma_product_identity_check(1.0, 2, -3.0)

    def test_random_draws(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        checked = 0
        while checked < 1000:
            a = float(rng.uniform(1e-3, 5.0))
            m = int(rng.integers(1, 6))
            b = float(rng.uniform(-3.0, 3.0))
            try:
                lhs, rhs = gamma_product_identity_check(a, m, b)
            except PoleError:
                continue
            denom = max(abs(lhs), abs(rhs), 1e-300)
            if denom < 1e-6:
                continue
            worst = max(worst, abs(lhs - rhs) / denom)
            checked += 1
        assert worst < 1e-11

    def test_complex_b_against_mpmath(self):
        a, m, b = 1.7, 3, 0.4 + 0.9j
        lhs, rhs = gamma_product_identity_check(a, m, b)
        with mpmath.workdps(40):
            want = mpmath.rgamma(1 + a * b + m)
            for i in range(1, m + 1):
                want *= mpmath.gamma(i / a + b + 1)
            want = complex(want)
        assert_allclose(complex(lhs), want, rtol=1e-12)
        assert_allclose(complex(rhs), want, rtol=1e-12)


class TestAlignSeries:
    def test_offset_detection(self):
        a = FracPowerSeries(gamma0=0.5, rho=0.5, coeffs=(1.0, 2.0, 3.0, 4.0))
        b = FracPowerSeries(gamma0=1.5, rho=0.5, coeffs=(1.0, 2.0))
        offset, n_overlap = align_series(a, b)
        assert offset == 2
        assert n_overlap == 2

    def test_different_steps_rejected(self):
        a = FracPowerSeries(gamma0=0.5, rho=0.5, coeffs=(1.0, 2.0))
        b = FracPowerSeries(gamma0=0.5, rho=0.7, coeffs=(1.0, 2.0))
        with pytest.raises(ExponentMisalignmentError):
            align_series(a, b)

    @pytest.mark.parametrize("gamma0", [0.75, 1.0 + 1e-6, 2.5 - 1e-6])
    def test_off_lattice_start_rejected(self, gamma0):
        # same step, but b's first exponent lies between two of a's
        a = FracPowerSeries(gamma0=0.5, rho=0.5, coeffs=(1.0, 2.0, 3.0, 4.0))
        b = FracPowerSeries(gamma0=gamma0, rho=0.5, coeffs=(1.0, 2.0))
        with pytest.raises(ExponentMisalignmentError, match="common lattice"):
            align_series(a, b)

    def test_second_series_below_first_rejected(self):
        # an offset of -1 would pair b's z^0 with a.coeffs[-1], the z^3 term
        a = FracPowerSeries(gamma0=1.0, rho=1.0, coeffs=(1.0, 2.0, 3.0))
        b = FracPowerSeries(gamma0=0.0, rho=1.0, coeffs=(5.0, 6.0, 7.0))
        with pytest.raises(ExponentMisalignmentError, match="below"):
            align_series(a, b)
        assert align_series(b, a) == (1, 2)
