"""Tests for the complex log-gamma kernel.

Oracle: mpmath.loggamma / mpmath.gamma at 50 digits, plus the classical
recurrence and reflection identities as self-contained cross-checks.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fracsol import gammafn
from fracsol.errors import PoleError
from fracsol.gammafn import (
    gamma,
    gamma_ratio,
    gamma_reciprocal,
    is_nonpositive_integer,
    ln_gamma,
    ln_gamma_vec,
)


def mp_ln_gamma(z):
    with mpmath.workdps(50):
        return complex(mpmath.loggamma(mpmath.mpc(z)))


class TestLnGamma:
    def test_at_one(self):
        assert abs(ln_gamma(1.0)) < 1e-14

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
    def test_non_finite_refused(self, z):
        with pytest.raises(ValueError, match="finite argument"):
            ln_gamma(z)

    def test_at_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert_allclose(ln_gamma(0.5).real, math.log(math.sqrt(math.pi)), rtol=1e-13)

    def test_one_plus_i_modulus(self):
        # |Gamma(1+i)|^2 = pi / sinh(pi)  (reflection formula consequence)
        got = math.exp(ln_gamma(1 + 1j).real)
        want = math.sqrt(math.pi / math.sinh(math.pi))
        assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize(
        "z",
        [0.1, 0.5, 1.0, 3.7, 25.0, 171.0, 2 + 3j, 0.5 + 40j, -4.3 + 0.9j, -0.5, -7.2,
         # reflected, with |Im z| at 0 and on both sides of 1
         -2.3 + 0j, -2.3 + (1 - 1e-9) * 1j, -2.3 - 1j, -2.3 + (1 + 1e-9) * 1j],
    )
    def test_against_mpmath(self, z):
        got = ln_gamma(z)
        want = mp_ln_gamma(z)
        # branch may differ by 2*pi*i in the reflected region; exp() is what
        # every call site consumes, so compare gamma values
        assert_allclose(
            complex(np.exp(got)), complex(mpmath.gamma(z)), rtol=1e-12, atol=1e-300
        )

    def test_pole_raises(self):
        for z in (0.0, -1.0, -6.0):
            with pytest.raises(PoleError):
                ln_gamma(z)

    def test_vectorized_matches_scalar(self):
        zs = np.array([0.3 + 0.1j, 2.0 - 5.0j, -1.5 + 0.2j, 10.0 + 0j])
        vec = ln_gamma_vec(zs)
        for z, v in zip(zs, vec):
            assert_allclose(complex(v), complex(ln_gamma(complex(z))), rtol=1e-13)

    # Re z on both sides of 0.5, so that some elements take the reflection;
    # Im z of both signs, small and large
    MIXED = np.array([
        0.5 + 0.0j, 0.49 + 0.3j, -3.7 + 0.2j, -0.2 - 0.9j, -2.5 + 7.0j, 0.1 - 45.0j,
        0.3 + 1.0j, -11.2 - 1.5j, 0.51 + 0.0j, 2.0 - 5.0j, 7.3 + 60.0j, 0.8 + 1.2j,
    ])

    @staticmethod
    def reflect_everywhere(z):
        """ln_gamma_vec's formula with the reflection term evaluated on every
        element and selected by np.where."""
        z = np.asarray(z, dtype=complex)
        refl = z.real < 0.5
        core = gammafn._core(np.where(refl, 1.0 - z, z))
        return np.where(refl, gammafn._LOG_PI - gammafn._log_sin_pi(z) - core, core)

    def test_masked_reflection_is_bit_identical(self):
        # the reflection runs on the elements with Re z < 0.5 only: the
        # values equal the np.where formula's and those of per-element
        # calls, bit for bit
        z = self.MIXED.reshape(3, 4)
        assert 0 < np.count_nonzero(z.real < 0.5) < z.size
        got = ln_gamma_vec(z)
        assert np.array_equal(got, self.reflect_everywhere(z))
        assert np.array_equal(got.ravel(), [ln_gamma_vec(v[None])[0] for v in z.ravel()])

    @pytest.mark.parametrize("z", [2.5 + 1.0j, -2.5 + 1.0j, 0.5])
    def test_zero_d_argument_gives_zero_d_value(self, z):
        # a 0-d argument runs numpy's scalar arithmetic, whose last bits
        # may differ from the array loops'; the np.where formula's 0-d
        # value is the reference
        got = ln_gamma_vec(z)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert np.array_equal(got, self.reflect_everywhere(z))

    @staticmethod
    def lanczos_full_like(z):
        """_core's Lanczos sum as an ndarray loop: it starts from
        np.full_like(w, c0), a 0-d array for a 0-d z, and takes every
        coefficient as a numpy float."""
        c = np.array(gammafn._LANCZOS)
        w = z - 1.0
        x = np.full_like(w, c[0])
        for k in range(1, len(c)):
            x = x + c[k] / (w + k)
        t = w + gammafn._LANCZOS_G + 0.5
        return gammafn._LOG_SQRT_2PI + (w + 0.5) * np.log(t) - t + np.log(x)

    def test_scalar_lanczos_sum_is_bit_identical(self):
        # _core keeps a 0-d z's sum in numpy scalar arithmetic, from its
        # first term and with Python-float coefficients: its values equal
        # the ndarray loop's bit for bit, on 0-d arguments, on reflected
        # 0-d arguments through ln_gamma_vec, and on arrays
        rng = np.random.default_rng(3)
        z = rng.uniform(-20.0, 20.0, 400) + 1j * rng.uniform(-60.0, 60.0, 400)
        z = np.concatenate([z, self.MIXED])
        refl = z.real < 0.5
        right = np.where(refl, 1.0 - z, z)
        for v in map(np.asarray, right):
            assert np.array_equal(gammafn._core(v), self.lanczos_full_like(v)), v
        for v in z[refl]:
            want = gammafn._LOG_PI - gammafn._log_sin_pi(v[None]) - self.lanczos_full_like(1.0 - v)
            assert np.array_equal(ln_gamma_vec(v), want[0]), v
        assert np.array_equal(gammafn._core(right), self.lanczos_full_like(right))

    @pytest.mark.parametrize("reflected", [False, True])
    def test_no_warning_when_no_or_every_element_is_reflected(self, reflected):
        z = self.MIXED[(self.MIXED.real < 0.5) == reflected]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ln_gamma_vec(z)
            for v in z:
                ln_gamma_vec(v)
        assert np.all(np.isfinite(got))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_log_sin_pi_continuous_off_the_axis(self, sign):
        # along vertical lines strictly above or below the real axis, Im of
        # the log-sin steps by less than pi between neighbours: no 2*pi jump
        # where one formula would hand over to another
        y = sign * np.arange(0.01, 5.0, 0.05)
        for x in np.linspace(-30.0, 0.5, 62):
            step = np.abs(np.diff(gammafn._log_sin_pi(x + 1j * y).imag))
            assert step.max() < math.pi, x

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(min_value=0.1, max_value=50.0),
        y=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_recurrence(self, x, y):
        # Gamma(z+1) = z * Gamma(z)
        z = complex(x, y)
        lhs = complex(np.exp(ln_gamma(z + 1)))
        rhs = z * complex(np.exp(ln_gamma(z)))
        assert_allclose(lhs, rhs, rtol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(min_value=-10.0, max_value=10.0),
        y=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_reflection(self, x, y):
        # Gamma(z) * Gamma(1-z) = pi / sin(pi z), away from the integer poles
        z = complex(x, y)
        if abs(y) < 1e-3 and abs(x - round(x)) < 1e-3:
            return
        lhs = complex(np.exp(ln_gamma(z) + ln_gamma(1 - z)))
        rhs = math.pi / complex(np.sin(math.pi * z))
        assert_allclose(lhs, rhs, rtol=1e-11)


class TestGammaReciprocal:
    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -17.0])
    def test_zero_at_poles(self, z):
        assert gamma_reciprocal(z) == 0

    def test_at_two(self):
        assert_allclose(gamma_reciprocal(2.0), 1.0, rtol=1e-14)

    def test_at_half(self):
        assert_allclose(gamma_reciprocal(0.5), 1 / math.sqrt(math.pi), rtol=1e-13)

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
    def test_non_finite_refused(self, z):
        with pytest.raises(ValueError, match="finite"):
            gamma_reciprocal(z)

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.floats(min_value=-8.0, max_value=8.0),
        y=st.floats(min_value=-8.0, max_value=8.0),
    )
    def test_inverse_of_gamma(self, x, y):
        z = complex(x, y)
        if is_nonpositive_integer(z, tol=1e-3):
            return
        assert_allclose(gamma_reciprocal(z) * gamma(z), 1.0, rtol=1e-12)


class TestGammaRatio:
    def test_three_two(self):
        assert gamma_ratio(3.0, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_sqrt_pi_half(self):
        assert gamma_ratio(1.5, 1.0) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)

    def test_denominator_pole_gives_zero(self):
        assert gamma_ratio(0.8, 0.0) == 0.0

    def test_numerator_pole_raises(self):
        with pytest.raises(PoleError):
            gamma_ratio(-2.0, 1.0)

    def test_array_zero_at_denominator_poles(self):
        q = np.array([0.0, -1.0, 2.5, -3.0 + 1e-15, -0.5])
        got = gamma_ratio(np.full(5, 1.5), q)
        assert got[[0, 1, 3]].tolist() == [0.0, 0.0, 0.0]
        assert_allclose(got[[2, 4]], [math.gamma(1.5) / math.gamma(x) for x in (2.5, -0.5)], rtol=1e-13)

    @pytest.mark.parametrize("where", [0, 3, 5])
    def test_array_numerator_pole_raises(self, where):
        p = np.linspace(0.3, 4.3, 6)
        p[where] = -float(where)
        with pytest.raises(PoleError):
            gamma_ratio(p, 1.5)

    def test_array_matches_scalar_calls(self):
        # scalar calls keep their values; an array holds the same ones
        rng = np.random.default_rng(5)
        p, q = rng.uniform(-6.0, 40.0, 200), rng.uniform(-6.0, 40.0, 200)
        p[::7] = np.round(p[::7]) + 0.5
        q[::5] = -np.round(np.abs(q[::5]))
        got = gamma_ratio(p, q)
        assert got.tolist() == [gamma_ratio(float(a), float(b)) for a, b in zip(p, q)]
        assert np.count_nonzero(got == 0.0) == len(q[::5])
        assert isinstance(gamma_ratio(1.5, 1.0), float)


class TestPoleDetection:
    @pytest.mark.parametrize("z", [0.0, -3.0, -3.0 + 5e-15j])
    def test_detects(self, z):
        assert is_nonpositive_integer(z)

    @pytest.mark.parametrize("z", [1.0, 0.5, -2.5, -3.0 + 1e-6j])
    def test_rejects(self, z):
        assert not is_nonpositive_integer(z)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "z", [math.inf, -math.inf, math.nan, complex(0.0, math.nan), complex(-math.inf, 0.0)]
    )
    def test_non_finite_is_not_a_pole(self, z):
        # no non-finite number is a pole, in either branch
        assert is_nonpositive_integer(z) is False
        assert is_nonpositive_integer(np.array([z, -2.0])).tolist() == [False, True]

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(allow_nan=True, allow_infinity=True),
           y=st.sampled_from([0.0, 1e-15, 1e-13, -2.0, math.nan, math.inf]))
    def test_scalar_branch_matches_array_branch(self, x, y):
        z = complex(x, y)
        with np.errstate(all="raise"):
            assert is_nonpositive_integer(z) == bool(is_nonpositive_integer(np.array(z)))


class TestRealPsi:
    """The real digamma and trigamma the contour's saddle equation sums."""

    @pytest.mark.parametrize(
        "x", np.concatenate([np.geomspace(1e-3, 1e6, 181), [1.4616321449683622, 5.999999999, 6.0]])
    )
    def test_against_mpmath(self, x):
        # psi within 2e-13 (absolute below 1, next to its zero at 1.4616),
        # psi' within 3e-12 relative: the asymptotic series' next terms at
        # x = 6, where the recurrence hands over
        psi, tri = gammafn._real_psi(float(x))
        assert abs(psi - float(mpmath.psi(0, x))) <= 2e-13 * max(1.0, abs(psi))
        assert_allclose(tri, float(mpmath.psi(1, x)), rtol=3e-12)
