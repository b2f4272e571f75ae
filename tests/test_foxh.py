"""Tests for Mellin-Barnes evaluation of Fox H-functions and the
argument-transformation identities (inversion, power scaling, power shift,
Gauss multiplication) plus the large-argument decay envelope.

Primary oracle: H^{1,0}_{0,1}[z | -; (0,1)] = e^{-z}, plus the residue
series summed in mpmath (mp_residue_sum) as an independent summation path,
and mpmath.meijerg for specs whose weights are all equal (H reduces to
Meijer G).
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fracsol import foxh
from fracsol.errors import (
    CancellationError,
    DivergentInputError,
    FracsolError,
    PreconditionViolationError,
    QuadratureFailureError,
    UnsupportedClassError,
)
from fracsol.foxh import (
    HFunctionSpec,
    asymptotic_estimate,
    convergence_params,
    eval_mellin_barnes,
    eval_mellin_barnes_batch,
    gauss_multiplication_reduce,
    invert_argument,
    power_scale,
    shift_by_power,
)
from fracsol.gammafn import ln_gamma_vec

EXP_SPEC = HFunctionSpec(m=1, l=0, upper=(), lower=((0.0, 1.0),))
# all weights 1: H^{3,0}_{1,3} = G^{3,0}_{1,3}[z | 1.2; 0, 0.3, 0.7]
MEIJER_SPEC = HFunctionSpec(
    m=3, l=0, upper=((1.2, 1.0),), lower=((0.0, 1.0), (0.3, 1.0), (0.7, 1.0))
)


def case1_spec(alpha, m, s1=0.0, s2=-0.5):
    """H-function spec of the small-order solution family: H^{m+2,0}_{1,m+2}
    with upper (1, alpha+m) and lower (-s_j/rho, 1), (j/rho, 1)."""
    rho = alpha + m
    lower = [(-s1 / rho, 1.0), (-s2 / rho, 1.0)]
    lower += [(j / rho, 1.0) for j in range(1, m + 1)]
    return HFunctionSpec(m=m + 2, l=0, upper=((1.0, rho),), lower=tuple(lower))


def mp_residue_sum(spec, z, dps=50, kmax=200):
    """The residue series over the right poles s = (B_j + k) / beta_j of an
    l = 0 spec with simple poles, summed by mpmath at dps digits, where
    double-precision terms would cancel."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for j, (b, be) in enumerate(spec.lower[: spec.m]):
            for k in range(kmax + 1):
                s0 = (mpmath.mpf(b) + k) / be
                term = (-1) ** k * mpmath.power(z, s0) / (mpmath.factorial(k) * be)
                for jj, (b2, be2) in enumerate(spec.lower[: spec.m]):
                    if jj != j:
                        term *= mpmath.gamma(b2 - be2 * s0)
                for a, al in spec.upper:
                    term *= mpmath.rgamma(a - al * s0)
                for b2, be2 in spec.lower[spec.m :]:
                    term *= mpmath.rgamma(1 - b2 + be2 * s0)
                total += term
        return float(total)


class TestSpecInvariants:
    def test_rejects_m_too_large(self):
        with pytest.raises(ValueError):
            HFunctionSpec(m=2, l=0, upper=(), lower=((0.0, 1.0),))

    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            HFunctionSpec(m=0, l=0, upper=((1.0, 1.0),), lower=((0.0, 1.0),))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            HFunctionSpec(m=1, l=0, upper=(), lower=((0.0, -1.0),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["upper value", "upper weight", "lower value",
                                       "lower weight"])
    def test_rejects_non_finite_number(self, where, bad):
        # a NaN or infinite lower value used to evaluate to 0.0, and an
        # infinite weight to raise ZeroDivisionError
        pairs = {"upper": [[1.0, 1.0]], "lower": [[0.0, 1.0], [0.5, 1.0]]}
        group, part = where.split()
        pairs[group][0][0 if part == "value" else 1] = bad
        with pytest.raises(ValueError, match="finite"):
            HFunctionSpec(m=2, l=0, upper=pairs["upper"], lower=pairs["lower"])

    def test_weight_past_the_saddle_table_is_unsupported(self):
        # nu = 1e300: the table's range in v overflows a double
        spec = HFunctionSpec(m=1, l=0, upper=(), lower=((0.0, 1e300),))
        with pytest.raises(UnsupportedClassError, match="saddle table"):
            eval_mellin_barnes(spec, 2.0)


class TestConvergenceParams:
    def test_exp_spec(self):
        c = convergence_params(EXP_SPEC)
        assert c.omega == 1.0
        assert c.nu == 1.0
        assert c.mu == pytest.approx(1.0)
        assert c.delta == pytest.approx(-0.5)
        assert c.arg_bound == pytest.approx(math.pi / 2)

    def test_case1_omega_hand_sum(self):
        # omega = sum(beta, j<=m) - sum(alpha, i>l..p): 3*1 - 1.8
        spec = case1_spec(0.8, 1)
        c = convergence_params(spec)
        assert c.omega == pytest.approx(3.0 - 1.8)
        assert c.nu == pytest.approx(3.0 - 1.8)

    def test_all_lower_counted(self):
        # l=p, m=q: omega is the sum of every weight, hence positive
        spec = HFunctionSpec(m=2, l=0, upper=(), lower=((0.0, 1.0), (0.5, 2.0)))
        assert convergence_params(spec).omega == pytest.approx(3.0)


def kernel_curvature(spec, sigma):
    """K''(sigma) of Re log kernel on the real axis, by a central difference."""
    h = 1e-4 * np.maximum(1.0, np.abs(sigma))
    k = lambda x: foxh._log_integrand(spec, x).real
    return (k(sigma + h) - 2.0 * k(sigma) + k(sigma - h)) / h**2


def first_line_pass(calls):
    """Position of the first _log_integrand call off the real axis: the
    saddle table built before it evaluates the kernel at real s only."""
    return next(i for i, s in enumerate(calls) if np.any(s.imag > 0.0))


class TestEvalMellinBarnes:
    @pytest.mark.parametrize("z", [0.05, 0.5, 1.0, 2.0, 8.0, 20.0, 50.0])
    def test_exp_reduction(self, z):
        assert_allclose(eval_mellin_barnes(EXP_SPEC, z), math.exp(-z), rtol=1e-10)

    def test_small_argument_limit(self):
        assert_allclose(eval_mellin_barnes(EXP_SPEC, 1e-8), 1.0, rtol=1e-7)

    @pytest.mark.parametrize("z", [0.3, 1.0, 3.0])
    def test_case1_vs_residue_series(self, z):
        # at z = 3 the terms cancel (sum|t| = 1.1e3 against a sum of 3.4e-4),
        # which mpmath's precision absorbs
        spec = case1_spec(0.8, 1)
        assert_allclose(eval_mellin_barnes(spec, z), mp_residue_sum(spec, z), rtol=1e-8)

    def test_rejects_empty_strip(self):
        # the left poles of Gamma(-1 + s) reach s = 1, right of the first
        # right pole of Gamma(-s) at s = 0: no line separates them
        spec = HFunctionSpec(m=1, l=1, upper=((2.0, 1.0),), lower=((0.0, 1.0),))
        with pytest.raises(UnsupportedClassError):
            eval_mellin_barnes(spec, 1.0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
    def test_two_sided_strip(self, a):
        # H^{1,1}_{1,1}[z | (1 - a, 1); (0, 1)] = Gamma(a) (1 + z)^(-a): the
        # line is the midpoint of the strip -a < Re s < 0
        spec = HFunctionSpec(m=1, l=1, upper=((1.0 - a, 1.0),), lower=((0.0, 1.0),))
        zs = np.geomspace(0.01, 1e3, 25)
        assert_allclose(
            eval_mellin_barnes(spec, zs), math.gamma(a) * (1.0 + zs) ** -a, rtol=1e-11
        )

    @pytest.mark.parametrize("alpha_p", [1.0, 2.0])
    def test_rejects_nonpositive_omega(self, alpha_p):
        # omega = 1 - alpha_p: the kernel does not decay along the line
        spec = HFunctionSpec(m=1, l=0, upper=((1.0, alpha_p),), lower=((0.0, 1.0),))
        assert convergence_params(spec).omega <= 0
        with pytest.raises(DivergentInputError):
            eval_mellin_barnes(spec, 1.0)

    @pytest.mark.parametrize("z", [0.1, 0.3, 0.7])
    def test_small_omega_vs_residue_series(self, z):
        # alpha = 1.67, m = 0: omega = 0.33, so the integrand decays slowly
        # and the first pass spans |tau| <= 30 / (pi omega / 2) = 58
        spec = case1_spec(1.67, 0)
        assert convergence_params(spec).omega == pytest.approx(0.33)
        assert_allclose(eval_mellin_barnes(spec, z), mp_residue_sum(spec, z), rtol=1e-9)

    @pytest.mark.parametrize("z", [50.0, 400.0, 2500.0, 1e4])
    def test_deep_decay_vs_meijer_g(self, z):
        # at z = 1e4 the value is ~1e-88, reached only on the saddle
        # contour, where the integrand decays slowly near the real axis and
        # the truncation is extended
        with mpmath.workdps(30):
            want = float(mpmath.meijerg([[], [1.2]], [[0.0, 0.3, 0.7], []], z))
        assert_allclose(eval_mellin_barnes(MEIJER_SPEC, z), want, rtol=1e-9)

    def test_refinement_adds_only_midpoints(self, monkeypatch):
        # on the fixed line at z = 1e-10 the phase tau log z turns by 2.3
        # per step _H0, so the first pass fails the phase guard and is
        # refined: each refinement pass evaluates only the midpoints of
        # the lattice before it, not a fresh lattice
        spec = self.SMALL_Z_SPEC
        calls = TestHalfLineQuadrature.record(monkeypatch)
        want = mp_residue_sum(spec, 1e-10, dps=40, kmax=150)
        assert_allclose(eval_mellin_barnes(spec, 1e-10), want, rtol=1e-10)
        first, *later = calls[first_line_pass(calls) :]
        lattice, refined = first.imag, 0
        for nodes in (s.imag for s in later):
            if nodes[0] > lattice[-1]:
                # a doubling of T extends the lattice at its step
                step = lattice[1] - lattice[0]
                want = lattice[-1] + step * np.arange(1, nodes.size + 1)
                assert_allclose(nodes, want, rtol=1e-14)
                lattice = np.concatenate([lattice, nodes])
            else:
                refined += 1
                assert_allclose(nodes, (lattice[:-1] + lattice[1:]) / 2.0, rtol=1e-14)
                lattice = np.sort(np.concatenate([lattice, nodes]))
        assert refined

    @pytest.mark.parametrize(
        "spec,z,want",
        [(EXP_SPEC, 0.5, math.exp(-0.5)), (MEIJER_SPEC, 1e4, 9.716573889526e-89)],
        ids=["exp", "deep"],
    )
    def test_first_pass_settles(self, spec, z, want, monkeypatch):
        # the first pass passes its own T(h) / T(2h) estimate and the phase
        # guard: one line pass, no refinement (the deep value, by
        # mpmath.meijerg as in test_deep_decay_vs_meijer_g, sits near
        # 1e-88 on the slid contour)
        calls = TestHalfLineQuadrature.record(monkeypatch)
        assert_allclose(eval_mellin_barnes(spec, z), want, rtol=1e-10)
        assert len(calls[first_line_pass(calls) :]) == 1

    def test_runaway_truncation_raises(self, monkeypatch):
        # z = 2.2 on the saddle contour needs one doubling of T: it settles
        # when one is allowed and raises when none is
        monkeypatch.setattr(foxh, "_MAX_DOUBLINGS", 1)
        with mpmath.workdps(30):
            want = float(mpmath.meijerg([[], [1.2]], [[0.0, 0.3, 0.7], []], 2.2))
        assert_allclose(eval_mellin_barnes(MEIJER_SPEC, 2.2), want, rtol=1e-9)
        monkeypatch.setattr(foxh, "_MAX_DOUBLINGS", 0)
        with pytest.raises(QuadratureFailureError):
            eval_mellin_barnes(MEIJER_SPEC, 2.2)

    def test_underflow_returns_zero(self):
        # exp(-z) at z = 800 lies below the smallest subnormal
        assert eval_mellin_barnes(EXP_SPEC, 800.0) == 0.0

    def test_stalled_refinement_raises(self, monkeypatch):
        # m < q keeps the contour off the saddle; at z = 30 the value
        # (-7.06126e-5 by a 60-digit mpmath residue sum) is small against
        # an O(1) integrand, so rounding noise keeps every pass apart from
        # the last and an exact-agreement demand cannot be met
        spec = HFunctionSpec(m=1, l=0, upper=(), lower=((0.0, 1.0), (0.5, 0.5)))
        assert_allclose(eval_mellin_barnes(spec, 30.0), -7.06125526294963e-05, rtol=1e-9)
        monkeypatch.setattr(foxh, "_REFINE_TOL", 0.0)
        with pytest.raises(QuadratureFailureError):
            eval_mellin_barnes(spec, 30.0)


    # m < q keeps the fixed line, whose integrand is about z^(-1/2) times
    # larger than H at small z
    SMALL_Z_SPEC = HFunctionSpec(m=1, l=0, upper=(), lower=((0.1, 1.875), (0.0, 0.9375)))

    def test_small_argument_cancellation_raises(self):
        # eps * integral|f| / |integral f| = 8.2e-10: the value came back
        # 1.7e-9 relative off the residue sum, 0.0999891
        with pytest.raises(CancellationError):
            eval_mellin_barnes(self.SMALL_Z_SPEC, 1.41e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_sum_cancellation_raises(self, monkeypatch):
        # a kernel of modulus 1 at tau = h and e^-1000 or less elsewhere on
        # the first pass, and whose first refinement adds its negative at
        # tau = h / 2: at z = 1, where tau log z vanishes, the refinement
        # sums to exactly 0.0, the ratio in the error's message is
        # infinite, and no division warns
        h = foxh._H0

        def kernel(spec, s):
            tau = np.asarray(s).imag
            return np.where(
                np.isclose(tau, h), 0.0, np.where(np.isclose(tau, h / 2.0), 1j * np.pi, -1000.0 - tau)
            )

        assert np.cos(np.pi) == -1.0
        monkeypatch.setattr(foxh, "_log_integrand", kernel)
        with pytest.raises(CancellationError, match="= inf"):
            eval_mellin_barnes(FIXED_SPEC, 1.0)

    @pytest.mark.parametrize("z", [1e-16, 1e-20, 1e-30, 1e-300])
    def test_small_argument_stall_is_cancellation(self, z, monkeypatch):
        # the default line of an m = q spec at tiny z: eps * integral|f|
        # exceeds _REFINE_TOL of |H|, so no two passes can agree; this is
        # refused after a refinement pass, not after all of them (at z =
        # 1e-20 six passes took 74,188 nodes and raised
        # QuadratureFailureError)
        spec = case1_spec(1.67, 0)
        calls = TestHalfLineQuadrature.record(monkeypatch)
        with pytest.raises(CancellationError):
            eval_mellin_barnes(spec, z)
        assert sum(s.size for s in calls) <= 4000
        # closer to the cancellation tolerance values still come back
        want = mp_residue_sum(spec, 1e-12, dps=40, kmax=150)
        assert_allclose(eval_mellin_barnes(spec, 1e-12), want, rtol=1e-10)

    def test_small_argument_below_cancellation_tolerance(self):
        # the ratio is 9.7e-12 here, under the 1e-10 tolerance
        want = mp_residue_sum(self.SMALL_Z_SPEC, 1e-10, dps=40, kmax=150)
        assert_allclose(eval_mellin_barnes(self.SMALL_Z_SPEC, 1e-10), want, rtol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(
        spec=st.sampled_from((SMALL_Z_SPEC, case1_spec(1.67, 0))),
        log10_z=st.floats(-30.0, -8.0),
    )
    def test_small_argument_does_not_alias(self, spec, log10_z):
        # on a fixed line tau log z turns by more than pi / 2 per step _H0
        # below z = 1.5e-7, so T(h) and T(2h) can agree by aliasing
        # (case1_spec(1.67, 0) at 1e-30 gave 1.2e14 without the phase
        # guard); every value must match the residue sum to the refinement
        # tolerance or be refused.  Next to the cancellation limit values
        # come back up to 1.7e-10 off (z = 2.3e-13 here): the phase reaches
        # hundreds of radians, and its rounding is up to twice the eps
        # integral|f| that the cancellation test charges
        z = 10.0**log10_z
        try:
            got = eval_mellin_barnes(spec, z)
        except FracsolError:
            return
        want = mp_residue_sum(spec, z, dps=40, kmax=150)
        assert_allclose(got, want, rtol=foxh._REFINE_TOL)


class TestSaddleSearch:
    @pytest.mark.parametrize("alpha", [0.3, 0.8, 1.5, 1.9])
    @pytest.mark.parametrize("m", [0, 2])
    def test_within_a_hundredth_of_dense_search(self, alpha, m):
        # the case1 spec slides left at large z, its inverted spec right
        # at small z
        spec = case1_spec(alpha, m)
        z = np.geomspace(1e-3, 1e4, 60)
        for spec, z in ((spec, z), (invert_argument(spec), 1.0 / z)):
            c = foxh._constants(spec)
            log_z = np.log(z)
            sigma, kpp, _ = foxh._real_minimum(c, log_z)
            # dense in log r near the edge and in r far from it, over the
            # table's range
            gap, reach = np.abs(c.table[1][[0, -1]] - c.edge)
            r = np.concatenate([np.geomspace(gap, reach, 40001), np.linspace(gap, reach, 40001)])
            dense = c.edge - c.d * r
            kernel = foxh._log_integrand(spec, dense).real
            best = np.array([np.min(kernel + dense * lz) for lz in log_z])
            at_sigma = foxh._log_integrand(spec, sigma).real + sigma * log_z
            assert np.all(at_sigma - best <= 0.01)
            # the fitted curvature is K'' at the abscissa, by a central
            # difference, within 10%; NaN only where no parabola was fitted
            fit = np.isfinite(kpp)
            assert np.count_nonzero(fit) >= 10
            assert_allclose(kpp[fit], kernel_curvature(spec, sigma[fit]), rtol=0.1)

    def test_kernel_value_matches_kernel(self):
        # Re K that the search returns with each slid saddle, from its
        # parabola's vertex, is within 1e-3 of the kernel there: far below
        # the _LINE_LOSS e-folds the grouping compares it against
        z = np.geomspace(1e-3, 1e4, 200)
        for spec in (case1_spec(0.8, 1), case1_spec(1.5, 2), *GL_SPECS):
            c = foxh._constants(spec)
            sigma, _, kernel = foxh._real_minimum(c, np.log(z))
            slid = c.d * sigma < c.d * c.gamma0
            assert np.count_nonzero(slid) >= 100
            want = foxh._log_integrand(spec, sigma[slid]).real
            assert np.max(np.abs(kernel[slid] - want)) <= 1e-3

    def test_calls_do_not_grow_with_z(self, monkeypatch):
        # once the table exists, the search itself evaluates no kernel
        c = foxh._constants(case1_spec(0.8, 1))
        c.table
        calls = TestHalfLineQuadrature.record(monkeypatch)
        for z in (np.array([3.0]), np.geomspace(1e-3, 1e4, 320)):
            foxh._real_minimum(c, np.log(z))
        assert calls == []

    def test_first_slid_evaluation_builds_table(self, monkeypatch):
        # a fresh spec's first slid evaluation builds the table in one
        # kernel call on the real axis; a second single-z evaluation, slid
        # or not, makes none and runs line passes only
        foxh._constants.cache_clear()
        spec = case1_spec(1.5, 1)
        calls = TestHalfLineQuadrature.record(monkeypatch)
        eval_mellin_barnes(spec, 50.0)
        real = [s for s in calls if np.all(s.imag == 0.0)]
        assert len(real) == 1 and real[0] is calls[0]
        assert real[0].size == foxh._constants(spec).table[1].size
        assert calls[1].real.max() < -0.5
        for z in (1e3, 0.01):
            calls.clear()
            eval_mellin_barnes(spec, z)
            assert calls and not any(np.all(s.imag == 0.0) for s in calls)

    def test_equal_specs_share_the_table(self, monkeypatch):
        a, b = case1_spec(1.2, 2), case1_spec(1.2, 2)
        assert a is not b
        assert foxh._constants(a) is foxh._constants(b)
        eval_mellin_barnes(a, 40.0)
        calls = TestHalfLineQuadrature.record(monkeypatch)
        assert_allclose(eval_mellin_barnes(b, 40.0), eval_mellin_barnes(a, 40.0), rtol=0.0)
        assert not any(np.all(s.imag == 0.0) for s in calls)


class TestResidueSeriesRegimes:
    """Arguments where the residue series fails in double precision; the
    contour does not."""

    def test_cancelling_terms(self):
        # the terms reach 2.7e7 against a sum of -7.06126e-5 (a 60-digit
        # mpmath residue sum); double-precision summation returned -7.0641e-5
        spec = HFunctionSpec(m=1, l=0, upper=(), lower=((0.0, 1.0), (0.5, 0.5)))
        assert_allclose(mp_residue_sum(spec, 30.0), -7.06125526294963e-05, rtol=1e-12)
        assert_allclose(eval_mellin_barnes(spec, 30.0), -7.06125526294963e-05, rtol=1e-9)

    def test_growing_terms(self):
        # the terms 40^k / (k! Gamma(1/2 - k/2)) still grow at k = 300;
        # a 300-term double sum was 1.46e127, the contour gives 1.08e-174
        spec = HFunctionSpec(m=1, l=0, upper=((0.5, 0.5),), lower=((0.0, 1.0),))
        assert_allclose(eval_mellin_barnes(spec, 40.0), 1.0805e-174, rtol=1e-4)


# the two H-form specs of the GL verification: m = q, so large arguments
# slide the contour to the saddle, and each profile spans deep decay
GL_SPECS = (
    HFunctionSpec(m=3, l=0, upper=((1.0, 1.8),), lower=((0.0, 1.0), (0.5, 1.0), (5 / 9, 1.0))),
    HFunctionSpec(m=2, l=0, upper=((1.0, 0.62),), lower=((-0.0984, 1.0), (0.55, 1.0))),
)
# m < q: every argument stays on the fixed abscissa
FIXED_SPEC = HFunctionSpec(m=1, l=0, upper=(), lower=((0.0, 1.0), (0.5, 0.5)))


class TestBatchedEvaluation:
    @pytest.mark.parametrize(
        "spec,z_hi",
        [(GL_SPECS[0], 100.0), (GL_SPECS[1], 140.0), (FIXED_SPEC, 10.0), (EXP_SPEC, 900.0)],
        ids=["gl-m1", "gl-m0", "fixed", "exp"],
    )
    def test_array_matches_scalar(self, spec, z_hi, monkeypatch):
        sizes = []
        log_integrand = foxh._log_integrand

        def counting(spec, s):
            sizes.append(np.size(s))
            return log_integrand(spec, s)

        monkeypatch.setattr(foxh, "_log_integrand", counting)
        zs = np.geomspace(0.02, z_hi, 320)
        got = eval_mellin_barnes(spec, zs)
        batched = sum(sizes)
        sizes.clear()
        want = np.array([eval_mellin_barnes(spec, z) for z in zs])
        # subnormal values carry only absolute accuracy
        assert_allclose(got, want, rtol=1e-11, atol=np.finfo(float).tiny)
        assert np.array_equal(got == 0.0, want == 0.0)
        # the shared kernel: under a quarter of the scalar calls' nodes
        assert batched < sum(sizes) / 4

    def test_bands_sized_by_first_pass_array(self, monkeypatch):
        # criterion 4's spec at 320 log-spaced z: each band's first-pass
        # (z x nodes) array holds at most 2^13 elements, the call takes at
        # most 6 bands (a cap of 32 z per band needed 10), and a shared
        # line moves no value by 1e-10 from its single-z evaluation
        first_pass = []
        trapezoid_line = foxh._trapezoid_line

        def line(spec, z, gamma, omega, h0, k):
            # k is the kernel on the band's first-pass nodes
            first_pass.append((len(z), k.size))
            return trapezoid_line(spec, z, gamma, omega, h0, k)

        zs = np.geomspace(0.1, 50.0, 320)
        monkeypatch.setattr(foxh, "_trapezoid_line", line)
        got = eval_mellin_barnes(GL_SPECS[0], zs)
        monkeypatch.undo()
        assert len(first_pass) <= 6
        assert sum(n_z for n_z, _ in first_pass) == zs.size
        assert max(n_z * nodes for n_z, nodes in first_pass) <= 2**13
        want = np.array([eval_mellin_barnes(GL_SPECS[0], z) for z in zs])
        assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_one_z_per_band_past_the_array_bound(self):
        # omega = 0.02: one z's first pass has 9,550 nodes, more than the
        # 2^13 elements a band's array may hold, so each band takes one z
        spec = HFunctionSpec(m=1, l=0, upper=((0.5, 0.98),), lower=((0.0, 1.0),))
        assert foxh._band_size(convergence_params(spec).omega, foxh._H0) == 1
        zs = np.array([0.5, 1.0, 2.0])
        want = [eval_mellin_barnes(spec, z) for z in zs]
        assert_allclose(eval_mellin_barnes(spec, zs), want, rtol=1e-12)

    def test_exp_array_with_underflow(self):
        # exp(-z) lies below the smallest subnormal beyond z = 745
        zs = np.geomspace(1e-3, 900.0, 320)
        got = eval_mellin_barnes(EXP_SPEC, zs)
        normal = zs < 700.0
        assert_allclose(got[normal], np.exp(-zs[normal]), rtol=1e-10)
        assert np.all(got[zs > 750.0] == 0.0)

    @pytest.mark.parametrize(
        "alpha,m,zs",
        [
            (1.5, 2, np.array([0.3, 400.0])),
            (1.5, 2, np.geomspace(1e-3, 50.0, 40)),
            (1.67, 1, np.geomspace(1e-3, 50.0, 40)),
            (1.67, 2, np.geomspace(1e-3, 50.0, 40)),
        ],
    )
    def test_far_member_keeps_saddles(self, alpha, m, zs):
        # members far past double underflow share the saddle search with
        # the others; every member must still find its own saddle
        spec = case1_spec(alpha, m)
        got = eval_mellin_barnes(spec, zs)
        want = np.array([eval_mellin_barnes(spec, z) for z in zs])
        assert np.array_equal(got == 0.0, want == 0.0)
        assert want[0] > 0.0
        assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_kernel_matches_factor_loop(self):
        # the stacked arguments of every factor, in chunks of
        # _LN_GAMMA_CHUNK elements, give the same numbers as one
        # ln_gamma_vec call per factor
        spec = HFunctionSpec(
            m=1, l=1, upper=((0.3, 0.7), (1.0, 1.8)), lower=((0.2, 1.0), (0.5, 0.5))
        )
        s = 0.1 + 1j * np.linspace(-40.0, 40.0, 2501)
        assert 4 * s.size > 2 * foxh._LN_GAMMA_CHUNK
        want = (
            ln_gamma_vec(0.2 - 1.0 * s)
            + ln_gamma_vec(1.0 - 0.3 + 0.7 * s)
            - ln_gamma_vec(1.0 - 1.8 * s)
            - ln_gamma_vec(1.0 - 0.5 + 0.5 * s)
        )
        assert np.array_equal(foxh._log_integrand(spec, s), want)

    def test_shapes(self):
        value = eval_mellin_barnes(EXP_SPEC, 0.5)
        assert type(value) is float
        one = eval_mellin_barnes(EXP_SPEC, np.array([0.5]))
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert one[0] == value
        empty = eval_mellin_barnes(EXP_SPEC, np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            eval_mellin_barnes(EXP_SPEC, np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            eval_mellin_barnes(EXP_SPEC, math.nan)
        with pytest.raises(ValueError):
            eval_mellin_barnes_batch(EXP_SPEC, np.ones((2, 2)))


def meijer_oracle(spec, z, k):
    """H at z of an l = 0 spec whose weights all equal k, by mpmath.meijerg:
    by the power_scale identity it is G[z^(1/k)] / k for the same A_i, B_j."""
    with mpmath.workdps(40):
        a = [[], [a for a, _ in spec.upper]]
        b = [[b for b, _ in spec.lower[: spec.m]], [b for b, _ in spec.lower[spec.m :]]]
        return float(mpmath.meijerg(a, b, mpmath.mpf(z) ** (1 / mpmath.mpf(k)))) / k


@st.composite
def slide_specs(draw):
    """H^{q,0}_{p,q} with q = 2 or 3, distinct B_j and every weight k: m = q,
    so large arguments slide the contour to the real saddle."""
    k = draw(st.floats(0.5, 2.0))
    q = draw(st.sampled_from((2, 3)))
    bs = draw(st.lists(st.floats(0.0, 1.0), min_size=q, max_size=q))
    # the oracle's hypergeometric sums slow down at (nearly) coincident poles
    assume(min(abs(x - y) for i, x in enumerate(bs) for y in bs[i + 1 :]) > 0.05)
    upper = ((draw(st.floats(1.0, 2.0)), k),) if q == 3 else ()
    return HFunctionSpec(m=q, l=0, upper=upper, lower=tuple((b, k) for b in bs)), k


# decay levels nu (mu z)^(1/nu) at which H is near 1, 1e-1, 1e-40 and
# 1e-130; the deepest takes the largest contour steps
DECAY_LEVELS = (0.5, 2.5, 95.0, 300.0)


class TestHalfLineQuadrature:
    """The integrand is conjugate-symmetric on the line, so the trapezoid
    rule evaluates it at Im s >= 0 only."""

    @staticmethod
    def record(monkeypatch):
        calls = []
        log_integrand = foxh._log_integrand

        def recording(spec, s):
            calls.append(np.asarray(s))
            return log_integrand(spec, s)

        monkeypatch.setattr(foxh, "_log_integrand", recording)
        return calls

    def test_nodes_in_upper_half_plane(self, monkeypatch):
        # the saddle tables lie on the real axis and are not quadrature
        # nodes: build them before counting
        foxh._constants(MEIJER_SPEC).table
        foxh._constants(invert_argument(EXP_SPEC)).table
        calls = self.record(monkeypatch)
        # fixed line, saddle contour with three doublings of T, and l > 0
        eval_mellin_barnes(FIXED_SPEC, np.array([0.5, 30.0]))
        eval_mellin_barnes(MEIJER_SPEC, 1e4)
        eval_mellin_barnes(invert_argument(EXP_SPEC), 0.5)
        nodes = np.concatenate([s.ravel() for s in calls])
        assert np.all(nodes.imag >= 0.0)
        assert np.count_nonzero(nodes.imag > 0.0) > nodes.size / 2

    def test_first_pass_has_n_plus_one_nodes(self, monkeypatch):
        # exp(-z) slides to sigma < 0 at every z; the first pass spans k h0,
        # 0 <= k <= n, with h0 by the step rule (a fifth of the distance
        # |sigma| to the pole at s = 0 at z = 0.5, a quarter of the
        # Gaussian width at z = 40 and 300)
        calls = self.record(monkeypatch)
        rate = math.pi * convergence_params(EXP_SPEC).omega / 2.0
        for z in (0.5, 40.0, 300.0):
            calls.clear()
            assert_allclose(eval_mellin_barnes(EXP_SPEC, z), math.exp(-z), rtol=1e-10)
            first = calls[first_line_pass(calls)]
            sigma = first[0].real
            assert sigma < -0.5
            w = 1.0 / math.sqrt(kernel_curvature(EXP_SPEC, np.array([sigma]))[0])
            h0 = first[1].imag
            assert h0 > foxh._H0
            assert_allclose(h0, min(w / 4.0, abs(sigma) / 5.0), rtol=0.1)
            n = max(math.ceil(foxh._DECAY_LOGS / rate / h0), foxh._N_MIN)
            assert first.size == n + 1
            assert_allclose(first.imag, np.arange(n + 1) * h0, rtol=1e-15)

    @settings(max_examples=10, deadline=None)
    @given(drawn=slide_specs())
    def test_saddle_slide_vs_meijer_g(self, drawn):
        spec, k = drawn
        c = convergence_params(spec)
        zs = np.array([(level / c.nu) ** c.nu / c.mu for level in DECAY_LEVELS])
        want = np.array([meijer_oracle(spec, z, k) for z in zs])
        assert abs(want[-1]) < 1e-35
        assert_allclose(eval_mellin_barnes(spec, zs), want, rtol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(drawn=slide_specs())
    def test_general_contour_vs_meijer_g(self, drawn):
        # the inverted spec has m = 0 and l = q > 0; at 1/z its contour
        # slides right to the real saddle
        spec, k = drawn
        c = convergence_params(spec)
        inv = invert_argument(spec)
        for level in DECAY_LEVELS:
            z = (level / c.nu) ** c.nu / c.mu
            assert_allclose(
                eval_mellin_barnes(inv, 1.0 / z), meijer_oracle(spec, z, k), rtol=1e-9
            )

    @settings(max_examples=10, deadline=None)
    @given(
        be1=st.floats(0.6, 1.5),
        be2_share=st.floats(0.05, 0.8),
        b1=st.floats(0.3, 0.6),
        b2=st.floats(-0.5, 0.5),
        upper=st.one_of(st.none(), st.tuples(st.floats(1.5, 2.5), st.floats(0.05, 0.9))),
    )
    def test_fixed_line_vs_residue_sum(self, be1, be2_share, b1, b2, upper):
        # m = 1 < q = 2: every argument stays on the fixed line, whose
        # integrand is about z^(-1/2) times larger than H at small z,
        # so z is placed where H is near 1/2 and 1/10 and b1 / beta_1 >= 0.2
        # keeps z above 1e-7
        be2 = be2_share * be1
        up = ()
        if upper is not None:
            assume(upper[1] < be1 - be2)
            up = (upper,)
        spec = HFunctionSpec(m=1, l=0, upper=up, lower=((b1, be1), (b2, be2)))
        # the leading residue, at s0 = b1 / be1, is c0 z^s0
        s0 = b1 / be1
        c0 = 1.0 / (be1 * math.gamma(1.0 - b2 + be2 * s0))
        for a, al in up:
            c0 /= math.gamma(a - al * s0)
        for target in (0.5, 0.1):
            z = min((target / c0) ** (1.0 / s0), 1.0)
            want = mp_residue_sum(spec, z, dps=40, kmax=150)
            assume(0.01 < abs(want) < 2.0)
            assert_allclose(eval_mellin_barnes(spec, z), want, rtol=1e-9)


def outcome(spec, z):
    """eval_mellin_barnes(spec, z), or the type of the error it raises."""
    try:
        return eval_mellin_barnes(spec, z)
    except FracsolError as exc:
        return type(exc)


class TestContourStep:
    """A slid band's first pass takes the step h0 = max(_H0, min(w / 4,
    dist / 5)), w = 1 / sqrt(K'') being the Gaussian width of the integrand
    along its line and dist the distance to the nearest pole; bands on the
    default line keep _H0."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.2, 1.5, 1.67, 1.9])
    def test_values_match_base_step(self, alpha, monkeypatch):
        # each case1 spec at 60 z, and its inverted spec at 1/z, whose
        # contour slides right; against every band forced onto h0 = _H0
        zs = np.geomspace(1e-3, 1e4, 60)
        cases = [(case1_spec(alpha, m), zs) for m in (0, 1, 2)]
        cases += [(invert_argument(spec), 1.0 / z) for spec, z in cases]
        got = [outcome(spec, z) for spec, z in cases]
        contour_bands = foxh._contour_bands
        monkeypatch.setattr(
            foxh, "_contour_bands",
            lambda c, z: ((gamma, idx, foxh._H0) for gamma, idx, _ in contour_bands(c, z)),
        )
        want = [outcome(spec, z) for spec, z in cases]
        for g, w in zip(got, want):
            if isinstance(w, type):
                assert g is w
                continue
            assert np.array_equal(g == 0.0, w == 0.0)
            # subnormal values carry only absolute accuracy
            assert_allclose(g, w, rtol=1e-10, atol=np.finfo(float).tiny)

    @pytest.mark.parametrize(
        "spec,z", [(FIXED_SPEC, 0.5), (FIXED_SPEC, 30.0), (case1_spec(0.8, 1), 1e-3)]
    )
    def test_default_line_keeps_base_step(self, spec, z, monkeypatch):
        # m < q never slides, and the small-argument case1 saddle lies
        # right of gamma0 = -1/2: both stay on the _H0 lattice
        calls = TestHalfLineQuadrature.record(monkeypatch)
        eval_mellin_barnes(spec, z)
        rate = math.pi * convergence_params(spec).omega / 2.0
        n = max(math.ceil(foxh._DECAY_LOGS / rate / foxh._H0), foxh._N_MIN)
        first = calls[first_line_pass(calls)]
        assert first.size == n + 1
        assert np.all(first.real == -0.5)
        assert_allclose(first.imag, np.arange(n + 1) * foxh._H0, rtol=1e-15)

    def test_deep_point_costs_few_nodes(self, monkeypatch):
        # decay level 100 puts the saddle near sigma = -306, where the
        # Gaussian is about 31 wide; on h = _H0 its line took 4,633 nodes
        # (a first pass, two doublings of T and a refinement)
        spec = case1_spec(1.67, 0)
        c = convergence_params(spec)
        z = (100.0 / c.nu) ** c.nu / c.mu
        calls = TestHalfLineQuadrature.record(monkeypatch)
        got = eval_mellin_barnes(spec, z)
        assert sum(s.size for s in calls[first_line_pass(calls) :]) <= 300
        assert 1e-50 < got < 1e-40

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_arguments(self):
        # the bracket width (mu z)^(1/nu) is taken in logs, so 1e300 does
        # not overflow; a non-finite z is refused before it reaches a step
        spec = case1_spec(1.67, 0)
        assert eval_mellin_barnes(spec, 1e300) == 0.0
        assert eval_mellin_barnes(invert_argument(spec), 1e-300) == 0.0
        for z in (math.inf, np.array([1.0, math.inf])):
            with pytest.raises(ValueError):
                eval_mellin_barnes(spec, z)
            with pytest.raises(ValueError):
                eval_mellin_barnes(invert_argument(spec), z)


class TestInvertArgument:
    def test_involution(self):
        spec = case1_spec(0.8, 1)
        assert invert_argument(invert_argument(spec)) == spec

    def test_field_swap(self):
        inv = invert_argument(EXP_SPEC)
        assert (inv.m, inv.l, inv.p, inv.q) == (0, 1, 1, 0)
        assert inv.upper == ((1.0, 1.0),)

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
    def test_numeric_contract(self, z):
        # eval(spec, z) = eval(inverse, 1/z); the inverse has m = 0, l = 1
        inv = invert_argument(EXP_SPEC)
        assert_allclose(eval_mellin_barnes(inv, 1.0 / z), math.exp(-z), rtol=1e-8)

    @pytest.mark.parametrize("alpha,m", [(0.5, 0), (0.8, 1), (1.5, 2)])
    @pytest.mark.parametrize("w", [0.5, 1.0, 2.0, 5.0])
    def test_contract_solver_family(self, alpha, m, w):
        # place the test argument so the decay exponent nu*(mu z)^{1/nu} = nu*w
        # stays moderate; at fixed z the steep families underflow to 0
        spec = case1_spec(alpha, m)
        c = convergence_params(spec)
        z = w**c.nu / c.mu
        inv = invert_argument(spec)
        assert_allclose(
            eval_mellin_barnes(inv, 1.0 / z), eval_mellin_barnes(spec, z), rtol=1e-6
        )


class TestPowerScale:
    def test_identity_at_one(self):
        assert power_scale(EXP_SPEC, 1.0) == EXP_SPEC

    def test_composition(self):
        spec = case1_spec(0.8, 1)
        assert power_scale(power_scale(spec, 2.0), 1.5) == power_scale(spec, 3.0)

    @pytest.mark.parametrize("k", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
    def test_numeric_contract(self, k, z):
        scaled = power_scale(EXP_SPEC, k)
        assert_allclose(
            k * eval_mellin_barnes(scaled, z**k), math.exp(-z), rtol=1e-6
        )


class TestShiftByPower:
    def test_identity_at_zero(self):
        assert shift_by_power(EXP_SPEC, 0.0) == EXP_SPEC

    def test_additivity(self):
        spec = case1_spec(1.5, 2)
        assert shift_by_power(shift_by_power(spec, 0.5), 1.5) == shift_by_power(
            spec, 2.0
        )

    @pytest.mark.parametrize("sigma", [-1.0, 0.5, 2.0])
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
    def test_numeric_contract(self, sigma, z):
        shifted = shift_by_power(EXP_SPEC, sigma)
        assert_allclose(
            eval_mellin_barnes(shifted, z), z**sigma * math.exp(-z), rtol=1e-6
        )

    def test_z_exp_z(self):
        # sigma=1 lower parameter becomes (1,1): z*e^{-z} at z=1
        shifted = shift_by_power(EXP_SPEC, 1.0)
        assert shifted.lower == ((1.0, 1.0),)
        assert_allclose(eval_mellin_barnes(shifted, 1.0), math.exp(-1.0), rtol=1e-9)


class TestGaussMultiplication:
    @staticmethod
    def augmented(spec, r):
        """Left-hand eq12 shape: extra upper (1,r) and lower (j/r,1)_{1..r}."""
        return HFunctionSpec(
            m=spec.m + r,
            l=0,
            upper=spec.upper + ((1.0, float(r)),),
            lower=tuple((j / r, 1.0) for j in range(1, r + 1)) + spec.lower,
        )

    def test_r1_degenerate(self):
        red = gauss_multiplication_reduce(self.augmented(EXP_SPEC, 1), 1)
        assert red.scale == pytest.approx(1.0)
        assert red.argument_multiplier == pytest.approx(1.0)
        assert red.spec == EXP_SPEC

    def test_scale_r3(self):
        assert (2 * math.pi) / math.sqrt(3) == pytest.approx(3.6275987, rel=1e-6)
        red = gauss_multiplication_reduce(self.augmented(EXP_SPEC, 3), 3)
        assert red.scale == pytest.approx((2 * math.pi) / math.sqrt(3))
        assert red.argument_multiplier == pytest.approx(27.0)

    @pytest.mark.parametrize("z", [0.5, 2.0])
    def test_numeric_contract_case1(self, z):
        spec = case1_spec(0.8, 1)
        aug = self.augmented(spec, 2)
        red = gauss_multiplication_reduce(aug, 2)
        lhs = eval_mellin_barnes(aug, z)
        rhs = red.scale * eval_mellin_barnes(red.spec, red.argument_multiplier * z)
        assert_allclose(lhs, rhs, rtol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(PreconditionViolationError):
            gauss_multiplication_reduce(EXP_SPEC, 2)


class TestAsymptoticEstimate:
    @pytest.mark.parametrize("z", [1.0, 4.0, 10.0])
    def test_exp_envelope_exact(self, z):
        # nu=1, mu=1, delta=-1/2: envelope e^{-z} z^0, identical to the value
        assert_allclose(asymptotic_estimate(EXP_SPEC, z), math.exp(-z), rtol=1e-12)

    def test_monotone_decay(self):
        zs = np.linspace(5.0, 50.0, 10)
        vals = [asymptotic_estimate(case1_spec(0.8, 1), z) for z in zs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_log_envelope_slope(self):
        # d(log H)/d(z^{1/nu}) -> -nu*mu^{1/nu} for large z (within 5%)
        spec = case1_spec(0.8, 1)
        c = convergence_params(spec)
        z1, z2 = 30.0, 33.0
        h1 = eval_mellin_barnes(spec, z1)
        h2 = eval_mellin_barnes(spec, z2)
        slope = (math.log(h2) - math.log(h1)) / (z2 ** (1 / c.nu) - z1 ** (1 / c.nu))
        assert_allclose(slope, -c.nu * c.mu ** (1 / c.nu), rtol=0.05)

    def test_nondecaying_rejected(self):
        spec = HFunctionSpec(m=0, l=1, upper=((1.0, 1.0),), lower=())
        with pytest.raises(UnsupportedClassError, match="l = 0"):
            asymptotic_estimate(spec, 1.0)

    def test_growing_l0_spec_rejected(self):
        # H^{1,0}_{1,1}[(1, 2); (0, 1)]: l = 0 but nu = 1 - 2 = -1, so there
        # is no decay envelope
        spec = HFunctionSpec(m=1, l=0, upper=((1.0, 2.0),), lower=((0.0, 1.0),))
        assert convergence_params(spec).nu == -1.0
        with pytest.raises(UnsupportedClassError, match="nu = -1"):
            asymptotic_estimate(spec, 1.0)


class TestLowerParameterSymmetry:
    @pytest.mark.parametrize("z", [0.5, 2.0])
    def test_permutation_invariance(self, z):
        spec = case1_spec(0.8, 1, s1=0.0, s2=-0.5)
        perm = HFunctionSpec(
            m=spec.m,
            l=0,
            upper=spec.upper,
            lower=tuple(reversed(spec.lower)),
        )
        assert_allclose(
            eval_mellin_barnes(spec, z), eval_mellin_barnes(perm, z), rtol=1e-10
        )
