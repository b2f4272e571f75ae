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
from fracsol.pde import DiffusionProblem, solve

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


def decay_arg(spec, level):
    """The z at which the decay exponent nu (mu z)^(1/nu) of spec is level."""
    c = convergence_params(spec)
    return (level / c.nu) ** c.nu / c.mu


def mp_residue_sum(spec, z, dps=50, kmax=200, as_float=True):
    """The residue series over the right poles s = (B_j + k) / beta_j of an
    l = 0 spec with simple poles, summed by mpmath at dps digits, where
    double-precision terms would cancel; an mpf unless as_float, for values
    past the double range."""
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
        return float(total) if as_float else total


class TestSpecInvariants:
    def test_rejects_m_too_large(self):
        with pytest.raises(ValueError):
            HFunctionSpec(m=2, l=0, upper=(), lower=((0.0, 1.0),))

    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            HFunctionSpec(m=0, l=0, upper=((1.0, 1.0),), lower=((0.0, 1.0),))

    def test_rejects_non_integer_m_or_l(self):
        # m = 1.5 constructed, and evaluating it raised a bare TypeError
        # from a float slice index
        with pytest.raises(ValueError, match="integers"):
            HFunctionSpec(m=1.5, l=0, upper=(), lower=((0, 1), (0.5, 1)))
        with pytest.raises(ValueError, match="integers"):
            HFunctionSpec(m=1, l=0.5, upper=((0.5, 1),), lower=((0, 1), (0.5, 1)))

    def test_integral_m_and_l_are_stored_as_int(self):
        # the spec keys the _constants cache, where 1, 1.0 and True are one key
        specs = [HFunctionSpec(m=m, l=0.0, upper=(), lower=((0, 1),)) for m in (1.0, True, 1)]
        assert all(type(spec.m) is int and type(spec.l) is int for spec in specs)
        assert eval_mellin_barnes(specs[0], 2.0) == eval_mellin_barnes(specs[2], 2.0)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beta", [1e3, 1e5, 1e300])
    def test_large_weight_is_refused_not_inf(self, beta):
        # H^{1,0}_{0,1}[z | (0, beta)] = exp(-z^(1/beta)) / beta; the line
        # sum's scale e^ref passes the double range, and 1000 used to give
        # inf, 1e5 an OverflowError from the stall message.  At 1e300 the
        # slide threshold -K'(gamma0) is 6.9e302, so z stays on gamma0
        spec = HFunctionSpec(m=1, l=0, upper=(), lower=((0.0, beta),))
        with pytest.raises(QuadratureFailureError, match="double range"):
            eval_mellin_barnes(spec, np.array([0.5, 2.0]))

    def test_moderate_weight_keeps_its_value(self):
        spec = HFunctionSpec(m=1, l=0, upper=(), lower=((0.0, 10.0),))
        z = np.array([0.5, 2.0])
        assert_allclose(eval_mellin_barnes(spec, z), np.exp(-(z ** 0.1)) / 10.0, rtol=1e-13)


class TestConvergenceParams:
    def test_exp_spec(self):
        c = convergence_params(EXP_SPEC)
        assert c.omega == 1.0
        assert c.nu == 1.0
        assert c.mu == pytest.approx(1.0)
        assert c.delta == pytest.approx(-0.5)

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


@pytest.fixture
def cold_constants():
    """Empty foxh._constants before and after the test: a warm spec's
    default line starts from its stored first pass with no kernel call, and
    a kernel the test substitutes must not stay in a stored one."""
    foxh._constants.cache_clear()
    yield
    foxh._constants.cache_clear()


def saddle(spec, z):
    """The _real_kernel point (sigma, Re K, K', K'', u) at z's saddle, by
    the root-find _contour_bands makes for a band's first member."""
    c = foxh._constants(spec)
    u0, u1, *_ = c.slide
    lz = c.d * math.log(z)
    return foxh._root(c, lambda p: (-c.d * p[2] - lz, -c.d * p[3]), u0, u1, math.nan)


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
        first, *later = calls
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
        assert len(calls) == 1

    def test_runaway_truncation_raises(self, monkeypatch):
        # z = 2.2 on the saddle contour settles in the one line pass that
        # Stirling's span sizes; with the span cut to 10 e-folds T needs one
        # doubling: it settles when one is allowed and raises when none is
        with mpmath.workdps(30):
            want = float(mpmath.meijerg([[], [1.2]], [[0.0, 0.3, 0.7], []], 2.2))
        eval_mellin_barnes(MEIJER_SPEC, 2.2)
        calls = TestHalfLineQuadrature.record(monkeypatch)
        assert_allclose(eval_mellin_barnes(MEIJER_SPEC, 2.2), want, rtol=1e-9)
        assert len(calls) == 1
        monkeypatch.setattr(foxh, "_DECAY_LOGS", 10.0)
        monkeypatch.setattr(foxh, "_MAX_DOUBLINGS", 1)
        calls.clear()
        assert_allclose(eval_mellin_barnes(MEIJER_SPEC, 2.2), want, rtol=1e-9)
        assert len(calls) == 2
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
    def test_zero_sum_cancellation_raises(self, monkeypatch, cold_constants):
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beta", np.geomspace(2.0, 1000.0, 120))
    def test_refinement_does_not_alias(self, beta):
        # H^{1,0}_{0,1}[z | (0, beta)] = exp(-z^(1/beta)) / beta stays on
        # the fixed line, where at beta = 80 Im log f turns by about 29.5
        # per step _H0: the first pass was refined, and the passes at h / 2
        # and h / 4, still turning 15 and 7 per node, agreed by aliasing
        # (5.1e42 for 4.6e-3 at z = 0.5, 8.7e258 for 1.2e-3 at beta = 300).
        # Every value matches the closed form or is refused
        spec = HFunctionSpec(m=1, l=0, upper=(), lower=((0.0, beta),))
        for z in (0.1, 0.5, 2.0, 10.0):
            try:
                got = eval_mellin_barnes(spec, z)
            except FracsolError:
                continue
            assert_allclose(got, math.exp(-(z ** (1.0 / beta))) / beta, rtol=1e-9)

    @pytest.mark.parametrize("z", [1e-4, 1e-3, 1e-2, 0.1, 1.0])
    def test_refinement_passes_a_branch_jump(self, z):
        # the third factor, 1 / Gamma(1 + 1.875 s), is reflected on the
        # line Re s = -1.59, and its log jumps by 2 pi at tau = 1 / 1.875:
        # that step is folded back, and the refined value kept (every z
        # here raised QuadratureFailureError with the jump read as a phase
        # step)
        spec = HFunctionSpec(m=2, l=0, upper=(), lower=((0.0, 2.5), (-1.9, 1.75), (0.0, 1.875)))
        want = mp_residue_sum(spec, z, dps=40, kmax=150)
        assert_allclose(eval_mellin_barnes(spec, z), want, rtol=1e-10)


class TestSaddleSearch:
    """The saddle is the root of phi_z' = K' + log z, found by Newton's
    method on the digamma sum with no kernel call."""

    def test_zero_past_the_reach_leaves_no_slide(self):
        # the 1/Gamma factor of H^{1,0}_{1,1}[z | (-3.3, 0.001); (0, 1)] is
        # 0 at r = 3300 on the slid side, past the reach r = 2722, so no z
        # slides.  gamma0 holds to z = 5; at z = 30, where H is 1.9e-13,
        # its integrand cancels
        spec = HFunctionSpec(m=1, l=0, upper=((-3.3, 0.001),), lower=((0.0, 1.0),))
        assert foxh._SpecConstants(spec).slide is None
        for z in (0.1, 1.0, 5.0):
            assert abs(eval_mellin_barnes(spec, z) / mp_residue_sum(spec, z) - 1.0) <= 1e-10
        try:
            got = eval_mellin_barnes(spec, 30.0)
        except FracsolError:
            return
        assert abs(got / mp_residue_sum(spec, 30.0) - 1.0) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.3, 0.8, 1.5, 1.9])
    @pytest.mark.parametrize("m", [0, 2])
    def test_within_a_hundredth_of_dense_search(self, alpha, m):
        # the case1 spec slides left at large z, its inverted spec right at
        # small z; phi_z at the root is the minimum of a dense search over
        # the bracket, and K'' there is the kernel's curvature by a central
        # difference
        spec = case1_spec(alpha, m)
        z = np.geomspace(1e-3, 1e4, 60)
        for spec, z in ((spec, z), (invert_argument(spec), 1.0 / z)):
            c = foxh._constants(spec)
            u0, u1, inner, outer, _ = c.slide
            z = z[(c.d * np.log(z) > -c.d * inner[2]) & (c.d * np.log(z) < -c.d * outer[2])]
            assert z.size >= 3
            r = np.exp(np.linspace(u0, u1, 80001))
            dense = c.edge - c.d * r
            kernel = foxh._log_integrand(spec, dense).real
            for zz in z:
                p = saddle(spec, zz)
                at_sigma = foxh._log_integrand(spec, p[0]).real + p[0] * math.log(zz)
                best = np.min(kernel + dense * math.log(zz))
                assert best - 0.01 <= at_sigma <= best + 1e-9 * max(1.0, abs(best))
                assert_allclose(p[3], kernel_curvature(spec, np.array([p[0]]))[0], rtol=1e-4)

    def test_kernel_value_matches_kernel(self):
        # Re K and K' of the real-axis sum match the complex kernel and its
        # central difference at the saddles of 200 z
        z = np.geomspace(1e-3, 1e4, 200)
        for spec in (case1_spec(0.8, 1), case1_spec(1.5, 2), *GL_SPECS):
            c = foxh._constants(spec)
            slid = z[np.log(z) > -c.slide[2][2]]
            assert slid.size >= 100
            for zz in slid:
                sigma, k, k1, _, _ = saddle(spec, zz)
                h = 1e-5 * max(1.0, abs(sigma))
                want = foxh._log_integrand(spec, np.array([sigma - h, sigma, sigma + h])).real
                assert_allclose(k, want[1], rtol=1e-13, atol=1e-12)
                assert_allclose(k1, (want[2] - want[0]) / (2.0 * h), rtol=1e-6, atol=1e-6)

    def test_lone_z_makes_one_root_find(self, monkeypatch):
        # a lone slid z's band is its saddle's line, found by one root-find
        # (short of the reach, near z = 3,000)
        spec = case1_spec(0.8, 1)
        c = foxh._constants(spec)
        searches = TestDefaultLineConstants.record_searches(monkeypatch)
        for z in np.geomspace(1.0, 1e3, 40):
            searches.clear()
            ((line, *_),) = foxh._contour_bands(c, np.array([z]))
            assert len(searches) == 1 and line != c.gamma0
            assert_allclose(line, saddle(spec, z)[0], rtol=1e-14)

    def test_calls_do_not_grow_with_z(self, monkeypatch):
        # the saddles and bands evaluate no kernel, at any depth, for one z
        # or many
        c = foxh._constants(case1_spec(0.8, 1))
        calls = TestHalfLineQuadrature.record(monkeypatch)
        for z in (np.array([3.0]), np.array([1e4]), np.geomspace(1e-3, 1e4, 320)):
            list(foxh._contour_bands(c, z))
        assert calls == []

    def test_first_slid_evaluation_calls_only_line_passes(self, monkeypatch, cold_constants):
        # a fresh spec's first slid evaluation makes one kernel call, its
        # line's first pass, and no evaluation ever makes one on the real
        # axis; the gamma0 point z = 1e-3 stores its line's first pass in
        # one call on gamma0, and then makes none
        spec = solve(DiffusionProblem(alpha=0.8, m=1, d=0.0, A=1.0)).form.small.spec
        c = foxh._constants(spec)
        calls = TestHalfLineQuadrature.record(monkeypatch)
        eval_mellin_barnes(spec, decay_arg(spec, 1.0))
        assert len(calls) == 1 and calls[0].real.max() < c.gamma0
        calls.clear()
        eval_mellin_barnes(spec, 1e-3)
        assert len(calls) == 1 and np.all(calls[0].real == c.gamma0)
        for z in (1e-3, decay_arg(spec, 1e-2)):
            calls.clear()
            eval_mellin_barnes(spec, z)
            assert calls == []
        for z in (decay_arg(spec, level) for level in (140.0, 900.0, 5e3)):
            calls.clear()
            eval_mellin_barnes(spec, z)
            assert calls and not any(np.all(s.imag == 0.0) for s in calls)

    def test_equal_specs_share_constants(self, monkeypatch):
        a, b = case1_spec(1.2, 2), case1_spec(1.2, 2)
        assert a is not b
        assert foxh._constants(a) is foxh._constants(b)
        eval_mellin_barnes(a, 40.0)
        calls = TestHalfLineQuadrature.record(monkeypatch)
        assert_allclose(eval_mellin_barnes(b, 40.0), eval_mellin_barnes(a, 40.0), rtol=0.0)
        assert not any(np.all(s.imag == 0.0) for s in calls)

    @pytest.mark.parametrize(
        "spec,zs",
        [
            # e^-z: K' = -psi(-s), the reach at r = 2,720
            (EXP_SPEC, np.geomspace(0.6, 2500.0, 25)),
            # sqrt(pi) e^(-2 sqrt z): K' = -psi(-s) - psi(1/2 - s), the
            # reach at r = 1,370
            (HFunctionSpec(m=2, l=0, upper=(), lower=((0.0, 1.0), (0.5, 1.0))),
             np.geomspace(0.6, 1e6, 25)),
        ],
        ids=["exp", "sqrt-exp"],
    )
    def test_saddle_vs_mpmath(self, spec, zs):
        # within 1e-10 of mpmath's root of phi_z'(sigma) = K'(sigma) + log z
        c = foxh._constants(spec)
        assert np.all(np.log(zs) > -c.slide[2][2]) and np.all(np.log(zs) < -c.slide[3][2])
        for z in zs:
            sigma = saddle(spec, z)[0]
            with mpmath.workdps(40):
                want = mpmath.findroot(
                    lambda s: -sum(mpmath.psi(0, b - s) for b, _ in spec.lower) + mpmath.log(z),
                    mpmath.mpf(sigma),
                )
            assert_allclose(sigma, float(want), rtol=1e-10)

    @pytest.mark.parametrize("z", [0.5, 0.9, 1.1, 2.0, 10.0, 50.0, 100.0, 500.0])
    def test_kernel_zero_on_the_slid_side(self, z):
        # H^{2,0}_{1,2}[z | (1, 1); (2, 1), (2, 1)] = z^2 (z - 1) e^-z: its
        # 1/Gamma(1 - s) vanishes at s = 1, between gamma0 = 3/2 and the deep
        # saddles.  The bracket starts past that zero, where K'' turns
        # positive (sigma = -0.39); a z with no saddle there stays on gamma0
        # up to z = 1.42, where phi_z(gamma0) passes phi_z there, and takes
        # that inner end's line past it
        spec = HFunctionSpec(m=2, l=0, upper=((1.0, 1.0),), lower=((2.0, 1.0), (2.0, 1.0)))
        c = foxh._constants(spec)
        u0, _, inner, _, leave = c.slide
        assert u0 > 0.0 and leave < -inner[2]
        with mpmath.workdps(30):
            want = float(mpmath.meijerg([[], [1.0]], [[2.0, 2.0], []], z))
        assert_allclose(want, z * z * (z - 1.0) * math.exp(-z), rtol=1e-13)
        assert_allclose(eval_mellin_barnes(spec, z), want, rtol=1e-10)
        ((line, *_),) = foxh._contour_bands(c, np.array([z]))
        assert (line == c.gamma0) == (math.log(z) <= leave)
        assert (line == inner[0]) == (leave < math.log(z) <= -inner[2])

    @pytest.mark.parametrize(
        "spec,z,offset",
        [
            # 1/Gamma(-0.45 - 0.13 s) vanishes at s = -3.46, past gamma0 = -1
            (HFunctionSpec(m=2, l=0, upper=((-0.45, 0.13), (2.9, 0.001)),
                           lower=((-2.5, 5.0), (0.06, 3.0))), 3e8, 5.0),
            (HFunctionSpec(m=2, l=0, upper=((-0.45, 0.13), (2.9, 0.001)),
                           lower=((-2.5, 5.0), (0.06, 3.0))), 1e10, 5.0),
            # 1/Gamma(-0.35 - 0.53 s) vanishes just short of gamma0 = -0.65,
            # where K'' < 0
            (HFunctionSpec(m=3, l=0, upper=((-0.35, 0.53),),
                           lower=((1.9, 0.14), (-1.1, 7.1), (2.2, 0.18))), 1e10, 5.0),
            (HFunctionSpec(m=3, l=0, upper=((-0.35, 0.53),),
                           lower=((1.9, 0.14), (-1.1, 7.1), (2.2, 0.18))), 1e15, 20.0),
        ],
    )
    def test_non_convex_side_vs_another_line(self, spec, z, offset):
        # phi_z is not convex next to a zero of the kernel: the value, on
        # gamma0, the bracket's inner end or a saddle past it, matches the
        # trapezoid rule on another line, offset past gamma0 (gamma0's own
        # line cancels at z = 1e10 and 1e15)
        c = foxh._constants(spec)
        sigma = c.gamma0 - c.d * offset
        n = foxh._first_pass_steps(c.conv.omega, foxh._H0)
        k = foxh._log_integrand(spec, sigma + 1j * foxh._H0 * np.arange(n + 1))
        want = foxh._trapezoid_line(spec, np.array([z]), sigma, c.conv.omega, foxh._H0, k)[0]
        assert_allclose(eval_mellin_barnes(spec, z), want, rtol=1e-9)

    def test_kernel_zero_at_one_cancels(self):
        # z = 1 is an exact zero of H^{2,0}_{1,2}[z | (1, 1); (2, 1), (2, 1)]
        spec = HFunctionSpec(m=2, l=0, upper=((1.0, 1.0),), lower=((2.0, 1.0), (2.0, 1.0)))
        with pytest.raises(CancellationError):
            eval_mellin_barnes(spec, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "spec, gamma0",
        [
            # 1/Gamma(1.5 - s) on the slid class; gamma0 = 2 - 1/2
            (HFunctionSpec(m=2, l=0, upper=((1.5, 1.0),), lower=((2.0, 1.0), (2.0, 1.0))), "1.5"),
            # 1/Gamma(-s) on a fixed line, gamma0 = 0 midway in the strip (-1, 1)
            (HFunctionSpec(m=1, l=1, upper=((0.0, 1.0), (0.0, 1.0)), lower=((1.0, 1.0),)), "0"),
        ],
    )
    @pytest.mark.parametrize("z", [0.5, 5.0, np.array([0.5, 5.0])])
    def test_kernel_zero_at_gamma0_refused(self, spec, gamma0, z):
        # the kernel's log is -inf at tau = 0 on gamma0, where the default
        # line and the saddle bracket start
        with pytest.raises(UnsupportedClassError, match=f"at s = gamma0 = {gamma0}, "):
            eval_mellin_barnes(spec, z)


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

    @staticmethod
    def record_blocks(monkeypatch):
        """The (z, nodes) shape of every cosine block the contour lines build."""
        rows, einsum = [], np.einsum

        def spy(subscripts, *operands, **kwargs):
            if subscripts == "zj,cj->zc":
                rows.append(operands[0].shape)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        return rows

    def test_cosine_blocks_within_array_bound(self, monkeypatch):
        # criterion 4's spec at 320 log-spaced z: the call takes at most 6
        # bands (a cap of 32 z per band needed 10); a band's first-pass
        # (z x nodes) array may pass 2^13 elements, but no cosine block of
        # it does, and a shared line moves no value by 1e-10 from its
        # single-z evaluation.  From z = 1e-3 on, the z whose saddle lies
        # right of gamma0 stay on it, all in one band
        bands = []
        trapezoid_line = foxh._trapezoid_line

        def line(spec, z, gamma, omega, h0, k):
            # k is the kernel on the band's first-pass nodes
            bands.append((gamma, len(z), k.size))
            return trapezoid_line(spec, z, gamma, omega, h0, k)

        zs = np.geomspace(0.1, 50.0, 320)
        monkeypatch.setattr(foxh, "_trapezoid_line", line)
        blocks = self.record_blocks(monkeypatch)
        got = eval_mellin_barnes(GL_SPECS[0], zs)
        monkeypatch.undo()
        assert len(bands) <= 6
        assert sum(n_z for _, n_z, _ in bands) == zs.size
        assert max(n_z * nodes for _, n_z, nodes in bands) > 2**13
        assert max(n_z * nodes for n_z, nodes in blocks) <= 2**13
        want = np.array([eval_mellin_barnes(GL_SPECS[0], z) for z in zs])
        assert_allclose(got, want, rtol=1e-10, atol=0.0)
        c, zs = foxh._constants(GL_SPECS[0]), np.geomspace(1e-3, 50.0, 320)
        stay = np.count_nonzero(np.log(zs) <= -c.slide[2][2])
        bands.clear()
        monkeypatch.setattr(foxh, "_trapezoid_line", line)
        eval_mellin_barnes(GL_SPECS[0], zs)
        assert stay > 0
        assert [n_z for gamma, n_z, _ in bands if gamma == c.gamma0] == [stay]

    def test_one_z_per_block_past_the_array_bound(self, monkeypatch):
        # omega = 0.02: one z's first pass has 9,550 nodes, more than the
        # 2^13 elements a cosine block may hold, so each block takes one z
        spec = HFunctionSpec(m=1, l=0, upper=((0.5, 0.98),), lower=((0.0, 1.0),))
        zs = np.array([0.5, 1.0, 2.0])
        want = [eval_mellin_barnes(spec, z) for z in zs]
        blocks = self.record_blocks(monkeypatch)
        got = eval_mellin_barnes(spec, zs)
        monkeypatch.undo()
        assert blocks and all(n_z == 1 for n_z, _ in blocks)
        assert max(nodes for _, nodes in blocks) > 2**13
        assert_allclose(got, want, rtol=1e-12)

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

    def test_slid_bands_end_at_the_loss_bound(self):
        # 5-point clusters at relative step 1e-3, as a finite-difference
        # stencil makes, and one more centred where the first slid band's
        # loss crosses _BAND_LOSS.  Each member's loss phi_z(line) -
        # phi_z(sigma*_z), with its own saddle found by mpmath, is at most
        # _BAND_LOSS, and the first z after the band loses more: every slid
        # band ends at the first z that would break the bound, inside a
        # cluster or not
        spec = case1_spec(0.8, 1)
        c = foxh._constants(spec)

        def phi(sigma, z):
            return sum(
                sign * mpmath.loggamma(c0 + c1 * sigma) for c0, c1, sign in c.factors
            ) + sigma * mpmath.log(z)

        def loss(line, z):
            with mpmath.workdps(30):
                k1 = lambda s: sum(sign * c1 * mpmath.psi(0, c0 + c1 * s) for c0, c1, sign in c.factors)
                own = mpmath.findroot(lambda s: k1(s) + mpmath.log(z), mpmath.mpf(saddle(spec, z)[0]))
                return float(phi(mpmath.mpf(line), z) - phi(own, z))

        def clusters(centres):
            return (np.sort(centres)[:, None] * (1.0 + 1e-3 * np.arange(-2, 3))).ravel()

        def slid_bands(z):
            return [(line, idx) for line, idx, *_ in foxh._contour_bands(c, z) if line != c.gamma0]

        centres = np.geomspace(1e-2, 1e3, 40)
        z = clusters(centres)
        (line, first), (_, second) = slid_bands(z)[:2]
        fine = np.geomspace(z[first[-1]], z[second[0]], 41)
        crossing = fine[np.argmax([loss(line, zz) > foxh._BAND_LOSS for zz in fine])]
        z = clusters(np.append(centres, crossing))
        bands = slid_bands(z)
        assert any(idx[-1] % 5 != 4 for _, idx in bands)
        for (line, idx), (_, following) in zip(bands, bands[1:]):
            assert max(loss(line, zz) for zz in z[idx]) <= foxh._BAND_LOSS
            assert loss(line, z[following[0]]) > foxh._BAND_LOSS

    def test_kernel_matches_factor_loop(self):
        # the stacked arguments of every factor, in chunks of
        # _BLOCK_ELEMENTS elements, give the same numbers as one
        # ln_gamma_vec call per factor
        spec = HFunctionSpec(
            m=1, l=1, upper=((0.3, 0.7), (1.0, 1.8)), lower=((0.2, 1.0), (0.5, 0.5))
        )
        s = 0.1 + 1j * np.linspace(-40.0, 40.0, 4501)
        assert 4 * s.size > 2 * foxh._BLOCK_ELEMENTS
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
            first = calls[0]
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


# case1 specs whose contour slides left at large z, and their inverses,
# which slide right at small z
SLIDE_SPECS = [case1_spec(a, m) for a in (0.3, 0.5, 0.8, 1.2, 1.5, 1.67, 1.9) for m in (0, 1, 2)]
SLIDE_SPECS += [invert_argument(spec) for spec in SLIDE_SPECS]
CRITERION_4_SPEC = solve(DiffusionProblem(alpha=0.8, m=1, d=0.0, A=1.0)).form.small.spec


class TestDefaultLineConstants:
    """gamma0's first-pass kernel and the slide threshold are kept with the
    spec's constants: a warm scalar value that gamma0's first pass settles
    makes no kernel call and no saddle search."""

    @staticmethod
    def record_searches(monkeypatch):
        """The start of every root-find _root makes."""
        searches, root = [], foxh._root

        def counting(c, f, lo, hi, u):
            searches.append(u)
            return root(c, f, lo, hi, u)

        monkeypatch.setattr(foxh, "_root", counting)
        return searches

    @pytest.mark.parametrize(
        "spec,z",
        [(CRITERION_4_SPEC, 1e-3), (FIXED_SPEC, 0.5), (invert_argument(case1_spec(0.8, 1)), 1e3)],
        ids=["criterion-4", "fixed", "inverted"],
    )
    def test_warm_default_line_makes_no_call(self, spec, z, monkeypatch, cold_constants):
        cold = eval_mellin_barnes(spec, z)
        calls = TestHalfLineQuadrature.record(monkeypatch)
        searches = self.record_searches(monkeypatch)
        assert eval_mellin_barnes(spec, z) == cold
        assert calls == [] and searches == []

    @pytest.mark.parametrize("spec", [FIXED_SPEC, CRITERION_4_SPEC, SLIDE_SPECS[-1]])
    def test_stored_first_pass(self, spec):
        c = foxh._constants(spec)
        n = foxh._first_pass_steps(c.conv.omega, foxh._H0)
        fresh = foxh._log_integrand(spec, c.gamma0 + 1j * foxh._H0 * np.arange(n + 1))
        assert np.array_equal(c.first_pass, fresh)
        assert not c.first_pass.flags.writeable
        with pytest.raises(ValueError):
            c.first_pass[0] = 0.0

    @pytest.mark.parametrize("spec", SLIDE_SPECS)
    def test_threshold_matches_search(self, spec, monkeypatch):
        # the threshold is -K'(gamma0), the central difference of the
        # kernel's Re K there, found with no kernel call; a z 1e-3 short of
        # it stays on gamma0 with no root-find, and one 1e-3 past it slides
        # by one root-find to a saddle just beyond gamma0, where gamma0 and
        # that line give the same value.  Saddles move out with log z
        c = foxh._SpecConstants(spec)
        assert c.d * c.conv.nu > 0
        calls = TestHalfLineQuadrature.record(monkeypatch)
        u0, u1, inner, outer, leave = c.slide
        assert calls == []
        monkeypatch.undo()
        threshold = -inner[2]
        assert inner[0] == c.gamma0 and leave == threshold
        h = 1e-5
        k = foxh._log_integrand(spec, c.gamma0 + np.array([-h, h])).real
        assert_allclose(threshold, -(k[1] - k[0]) / (2.0 * h), rtol=1e-6, atol=1e-6)
        searches = self.record_searches(monkeypatch)
        n = foxh._first_pass_steps(c.conv.omega, foxh._H0)
        lines = []
        for lz in threshold + c.d * np.array([-1e-3, 1e-3]):
            searches.clear()
            ((line, *_),) = foxh._contour_bands(c, np.exp([lz]))
            assert len(searches) == (line != c.gamma0)
            lines.append(line)
        assert lines[0] == c.gamma0 and 0.0 < c.d * (c.gamma0 - lines[1]) < 0.05
        on = [
            foxh._trapezoid_line(
                spec, np.exp([threshold]), gamma, c.conv.omega, foxh._H0,
                foxh._log_integrand(spec, gamma + 1j * foxh._H0 * np.arange(n + 1)),
            )
            for gamma in lines
        ]
        assert_allclose(on[0], on[1], rtol=1e-10, atol=0.0)
        log_z = np.linspace(threshold, -outer[2], 32)[1:-1]
        depth = [abs(saddle(spec, math.exp(lz))[0] - c.edge) for lz in log_z]
        assert np.all(np.diff(depth) > 0.0)

    @pytest.mark.parametrize(
        "spec,zs",
        [
            (CRITERION_4_SPEC, np.geomspace(1e-3, 1e2, 64)),
            (invert_argument(case1_spec(0.8, 1)), np.geomspace(1e-2, 1e3, 64)),
        ],
        ids=["criterion-4", "inverted"],
    )
    def test_mixed_array_matches_scalar(self, spec, zs, monkeypatch):
        # at most three root-finds per slid band, none for the z short of
        # the threshold, and one for a single slid z
        c = foxh._constants(spec)
        past = c.d * np.log(zs) > -c.d * c.slide[2][2]
        assert past.any() and not past.all()
        slid = sum(line != c.gamma0 for line, *_ in foxh._contour_bands(c, zs))
        searches = self.record_searches(monkeypatch)
        got = eval_mellin_barnes(spec, zs)
        assert 0 < len(searches) <= 3 * slid
        searches.clear()
        eval_mellin_barnes(spec, zs[~past])
        assert searches == []
        eval_mellin_barnes(spec, zs[past][0])
        assert len(searches) == 1
        want = np.array([eval_mellin_barnes(spec, z) for z in zs])
        assert np.array_equal(got == 0.0, want == 0.0)
        assert_allclose(got, want, rtol=1e-10, atol=0.0)


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
        # over the same span
        zs = np.geomspace(1e-3, 1e4, 60)
        cases = [(case1_spec(alpha, m), zs) for m in (0, 1, 2)]
        cases += [(invert_argument(spec), 1.0 / z) for spec, z in cases]
        got = [outcome(spec, z) for spec, z in cases]
        contour_bands = foxh._contour_bands
        monkeypatch.setattr(
            foxh, "_contour_bands",
            lambda c, z: (
                (gamma, idx, foxh._H0, math.ceil(n * h0 / foxh._H0))
                for gamma, idx, h0, n in contour_bands(c, z)
            ),
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
    def test_default_line_keeps_base_step(self, spec, z, monkeypatch, cold_constants):
        # m < q never slides, and the small-argument case1 saddle lies
        # right of gamma0 = -1/2: both stay on the _H0 lattice
        calls = TestHalfLineQuadrature.record(monkeypatch)
        eval_mellin_barnes(spec, z)
        rate = math.pi * convergence_params(spec).omega / 2.0
        n = max(math.ceil(foxh._DECAY_LOGS / rate / foxh._H0), foxh._N_MIN)
        first = calls[0]
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
        assert sum(s.size for s in calls) <= 300
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


# every SLIDE_SPECS spec at nine decay levels from 1 to 100, an inverted
# spec at the reciprocal of its base spec's z: each lies on a fitted slid line
SLID_POINTS = [
    (spec, decay_arg(spec, level))
    for spec in SLIDE_SPECS[: len(SLIDE_SPECS) // 2]
    for level in np.geomspace(1.0, 100.0, 9)
]
SLID_POINTS += [(invert_argument(spec), 1.0 / z) for spec, z in SLID_POINTS]


def one_band(spec, z):
    """The constants and the one contour band (abscissa, indices, h0, n) of
    a scalar z."""
    c = foxh._constants(spec)
    (band,) = foxh._contour_bands(c, np.array([z]))
    return c, band


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStirlingSpan:
    """A fitted slid band's first pass spans its line's decay by Stirling's
    estimate of Re K(sigma + i tau) - Re K(sigma), so T no longer doubles;
    other lines keep the span of the decay rate alone."""

    def test_estimate_matches_kernel(self):
        # within 0.01 e-folds at a quarter, half and all of each span; no
        # estimate where an argument's real part is below 1
        none = 0
        for spec, z in SLID_POINTS:
            c, (sigma, _, h0, n) = one_band(spec, z)
            assert sigma != c.gamma0 and saddle(spec, z)[3] > 0.0
            drop = foxh._stirling_drop(c, sigma)
            if drop is None:
                none += 1
                assert min(c0 + c1 * sigma for c0, c1, _ in c.factors) < 1.0
                continue
            tau = n * h0 * np.array([0.0, 0.25, 0.5, 1.0])
            k = foxh._log_integrand(spec, sigma + 1j * tau).real
            assert_allclose([drop(t) for t in tau[1:]], k[1:] - k[0], rtol=0.0, atol=0.01)
        assert 0 < none < len(SLID_POINTS) // 10

    def test_one_kernel_call_per_warm_value(self, monkeypatch):
        # all 378 warm values make one kernel call, and agree with the span of
        # the decay rate alone, with which 78 of them double T
        got = []
        for spec, z in SLID_POINTS:
            eval_mellin_barnes(spec, z)
            calls = TestHalfLineQuadrature.record(monkeypatch)
            got.append(eval_mellin_barnes(spec, z))
            monkeypatch.undo()
            assert len(calls) == 1, (spec, z)
        monkeypatch.setattr(foxh, "_stirling_drop", lambda c, sigma: None)
        calls = TestHalfLineQuadrature.record(monkeypatch)
        doubled = 0
        for (spec, z), g in zip(SLID_POINTS, got):
            calls.clear()
            assert_allclose(g, eval_mellin_barnes(spec, z), rtol=1e-11, atol=0.0)
            doubled += len(calls) > 1
        assert doubled > 0

    @pytest.mark.parametrize("inverted", [False, True])
    def test_reach_keeps_decay_span(self, inverted, monkeypatch):
        # one of criterion 7's lines: z = 1 lies past the reach, 5,420 from
        # the strip at decay level 900, where every value underflows; it
        # takes the reach line, _H0 and the decay rate's span, with no
        # root-find
        spec = solve(DiffusionProblem(alpha=1.5, m=2, d=0.0, A=1.0)).form.small.spec
        spec = invert_argument(spec) if inverted else spec
        searches = TestDefaultLineConstants.record_searches(monkeypatch)
        c, (sigma, _, h0, n) = one_band(spec, 1.0)
        assert searches == [] and sigma == c.slide[3][0]
        assert_allclose(abs(sigma - c.edge), 3.0 * 900.0 / abs(c.conv.nu) + 20.0, rtol=1e-14)
        assert h0 == foxh._H0 and n == foxh._first_pass_steps(c.conv.omega, foxh._H0)
        assert eval_mellin_barnes(spec, 1.0) == 0.0

    @pytest.mark.parametrize(
        "spec,z",
        [(MEIJER_SPEC, 0.25), (case1_spec(0.3, 0), decay_arg(case1_spec(0.3, 0), 1.0))],
        ids=["meijer", "case1"],
    )
    def test_argument_below_one_keeps_decay_span(self, spec, z):
        # a fitted line near the strip, where Gamma(-s) has an argument below 1
        c, (sigma, _, h0, n) = one_band(spec, z)
        assert saddle(spec, z)[3] > 0.0
        assert foxh._stirling_drop(c, sigma) is None
        assert n == foxh._first_pass_steps(c.conv.omega, h0)


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

    @pytest.mark.parametrize("k", [0.0, -2.0])
    def test_nonpositive_k_refused(self, k):
        with pytest.raises(ValueError, match="k > 0"):
            power_scale(EXP_SPEC, k)

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

    @pytest.mark.parametrize(
        "drop, r, error, match",
        [
            # the upper (1, 2) is there, the lower (1/2, 1) is not
            (0, 2, PreconditionViolationError, "missing lower entry"),
            (None, 0, ValueError, "positive integer"),
            (None, -1, ValueError, "positive integer"),
        ],
    )
    def test_refusals(self, drop, r, error, match):
        spec = self.augmented(EXP_SPEC, 2)
        if drop is not None:
            lower = spec.lower[:drop] + spec.lower[drop + 1 :]
            spec = HFunctionSpec(m=spec.m - 1, l=0, upper=spec.upper, lower=lower)
        with pytest.raises(error, match=match):
            gauss_multiplication_reduce(spec, r)


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

    @pytest.mark.parametrize("z", [-1.0, 0.0, math.inf, math.nan])
    def test_argument_outside_positive_axis_refused(self, z):
        # it returned 44.17+32.09j at -1, 0.0 at 0 and nan at inf and nan
        with pytest.raises(ValueError, match="finite z > 0"):
            asymptotic_estimate(EXP_SPEC, z)

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
