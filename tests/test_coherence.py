import math

import numpy as np
import pytest

from hbt4 import (
    InvalidParameterError,
    StateParams,
    UndefinedCoherenceError,
    analytic_intermediates,
    bernoulli_loss,
    coherent_distribution,
    factorial_moments,
    fock_distribution,
    fourth_order_report,
    fourth_order_variant,
    gaussian_moments,
    ideal_coherence,
    squeezed_distribution,
)
from hbt4.coherence import _normal_moments


class TestAnalyticIntermediates:
    def test_fields_match_definitions(self):
        r, theta, alpha = 0.3, 1.1, 0.7
        inter = analytic_intermediates(StateParams(r=r, theta=theta, alpha=alpha))
        omega = alpha * (math.cosh(r) - np.exp(1j * theta) * math.sinh(r))
        assert inter.omega == pytest.approx(omega)
        assert inter.a_val == pytest.approx(abs(omega) ** 2 + math.sinh(r) ** 2, rel=1e-12)
        b = 2.0 * (omega**2 * np.exp(-1j * theta)).real * math.cosh(r) * math.sinh(r)
        assert inter.b_val == pytest.approx(b, rel=1e-12)
        assert inter.c_val == pytest.approx(math.cosh(2 * r) + 3 * math.sinh(r) ** 2, rel=1e-12)
        assert inter.d_val == pytest.approx(13 * math.cosh(r) ** 2 + 23 * math.cosh(2 * r), rel=1e-12)

    def test_mean_positive_unless_vacuum(self):
        assert analytic_intermediates(StateParams(r=0.0, theta=0.0, alpha=0.0)).a_val == 0.0
        assert analytic_intermediates(StateParams(r=1e-4, theta=0.0, alpha=0.0)).a_val > 0.0
        assert analytic_intermediates(StateParams(r=0.0, theta=0.0, alpha=1e-3)).a_val > 0.0


class TestIdealCoherence:
    def test_squeezed_vacuum_second_order(self):
        # alpha = 0 reduces to g2 = 3 + 1/sinh^2 r
        for r in (0.1, 0.5, 1.0):
            triple = ideal_coherence(StateParams(r=r, theta=0.0, alpha=0.0))
            assert triple.g2 == pytest.approx(3.0 + 1.0 / math.sinh(r) ** 2, rel=1e-9)

    def test_mean_field_carries_photon_number(self):
        params = StateParams(r=0.3, theta=1.0, alpha=0.6)
        triple = ideal_coherence(params)
        omega = params.alpha * (math.cosh(params.r) - np.exp(1j * params.theta) * math.sinh(params.r))
        assert triple.mean_clicks == pytest.approx(abs(omega) ** 2 + math.sinh(params.r) ** 2, rel=1e-12)

    def test_weak_squeezing_antibunching_point(self):
        # Value frozen from the factorial-moment oracle on the distribution.
        triple = ideal_coherence(StateParams(r=0.001, theta=0.0, alpha=0.032))
        assert triple.g2 == pytest.approx(0.0043688987, rel=1e-7)

    def test_super_bunching_maxima(self):
        triple = ideal_coherence(StateParams(r=0.01, theta=math.pi, alpha=0.01))
        assert triple.g2 == pytest.approx(2.5e3, rel=0.10)
        assert triple.g3 == pytest.approx(2.2e4, rel=0.10)
        assert triple.g4 == pytest.approx(5.6e7, rel=0.10)

    def test_coherent_limit(self):
        triple = ideal_coherence(StateParams(r=1e-10, theta=0.0, alpha=0.5))
        assert triple.g2 == pytest.approx(1.0, abs=1e-6)
        assert triple.g3 == pytest.approx(1.0, abs=1e-6)
        assert triple.g4 == pytest.approx(1.0, abs=1e-6)

    def test_vacuum_is_undefined(self):
        with pytest.raises(UndefinedCoherenceError):
            ideal_coherence(StateParams(r=0.0, theta=0.0, alpha=0.0))

    def test_phase_periodicity(self):
        a = ideal_coherence(StateParams(r=0.2, theta=0.7, alpha=0.4))
        b = ideal_coherence(StateParams(r=0.2, theta=0.7 + 2.0 * math.pi, alpha=0.4))
        assert b.g2 == pytest.approx(a.g2, rel=1e-12)
        assert b.g3 == pytest.approx(a.g3, rel=1e-12)
        assert b.g4 == pytest.approx(a.g4, rel=1e-12)

    @pytest.mark.parametrize("r", [1e-3, 1e-2, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    @pytest.mark.parametrize("alpha", [0.0, 1e-2, 0.1, 1.0])
    def test_closed_form_matches_moment_oracle(self, r, theta, alpha):
        if r == 0.0 and alpha == 0.0:
            pytest.skip("vacuum")
        params = StateParams(r=r, theta=theta, alpha=alpha)
        closed = ideal_coherence(params)
        oracle = factorial_moments(squeezed_distribution(params, tol=1e-12))
        assert closed.g2 == pytest.approx(oracle.g2, rel=1e-6)
        assert closed.g3 == pytest.approx(oracle.g3, rel=1e-6)
        assert closed.g4 == pytest.approx(oracle.g4, rel=1e-6)

    def test_moment_ordering_sanity(self):
        n1, n2, n3, n4 = gaussian_moments(StateParams(r=0.4, theta=0.9, alpha=0.7))
        assert n1 > 0 and n2 > 0 and n3 > 0 and n4 > 0


    # Antibunching dips at three squeezings, a super-bunching point and a
    # strongly squeezed state.  Against 60-digit references the
    # factorial-moment oracle is within 4.1e-14 at these states, and the
    # Wick pairings of <a+^k a^k>, whose terms cancel near a dip, were
    # off by up to 2.9e-11 in g4.
    @pytest.mark.parametrize(
        "r, theta, alpha",
        [(1e-3, 0.0, 0.074), (1e-5, 0.0, 0.0074), (1e-7, 0.0, 7.4e-4), (5e-4, math.pi, 0.016),
         (1.0, 2.0, 3.0)],
    )
    def test_closed_form_keeps_its_digits_at_dips(self, r, theta, alpha):
        params = StateParams(r=r, theta=theta, alpha=alpha)
        closed = ideal_coherence(params)
        oracle = factorial_moments(squeezed_distribution(params))
        for got, want in zip((closed.g2, closed.g3, closed.g4), (oracle.g2, oracle.g3, oracle.g4)):
            assert abs(got - want) <= 1e-12 * want


class TestNormalMoments:
    def test_grid_equals_its_points_bit_for_bit(self):
        rng = np.random.default_rng(3)
        r = np.concatenate([[0.0, 0.0], rng.uniform(0.0, 1.5, 98)])
        theta = rng.uniform(0.0, 2.0 * math.pi, 100)
        alpha = np.concatenate([[0.0, 1e-3], rng.uniform(0.0, 3.0, 98)])
        grid = _normal_moments(r, theta, alpha, 5)
        for i, state in enumerate(zip(r.tolist(), theta.tolist(), alpha.tolist())):
            point = _normal_moments(*state, 5)
            assert [float(n[i]) for n in grid] == point

    @pytest.mark.parametrize(
        "r, theta, alpha", [(0.0, 0.0, 1.3), (0.4, 0.9, 0.7), (1e-3, 0.0, 0.074), (1.0, 2.0, 3.0)]
    )
    def test_moments_are_falling_factorial_sums(self, r, theta, alpha):
        # N_k = <n (n - 1) ... (n - k + 1)>, up to N_5.
        p = squeezed_distribution(StateParams(r=r, theta=theta, alpha=alpha)).probs
        n = np.arange(p.size, dtype=float)
        falling = np.ones_like(n)
        for k, moment in enumerate(_normal_moments(r, theta, alpha, 5), start=1):
            falling = falling * (n - (k - 1))
            assert moment == pytest.approx(float(falling @ p), rel=1e-12)


class TestFourthOrderVariant:
    def test_agrees_at_zero_displacement(self):
        params = StateParams(r=0.5, theta=0.0, alpha=0.0)
        assert fourth_order_variant(params) == pytest.approx(
            ideal_coherence(params).g4, rel=1e-12
        )

    def test_disagrees_for_displaced_states(self):
        trusted, variant, rel = fourth_order_report(StateParams(r=0.01, theta=math.pi, alpha=0.01))
        assert rel > 0.10
        # The trusted value is the one consistent with the distribution oracle.
        oracle = factorial_moments(
            squeezed_distribution(StateParams(r=0.01, theta=math.pi, alpha=0.01))
        )
        assert trusted == pytest.approx(oracle.g4, rel=1e-9)
        assert abs(variant - oracle.g4) / oracle.g4 > 0.10


class TestFactorialMoments:
    def test_poissonian_light_is_unity(self):
        moments = factorial_moments(coherent_distribution(1.2))
        assert moments.g2 == pytest.approx(1.0, abs=1e-9)
        assert moments.g3 == pytest.approx(1.0, abs=1e-9)
        assert moments.g4 == pytest.approx(1.0, abs=1e-9)

    def test_two_photon_fock_state(self):
        moments = factorial_moments(fock_distribution(2))
        assert moments.g2 == 0.5
        assert moments.g3 == 0.0
        assert moments.g4 == 0.0

    def test_matches_closed_form(self):
        params = StateParams(r=0.3, theta=0.0, alpha=0.1)
        oracle = factorial_moments(squeezed_distribution(params))
        closed = ideal_coherence(params)
        assert oracle.g2 == pytest.approx(closed.g2, rel=1e-6)
        assert oracle.g3 == pytest.approx(closed.g3, rel=1e-6)
        assert oracle.g4 == pytest.approx(closed.g4, rel=1e-6)

    def test_order_max_limits_output(self):
        moments = factorial_moments(fock_distribution(3), order_max=2)
        assert not math.isnan(moments.g2)
        assert math.isnan(moments.g3)
        assert math.isnan(moments.g4)

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidParameterError):
            factorial_moments(fock_distribution(1), order_max=5)

    def test_zero_mean_is_undefined(self):
        with pytest.raises(UndefinedCoherenceError):
            factorial_moments(fock_distribution(0))

    @pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
    def test_loss_invariance(self, eta):
        d = squeezed_distribution(StateParams(r=0.35, theta=2.1, alpha=0.45))
        before = factorial_moments(d)
        after = factorial_moments(bernoulli_loss(d, eta))
        assert after.g2 == pytest.approx(before.g2, rel=1e-8)
        assert after.g3 == pytest.approx(before.g3, rel=1e-8)
        assert after.g4 == pytest.approx(before.g4, rel=1e-8)


class TestWeakFieldUnderflow:
    # A coherent state has <n> = alpha^2: <n>^4 is 1e-304, a normal float,
    # at alpha = 1e-38; it is subnormal at 1e-40 and 0 at 1e-45.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "coherence",
        [ideal_coherence, lambda s: factorial_moments(squeezed_distribution(s))],
        ids=["closed-form", "factorial-moments"],
    )
    def test_weak_fields_resolve_g4_or_are_undefined(self, coherence):
        triple = coherence(StateParams(r=0.0, theta=0.0, alpha=1e-38))
        assert triple.g4 == pytest.approx(1.0, rel=1e-12)
        for alpha in (1e-40, 1e-45):
            with pytest.raises(UndefinedCoherenceError, match="^mean photon number too small"):
                coherence(StateParams(r=0.0, theta=0.0, alpha=alpha))

    @pytest.mark.filterwarnings("error")
    def test_variant_bracket_is_undefined_below_the_same_mean(self):
        with pytest.raises(UndefinedCoherenceError, match="too small"):
            fourth_order_variant(StateParams(r=0.0, theta=0.0, alpha=1e-45))

    def test_zero_means_keep_their_messages(self):
        with pytest.raises(UndefinedCoherenceError, match="^vacuum input: coherence undefined$"):
            ideal_coherence(StateParams(r=0.0, theta=0.0, alpha=0.0))
        with pytest.raises(
            UndefinedCoherenceError, match="^zero-mean distribution: coherence undefined$"
        ):
            factorial_moments(fock_distribution(0))
