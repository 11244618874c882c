import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hbt4 import (
    DetectionParams,
    InvalidParameterError,
    NoSignalError,
    PhotonDistribution,
    StateParams,
    apply_detection,
    click_coherence,
    click_probabilities,
    coherence_from_clicks,
    coherent_distribution,
    evaluate_point,
    fock_distribution,
    multinomial_click_probabilities,
    noise_convolve,
    squeezed_distribution,
)
from hbt4.clicks import ClickDistribution


def enumerate_click_probs(n_photons: int) -> list[Fraction]:
    """Exact click-count distribution of n photons routed uniformly onto 4
    detectors, by full enumeration of the 4^n assignments (oracle)."""
    counts = [0] * 5
    for assignment in itertools.product(range(4), repeat=n_photons):
        counts[len(set(assignment))] += 1
    total = 4**n_photons
    return [Fraction(c, total) for c in counts]


class TestClickProbabilities:
    def test_vacuum(self):
        out = click_probabilities(fock_distribution(0))
        assert out.probs.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_single_photon_always_one_click(self):
        out = click_probabilities(fock_distribution(1))
        assert out.probs[1] == pytest.approx(1.0, abs=1e-15)

    def test_two_photons_match_enumeration(self):
        out = click_probabilities(fock_distribution(2))
        expected = enumerate_click_probs(2)
        assert out.probs[1] == pytest.approx(float(expected[1]), abs=1e-15)  # 1/4
        assert out.probs[2] == pytest.approx(float(expected[2]), abs=1e-15)  # 3/4

    def test_four_photons_all_click(self):
        out = click_probabilities(fock_distribution(4))
        assert out.probs[4] == pytest.approx(3.0 / 32.0, abs=1e-15)

    @pytest.mark.parametrize("n", range(7))
    def test_enumeration_oracle(self, n):
        out = click_probabilities(fock_distribution(n))
        expected = [float(x) for x in enumerate_click_probs(n)]
        np.testing.assert_allclose(out.probs, expected, atol=1e-14)

    def test_sums_to_one_minus_defect(self):
        d = squeezed_distribution(StateParams(r=0.4, theta=1.2, alpha=0.8))
        out = click_probabilities(d)
        assert out.probs.sum() == pytest.approx(1.0 - out.defect, abs=1e-9)

    def test_defect_carries_input_tail(self):
        d = squeezed_distribution(StateParams(r=0.9, theta=0.0, alpha=0.5))
        assert click_probabilities(d).defect == d.tail_mass


class TestMultinomialReference:
    @pytest.mark.parametrize("n", range(0, 61, 6))
    def test_matches_occupancy_on_fock_states(self, n):
        a = click_probabilities(fock_distribution(n)).probs
        b = multinomial_click_probabilities(fock_distribution(n)).probs
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_occupancy_on_random_distributions(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            length = int(rng.integers(1, 40))
            p = rng.random(length)
            p /= p.sum()
            d = PhotonDistribution(probs=p, tail_mass=0.0)
            a = click_probabilities(d).probs
            b = multinomial_click_probabilities(d).probs
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestCoherenceFromClicks:
    def test_two_photon_hand_value(self):
        # Enumeration gives (0, 1/4, 3/4, 0, 0); mean 7/4; g2 = 32/49
        triple = coherence_from_clicks(click_probabilities(fock_distribution(2)))
        assert triple.mean_clicks == pytest.approx(7.0 / 4.0, abs=1e-15)
        assert triple.g2 == pytest.approx(32.0 / 49.0, rel=1e-12)

    def test_supported_on_zero_one_has_no_multiclicks(self):
        d = PhotonDistribution(probs=np.array([0.7, 0.3]), tail_mass=0.0)
        triple = click_coherence(d)
        assert triple.g2 == 0.0
        assert triple.g3 == 0.0
        assert triple.g4 == 0.0

    def test_weak_coherent_light_is_poissonian(self):
        triple = click_coherence(coherent_distribution(0.01))
        assert triple.g2 == pytest.approx(1.0, abs=1e-3)

    def test_vacuum_raises_no_signal(self):
        with pytest.raises(NoSignalError):
            click_coherence(fock_distribution(0))

    @pytest.mark.filterwarnings("error")
    def test_weak_fields_resolve_g4_or_raise_no_signal(self):
        # <n> = alpha^2 / 2: <n>^4 is 6e-306 at alpha = 1e-38, a normal
        # float; at 1e-40 G_4 is subnormal, at 1e-45 <n>^4 underflows to 0.
        detection = DetectionParams(eta=0.5, gamma=0.0)
        triple = evaluate_point(StateParams(r=0.0, theta=0.0, alpha=1e-38), detection, "click")
        assert triple.g4 == pytest.approx(1.0, rel=1e-12)
        for alpha in (1e-40, 1e-45):
            state = StateParams(r=0.0, theta=0.0, alpha=alpha)
            with pytest.raises(NoSignalError, match="too small"):
                evaluate_point(state, detection, "click")
        with pytest.raises(NoSignalError, match="^mean click number is zero; coherence undefined$"):
            evaluate_point(StateParams(r=0.0, theta=0.0, alpha=0.0), detection, "click")

    def test_feasible_chain_second_order(self):
        # Full chain at the weak-squeezing anti-bunching point
        d = squeezed_distribution(StateParams(r=0.001, theta=0.0, alpha=0.032))
        triple = click_coherence(apply_detection(d, DetectionParams(eta=0.5, gamma=1e-5)))
        assert triple.g2 == pytest.approx(0.042, rel=0.02)

    @pytest.mark.parametrize("theta", [0.0, 1.2, math.pi])
    def test_estimator_consistency_in_weak_displaced_fields(self, theta):
        # The on/off saturation bias of the click estimators vanishes as the
        # intensity drops, provided the mean is displacement-dominated (for
        # pair-dominated light the relative click deficit does not shrink
        # with intensity, so alpha ~ 0 is excluded here).
        from hbt4 import ideal_coherence

        params = StateParams(r=1e-4, theta=theta, alpha=0.03)
        exact = ideal_coherence(params)
        assert exact.mean_clicks < 1e-3
        estimate = click_coherence(squeezed_distribution(params))
        assert estimate.g2 == pytest.approx(exact.g2, rel=0.01)
        assert estimate.g3 == pytest.approx(exact.g3, rel=0.01)
        assert estimate.g4 == pytest.approx(exact.g4, rel=0.01)

    def test_click_distribution_validation(self):
        with pytest.raises(Exception):
            ClickDistribution(probs=np.array([0.5, 0.5, 0.1]))

    @pytest.mark.parametrize(
        "probs",
        [
            [0.5, math.nan, 0.2, 0.2, 0.1],
            [0.5, math.inf, 0.2, 0.2, 0.1],
            [0.5, -math.inf, 0.2, 0.2, 0.1],
            [0.5, -1e-300, 0.2, 0.2, 0.1],
            [0.5, 0.2, 0.2, 0.1],
            [[0.5, 0.2, 0.2, 0.1, 0.0]],
        ],
        ids=["nan", "+inf", "-inf", "tiny-negative", "four-entries", "2-d"],
    )
    def test_click_distribution_rejects(self, probs):
        with pytest.raises(InvalidParameterError):
            ClickDistribution(probs=np.array(probs))


class TestMonotoneSaturation:
    def test_noise_monotonicity(self):
        d = squeezed_distribution(StateParams(r=0.2, theta=0.0, alpha=0.3))
        gammas = [0.0, 1e-3, 1e-2, 1e-1, 1.0]
        zero_click = []
        mean_clicks = []
        for gamma in gammas:
            out = click_probabilities(noise_convolve(d, gamma))
            zero_click.append(out.probs[0])
            mean_clicks.append(out.mean_clicks)
        assert all(a >= b - 1e-12 for a, b in zip(zero_click, zero_click[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(mean_clicks, mean_clicks[1:]))
