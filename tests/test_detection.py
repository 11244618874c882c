import math

import numpy as np
import pytest

from hbt4 import (
    DetectionParams,
    InvalidParameterError,
    PhotonDistribution,
    StateParams,
    apply_detection,
    bernoulli_loss,
    coherent_distribution,
    factorial_moments,
    fock_distribution,
    noise_convolve,
    squeezed_distribution,
)


def thinned_direct(probs: np.ndarray, eta: float) -> np.ndarray:
    """Brute-force binomial thinning (oracle for bernoulli_loss)."""
    out = np.zeros_like(probs)
    for n, p in enumerate(probs):
        for m in range(n + 1):
            out[m] += p * math.comb(n, m) * eta**m * (1 - eta) ** (n - m)
    return out


def convolved_direct(probs: np.ndarray, gamma: float, length: int) -> np.ndarray:
    """Brute-force Poisson convolution (oracle for noise_convolve)."""
    out = np.zeros(length)
    for ell in range(length):
        for m in range(min(ell, probs.size - 1) + 1):
            out[ell] += probs[m] * gamma ** (ell - m) * math.exp(-gamma) / math.factorial(ell - m)
    return out


class TestBernoulliLoss:
    def test_unit_efficiency_is_identity(self):
        d = squeezed_distribution(StateParams(r=0.3, theta=0.2, alpha=0.5))
        assert bernoulli_loss(d, 1.0) is d

    def test_single_photon_half_efficiency(self):
        out = bernoulli_loss(fock_distribution(1), 0.5)
        assert out.probs.tolist() == [0.5, 0.5]

    def test_poisson_thinning_identity(self):
        # Thinning Poisson(2) by 0.25 gives Poisson(0.5)
        out = bernoulli_loss(coherent_distribution(math.sqrt(2.0)), 0.25)
        expected = coherent_distribution(math.sqrt(0.5))
        n = min(len(out), len(expected))
        np.testing.assert_allclose(out.probs[:n], expected.probs[:n], atol=1e-10)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        p = rng.random(14)
        p /= p.sum()
        d = PhotonDistribution(probs=p, tail_mass=0.0)
        out = bernoulli_loss(d, 0.37)
        np.testing.assert_allclose(out.probs, thinned_direct(p, 0.37), atol=1e-13)

    def test_zero_efficiency_collects_at_vacuum(self):
        d = fock_distribution(5)
        out = bernoulli_loss(d, 0.0)
        assert out.probs[0] == 1.0
        assert np.all(out.probs[1:] == 0.0)

    def test_preserves_normalization(self):
        d = squeezed_distribution(StateParams(r=0.8, theta=2.0, alpha=1.2))
        out = bernoulli_loss(d, 0.61)
        assert out.probs.sum() + out.tail_mass == pytest.approx(1.0, abs=1e-10)

    def test_mean_scales_by_eta(self):
        d = squeezed_distribution(StateParams(r=0.4, theta=1.0, alpha=0.7))
        out = bernoulli_loss(d, 0.3)
        assert out.mean == pytest.approx(0.3 * d.mean, rel=1e-10)

    def test_rejects_bad_eta(self):
        d = fock_distribution(1)
        with pytest.raises(InvalidParameterError):
            bernoulli_loss(d, -0.1)
        with pytest.raises(InvalidParameterError):
            bernoulli_loss(d, 1.1)

    @pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
    def test_factorial_moment_invariance(self, eta):
        d = squeezed_distribution(StateParams(r=0.25, theta=0.9, alpha=0.6))
        before = factorial_moments(d)
        after = factorial_moments(bernoulli_loss(d, eta))
        assert after.g2 == pytest.approx(before.g2, rel=1e-8)
        assert after.g3 == pytest.approx(before.g3, rel=1e-8)
        assert after.g4 == pytest.approx(before.g4, rel=1e-8)


class TestNoiseConvolve:
    def test_zero_noise_is_identity(self):
        d = fock_distribution(2)
        assert noise_convolve(d, 0.0) is d

    def test_vacuum_gains_poisson_noise(self):
        out = noise_convolve(fock_distribution(0), 1e-5)
        assert out.probs[1] == pytest.approx(1e-5 * math.exp(-1e-5), rel=1e-12)

    def test_poisson_additivity(self):
        # Poisson(0.3) convolved with noise 0.2 gives Poisson(0.5)
        out = noise_convolve(coherent_distribution(math.sqrt(0.3)), 0.2)
        expected = coherent_distribution(math.sqrt(0.5))
        n = min(len(out), len(expected))
        np.testing.assert_allclose(out.probs[:n], expected.probs[:n], atol=1e-10)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(11)
        p = rng.random(6)
        p /= p.sum()
        d = PhotonDistribution(probs=p, tail_mass=0.0)
        out = noise_convolve(d, 0.45)
        expected = convolved_direct(p, 0.45, min(len(out), 25))
        np.testing.assert_allclose(out.probs[: expected.size], expected, atol=1e-13)

    def test_mean_additivity(self):
        d = squeezed_distribution(StateParams(r=0.5, theta=0.3, alpha=0.9))
        out = noise_convolve(d, 0.7)
        assert out.mean == pytest.approx(d.mean + 0.7, abs=1e-10)

    def test_preserves_normalization(self):
        d = squeezed_distribution(StateParams(r=0.2, theta=0.0, alpha=0.4))
        out = noise_convolve(d, 2.5)
        assert out.probs.sum() + out.tail_mass == pytest.approx(1.0, abs=1e-10)

    def test_rejects_negative_gamma(self):
        with pytest.raises(InvalidParameterError):
            noise_convolve(fock_distribution(0), -1e-6)

    @pytest.mark.parametrize("gamma", [1e-6, 0.1, 10.0, 1e4])
    def test_kernel_tail_below_tolerance(self, gamma):
        out = noise_convolve(fock_distribution(0), gamma)
        assert out.tail_mass < 1e-12


class TestApplyDetection:
    def test_order_is_loss_then_noise(self):
        d = squeezed_distribution(StateParams(r=0.3, theta=0.5, alpha=0.8))
        det = DetectionParams(eta=0.4, gamma=0.05)
        combined = apply_detection(d, det)
        manual = noise_convolve(bernoulli_loss(d, 0.4), 0.05)
        np.testing.assert_array_equal(combined.probs, manual.probs)

    def test_detection_params_validation(self):
        with pytest.raises(InvalidParameterError):
            DetectionParams(eta=1.2)
        with pytest.raises(InvalidParameterError):
            DetectionParams(gamma=-1.0)

    def test_detection_params_fields_are_python_floats(self):
        det = DetectionParams(eta=np.float64(0.5), gamma=np.int64(0))
        assert [type(v) for v in (det.eta, det.gamma)] == [float, float]
        assert det == DetectionParams(eta=0.5, gamma=0.0)

    @pytest.mark.parametrize("field", ["eta", "gamma"])
    @pytest.mark.parametrize("value", [1j, "x", None, [1]])
    def test_detection_params_reject_values_that_are_not_real_numbers(self, field, value):
        with pytest.raises(InvalidParameterError) as excinfo:
            DetectionParams(**{field: value})
        assert excinfo.value.field == field

    def test_mean_through_full_chain(self):
        d = squeezed_distribution(StateParams(r=0.3, theta=0.5, alpha=0.8))
        det = DetectionParams(eta=0.4, gamma=0.05)
        out = apply_detection(d, det)
        assert out.mean == pytest.approx(0.4 * d.mean + 0.05, rel=1e-9)
