import math
import tracemalloc

import numpy as np
import pytest

from hbt4 import (
    DetectionParams,
    InvalidParameterError,
    McConfig,
    NoSignalError,
    PhotonDistribution,
    StateParams,
    apply_detection,
    click_coherence,
    click_probabilities,
    fock_distribution,
    run_mc,
    squeezed_distribution,
)
from hbt4 import montecarlo
from hbt4.clicks import _coincidence_ratios, _occupancy_table
from hbt4.montecarlo import _CHUNK


def deterministic_clicks(config: McConfig):
    source = config.source
    if source is None:
        source = squeezed_distribution(config.state, config.tol)
    return click_probabilities(apply_detection(source, config.detection))


class TestReproducibility:
    def test_identical_config_identical_result(self):
        config = McConfig(
            trials=50_000,
            seed=1234,
            state=StateParams(r=0.2, theta=0.4, alpha=0.8),
            detection=DetectionParams(eta=0.7, gamma=0.01),
        )
        a = run_mc(config)
        b = run_mc(config)
        np.testing.assert_array_equal(a.click_histogram, b.click_histogram)
        assert a.estimated == b.estimated
        np.testing.assert_array_equal(a.gamma_hat, b.gamma_hat)

    def test_different_seeds_differ(self):
        base = dict(
            trials=50_000,
            state=StateParams(r=0.2, theta=0.4, alpha=0.8),
            detection=DetectionParams(eta=0.7, gamma=0.01),
        )
        a = run_mc(McConfig(seed=1, **base))
        b = run_mc(McConfig(seed=2, **base))
        assert not np.array_equal(a.click_histogram, b.click_histogram)

    def test_histogram_sums_to_trials(self):
        config = McConfig(
            trials=12_345,
            seed=7,
            state=StateParams(r=0.1, theta=0.0, alpha=0.5),
            detection=DetectionParams(eta=0.6, gamma=0.05),
        )
        assert run_mc(config).click_histogram.sum() == 12_345


class TestAgainstEnumeration:
    def test_two_photon_source(self):
        # Two deterministic photons: three-quarters of trials give 2 clicks
        config = McConfig(trials=1_000_000, seed=42, source=fock_distribution(2))
        result = run_mc(config)
        se = result.gamma_se[2]
        assert abs(result.gamma_hat[2] - 0.75) < 3.0 * se

    def test_weak_coherent_second_order(self):
        config = McConfig(
            trials=2_000_000,
            seed=99,
            state=StateParams(r=0.0, theta=0.0, alpha=0.1),
        )
        result = run_mc(config)
        assert abs(result.estimated.g2 - 1.0) < 3.0 * result.estimated_se[0]

    def test_full_chain_against_deterministic(self):
        config = McConfig(
            trials=4_000_000,
            seed=2024,
            state=StateParams(r=0.3, theta=1.1, alpha=0.9),
            detection=DetectionParams(eta=0.55, gamma=0.08),
        )
        result = run_mc(config)
        expected = deterministic_clicks(config)
        for i in range(5):
            se = result.gamma_se[i]
            if expected.probs[i] > 1e-5:
                assert abs(result.gamma_hat[i] - expected.probs[i]) < 4.0 * se


class TestVacuum:
    def test_vacuum_without_noise_raises_no_signal(self):
        config = McConfig(trials=10_000, seed=5, source=fock_distribution(0))
        with pytest.raises(NoSignalError) as err:
            run_mc(config)
        histogram = err.value.result.click_histogram
        assert histogram[0] == 10_000
        assert histogram[1:].sum() == 0

    def test_vacuum_with_noise_clicks(self):
        config = McConfig(
            trials=100_000,
            seed=5,
            source=fock_distribution(0),
            detection=DetectionParams(eta=1.0, gamma=0.1),
        )
        result = run_mc(config)
        assert result.click_histogram[1:].sum() > 0


class TestStratifiedSampling:
    def test_matches_plain_sampling_statistically(self):
        state = StateParams(r=0.25, theta=0.8, alpha=0.7)
        detection = DetectionParams(eta=0.6, gamma=0.02)
        plain = run_mc(McConfig(trials=2_000_000, seed=11, state=state, detection=detection))
        stratified = run_mc(
            McConfig(
                trials=2_000_000,
                seed=12,
                state=state,
                detection=detection,
                condition_min_photons=3,
            )
        )
        for i in range(5):
            se = math.hypot(plain.gamma_se[i], stratified.gamma_se[i])
            if se > 0:
                assert abs(plain.gamma_hat[i] - stratified.gamma_hat[i]) < 5.0 * se

    def test_feasible_antibunching_point(self):
        # Rare-coincidence regime: stratification makes the validation
        # affordable; the second-order estimate must agree with the
        # deterministic chain (and with the anti-bunching value ~0.042).
        config = McConfig(
            trials=2_000_000,
            seed=321,
            state=StateParams(r=0.001, theta=0.0, alpha=0.032),
            detection=DetectionParams(eta=0.5, gamma=1e-5),
            condition_min_photons=2,
        )
        result = run_mc(config)
        source = squeezed_distribution(config.state, config.tol)
        expected = click_coherence(apply_detection(source, config.detection))
        assert abs(result.estimated.g2 - expected.g2) < 3.0 * result.estimated_se[0]
        assert abs(result.estimated.g2 - 0.042) < 3.0 * result.estimated_se[0] + 0.002

    def test_stratified_histogram_sums_to_trials(self):
        config = McConfig(
            trials=999_999,
            seed=8,
            state=StateParams(r=0.1, theta=0.0, alpha=0.4),
            detection=DetectionParams(eta=0.5, gamma=0.01),
            condition_min_photons=2,
        )
        assert run_mc(config).click_histogram.sum() == 999_999


class TestRoutingExchangeability:
    """``_route_clicks`` labels fired detectors 0..k-1, which is exact only
    because the detectors are exchangeable: its click counts must follow
    the occupancy law of L photons thrown into 4 equally likely cells."""

    def test_zero_and_one_photon_fire_that_many_detectors(self):
        rng = np.random.Generator(np.random.Philox(121))
        trials = 1000
        for photons, expected in ((0, [trials, 0, 0, 0, 0]), (1, [0, trials, 0, 0, 0])):
            totals = np.full(trials, photons, dtype=np.int64)
            assert montecarlo._route_clicks(rng, totals).tolist() == expected

    @pytest.mark.parametrize("photons", [2, 3, 5, 9, 40])
    def test_exactly_l_photons_follow_the_occupancy_row(self, photons):
        rng = np.random.Generator(np.random.Philox(123 + photons))
        trials = 2**16
        totals = np.full(trials, photons, dtype=np.int64)
        hist = montecarlo._route_clicks(rng, totals)
        assert hist.sum() == trials
        np.testing.assert_array_equal(totals, photons)
        p = _occupancy_table(photons + 1)[photons]
        sigma = np.sqrt(trials * p * (1.0 - p))
        assert np.all(np.abs(hist - trials * p) <= 4.0 * sigma), (hist, trials * p)


class TestSampler:
    @pytest.mark.parametrize(
        "config",
        [
            McConfig(
                trials=8 * _CHUNK + 3,
                seed=77,
                state=StateParams(r=0.3, theta=1.0, alpha=1.0),
                detection=DetectionParams(eta=0.6, gamma=0.2),
            ),
            # Two strata of just over _CHUNK trials each: two chunks apiece.
            McConfig(
                trials=2 * _CHUNK + 5,
                seed=78,
                state=StateParams(r=0.3, theta=1.0, alpha=1.0),
                detection=DetectionParams(eta=0.6, gamma=0.2),
                condition_min_photons=2,
            ),
        ],
        ids=["full-chain", "stratified"],
    )
    def test_bit_identical_for_any_worker_count(self, config, monkeypatch):
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_workers", lambda workers=workers: workers)
            results.append(run_mc(config))
        for other in results[1:]:
            np.testing.assert_array_equal(other.click_histogram, results[0].click_histogram)
            np.testing.assert_array_equal(other.gamma_hat, results[0].gamma_hat)
            np.testing.assert_array_equal(other.gamma_se, results[0].gamma_se)
            assert other.estimated == results[0].estimated
            assert other.estimated_se == results[0].estimated_se

    def test_pool_is_capped_whatever_the_cpu_count(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(montecarlo, "_workers", lambda: 64)
        run_mc(McConfig(trials=8 * _CHUNK, seed=5, source=fock_distribution(2)))
        assert sizes == [montecarlo._MAX_WORKERS]

    def test_single_photon_is_one_click_without_loss_or_noise(self):
        result = run_mc(McConfig(trials=123_457, seed=3, source=fock_distribution(1)))
        np.testing.assert_array_equal(result.click_histogram, [0, 123_457, 0, 0, 0])

    @pytest.mark.parametrize("n", [*range(2, 9), 16, 32])
    def test_routing_matches_exact_occupancy(self, n):
        trials = 1_000_000
        result = run_mc(McConfig(trials=trials, seed=500 + n, source=fock_distribution(n)))
        exact = click_probabilities(fock_distribution(n)).probs
        sigma = np.sqrt(exact * (1.0 - exact) / trials)
        assert np.all(np.abs(result.gamma_hat - exact) <= 4.0 * sigma + 1e-15)

    def test_bright_field_routing_memory_is_bounded_by_trials(self):
        # 2000 photons per trial at the splitter: all four detectors fire,
        # and routing must not hold a draw per photon (that would take
        # 2000 bytes per trial and more).
        trials = 1 << 14
        source = fock_distribution(2000)
        tracemalloc.start()
        try:
            result = run_mc(McConfig(trials=trials, seed=4, source=source))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(click_probabilities(source).probs, [0, 0, 0, 0, 1], atol=1e-15)
        np.testing.assert_array_equal(result.click_histogram, [0, 0, 0, 0, trials])
        assert peak < 200 * trials

    @pytest.mark.parametrize("condition", [0, 2])
    @pytest.mark.parametrize("trials", [3, _CHUNK - 1, _CHUNK + 7])
    def test_histogram_sums_to_trials_across_chunks(self, trials, condition):
        config = McConfig(
            trials=trials,
            seed=9,
            state=StateParams(r=0.2, theta=0.3, alpha=3.0),
            detection=DetectionParams(eta=0.7, gamma=0.05),
            condition_min_photons=condition,
        )
        assert run_mc(config).click_histogram.sum() == trials


class TestCoherenceGradients:
    @pytest.mark.parametrize("seed", range(8))
    def test_match_finite_differences_of_the_estimators(self, seed):
        rng = np.random.default_rng(seed)
        clicks = rng.dirichlet(np.full(5, rng.uniform(0.2, 3.0)))
        j = np.arange(5.0)

        def ratios(g):
            return np.array(_coincidence_ratios(g, float(j @ g)))

        step = 1e-6
        numeric = np.empty((3, 5))
        for i in range(5):
            shift = np.zeros(5)
            shift[i] = step
            numeric[:, i] = (ratios(clicks + shift) - ratios(clicks - shift)) / (2.0 * step)
        for k, grad in enumerate(montecarlo._coherence_gradients(clicks)):
            np.testing.assert_allclose(grad, numeric[k], rtol=1e-6, atol=1e-6 * np.abs(grad).max())


class TestConfigValidation:
    def test_requires_source_or_state(self):
        with pytest.raises(InvalidParameterError):
            McConfig(trials=10, seed=0)

    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidParameterError):
            McConfig(trials=0, seed=0, source=fock_distribution(1))

    def test_rejects_negative_condition(self):
        with pytest.raises(InvalidParameterError):
            McConfig(trials=10, seed=0, source=fock_distribution(1), condition_min_photons=-1)

    @pytest.mark.parametrize("name", ["trials", "seed", "condition_min_photons"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_rejects_non_integer_counts(self, name, value):
        fields = dict(trials=10, seed=0, source=fock_distribution(1))
        fields[name] = value
        with pytest.raises(InvalidParameterError, match=name):
            McConfig(**fields)

    def test_accepts_numpy_integer_trials(self):
        config = McConfig(trials=np.int64(10), seed=0, source=fock_distribution(1))
        assert run_mc(config).click_histogram.sum() == 10

    @pytest.mark.filterwarnings("error")
    def test_rejects_fewer_trials_than_strata(self):
        source = PhotonDistribution(np.array([0.5, 0.2, 0.2, 0.1]), 0.0)
        config = McConfig(trials=1, seed=0, source=source, condition_min_photons=2)
        with pytest.raises(InvalidParameterError, match="trials"):
            run_mc(config)
