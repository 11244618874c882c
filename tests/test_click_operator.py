"""The cached click operator against the per-distribution reference chain
(loss, noise, occupancy), and the package's import footprint."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hbt4
from hbt4 import (
    DetectionParams,
    StateParams,
    apply_detection,
    click_coherence,
    click_probabilities,
    evaluate_point,
    fock_distribution,
    squeezed_distribution,
)
from hbt4 import clicks
from hbt4.clicks import _click_operator, detected_clicks

DETECTIONS = [
    DetectionParams(eta=1.0, gamma=0.0),
    DetectionParams(eta=0.0, gamma=0.0),
    DetectionParams(eta=0.5, gamma=0.0),
    DetectionParams(eta=1.0, gamma=1e-5),
    DetectionParams(eta=0.0, gamma=0.3),
    DetectionParams(eta=0.5, gamma=1e-5),
    DetectionParams(eta=0.37, gamma=2.5),
]


def _seeded_points(seed: int, count: int, alpha_range: tuple[float, float]):
    rng = random.Random(seed)
    lo, hi = (math.log(a) for a in alpha_range)
    for _ in range(count):
        state = StateParams(
            r=rng.choice([0.0, rng.uniform(1e-4, 1e-3), rng.uniform(0.01, 0.3)]),
            theta=rng.uniform(0.0, 2.0 * math.pi),
            alpha=math.exp(rng.uniform(lo, hi)),
        )
        detection = DetectionParams(eta=rng.uniform(0.1, 1.0), gamma=rng.choice([0.0, 1e-5, 1e-2]))
        yield state, detection


@pytest.mark.parametrize("det", DETECTIONS, ids=lambda d: f"eta={d.eta},gamma={d.gamma}")
def test_column_n_is_the_click_distribution_of_n_photons(det):
    op, kernel_tail = _click_operator(det.eta, det.gamma, 41)
    assert op.shape == (5, 41)
    for n in range(41):
        ref = click_probabilities(apply_detection(fock_distribution(n), det))
        np.testing.assert_allclose(op[:, n], ref.probs, rtol=0.0, atol=1e-14)
        assert kernel_tail == ref.defect


def _assert_matches_reference(state, detection):
    dist = squeezed_distribution(state)
    ref_clicks = click_probabilities(apply_detection(dist, detection))
    assert detected_clicks(dist, detection).defect == ref_clicks.defect
    got = evaluate_point(state, detection, "click")
    ref = click_coherence(apply_detection(dist, detection))
    for a, b in zip(
        (got.g2, got.g3, got.g4, got.mean_clicks), (ref.g2, ref.g3, ref.g4, ref.mean_clicks)
    ):
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", range(4))
def test_weak_points_match_the_reference_chain(seed):
    # The paper's regime: r ~ 5e-4, alpha ~ 0.016, eta = 0.5, gamma = 1e-5,
    # where the four-click probability is about 1e-17.
    rng = random.Random(seed)
    for _ in range(10):
        state = StateParams(
            r=rng.uniform(2e-4, 1e-3),
            theta=rng.uniform(0.0, 2.0 * math.pi),
            alpha=rng.uniform(0.008, 0.032),
        )
        _assert_matches_reference(state, DetectionParams(eta=0.5, gamma=1e-5))
    _assert_matches_reference(
        StateParams(r=5e-4, theta=0.0, alpha=0.016), DetectionParams(eta=0.5, gamma=1e-5)
    )


@pytest.mark.parametrize("seed", range(3))
def test_seeded_points_match_the_reference_chain(seed):
    for state, detection in _seeded_points(seed, 12, (1e-3, 1.0)):
        _assert_matches_reference(state, detection)


@pytest.mark.parametrize("seed", range(2))
def test_strong_points_match_the_reference_chain(seed):
    for state, detection in _seeded_points(100 + seed, 4, (3.0, 40.0)):
        _assert_matches_reference(state, detection)


@pytest.mark.parametrize("gamma", [0.1, 5.0])
def test_defect_carries_the_noise_kernel_tail(gamma):
    # At these gammas the summed kernel can round to just below 1, which
    # makes the kernel's missing mass a visible part of the defect.
    _assert_matches_reference(
        StateParams(r=0.1, theta=0.5, alpha=0.3), DetectionParams(eta=0.6, gamma=gamma)
    )


def test_results_do_not_depend_on_the_kept_operator():
    det = DetectionParams(eta=0.5, gamma=1e-5)
    weak = StateParams(r=5e-4, theta=0.0, alpha=0.016)
    strong = StateParams(r=0.1, theta=1.0, alpha=30.0)
    clicks._last_operator.clear()
    cold = evaluate_point(weak, det, "click")
    strong_first = evaluate_point(strong, det, "click")
    assert evaluate_point(weak, det, "click") == cold
    evaluate_point(weak, DetectionParams(eta=0.9, gamma=1e-3), "click")
    assert evaluate_point(weak, det, "click") == cold
    clicks._last_operator.clear()
    assert evaluate_point(strong, det, "click") == strong_first
    assert evaluate_point(weak, det, "click") == cold


def test_the_kept_operator_is_read_only_and_grows_geometrically():
    clicks._last_operator.clear()
    op, _ = _click_operator(0.5, 1e-5, 10)
    assert not op.flags.writeable
    _click_operator(0.5, 1e-5, 11)
    assert [len(op) for op, _ in clicks._last_operator.values()] == [20]
    _click_operator(0.7, 1e-5, 5)
    assert list(clicks._last_operator) == [(0.7, 1e-5)]
    assert len(clicks._last_operator[0.7, 1e-5][0]) == 5


def test_import_does_not_load_scipy():
    src = str(Path(hbt4.__file__).resolve().parent.parent)
    code = "import sys, hbt4; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"


def test_import_does_not_load_random_or_thread_pool():
    # Both load only when run_mc runs: numpy.random alone adds about 6 MB
    # and 15 ms to every import of the package.
    src = str(Path(hbt4.__file__).resolve().parent.parent)
    code = (
        "import sys, hbt4; "
        "print([m for m in ('numpy.random', 'concurrent.futures') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"
