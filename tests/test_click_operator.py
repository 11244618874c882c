"""The cached click operator against the per-distribution reference chain
(loss, noise, occupancy) and an exact-rational recurrence, the click g2,
g3 and g4 of independently firing detectors, the low-efficiency slopes of
the click g2, g3 and g4, and the package's import footprint."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hbt4
from hbt4 import (
    DetectionParams,
    StateParams,
    SweepAxis,
    SweepSpec,
    apply_detection,
    click_coherence,
    click_probabilities,
    evaluate_point,
    fock_distribution,
    ideal_coherence,
    squeezed_distribution,
    sweep,
)
from hbt4 import clicks
from hbt4.clicks import _click_operator, detected_clicks
from hbt4.coherence import _normal_moments, gaussian_moments

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
    op = _click_operator(det.eta, det.gamma, 41)
    assert op.shape == (5, 41)
    for n in range(41):
        ref = click_probabilities(apply_detection(fock_distribution(n), det))
        np.testing.assert_allclose(op[:, n], ref.probs, rtol=0.0, atol=1e-14)


def _assert_matches_reference(state, detection):
    dist = squeezed_distribution(state)
    ref_clicks = click_probabilities(apply_detection(dist, detection))
    assert detected_clicks(dist, detection).defect == dist.tail_mass
    assert ref_clicks.defect >= dist.tail_mass
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
def test_defect_is_the_state_tail_at_any_gamma(gamma):
    # At these gammas the reference chain's summed noise kernel rounds to
    # just below 1, so its defect holds the kernel's missing mass; the
    # operator's noise row is exact, and its defect is the state's tail.
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
    op = _click_operator(0.5, 1e-5, 10)
    assert not op.flags.writeable
    _click_operator(0.5, 1e-5, 11)
    assert [len(op) for op in clicks._last_operator.values()] == [20]
    _click_operator(0.7, 1e-5, 5)
    assert list(clicks._last_operator) == [(0.7, 1e-5)]
    assert len(clicks._last_operator[0.7, 1e-5]) == 5


def _exact_operator(eta: float, gamma: float, width: int) -> list[list[Fraction]]:
    """The rows of the click operator in exact rational arithmetic: the
    noise alone fires Binomial(4, q) detectors, with q = -expm1(-gamma / 4)
    and s = exp(-gamma / 4) as the floats those calls return, then one
    photon at a time is lost with probability 1 - eta or lands on one of
    the four detectors."""
    q, s = Fraction(-math.expm1(-gamma / 4)), Fraction(math.exp(-gamma / 4))
    row = [math.comb(4, j) * q**j * s ** (4 - j) for j in range(5)]
    land, keep = Fraction(eta), Fraction(1.0 - eta)
    rows = [row]
    for _ in range(1, width):
        landed = [Fraction(0)] + [
            Fraction(j, 4) * row[j] + Fraction(5 - j, 4) * row[j - 1] for j in range(1, 5)
        ]
        row = [keep * a + land * b for a, b in zip(row, landed)]
        rows.append(row)
    return rows


@pytest.mark.parametrize(
    "eta, gamma",
    [(0.5, 1e-5), (0.9, 1e-3), (0.37, 2.5), (1.0, 0.0), (0.5, 1e-9), (0.6, 30.0)],
)
def test_operator_matches_exact_rational_recurrence(eta, gamma):
    width = 151
    op = _click_operator(eta, gamma, width)
    for n, row in enumerate(_exact_operator(eta, gamma, width)):
        for j, exact in enumerate(row):
            if exact >= Fraction(1e-250):
                assert abs(Fraction(float(op[j, n])) - exact) <= Fraction(5e-15) * exact


# A coherent state, or the noise alone, fires each detector independently,
# so every click correlation is exactly 1 at any eta and gamma.
@pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("gamma", [1e-9, 1e-7, 1e-5, 1e-3, 0.1, 1.0, 5.0, 30.0])
def test_noise_alone_has_unit_coherence(eta, gamma):
    vacuum = StateParams(r=0.0, theta=0.0, alpha=0.0)
    got = evaluate_point(vacuum, DetectionParams(eta=eta, gamma=gamma), "click")
    assert abs(got.g2 - 1.0) <= 3e-15
    assert abs(got.g3 - 1.0) <= 3e-15
    assert abs(got.g4 - 1.0) <= 3e-15


def _seeded_coherent_points(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        alpha = math.exp(rng.uniform(math.log(0.03), math.log(3.0)))
        gamma = rng.choice([0.0, math.exp(rng.uniform(math.log(1e-9), math.log(3.0)))])
        yield alpha, DetectionParams(eta=rng.uniform(0.05, 1.0), gamma=gamma)


@pytest.mark.parametrize("seed", range(3))
def test_coherent_states_have_unit_coherence(seed):
    for alpha, detection in _seeded_coherent_points(seed, 20):
        got = evaluate_point(StateParams(r=0.0, theta=0.0, alpha=alpha), detection, "click")
        assert abs(got.g2 - 1.0) <= 1e-14
        assert abs(got.g3 - 1.0) <= 1e-14
        assert abs(got.g4 - 1.0) <= 1e-14


@pytest.mark.parametrize("seed", range(3))
def test_coherent_sweeps_have_unit_coherence(seed):
    for _, detection in _seeded_coherent_points(200 + seed, 4):
        spec = SweepSpec(
            axes=(SweepAxis("alpha", 0.03, 3.0, 9, "log"),),
            state=StateParams(r=0.0, theta=0.0, alpha=0.0),
            detection=detection,
            pipeline="click",
        )
        for row in sweep(spec).rows:
            assert abs(row.g2 - 1.0) <= 1e-14
            assert abs(row.g3 - 1.0) <= 1e-14
            assert abs(row.g4 - 1.0) <= 1e-14


# At gamma = 0 the probability that a fixed set of k detectors fires is
# (eta/4)^k [N_k - (eta k/8) N_{k+1}] + O(eta^(k+2)), so the click g_k
# tends to the closed form as eta -> 0 with relative slope
# -(k/8)(N_{k+1}/N_k - N_2/N_1).
def _low_efficiency_states():
    rng = random.Random(19)
    for _ in range(60):
        yield StateParams(
            r=math.exp(rng.uniform(math.log(1e-3), math.log(0.5))),
            theta=rng.uniform(0.0, 2.0 * math.pi),
            alpha=math.exp(rng.uniform(math.log(0.03), math.log(3.0))),
        )


def test_g2_low_efficiency_slope():
    for state in _low_efficiency_states():
        n1, n2, n3, _ = gaussian_moments(state)
        slope = -(n3 / n2 - n2 / n1) / 4.0
        for eta in (1e-4, 1e-5):
            click = evaluate_point(state, DetectionParams(eta=eta, gamma=0.0), "click")
            measured = (click.g2 / ideal_coherence(state).g2 - 1.0) / eta
            # The O(eta^2) remainder: at most 0.087 eta over these states.
            assert abs(measured - slope) <= 0.2 * eta


def test_g3_low_efficiency_slope():
    for state in _low_efficiency_states():
        n1, n2, n3, n4 = gaussian_moments(state)
        slope = -3.0 / 8.0 * (n4 / n3 - n2 / n1)
        for eta in (1e-4, 1e-5):
            click = evaluate_point(state, DetectionParams(eta=eta, gamma=0.0), "click")
            measured = (click.g3 / ideal_coherence(state).g3 - 1.0) / eta
            # The O(eta^2) remainder: at most 0.41 eta over these states.
            assert abs(measured - slope) <= eta


def test_g4_low_efficiency_slope():
    for state in _low_efficiency_states():
        n1, n2, _, n4, n5 = _normal_moments(state.r, state.theta, state.alpha, 5)
        slope = -(n5 / n4 - n2 / n1) / 2.0
        for eta in (1e-4, 1e-5):
            click = evaluate_point(state, DetectionParams(eta=eta, gamma=0.0), "click")
            measured = (click.g4 / ideal_coherence(state).g4 - 1.0) / eta
            # The O(eta^2) remainder: at most 1.24 eta over these states.
            assert abs(measured - slope) <= 3.0 * eta


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
