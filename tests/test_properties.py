"""Property-based invariants over randomly generated states, efficiencies
and distributions."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbt4 import (
    PhotonDistribution,
    StateParams,
    UndefinedCoherenceError,
    bernoulli_loss,
    click_probabilities,
    coherent_distribution,
    factorial_moments,
    ideal_coherence,
    multinomial_click_probabilities,
    noise_convolve,
    squeezed_distribution,
)

_r = st.floats(min_value=0.0, max_value=1.5, allow_nan=False)
_r_pos = st.floats(min_value=1e-4, max_value=1.5, allow_nan=False)
_theta = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
_alpha = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
_eta = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
_gamma = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


@st.composite
def distributions(draw, max_len=30):
    length = draw(st.integers(min_value=1, max_value=max_len))
    raw = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=length,
            max_size=length,
        )
    )
    total = sum(raw)
    if total <= 0.0:
        probs = np.zeros(length)
        probs[0] = 1.0
    else:
        probs = np.asarray(raw) / total
    return PhotonDistribution(probs=probs, tail_mass=max(0.0, 1.0 - probs.sum()))


@settings(max_examples=60, deadline=None)
@given(r=_r, theta=_theta, alpha=_alpha)
def test_normalization(r, theta, alpha):
    d = squeezed_distribution(StateParams(r=r, theta=theta, alpha=alpha))
    assert np.all(d.probs >= 0.0)
    assert abs(d.probs.sum() + d.tail_mass - 1.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(r=_r_pos, theta=_theta)
def test_zero_displacement_parity(r, theta):
    d = squeezed_distribution(StateParams(r=r, theta=theta, alpha=0.0))
    assert np.all(d.probs[1::2] == 0.0)


@settings(max_examples=40, deadline=None)
@given(r=_r_pos, theta=st.floats(min_value=0.0, max_value=2.0 * math.pi), alpha=_alpha)
def test_phase_periodicity(r, theta, alpha):
    a = squeezed_distribution(StateParams(r=r, theta=theta, alpha=alpha))
    b = squeezed_distribution(StateParams(r=r, theta=theta + 2.0 * math.pi, alpha=alpha))
    n = min(len(a), len(b))
    np.testing.assert_allclose(a.probs[:n], b.probs[:n], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(d=distributions(), eta=_eta)
def test_loss_preserves_normalization_and_scales_mean(d, eta):
    out = bernoulli_loss(d, eta)
    assert abs(out.probs.sum() + out.tail_mass - (d.probs.sum() + d.tail_mass)) < 1e-10
    assert abs(out.mean - eta * d.mean) < 1e-10


@settings(max_examples=40, deadline=None)
@given(d=distributions(), eta=st.floats(min_value=0.05, max_value=1.0))
# p_2 = 2^-1022 becomes the subnormal but exact 2^-1024 under loss, and g2
# is 2^-1021 on both sides; a cutoff on subnormal moment sums would zero it.
@example(d=PhotonDistribution(probs=np.array([0.0, 1.0, 2.0**-1022]), tail_mass=0.0), eta=0.5)
# p_2 = 5e-324 underflows to 0 under loss: g2 is 1e-323 before and 0 after.
@example(d=PhotonDistribution(probs=np.array([0.0, 1.0, 5e-324]), tail_mass=0.0), eta=0.5)
# <n> = 2^-254 is resolved before loss; after it, <n>^4 underflows.
@example(d=PhotonDistribution(probs=np.array([1.0, 2.0**-254]), tail_mass=0.0), eta=0.05)
def test_loss_invariance_of_normalized_moments(d, eta):
    try:
        before = factorial_moments(d)
    except UndefinedCoherenceError:
        return  # zero or unresolved mean
    try:
        after = factorial_moments(bernoulli_loss(d, eta))
    except UndefinedCoherenceError:
        # Loss scales <n> by eta, which can take <n>^4 below the smallest
        # normal float.
        assert (eta * before.mean_clicks) ** 4 < 1.000001 * sys.float_info.min
        return
    for k, a, b in zip((2, 3, 4), (after.g2, after.g3, after.g4), (before.g2, before.g3, before.g4)):
        if math.isnan(b) or b == 0.0:
            assert math.isnan(a) or abs(a) < 1e-8
        # Loss scales the k-th factorial-moment sum by eta^k.  Below the
        # smallest normal float a sum keeps absolute, not relative,
        # precision: each product that loss and the sum form rounds to a
        # multiple of 2^-1074, and there are at most len(d)^2 of them, each
        # weighted by at most len(d)^k.  No rule inside factorial_moments
        # can mend this: loss sends [0, 1, 5e-324] and [0, 1, 0] at
        # eta = 0.5 to the same floats, so the two would need different
        # answers from one input, and any cutoff T on the sum flips a sum
        # between T and T / eta^k from kept to dropped.
        elif (moment := eta**k * b * before.mean_clicks**k) < sys.float_info.min:
            assert abs(a * after.mean_clicks**k - moment) <= len(d) ** (k + 2) * 2.0**-1074
        else:
            assert abs(a - b) / abs(b) < 1e-8


@settings(max_examples=40, deadline=None)
@given(d=distributions(), gamma=_gamma)
def test_noise_mean_additivity(d, gamma):
    out = noise_convolve(d, gamma)
    assert abs(out.mean - (d.mean + gamma)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(mu1=st.floats(min_value=0.01, max_value=3.0), mu2=st.floats(min_value=0.01, max_value=3.0))
def test_poisson_additivity(mu1, mu2):
    out = noise_convolve(coherent_distribution(math.sqrt(mu1)), mu2)
    expected = coherent_distribution(math.sqrt(mu1 + mu2))
    n = min(len(out), len(expected))
    np.testing.assert_allclose(out.probs[:n], expected.probs[:n], atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(mu=st.floats(min_value=0.05, max_value=4.0), eta=_eta)
def test_poisson_thinning(mu, eta):
    out = bernoulli_loss(coherent_distribution(math.sqrt(mu)), eta)
    expected = coherent_distribution(math.sqrt(mu * eta))
    n = min(len(out), len(expected))
    np.testing.assert_allclose(out.probs[:n], expected.probs[:n], atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(d=distributions())
def test_click_routes_agree(d):
    a = click_probabilities(d).probs
    b = multinomial_click_probabilities(d).probs
    np.testing.assert_allclose(a, b, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(d=distributions())
def test_click_probabilities_normalized(d):
    out = click_probabilities(d)
    assert abs(out.probs.sum() - (1.0 - out.defect)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(min_value=0.05, max_value=2.0))
def test_poissonian_moments_are_unity(alpha):
    moments = factorial_moments(coherent_distribution(alpha))
    assert moments.g2 == pytest.approx(1.0, abs=1e-9)
    assert moments.g3 == pytest.approx(1.0, abs=1e-9)
    assert moments.g4 == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(r=st.floats(min_value=0.05, max_value=1.2))
def test_squeezed_vacuum_second_order_formula(r):
    triple = ideal_coherence(StateParams(r=r, theta=0.0, alpha=0.0))
    assert abs(triple.g2 - (3.0 + 1.0 / math.sinh(r) ** 2)) / triple.g2 < 1e-9
