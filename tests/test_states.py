import math
import tracemalloc

import numpy as np
import pytest

from hbt4 import (
    DetectionParams,
    InternalInvariantError,
    InvalidParameterError,
    PhotonDistribution,
    StateParams,
    TruncationError,
    apply_detection,
    click_coherence,
    coherent_distribution,
    factorial_moments,
    fock_distribution,
    hermite_scaled,
    ideal_coherence,
    squeezed_distribution,
)
from hbt4.states import _HANDOFF_COLUMNS, packed_distributions
from hbt4.sweep import _GRID_COLUMNS


def hermite_direct(n: int, x: complex) -> complex:
    """Textbook three-term recurrence for H_n(x), unscaled (oracle)."""
    h_prev, h = 1.0 + 0.0j, 2.0 * x
    if n == 0:
        return h_prev
    for k in range(1, n):
        h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    return h


class TestHermiteScaled:
    def test_zeroth_order_is_one(self):
        assert hermite_scaled(0, 2.3 + 1j, 0.4).tolist() == [1.0 + 0.0j]

    def test_h2_at_zero(self):
        # H_2(0) = -2, so u_2 = -2 * t / sqrt(2)
        u = hermite_scaled(2, 0.0, 0.1)
        assert u[2] == pytest.approx(-2.0 * 0.1 / math.sqrt(2.0), abs=1e-15)

    def test_odd_orders_vanish_at_zero(self):
        u = hermite_scaled(3, 0.0, 0.2)
        assert u[1] == 0.0
        assert u[3] == 0.0

    @pytest.mark.parametrize("x", [0.7, -1.3, 0.4 + 0.9j, -0.2 - 1.1j])
    @pytest.mark.parametrize("t", [0.05, 0.2, 0.49])
    def test_matches_direct_evaluation(self, x, t):
        n_max = 25
        u = hermite_scaled(n_max, x, t)
        for n in range(n_max + 1):
            expected = hermite_direct(n, x) * t ** (n / 2.0) / math.sqrt(math.factorial(n))
            assert u[n] == pytest.approx(expected, rel=1e-11, abs=1e-13)

    def test_rejects_non_finite_argument(self):
        with pytest.raises(InvalidParameterError):
            hermite_scaled(3, complex("inf"), 0.1)
        with pytest.raises(InvalidParameterError):
            hermite_scaled(3, complex("nan"), 0.1)

    def test_rejects_scale_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            hermite_scaled(3, 0.5, -0.01)
        with pytest.raises(InvalidParameterError):
            hermite_scaled(3, 0.5, 0.51)


class TestCoherentDistribution:
    def test_vacuum(self):
        d = coherent_distribution(0.0)
        assert d.probs[0] == 1.0
        assert d.tail_mass == 0.0

    def test_single_photon_weight_at_unit_amplitude(self):
        d = coherent_distribution(1.0)
        assert d.probs[1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_mean_of_poisson(self):
        d = coherent_distribution(2.0)
        assert d.mean == pytest.approx(4.0, abs=1e-10)

    def test_tolerance_domain(self):
        with pytest.raises(InvalidParameterError):
            coherent_distribution(1.0, tol=0.0)
        with pytest.raises(InvalidParameterError):
            coherent_distribution(1.0, tol=1e-5)
        for tol in ("x", None, 1e-9j, [1e-9]):
            with pytest.raises(InvalidParameterError, match="tol: must be a real number"):
                coherent_distribution(1.0, tol=tol)


class TestSqueezedDistribution:
    def test_vacuum(self):
        d = squeezed_distribution(StateParams(r=0.0, theta=0.0, alpha=0.0))
        assert d.probs[0] == 1.0
        assert np.all(d.probs[1:] == 0.0)

    def test_coherent_branch(self):
        d = squeezed_distribution(StateParams(r=0.0, theta=0.0, alpha=1.0))
        assert d.probs[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_squeezed_vacuum_closed_form(self):
        # p_2 = tanh^2(r) / (2 cosh r) for the squeezed vacuum, odd terms zero
        r = 0.5
        d = squeezed_distribution(StateParams(r=r, theta=0.0, alpha=0.0))
        assert d.probs[2] == pytest.approx(math.tanh(r) ** 2 / (2.0 * math.cosh(r)), rel=1e-12)
        assert np.all(d.probs[1::2] == 0.0)

    @pytest.mark.parametrize(
        "params",
        [
            StateParams(r=0.001, theta=0.0, alpha=0.032),
            StateParams(r=0.3, theta=1.1, alpha=0.4),
            StateParams(r=1.0, theta=math.pi, alpha=1.0),
            StateParams(r=2.0, theta=4.0, alpha=-1.5),
        ],
    )
    def test_normalization_and_mean(self, params):
        d = squeezed_distribution(params)
        assert d.probs.sum() + d.tail_mass == pytest.approx(1.0, abs=1e-10)
        omega = params.alpha * (math.cosh(params.r) - np.exp(1j * params.theta) * math.sinh(params.r))
        expected_mean = abs(omega) ** 2 + math.sinh(params.r) ** 2
        assert d.mean == pytest.approx(expected_mean, rel=1e-8)

    def test_phase_periodicity_elementwise(self):
        a = squeezed_distribution(StateParams(r=0.4, theta=0.9, alpha=0.5))
        b = squeezed_distribution(StateParams(r=0.4, theta=0.9 + 2.0 * math.pi, alpha=0.5))
        n = min(len(a), len(b))
        np.testing.assert_allclose(a.probs[:n], b.probs[:n], atol=1e-12)

    @pytest.mark.parametrize("r", [0.99e-8, 1.01e-8, 0.0])
    def test_weak_field_continuity(self, r):
        # At weak displacement the squeezing term dominates g2 even at
        # r ~ 1e-8, so the click chain must follow the closed form
        # continuously down to r = 0, where the state is coherent.
        state = StateParams(r=r, theta=0.7, alpha=1e-5)
        dist = apply_detection(squeezed_distribution(state), DetectionParams(eta=1.0, gamma=0.0))
        g2 = click_coherence(dist).g2
        if r == 0.0:
            assert g2 == pytest.approx(1.0, abs=1e-12)
        else:
            assert g2 == pytest.approx(ideal_coherence(state).g2, rel=1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha, r", [(40.0, 0.0), (40.0, 0.1), (30.0, 0.3)])
    def test_strong_field_moments(self, alpha, r):
        # Mean photon numbers near 1000: the recurrence must neither
        # overflow nor report a false TruncationError.
        state = StateParams(r=r, theta=0.0, alpha=alpha)
        dist = squeezed_distribution(state)
        ideal = ideal_coherence(state)
        moments = factorial_moments(dist)
        assert dist.mean == pytest.approx(ideal.mean_clicks, rel=1e-9)
        assert moments.g2 == pytest.approx(ideal.g2, rel=1e-9)
        assert moments.g4 == pytest.approx(ideal.g4, rel=1e-9)

    def test_truncation_failure_is_distinct(self):
        with pytest.raises(TruncationError):
            squeezed_distribution(StateParams(r=5.0, theta=0.0, alpha=0.0))

    def test_support_margin_covers_moment_weights(self):
        # Far-tail entries matter for fourth-order moments even when their
        # probability mass is below the tolerance; the builder keeps them.
        d = squeezed_distribution(StateParams(r=1e-4, theta=0.0, alpha=0.03))
        assert len(d) >= 8

    @pytest.mark.parametrize("mu", [0.5, 4.0, 18.0, 60.0])
    def test_margin_survives_block_boundaries(self, mu):
        # The safety margin must not be clipped below the hard size cap.
        d = coherent_distribution(math.sqrt(mu))
        cum = np.cumsum(d.probs)
        n_mass = int(np.nonzero(1.0 - cum < 1e-12)[0][0])
        assert len(d) >= n_mass + 1 + 16


def pack(states, tol=1e-12):
    """``packed_distributions`` of a list of StateParams."""
    return packed_distributions([(s.r, s.theta, s.alpha) for s in states], tol)


def assert_columns_are_scalar_builds(states, tol=1e-12) -> list[int]:
    """Every column of the grid build is the scalar build bit for bit, then
    zeros; returns the supports."""
    packed = pack(states, tol)
    dists = [squeezed_distribution(s, tol) for s in states]
    supports = [len(d) for d in dists]
    assert packed.shape == (max(supports), len(states))
    for column, dist in zip(packed.T, dists):
        assert column[: len(dist)].tobytes() == dist.probs.tobytes()
        assert not column[len(dist) :].any()
    return supports


VACUUM = StateParams(r=0.0, theta=0.0, alpha=0.0)
TWO_PI = 2.0 * math.pi


class TestPackedDistributions:
    @pytest.mark.parametrize(
        "states, supports",
        [
            ([StateParams(1e-3, th, 0.032) for th in np.linspace(0.0, TWO_PI, 161)], (20, 21)),
            # Columns leave the batch at supports from 24 to 188.
            ([StateParams(r, 0.0, 0.5) for r in np.geomspace(1e-4, 1.0, 161)], (24, 188)),
            ([StateParams(1.0, th, 1.0) for th in np.linspace(0.0, TWO_PI, 101)], (188, 302)),
            # The iterates pass 2^128 and are rescaled, in the batch and
            # after the handoff.
            ([StateParams(0.3, math.pi, a) for a in np.linspace(10.0, 24.0, 64)], (662, 2754)),
        ],
        ids=["weak-theta", "mixed-r", "theta-at-r1", "rescaling-alpha"],
    )
    def test_columns_equal_scalar_builds(self, states, supports):
        found = assert_columns_are_scalar_builds(states)
        assert (min(found), max(found)) == supports

    def test_vacuum_and_repeated_states(self):
        repeated, weak = StateParams(0.3, 0.7, 1.0), StateParams(1e-3, 0.0, 0.032)
        states = [VACUUM] * 3 + [repeated] * 40 + [VACUUM] + [weak] * 20
        assert_columns_are_scalar_builds(states)
        assert_columns_are_scalar_builds(states, tol=1e-8)

    def test_grid_smaller_than_the_handoff_count(self):
        states = [StateParams(0.3, 0.7, a) for a in np.geomspace(1e-3, 3.0, _HANDOFF_COLUMNS - 1)]
        assert_columns_are_scalar_builds(states)
        assert_columns_are_scalar_builds([VACUUM])

    def test_a_column_does_not_depend_on_its_batch(self):
        state = StateParams(0.3, 0.7, 1.0)
        rng = np.random.default_rng(7)
        others = [
            StateParams(r, theta, alpha)
            for r, theta, alpha in zip(
                rng.uniform(0.0, 1.0, 255),
                rng.uniform(0.0, TWO_PI, 255),
                rng.uniform(0.0, 3.0, 255),
            )
        ]
        alone = pack([state])[:, 0]
        among = pack(others[:100] + [state] + others[100:])[:, 100]
        assert among[: alone.size].tobytes() == alone.tobytes()
        assert not among[alone.size :].any()

    @pytest.mark.parametrize("failing", [1, 40], ids=["after-handoff", "in-batch"])
    def test_non_converging_state_raises_the_scalar_message(self, failing):
        fine = [StateParams(0.3, 0.7, alpha) for alpha in np.linspace(0.1, 1.0, 40)]
        bad = [StateParams(5.0, 0.0, alpha) for alpha in np.linspace(0.0, 0.5, failing)]
        with pytest.raises(TruncationError) as scalar:
            squeezed_distribution(bad[0])
        with pytest.raises(TruncationError) as grid:
            pack(fine[:20] + bad + fine[20:])
        assert str(grid.value) == str(scalar.value)

    def test_rejects_empty_grids_and_bad_tolerances(self):
        with pytest.raises(InvalidParameterError):
            packed_distributions([])
        with pytest.raises(InvalidParameterError):
            pack([VACUUM], tol=1e-5)
        with pytest.raises(InvalidParameterError, match="tol"):
            pack([VACUUM], tol="x")

    def test_peak_memory_of_a_full_grid_stays_within_its_bound(self):
        # The bound stated with sweep._GRID_COLUMNS: 12 MB at supports of
        # 2014 to 2754.
        states = [StateParams(0.3, math.pi, a) for a in np.linspace(20.0, 24.0, _GRID_COLUMNS)]
        tracemalloc.start()
        try:
            packed = pack(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert packed.shape == (2754, _GRID_COLUMNS)
        assert peak < 12e6


class TestStateParams:
    @pytest.mark.parametrize("r, theta", [(5e-4, 0.0), (0.3, 0.7), (1.0, math.pi)])
    def test_numpy_scalars_build_the_float_distribution(self, r, theta):
        # Grids hand numpy scalars to StateParams; the recurrence must run
        # in Python floats all the same, so p_n agree bit for bit.
        for alpha in np.geomspace(1e-3, 1.0, 12):
            from_numpy = squeezed_distribution(StateParams(np.float64(r), np.float64(theta), alpha))
            from_float = squeezed_distribution(StateParams(r, theta, float(alpha)))
            assert from_numpy.probs.tobytes() == from_float.probs.tobytes()
            assert from_numpy.tail_mass == from_float.tail_mass

    def test_fields_are_python_floats(self):
        state = StateParams(r=np.float64(0.1), theta=np.int64(1), alpha=2)
        assert [type(v) for v in (state.r, state.theta, state.alpha)] == [float] * 3

    @pytest.mark.parametrize("field", ["r", "theta", "alpha"])
    @pytest.mark.parametrize("value", [1j, "0.5", None, [0.5]])
    def test_rejects_values_that_are_not_real_numbers(self, field, value):
        values = dict(r=0.1, theta=0.0, alpha=0.5)
        values[field] = value
        with pytest.raises(InvalidParameterError) as excinfo:
            StateParams(**values)
        assert excinfo.value.field == field


class TestPhotonDistribution:
    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidParameterError):
            PhotonDistribution(probs=np.array([1.1, -0.1]), tail_mass=0.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(Exception):
            PhotonDistribution(probs=np.array([0.5, 0.1]), tail_mass=0.0)

    @pytest.mark.parametrize(
        "probs",
        [[0.5, math.nan, 0.5], [0.5, math.inf], [1.0, -math.inf, 0.0], [math.inf, -math.inf]],
        ids=["nan", "inf", "minus-inf", "both-infs"],
    )
    def test_rejects_non_finite_entries(self, probs):
        with pytest.raises(InvalidParameterError):
            PhotonDistribution(probs=np.array(probs), tail_mass=0.0)

    @pytest.mark.parametrize("probs", [np.array([[0.5, 0.5]]), np.array([]), np.float64(1.0)],
                             ids=["2-d", "empty", "0-d"])
    def test_rejects_arrays_that_are_not_non_empty_1d(self, probs):
        with pytest.raises(InvalidParameterError):
            PhotonDistribution(probs=probs, tail_mass=0.0)

    @pytest.mark.parametrize("tail", [-1e-3, 1.5, math.nan])
    def test_rejects_tail_outside_unit_interval(self, tail):
        with pytest.raises(InvalidParameterError):
            PhotonDistribution(probs=np.array([1.0]), tail_mass=tail)

    def test_rejects_sum_off_one_with_internal_invariant_error(self):
        with pytest.raises(InternalInvariantError):
            PhotonDistribution(probs=np.array([0.5, 0.4]), tail_mass=0.05)
        # Entries and tail summing to 1 within 1e-9 are accepted.
        assert PhotonDistribution(probs=np.array([0.5, 0.4]), tail_mass=0.1 + 1e-12).tail_mass > 0.1

    def test_fock_helper(self):
        d = fock_distribution(3)
        assert d.probs.tolist() == [0.0, 0.0, 0.0, 1.0]
        assert d.mean == 3.0

    def test_probs_are_read_only(self):
        d = fock_distribution(1)
        with pytest.raises(ValueError):
            d.probs[0] = 0.5
