import importlib
import itertools
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from hbt4 import (
    DetectionParams,
    InvalidParameterError,
    NoSignalError,
    StateParams,
    SweepAxis,
    SweepSpec,
    UndefinedCoherenceError,
    evaluate_point,
    find_extremum,
    ideal_coherence,
    minimized_map,
    squeezing_db,
    sweep,
)
from hbt4 import clicks
from hbt4.coherence import analytic_intermediates
from hbt4.sweep import minimized_maps
from hbt4.tableio import to_csv

sweep_module = importlib.import_module("hbt4.sweep")


class TestSqueezingDb:
    def test_zero(self):
        assert squeezing_db(0.0) == 0.0

    def test_weak_squeezing_value(self):
        db = squeezing_db(0.001)
        assert db == pytest.approx(0.0087, abs=1e-4)
        assert round(db, 3) == 0.009

    def test_published_correspondences(self):
        assert squeezing_db(0.00196) == pytest.approx(0.017, abs=5e-4)
        assert squeezing_db(0.002) == pytest.approx(0.017, abs=5e-4)

    def test_linear_in_r(self):
        assert squeezing_db(0.5) == pytest.approx(20.0 * math.log10(math.e) * 0.5, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            squeezing_db(-0.1)


class TestSweep:
    def test_theta_scan_ideal(self):
        spec = SweepSpec(
            axes=(SweepAxis("theta", 0.0, 2.0 * math.pi, 9),),
            state=StateParams(r=0.001, theta=0.0, alpha=0.032),
        )
        table = sweep(spec)
        assert len(table.rows) == 9
        # value at theta = 0 frozen from the moment oracle
        assert table.rows[0].g2 == pytest.approx(0.0043688987, rel=1e-6)
        # periodic endpoints
        assert table.rows[-1].g2 == pytest.approx(table.rows[0].g2, rel=1e-10)

    def test_coherent_light_flat_at_unity(self):
        spec = SweepSpec(
            axes=(SweepAxis("alpha", 0.1, 1.0, 7),),
            state=StateParams(r=0.0, theta=0.0, alpha=0.0),
        )
        table = sweep(spec)
        for row in table.rows:
            assert row.g2 == pytest.approx(1.0, rel=1e-9)

    def test_row_major_order_two_axes(self):
        spec = SweepSpec(
            axes=(
                SweepAxis("r", 0.1, 0.2, 2),
                SweepAxis("alpha", 0.3, 0.5, 3),
            ),
            state=StateParams(r=0.0, theta=0.0, alpha=0.0),
        )
        table = sweep(spec)
        values = [row.axis_values for row in table.rows]
        assert values == [
            (0.1, 0.3), (0.1, 0.4), (0.1, 0.5),
            (0.2, 0.3), (0.2, 0.4), (0.2, 0.5),
        ]

    def test_vacuum_point_recorded_in_row(self):
        spec = SweepSpec(
            axes=(SweepAxis("alpha", 0.0, 0.5, 3),),
            state=StateParams(r=0.0, theta=0.0, alpha=0.0),
        )
        table = sweep(spec)
        assert math.isnan(table.rows[0].g2)
        assert table.rows[0].diagnostics != ""
        assert table.rows[1].diagnostics == ""

    def test_determinism(self):
        spec = SweepSpec(
            axes=(SweepAxis("alpha", 1e-3, 1.0, 21, "log"),),
            state=StateParams(r=0.05, theta=0.0, alpha=0.0),
            detection=DetectionParams(eta=0.5, gamma=1e-5),
            pipeline="click",
        )
        assert to_csv(sweep(spec)) == to_csv(sweep(spec))

    def test_orders_subset(self):
        spec = SweepSpec(
            axes=(SweepAxis("alpha", 0.1, 0.2, 2),),
            state=StateParams(r=0.1, theta=0.0, alpha=0.0),
            orders=(2,),
        )
        row = sweep(spec).rows[0]
        assert not math.isnan(row.g2)
        assert math.isnan(row.g3) and math.isnan(row.g4)

    def test_degenerate_axis_constant_rows(self):
        spec = SweepSpec(
            axes=(SweepAxis("r", 0.0, 0.0, 4), SweepAxis("alpha", 0.5, 1.0, 3)),
            state=StateParams(r=0.0, theta=0.0, alpha=0.0),
        )
        table = sweep(spec)
        assert len(table.rows) == 12
        for row in table.rows:
            assert row.g2 == pytest.approx(1.0, rel=1e-9)

    def test_axis_validation(self):
        with pytest.raises(InvalidParameterError):
            SweepAxis("nonsense", 0.0, 1.0, 5)
        with pytest.raises(InvalidParameterError):
            SweepAxis("alpha", 0.0, 1.0, 1)
        for points in (2.5, 3.0, "3", None):
            with pytest.raises(InvalidParameterError):
                SweepAxis("alpha", 0.0, 1.0, points)
        with pytest.raises(InvalidParameterError):
            SweepAxis("alpha", 1.0, 0.5, 5)
        with pytest.raises(InvalidParameterError):
            SweepAxis("alpha", 0.0, 1.0, 5, "log")
        for start, stop in (("x", 1.0), (0.0, "1"), (None, 1.0), (0.0, 1j), (0.0, [1.0])):
            with pytest.raises(InvalidParameterError, match="axis.bounds"):
                SweepAxis("alpha", start, stop, 5)

    def test_axis_bounds_cast_to_float(self):
        axis = SweepAxis("alpha", 0, np.float32(0.5), 3)
        assert type(axis.start) is float and type(axis.stop) is float
        np.testing.assert_array_equal(axis.grid(), [0.0, 0.25, 0.5])
        with pytest.raises(InvalidParameterError):
            SweepSpec(axes=(), state=StateParams(r=0.0, theta=0.0, alpha=1.0))


def assert_rows_match_points(spec):
    """Every row of ``sweep(spec)`` within 1e-12 relative of
    ``evaluate_point`` at its parameters, and every row where the
    coherence is undefined carrying the exact message of the point's
    error."""
    table = sweep(spec)
    assert len(table.rows) == math.prod(axis.points for axis in spec.axes)
    for row in table.rows:
        state, detection = spec.state, spec.detection
        for axis, value in zip(spec.axes, row.axis_values):
            if axis.name in ("r", "theta", "alpha"):
                state = replace(state, **{axis.name: value})
            else:
                detection = replace(detection, **{axis.name: value})
        try:
            point = evaluate_point(state, detection, spec.pipeline, spec.tol)
        except (NoSignalError, UndefinedCoherenceError) as exc:
            assert row.diagnostics == str(exc)
            assert all(math.isnan(v) for v in (row.g2, row.g3, row.g4, row.mean))
            continue
        assert row.diagnostics == ""
        want = (point.g2, point.g3, point.g4, point.mean_clicks)
        for got, expected in zip((row.g2, row.g3, row.g4, row.mean), want):
            assert abs(got - expected) <= 1e-12 * abs(expected)
    return table


FEASIBLE = DetectionParams(eta=0.5, gamma=1e-5)


class TestGridEvaluation:
    @pytest.mark.parametrize(
        "axis",
        [
            SweepAxis("alpha", 1e-3, 3.0, 41, "log"),
            SweepAxis("r", 1e-4, 1.0, 41, "log"),
            SweepAxis("theta", 0.0, 2.0 * math.pi, 41),
            # More states than one packed matrix takes.
            SweepAxis("theta", 0.0, 2.0 * math.pi, sweep_module._GRID_COLUMNS + 44),
        ],
        ids=lambda axis: f"{axis.name}-{axis.points}",
    )
    def test_one_axis_click_sweeps_match_points(self, axis):
        state = StateParams(r=0.05, theta=0.4, alpha=0.3)
        assert_rows_match_points(SweepSpec((axis,), state, FEASIBLE, pipeline="click"))

    def test_alpha_by_eta_sweep_matches_points(self, monkeypatch):
        grids = []
        click_grid = sweep_module._click_grid

        def counted(packed, detection):
            grids.append(detection)
            return click_grid(packed, detection)

        monkeypatch.setattr(sweep_module, "_click_grid", counted)
        spec = SweepSpec(
            (SweepAxis("alpha", 1e-3, 1.0, 13, "log"), SweepAxis("eta", 0.1, 1.0, 4)),
            StateParams(r=0.01, theta=0.0, alpha=0.0),
            DetectionParams(gamma=1e-4),
            pipeline="click",
        )
        assert_rows_match_points(spec)
        # One packed product per detector.
        assert len(grids) == len(set(grids)) == 4

    def test_states_shared_by_detectors_are_packed_once(self, monkeypatch):
        packed_states = []
        build_grid = sweep_module.packed_distributions

        def counted_grid(states, tol=1e-12):
            packed_states.extend(states)
            return build_grid(states, tol)

        monkeypatch.setattr(sweep_module, "packed_distributions", counted_grid)
        monkeypatch.setattr(sweep_module, "_last_packing", [None, None, None])
        sweep(
            SweepSpec(
                (SweepAxis("alpha", 1e-3, 1.0, 13, "log"), SweepAxis("eta", 0.1, 1.0, 4)),
                StateParams(r=0.01, theta=0.0, alpha=0.0),
                DetectionParams(gamma=1e-4),
                pipeline="click",
            )
        )
        # 13 states, not one packing per detector.
        assert len(packed_states) == len(set(packed_states)) == 13
        state = StateParams(1e-3, 0.0, 0.03)
        for parameter, bounds in (("eta", (0.1, 1.0)), ("gamma", (1e-9, 1e-2))):
            packed_states.clear()
            monkeypatch.setattr(sweep_module, "_last_packing", [None, None, None])
            find_extremum(2, parameter, bounds, state, DetectionParams(1.0, 1e-5), pipeline="click")
            assert packed_states == [state]

    def test_consecutive_grids_of_the_same_states_pack_once(self, monkeypatch):
        packings = []
        build_grid = sweep_module.packed_distributions

        def counted_grid(states, tol=1e-12):
            packings.append(tol)
            return build_grid(states, tol)

        monkeypatch.setattr(sweep_module, "packed_distributions", counted_grid)
        monkeypatch.setattr(sweep_module, "_last_packing", [None, None, None])
        theta = (SweepAxis("theta", 0.0, math.pi, 17),)
        other = StateParams(r=0.2, theta=0.0, alpha=0.6)
        grids = [
            SweepSpec(theta, WEAK_DIP, FEASIBLE, pipeline="click"),
            SweepSpec(theta, WEAK_DIP, DetectionParams(0.9, 1e-3), pipeline="click"),
            SweepSpec(theta, other, FEASIBLE, pipeline="click"),
            SweepSpec(theta, other, FEASIBLE, pipeline="click", tol=1e-10),
        ]
        counts = []
        for spec in grids:
            assert_rows_match_points(spec)
            counts.append(len(packings))
        assert counts == [1, 1, 2, 3]

    def test_parallel_sweeps_equal_their_serial_builds(self):
        # Two state grids at two detectors, so that threads keep replacing
        # the kept packing and click operator under each other.
        specs = [
            SweepSpec((axis,), StateParams(r=0.05, theta=0.4, alpha=0.3), detection, "click")
            for axis in (SweepAxis("theta", 0.0, math.pi, 24), SweepAxis("alpha", 0.1, 2.0, 24))
            for detection in (FEASIBLE, DetectionParams(eta=0.9, gamma=1e-3))
        ]
        serial = [repr(sweep(spec).rows) for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                tables = list(pool.map(sweep, specs * 25, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert [repr(table.rows) for table in tables] == serial * 25

    @pytest.mark.parametrize(
        "axes",
        [
            (SweepAxis("alpha", 1e-3, 1.0, 9, "log"),),
            (SweepAxis("eta", 0.0, 1.0, 5), SweepAxis("alpha", 0.0, 0.5, 3)),
        ],
        ids=["alpha", "eta-by-alpha"],
    )
    def test_rows_without_signal_keep_the_point_diagnostics(self, axes):
        spec = SweepSpec(
            axes,
            StateParams(r=0.0, theta=0.0, alpha=0.3),
            DetectionParams(eta=0.0, gamma=0.0),
            pipeline="click",
        )
        table = assert_rows_match_points(spec)
        silent = [row for row in table.rows if row.diagnostics]
        assert len(silent) == (9 if len(axes) == 1 else 3 + 4)

    @pytest.mark.filterwarnings("error")
    def test_rows_too_weak_to_resolve_keep_the_point_diagnostics(self):
        spec = SweepSpec(
            (SweepAxis("alpha", 1e-45, 1e-37, 9, "log"),),
            StateParams(r=0.0, theta=0.0, alpha=0.0),
            DetectionParams(eta=0.5, gamma=0.0),
            pipeline="click",
        )
        table = assert_rows_match_points(spec)
        # alpha = 1e-38 and 1e-37 resolve g4; the rest have <n>^4 below
        # the smallest normal float.
        assert [row.g4 == pytest.approx(1.0) for row in table.rows] == [False] * 7 + [True] * 2
        assert all("too small" in row.diagnostics for row in table.rows[:7])

    @pytest.mark.filterwarnings("error")
    def test_ideal_rows_too_weak_to_resolve_keep_the_point_diagnostics(self):
        spec = SweepSpec(
            (SweepAxis("alpha", 1e-46, 1e-37, 10, "log"),),
            StateParams(r=0.0, theta=0.0, alpha=0.0),
            pipeline="ideal",
        )
        table = assert_rows_match_points(spec)
        # <n> = alpha^2: alpha = 1e-38 and 1e-37 resolve g4.
        assert [row.diagnostics == "" for row in table.rows] == [False] * 8 + [True] * 2
        too_small = "mean photon number too small"
        assert all(row.diagnostics.startswith(too_small) for row in table.rows[:8])

    def test_grid_points_keep_the_field_checks(self):
        state = StateParams(r=0.1, theta=0.0, alpha=0.5)
        with pytest.raises(InvalidParameterError, match="^eta"):
            sweep(SweepSpec((SweepAxis("eta", 0.5, 1.5, 3),), state, pipeline="click"))
        with pytest.raises(InvalidParameterError, match="^r"):
            sweep(SweepSpec((SweepAxis("r", -1.0, 1.0, 3), SweepAxis("gamma", 0.0, 1.0, 2)), state))

    def test_unknown_pipelines_are_rejected_everywhere(self):
        state = StateParams(r=0.1, theta=0.0, alpha=0.5)
        calls = (
            lambda: evaluate_point(state, FEASIBLE, "quantum"),
            lambda: SweepSpec((SweepAxis("alpha", 0.1, 1.0, 3),), state, pipeline="quantum"),
            lambda: find_extremum(2, "alpha", (1e-3, 1.0), state, pipeline="quantum"),
            lambda: minimized_maps((2,), GAMMAS, ETAS, WEAK, pipeline="quantum"),
        )
        for call in calls:
            with pytest.raises(InvalidParameterError, match="^pipeline: .*'quantum'"):
                call()

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_undefined_coarse_samples_never_win_a_search(self, mode):
        # Nothing clicks at eta = 0: that sample scores +inf in either mode.
        state = StateParams(r=0.002, theta=0.3, alpha=0.05)
        result = find_extremum(
            2, "eta", (0.0, 1.0), state, DetectionParams(gamma=0.0), mode, "click", coarse_points=11
        )
        assert result.location > 0.0
        assert math.isfinite(result.value)

    def test_click_sweeps_and_coarse_grids_skip_the_point_path(self, monkeypatch):
        calls = []
        point = sweep_module.evaluate_point

        def counted(*args):
            calls.append(args)
            return point(*args)

        monkeypatch.setattr(sweep_module, "evaluate_point", counted)
        spec = SweepSpec(
            (SweepAxis("theta", 0.0, math.pi, 30),), WEAK_DIP, FEASIBLE, pipeline="click"
        )
        sweep(spec)
        assert calls == []
        find_extremum(2, "alpha", (1e-3, 1.0), WEAK_DIP, FEASIBLE, pipeline="click")
        # Brent refinement only: the 200 coarse samples take one product.
        assert 3 <= len(calls) <= 12
        # Coarse grids over eta or gamma take one product per detector: a
        # minimum on a bound needs no point at all, an interior one only
        # its refinement.
        state = StateParams(r=0.002, theta=0.3, alpha=0.05)
        calls.clear()
        assert find_extremum(2, "eta", (0.1, 1.0), state, FEASIBLE, pipeline="click").boundary
        assert calls == []
        result = find_extremum(3, "gamma", (1e-9, 1e-2), state, FEASIBLE, pipeline="click")
        assert not result.boundary
        assert 3 <= len(calls) <= 12

    @pytest.mark.parametrize("parameter, bounds", [
        ("alpha", (1e-3, 1.0)), ("r", (1e-4, 0.5)), ("theta", (0.0, 2.0 * math.pi)),
        ("eta", (0.1, 1.0)), ("gamma", (1e-9, 1e-2)),
    ])
    @pytest.mark.parametrize("order, mode", [(2, "min"), (3, "min"), (4, "max")])
    def test_extremum_matches_one_point_per_coarse_sample(self, parameter, bounds, order, mode):
        state = StateParams(r=0.002, theta=0.3, alpha=0.05)
        result = find_extremum(
            order, parameter, bounds, state, FEASIBLE, mode=mode, pipeline="click", coarse_points=80
        )
        # The search with every coarse sample evaluated as its own point.
        grid, log_scale = sweep_module._coarse_grid(parameter, bounds, 80)
        sign = 1.0 if mode == "min" else -1.0

        def objective(value):
            if parameter in ("eta", "gamma"):
                point = state, replace(FEASIBLE, **{parameter: value})
            else:
                point = replace(state, **{parameter: value}), FEASIBLE
            triple = evaluate_point(*point, "click")
            return sign * (triple.g2, triple.g3, triple.g4)[order - 2]

        values = np.array([objective(v) for v in grid.tolist()])
        location, value, width, boundary = sweep_module._refine_minimum(
            objective, grid, values, log_scale, sweep_module._BRACKET_TOL
        )
        assert result.boundary == boundary
        assert abs(result.location - location) <= 1e-12 * abs(location)
        assert abs(result.value - sign * value) <= 1e-12 * abs(value)


WEAK_DIP = StateParams(r=0.001, theta=0.0, alpha=0.0)


class TestFindExtremum:
    def test_antibunching_minimum_location(self):
        result = find_extremum(
            2, "alpha", (1e-3, 1.0), StateParams(r=0.001, theta=0.0, alpha=0.0)
        )
        # dip sits at alpha ~ sqrt(r); value frozen from the refined oracle
        assert result.location == pytest.approx(0.03169, abs=3e-4)
        assert result.value == pytest.approx(0.0039900, rel=1e-3)
        assert not result.boundary
        assert result.bracket_width <= 1e-4

    def test_super_bunching_maximum_over_r(self):
        result = find_extremum(
            2,
            "r",
            (1e-4, 0.5),
            StateParams(r=0.0, theta=math.pi, alpha=0.01),
            mode="max",
        )
        assert result.location == pytest.approx(0.01, abs=5e-4)
        assert result.value == pytest.approx(2.5e3, rel=0.05)

    def test_refinement_beats_coarse_grid(self):
        state = StateParams(r=0.001, theta=0.0, alpha=0.0)
        result = find_extremum(3, "alpha", (1e-3, 1.0), state)
        grid = np.geomspace(1e-3, 1.0, 200)
        bracket = grid[(grid > result.location / 1.5) & (grid < result.location * 1.5)]
        for alpha in bracket:
            value = ideal_coherence(StateParams(r=0.001, theta=0.0, alpha=float(alpha))).g3
            assert result.value <= value + 1e-15

    def test_boundary_extremum_flagged(self):
        # g2 rises monotonically with alpha beyond the dip, so the minimum
        # over [0.2, 1.0] sits on the lower bound.
        result = find_extremum(
            2, "alpha", (0.2, 1.0), StateParams(r=0.001, theta=0.0, alpha=0.0)
        )
        assert result.boundary
        assert result.location == pytest.approx(0.2)

    def test_minima_increase_with_squeezing(self):
        minima = [
            find_extremum(2, "alpha", (1e-3, 1.0), StateParams(r=r, theta=0.0, alpha=0.0)).value
            for r in (0.001, 0.01, 0.1)
        ]
        assert minima[0] < minima[1] < minima[2]

    def test_parameter_validation(self):
        state = StateParams(r=0.1, theta=0.0, alpha=0.0)
        with pytest.raises(InvalidParameterError):
            find_extremum(5, "alpha", (1e-3, 1.0), state)
        with pytest.raises(InvalidParameterError):
            find_extremum(2, "momentum", (1e-3, 1.0), state)
        with pytest.raises(InvalidParameterError):
            find_extremum(2, "alpha", (1.0, 1e-3), state)
        with pytest.raises(InvalidParameterError):
            find_extremum(2, "alpha", (1e-3, 1.0), state, mode="saddle")

    @pytest.mark.parametrize("coarse_points", [1, 2, 2.5, 3.0, True, None])
    def test_rejects_coarse_grids_that_cannot_bracket(self, coarse_points):
        state = StateParams(r=0.001, theta=0.0, alpha=0.0)
        with pytest.raises(InvalidParameterError):
            find_extremum(2, "alpha", (1e-3, 1.0), state, coarse_points=coarse_points)

    @pytest.mark.parametrize("bounds", [("x", 1.0), (1e-3, "1"), (None, 1.0), (1e-3, 1j)])
    def test_rejects_bounds_that_are_not_real_numbers(self, bounds):
        state = StateParams(r=0.001, theta=0.0, alpha=0.0)
        with pytest.raises(InvalidParameterError, match="bounds"):
            find_extremum(2, "alpha", bounds, state)
        with pytest.raises(InvalidParameterError, match="bounds"):
            minimized_maps((2,), GAMMAS, ETAS, state, alpha_bounds=bounds)

    @pytest.mark.parametrize("bracket_tol", [0.0, -1e-4, math.nan, math.inf, "1e-4"])
    def test_rejects_bracket_tolerance_not_finite_positive(self, bracket_tol):
        state = StateParams(r=0.001, theta=0.0, alpha=0.0)
        with pytest.raises(InvalidParameterError):
            find_extremum(2, "alpha", (1e-3, 1.0), state, bracket_tol=bracket_tol)

    def test_three_coarse_points_suffice(self):
        result = find_extremum(
            2, "alpha", (1e-3, 1.0), StateParams(r=0.001, theta=0.0, alpha=0.0), coarse_points=3
        )
        assert not result.boundary
        assert result.location == pytest.approx(0.0317, rel=0.02)


def ideal_moment_polynomials(r, theta):
    """N_1..N_4 of ``coherence.gaussian_moments`` as polynomials in
    x = alpha^2: at fixed (r, theta), |W|^2 and B are proportional to x."""
    unit = analytic_intermediates(StateParams(r, theta, 1.0))
    w2 = Polynomial([0.0, abs(unit.omega) ** 2])
    B = Polynomial([0.0, unit.b_val])
    nb = math.sinh(r) ** 2
    m2 = (math.cosh(r) * math.sinh(r)) ** 2
    n1 = w2 + nb
    n2 = w2**2 + 4.0 * w2 * nb + 2.0 * nb**2 - B + m2
    n3 = (
        w2**3 + 9.0 * w2**2 * nb + 18.0 * w2 * nb**2 + 6.0 * nb**3
        - 3.0 * B * (w2 + 3.0 * nb) + 9.0 * m2 * (w2 + nb)
    )
    n4 = (
        w2**4 + 16.0 * w2**3 * nb + 72.0 * w2**2 * nb**2 + 96.0 * w2 * nb**3 + 24.0 * nb**4
        - 6.0 * B * (w2**2 + 8.0 * w2 * nb + 12.0 * nb**2 + 3.0 * m2)
        + 3.0 * B**2
        + m2 * (30.0 * w2**2 + 144.0 * w2 * nb + 72.0 * nb**2)
        + 9.0 * m2**2
    )
    return n1, n2, n3, n4


def exact_ideal_minimum(order, r, theta, bounds):
    """(alpha, g) at the least interior minimum of the ideal g^(order) =
    N_k / N_1^k over alpha in ``bounds``: the extrema are the real roots x
    of N_k' N_1 - k N_k N_1' in (lo^2, hi^2), polished by Newton steps."""
    moments = ideal_moment_polynomials(r, theta)
    n1, nk = moments[0], moments[order - 1]
    slope = nk.deriv() * n1 - order * nk * n1.deriv()
    candidates = []
    for root in slope.roots():
        x = root.real
        if abs(root.imag) > 1e-9 * abs(root) or not bounds[0] ** 2 < x < bounds[1] ** 2:
            continue
        for _ in range(3):
            x -= slope(x) / slope.deriv()(x)
        candidates.append((nk(x) / n1(x) ** order, math.sqrt(x)))
    value, location = min(candidates)
    return location, value


class TestRefinement:
    def test_ideal_minimum_is_the_exact_polynomial_root(self):
        rng = np.random.default_rng(5)
        pairs = zip(rng.uniform(1e-4, 0.03, 60).tolist(), rng.uniform(0.0, 0.4, 60).tolist())
        for r, theta in pairs:
            for order in (2, 3, 4):
                location, value = exact_ideal_minimum(order, r, theta, (1e-3, 1.0))
                # The polynomials are the closed form's own moments.
                at_root = ideal_coherence(StateParams(r, theta, location))
                assert (at_root.g2, at_root.g3, at_root.g4)[order - 2] == pytest.approx(
                    value, rel=1e-12
                )
                result = find_extremum(order, "alpha", (1e-3, 1.0), StateParams(r, theta, 0.0))
                assert not result.boundary
                assert value * (1.0 - 1e-12) <= result.value <= value * (1.0 + 1e-9)
                assert abs(result.location - location) <= 1e-6 * location

    @pytest.mark.parametrize("eta, gamma", [(0.1, 1e-9), (0.5, 1e-5), (0.9, 1e-3), (1.0, 1e-2)])
    def test_click_search_matches_a_tight_reference(self, eta, gamma):
        detection = DetectionParams(eta=eta, gamma=gamma)
        searches = [
            ("alpha", (1e-3, 1.0), StateParams(r=0.001, theta=0.0, alpha=0.0), "min"),
            ("alpha", (1e-3, 1.0), StateParams(r=0.002, theta=0.3, alpha=0.0), "min"),
            ("r", (1e-4, 0.5), StateParams(r=0.0, theta=0.0, alpha=0.05), "min"),
            ("r", (1e-4, 0.5), StateParams(r=0.0, theta=math.pi, alpha=0.016), "max"),
            ("gamma", (1e-9, 1e-2), StateParams(r=0.002, theta=0.3, alpha=0.05), "min"),
            ("eta", (0.1, 1.0), StateParams(r=0.002, theta=0.3, alpha=0.05), "min"),
        ]
        interior = 0
        for (parameter, bounds, state, mode), order in itertools.product(searches, (2, 3, 4)):
            args = (order, parameter, bounds, state, detection, mode, "click")
            result = find_extremum(*args)
            tight = find_extremum(*args, bracket_tol=1e-11)
            assert result.boundary == tight.boundary
            assert result.value == pytest.approx(tight.value, rel=1e-9)
            interior += not result.boundary
        # Most searches refine, so the comparison is not vacuous.
        assert interior >= 9

    @pytest.mark.parametrize("window", [(0.35, 1.0), (0.37, 0.47)])
    def test_undefined_neighbours_enter_no_parabola(self, window):
        # Undefined outside the window: the best coarse sample, 0.4, has
        # one or both neighbours at +inf.
        def objective(x):
            inside = window[0] <= x <= window[1]
            return np.float64((x - 0.43) ** 2) if inside else np.float64(np.inf)

        grid = np.linspace(0.0, 1.0, 11)
        values = np.array([objective(x) for x in grid.tolist()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            location, value, width, boundary = sweep_module._refine_minimum(
                objective, grid, values, False, sweep_module._BRACKET_TOL
            )
        assert not boundary
        assert math.isfinite(value) and value <= values[4]
        assert location == pytest.approx(0.43, abs=1e-6)
        assert width <= 4.0 * sweep_module._BRACKET_TOL


class TestMinimizedMap:
    def test_monotone_in_noise_and_efficiency(self):
        table = minimized_map(
            2,
            SweepAxis("gamma", 1e-6, 1e-4, 2, "log"),
            SweepAxis("eta", 0.3, 0.9, 2),
            StateParams(r=0.001, theta=0.0, alpha=0.0),
            coarse_points=40,
        )
        values = {row.axis_values: row.g2 for row in table.rows}
        # less noise is better at fixed efficiency
        assert values[(1e-6, 0.3)] < values[(1e-4, 0.3)]
        assert values[(1e-6, 0.9)] < values[(1e-4, 0.9)]
        # more efficiency is better at fixed noise
        assert values[(1e-6, 0.9)] < values[(1e-6, 0.3)]
        assert values[(1e-4, 0.9)] < values[(1e-4, 0.3)]

    def test_records_minimizing_alpha(self):
        table = minimized_map(
            2,
            SweepAxis("gamma", 1e-5, 1e-5, 2, "log"),
            SweepAxis("eta", 0.5, 0.5, 2),
            StateParams(r=0.001, theta=0.0, alpha=0.0),
            coarse_points=40,
        )
        for row in table.rows:
            assert row.diagnostics.startswith("alpha_min=")
            # The printed amplitude reproduces the row's minimum.
            alpha = float(row.diagnostics.split("=", 1)[1])
            gamma, eta = row.axis_values
            again = evaluate_point(
                StateParams(r=0.001, theta=0.0, alpha=alpha),
                DetectionParams(eta=eta, gamma=gamma),
                "click",
            )
            assert again.g2 == pytest.approx(row.g2, rel=1e-9)


GAMMAS = SweepAxis("gamma", 1e-6, 1e-3, 3, "log")
ETAS = SweepAxis("eta", 0.3, 0.9, 2)
WEAK = StateParams(r=0.001, theta=0.3, alpha=0.0)


def reference_rows(order, state, alpha_bounds, pipeline, coarse_points=60):
    """The per-cell algorithm: one ``find_extremum`` per cell and order,
    then a fresh ``evaluate_point`` at the minimizing amplitude for the
    row's mean."""
    rows = []
    for gamma in GAMMAS.grid():
        for eta in ETAS.grid():
            detection = DetectionParams(eta=float(eta), gamma=float(gamma))
            result = find_extremum(
                order, "alpha", alpha_bounds, state, detection,
                pipeline=pipeline, coarse_points=coarse_points,
            )
            g = [math.nan] * 3
            g[order - 2] = result.value
            mean = evaluate_point(
                replace(state, alpha=result.location), detection, pipeline
            ).mean_clicks
            rows.append(((float(gamma), float(eta)), *g, mean, f"alpha_min={result.location:.12g}"))
    return rows


def as_tuples(table):
    return [(r.axis_values, r.g2, r.g3, r.g4, r.mean, r.diagnostics) for r in table.rows]


class TestMinimizedMaps:
    @pytest.mark.parametrize("pipeline", ["click", "ideal"])
    @pytest.mark.parametrize("alpha_bounds", [(1e-3, 1.0), (0.2, 1.0)])
    def test_equals_one_search_per_cell_and_order(self, pipeline, alpha_bounds):
        tables = minimized_maps((2, 3, 4), GAMMAS, ETAS, WEAK, alpha_bounds, pipeline)
        assert list(tables) == [2, 3, 4]
        for order, table in tables.items():
            # repr compares every float bit for bit, NaN included.
            reference = reference_rows(order, WEAK, alpha_bounds, pipeline)
            assert repr(as_tuples(table)) == repr(reference)
        on_bound = [r for t in tables.values() for r in t.rows if r.diagnostics == "alpha_min=0.2"]
        assert bool(on_bound) == (alpha_bounds[0] == 0.2)

    def test_one_order_map_is_the_one_order_case(self):
        table = minimized_map(3, GAMMAS, ETAS, WEAK, coarse_points=30)
        assert repr(as_tuples(table)) == repr(reference_rows(3, WEAK, (1e-3, 1.0), "click", 30))

    def test_one_click_operator_per_cell(self, monkeypatch):
        builds = []
        build = clicks._build_click_operator

        def counted(eta, gamma, width):
            builds.append((eta, gamma))
            return build(eta, gamma, width)

        monkeypatch.setattr(clicks, "_build_click_operator", counted)
        monkeypatch.setattr(clicks, "_last_operator", {})
        minimized_maps((2, 3, 4), GAMMAS, ETAS, WEAK)
        assert len(builds) == len(set(builds)) == 6

    def test_one_coarse_grid_per_map(self, monkeypatch):
        # Every state built, through the grid builder or the scalar one.
        alphas = []
        build, build_grid = sweep_module.squeezed_distribution, sweep_module.packed_distributions

        def counted(params, tol=1e-12):
            alphas.append(params.alpha)
            return build(params, tol)

        def counted_grid(states, tol=1e-12):
            alphas.extend(s.alpha for s in states)
            return build_grid(states, tol)

        monkeypatch.setattr(sweep_module, "squeezed_distribution", counted)
        monkeypatch.setattr(sweep_module, "packed_distributions", counted_grid)
        monkeypatch.setattr(sweep_module, "_last_packing", [None, None, None])
        tables = minimized_maps((2, 3, 4), GAMMAS, ETAS, WEAK, coarse_points=60)
        grid = set(np.geomspace(1e-3, 1.0, 60).tolist())
        assert sum(alpha in grid for alpha in alphas) == 60
        # 6 cells x 3 orders of Brent refinement add the rest.
        assert 60 + 18 * 3 <= len(alphas) <= 60 + 18 * 12
        rows = [r for t in tables.values() for r in t.rows]
        assert not any(r.diagnostics.endswith(("=0.001", "=1")) for r in rows)

    @pytest.mark.parametrize("orders", [2, [], [2, 2], [5], [1, 2], ["2"], [2.0], None])
    def test_rejects_orders_outside_distinct_2_3_4(self, orders):
        with pytest.raises(InvalidParameterError):
            minimized_maps(orders, GAMMAS, ETAS, WEAK)

    @pytest.mark.parametrize("coarse_points", [1, 2, 2.5])
    def test_rejects_coarse_grids_that_cannot_bracket(self, coarse_points):
        with pytest.raises(InvalidParameterError):
            minimized_map(2, GAMMAS, ETAS, WEAK, coarse_points=coarse_points)
        with pytest.raises(InvalidParameterError):
            minimized_maps((2, 3), GAMMAS, ETAS, WEAK, coarse_points=coarse_points)

    def test_rejects_bad_bounds_and_pipeline(self):
        with pytest.raises(InvalidParameterError):
            minimized_maps((2,), GAMMAS, ETAS, WEAK, alpha_bounds=(0.0, 1.0))
        with pytest.raises(InvalidParameterError):
            minimized_maps((2,), GAMMAS, ETAS, WEAK, alpha_bounds=(1.0, 0.1))
        with pytest.raises(InvalidParameterError):
            minimized_maps((2,), GAMMAS, ETAS, WEAK, pipeline="quantum")
        with pytest.raises(InvalidParameterError):
            minimized_maps((2,), ETAS, GAMMAS, WEAK)
