import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from hbt4 import (
    DetectionParams,
    InvalidParameterError,
    StateParams,
    SweepAxis,
    SweepSpec,
    evaluate_point,
    find_extremum,
    ideal_coherence,
    minimized_map,
    squeezing_db,
    sweep,
)
from hbt4 import clicks
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
        with pytest.raises(InvalidParameterError):
            SweepSpec(axes=(), state=StateParams(r=0.0, theta=0.0, alpha=1.0))


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
        alphas = []
        build = sweep_module.squeezed_distribution

        def counted(params, tol=1e-12):
            alphas.append(params.alpha)
            return build(params, tol)

        monkeypatch.setattr(sweep_module, "squeezed_distribution", counted)
        tables = minimized_maps((2, 3, 4), GAMMAS, ETAS, WEAK, coarse_points=60)
        grid = set(np.geomspace(1e-3, 1.0, 60).tolist())
        assert sum(alpha in grid for alpha in alphas) == 60
        # 6 cells x 3 orders of golden-section refinement add the rest.
        assert 60 + 6 * 3 * 10 < len(alphas) < 60 + 6 * 3 * 25
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
