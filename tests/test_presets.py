import math
from dataclasses import replace

import pytest

from hbt4 import DetectionParams, InvalidParameterError, StateParams, SweepAxis, SweepSpec, sweep
from hbt4.presets import build_preset


def scan_rows(family_value, axis, state, detection, pipeline):
    """The rows of one 1-axis sweep with ``family_value`` prepended."""
    table = sweep(SweepSpec((axis,), state, detection, pipeline))
    prefix = (float(family_value),)
    return [replace(row, axis_values=prefix + row.axis_values) for row in table.rows]


def axis(p, name):
    bounds = p[f"{name}_min"], p[f"{name}_max"]
    return SweepAxis(name, *bounds, p[f"{name}_points"], p[f"{name}_scale"])


def chains(p):
    feasible = DetectionParams(eta=p["eta"], gamma=p["gamma"])
    return (("ideal", DetectionParams()), ("click", feasible))


def assert_rows_equal(table, expected):
    # repr compares every float bit for bit, NaN included.
    assert repr(list(table.rows)) == repr(expected)


class TestFamilyTables:
    def test_amplitude_and_squeezing_scans(self):
        p, tables, _ = build_preset("fig3", {
            "r_values": [0.001, 0.1], "alpha_values": [0.032, 1],
            "alpha_points": 5, "r_points": 4,
        })
        assert tables["alpha"].axis_names == ("r", "alpha")
        assert tables["r"].axis_names == ("alpha", "r")
        expected = [
            row
            for r in p["r_values"]
            for pipeline, det in chains(p)
            for row in scan_rows(r, axis(p, "alpha"), StateParams(r, 0.0, 0.0), det, pipeline)
        ]
        assert_rows_equal(tables["alpha"], expected)
        expected = [
            row
            for alpha in p["alpha_values"]
            for pipeline, det in chains(p)
            for row in scan_rows(alpha, axis(p, "r"), StateParams(0.0, 0.0, alpha), det, pipeline)
        ]
        assert_rows_equal(tables["r"], expected)

    def test_squeezing_scans_at_pi(self):
        p, tables, _ = build_preset("fig5", {"alpha_values": [0.01, 1.0], "r_points": 5})
        assert list(tables) == ["scan"]
        assert tables["scan"].axis_names == ("alpha", "r")
        expected = [
            row
            for alpha in p["alpha_values"]
            for pipeline, det in chains(p)
            for row in scan_rows(alpha, axis(p, "r"), StateParams(0, math.pi, alpha), det, pipeline)
        ]
        assert_rows_equal(tables["scan"], expected)

    def test_phase_scans(self):
        states = {"g2": [0.001, 0.032], "g4": [5e-4, 0.017]}
        p, tables, _ = build_preset("fig6", {
            "gamma_values": [1e-3, 1e-9], "theta_points": 5, "states": states,
        })
        assert list(tables) == ["g2", "g4"]
        for label, (r, alpha) in states.items():
            assert tables[label].axis_names == ("gamma", "theta")
            expected = [
                row
                for gamma in p["gamma_values"]
                for row in scan_rows(
                    gamma, axis(p, "theta"), StateParams(r, 0.0, alpha),
                    DetectionParams(eta=p["eta"], gamma=gamma), "click",
                )
            ]
            assert_rows_equal(tables[label], expected)

    @pytest.mark.parametrize("preset, key", [
        ("fig3", "r_values"), ("fig3", "alpha_values"), ("fig5", "alpha_values"),
        ("fig6", "gamma_values"), ("fig6", "states"),
    ])
    @pytest.mark.parametrize("value", [[], 5, None, {}, ["x"], [True]])
    def test_family_values_must_be_non_empty_lists_of_numbers(self, preset, key, value):
        with pytest.raises(InvalidParameterError) as excinfo:
            build_preset(preset, {key: value})
        assert excinfo.value.field == key

    @pytest.mark.parametrize("states", [
        {"g2": 1}, {"g2": [0.001]}, {"g2": [0.001, 0.03, 1.0]}, {"g2": ["a", 0.1]}, [[0.001, 0.03]],
    ])
    def test_phase_scan_states_must_map_labels_to_pairs(self, states):
        with pytest.raises(InvalidParameterError, match="^states: "):
            build_preset("fig6", {"states": states})
