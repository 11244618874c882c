"""Named dataset presets: the standard coherence maps, amplitude and
squeezing scans, noise/efficiency minimum maps and phase scans.

Each preset resolves to a parameter dictionary (every default overridable
by key), produces one or more sweep tables and a manifest documenting the
resolved parameters.  Where a scan range is a choice rather than a
constraint (map extents, the phase-scan noise family) the defaults live
here and land in the manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Callable

from .detection import DetectionParams
from .errors import InvalidParameterError
from .states import StateParams
from .sweep import SweepAxis, SweepRow, SweepSpec, SweepTable, minimized_maps, sweep

FEASIBLE_DETECTION = DetectionParams(eta=0.5, gamma=1e-5)

# (r, alpha) pairs behind the phase scans, one per order.  The fourth order
# is run at both published amplitudes, 0.017 and 0.016; the sources for
# those two numbers contradict each other, so both datasets are emitted.
PHASE_SCAN_STATES = {
    "g2": (0.001, 0.032),
    "g3": (0.002, 0.063),
    "g4a": (5e-4, 0.017),
    "g4b": (5e-4, 0.016),
}


def _merge(defaults: dict, overrides: dict) -> dict:
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise InvalidParameterError("overrides", f"unknown preset keys: {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(overrides)
    return merged


def params_hash(params: dict) -> str:
    digest = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()
    return digest[:12]


def _axis(name: str, p: dict, prefix: str) -> SweepAxis:
    return SweepAxis(
        name=name,
        start=p[f"{prefix}_min"],
        stop=p[f"{prefix}_max"],
        points=p[f"{prefix}_points"],
        scale=p[f"{prefix}_scale"],
    )


def _family_rows(
    family_name: str,
    family_value: float,
    scan_axis: SweepAxis,
    state: StateParams,
    detection: DetectionParams,
    pipeline: str,
) -> tuple[tuple[str, str], list[SweepRow]]:
    """Rows of a 1-axis scan, with the fixed family value prepended as an
    extra axis column."""
    spec = SweepSpec(axes=(scan_axis,), state=state, detection=detection, pipeline=pipeline)
    table = sweep(spec)
    names = (family_name, scan_axis.name)
    rows = [
        SweepRow(
            axis_values=(float(family_value),) + row.axis_values,
            g2=row.g2,
            g3=row.g3,
            g4=row.g4,
            mean=row.mean,
            pipeline=row.pipeline,
            diagnostics=row.diagnostics,
        )
        for row in table.rows
    ]
    return names, rows


def coherence_maps(overrides: dict) -> tuple[dict, dict[str, SweepTable]]:
    """Maps of g2, g3, g4 over (r, alpha) at fixed phase, ideal pipeline."""
    defaults = {
        "theta": 0.0,
        "r_min": 1e-3, "r_max": 1.5, "r_points": 81, "r_scale": "log",
        "alpha_min": 1e-3, "alpha_max": 2.0, "alpha_points": 81, "alpha_scale": "log",
    }
    p = _merge(defaults, overrides)
    spec = SweepSpec(
        axes=(_axis("r", p, "r"), _axis("alpha", p, "alpha")),
        state=StateParams(r=0.0, theta=p["theta"], alpha=0.0),
        pipeline="ideal",
    )
    return p, {"map": sweep(spec)}


def amplitude_and_squeezing_scans(overrides: dict) -> tuple[dict, dict[str, SweepTable]]:
    """g^(n) against amplitude for several squeezings, and against squeezing
    for several amplitudes, at theta = 0; ideal and feasible chains."""
    defaults = {
        "theta": 0.0,
        "r_values": [0.001, 0.01, 0.1],
        "alpha_values": [0.032, 0.1, 0.3],
        "alpha_min": 1e-3, "alpha_max": 1.0, "alpha_points": 161, "alpha_scale": "log",
        "r_min": 1e-4, "r_max": 1.0, "r_points": 161, "r_scale": "log",
        "eta": FEASIBLE_DETECTION.eta,
        "gamma": FEASIBLE_DETECTION.gamma,
    }
    p = _merge(defaults, overrides)
    feasible = DetectionParams(eta=p["eta"], gamma=p["gamma"])
    tables: dict[str, SweepTable] = {}
    for part, family_name, family_values, scan in (
        ("alpha", "r", p["r_values"], _axis("alpha", p, "alpha")),
        ("r", "alpha", p["alpha_values"], _axis("r", p, "r")),
    ):
        rows: list[SweepRow] = []
        names = None
        for value in family_values:
            state = StateParams(
                r=value if family_name == "r" else 0.0,
                theta=p["theta"],
                alpha=value if family_name == "alpha" else 0.0,
            )
            for pipeline, det in (("ideal", DetectionParams()), ("click", feasible)):
                names, part_rows = _family_rows(family_name, value, scan, state, det, pipeline)
                rows.extend(part_rows)
        tables[part] = SweepTable(axis_names=names, rows=tuple(rows))
    return p, tables


def minimum_maps(overrides: dict) -> tuple[dict, dict[str, SweepTable]]:
    """Amplitude-minimized g^(n) over a (gamma, eta) grid, click chain."""
    defaults = {
        "r": 0.001,
        "theta": 0.0,
        "orders": [2, 3, 4],
        "gamma_min": 1e-9, "gamma_max": 1e-2, "gamma_points": 13, "gamma_scale": "log",
        "eta_min": 0.1, "eta_max": 1.0, "eta_points": 10, "eta_scale": "linear",
        "alpha_min": 1e-3, "alpha_max": 1.0,
        "coarse_points": 60,
    }
    p = _merge(defaults, overrides)
    tables = minimized_maps(
        p["orders"],
        _axis("gamma", p, "gamma"),
        _axis("eta", p, "eta"),
        StateParams(r=p["r"], theta=p["theta"], alpha=0.0),
        alpha_bounds=(p["alpha_min"], p["alpha_max"]),
        coarse_points=p["coarse_points"],
    )
    return p, {f"gmin{order}": table for order, table in tables.items()}


def squeezing_scans_at_pi(overrides: dict) -> tuple[dict, dict[str, SweepTable]]:
    """g^(n) against squeezing at theta = pi for three amplitudes, ideal and
    feasible chains in one table."""
    defaults = {
        "theta": math.pi,
        "alpha_values": [0.01, 0.1, 1.0],
        "r_min": 1e-4, "r_max": 1.0, "r_points": 161, "r_scale": "log",
        "eta": FEASIBLE_DETECTION.eta,
        "gamma": FEASIBLE_DETECTION.gamma,
    }
    p = _merge(defaults, overrides)
    feasible = DetectionParams(eta=p["eta"], gamma=p["gamma"])
    rows: list[SweepRow] = []
    names = None
    for alpha in p["alpha_values"]:
        state = StateParams(r=0.0, theta=p["theta"], alpha=alpha)
        for pipeline, det in (("ideal", DetectionParams()), ("click", feasible)):
            names, part_rows = _family_rows("alpha", alpha, _axis("r", p, "r"), state, det, pipeline)
            rows.extend(part_rows)
    return p, {"scan": SweepTable(axis_names=names, rows=tuple(rows))}


def phase_scans(overrides: dict) -> tuple[dict, dict[str, SweepTable]]:
    """g^(n) against the squeezing phase for a family of background-noise
    levels at fixed efficiency; one table per order."""
    defaults = {
        "eta": 0.5,
        "gamma_values": [1e-3, 1e-4, 1e-5, 1e-6, 1e-9],
        "theta_min": 0.0, "theta_max": 2.0 * math.pi, "theta_points": 101,
        "theta_scale": "linear",
        "states": {k: list(v) for k, v in PHASE_SCAN_STATES.items()},
    }
    p = _merge(defaults, overrides)
    tables = {}
    for label, (r, alpha) in p["states"].items():
        rows: list[SweepRow] = []
        names = None
        for gamma in p["gamma_values"]:
            names, part_rows = _family_rows(
                "gamma",
                gamma,
                _axis("theta", p, "theta"),
                StateParams(r=r, theta=0.0, alpha=alpha),
                DetectionParams(eta=p["eta"], gamma=gamma),
                "click",
            )
            rows.extend(part_rows)
        tables[label] = SweepTable(axis_names=names, rows=tuple(rows))
    return p, tables


PRESETS: dict[str, Callable[[dict], tuple[dict, dict[str, SweepTable]]]] = {
    "fig2map": coherence_maps,
    "fig3": amplitude_and_squeezing_scans,
    "fig4": minimum_maps,
    "fig5": squeezing_scans_at_pi,
    "fig6": phase_scans,
}


def build_preset(name: str, overrides: dict | None = None):
    """Resolve a preset and build its tables.

    Returns (resolved params, {part name: table}, parameter hash).
    """
    if name not in PRESETS:
        raise InvalidParameterError("preset", f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    params, tables = PRESETS[name](overrides or {})
    return params, tables, params_hash(params)
