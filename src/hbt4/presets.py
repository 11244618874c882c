"""Named dataset presets: the standard coherence maps, amplitude and
squeezing scans, noise/efficiency minimum maps and phase scans.

Each preset resolves to a parameter dictionary (every default overridable
by key), produces one or more sweep tables and a manifest documenting the
resolved parameters.  Where a scan range is a choice rather than a
constraint (map extents, the phase-scan noise family) the defaults live
here and land in the manifest.  The family scans (fig3, fig5, fig6) build
every table with ``_family_table``: one 1-axis sweep per run of a family
value, the value prepended to each row.  A family value that is not a
non-empty list of numbers, or phase-scan states that do not map labels to
[r, alpha] pairs, are rejected before anything is evaluated.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from collections.abc import Callable, Iterable
from dataclasses import replace

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


def _is_numbers(values, size: int | None = None) -> bool:
    """Whether ``values`` is a non-empty list of numbers, of ``size`` of
    them if given."""
    return (
        isinstance(values, (list, tuple))
        and len(values) > 0
        and size in (None, len(values))
        and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values)
    )


def _family_values(p: dict, key: str) -> list:
    if not _is_numbers(p[key]):
        raise InvalidParameterError(key, f"must be a non-empty list of numbers, got {p[key]!r}")
    return p[key]


def _chain_runs(p: dict, family_name: str) -> list[tuple]:
    """For each value in ``p[family_name + "_values"]`` (r or alpha, the
    other one 0), a run of the ideal chain and one of the click chain at
    the preset's eta and gamma."""
    feasible = DetectionParams(p["eta"], p["gamma"])
    runs = []
    for value in _family_values(p, f"{family_name}_values"):
        state = StateParams(**{"r": 0.0, "alpha": 0.0, family_name: value}, theta=p["theta"])
        runs += [(value, state, DetectionParams(), "ideal"), (value, state, feasible, "click")]
    return runs


def _family_table(family_name: str, scan_axis: SweepAxis, runs: Iterable[tuple]) -> SweepTable:
    """One table of 1-axis scans, one per run (family value, state,
    detection, pipeline), with the run's family value prepended to each
    row as an extra axis column."""
    rows: list[SweepRow] = []
    for value, state, detection, pipeline in runs:
        table = sweep(SweepSpec((scan_axis,), state, detection, pipeline))
        rows += [replace(row, axis_values=(float(value),) + row.axis_values) for row in table.rows]
    return SweepTable(axis_names=(family_name, scan_axis.name), rows=tuple(rows))


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
    return p, {
        "alpha": _family_table("r", _axis("alpha", p, "alpha"), _chain_runs(p, "r")),
        "r": _family_table("alpha", _axis("r", p, "r"), _chain_runs(p, "alpha")),
    }


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
    return p, {"scan": _family_table("alpha", _axis("r", p, "r"), _chain_runs(p, "alpha"))}


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
    gammas, states = _family_values(p, "gamma_values"), p["states"]
    pairs = isinstance(states, dict) and all(_is_numbers(v, 2) for v in states.values())
    if not (states and pairs):
        raise InvalidParameterError("states", f"must map labels to [r, alpha], got {states!r}")
    theta = _axis("theta", p, "theta")
    tables = {}
    for label, (r, alpha) in states.items():
        state = StateParams(r=r, theta=0.0, alpha=alpha)
        runs = [(gamma, state, DetectionParams(p["eta"], gamma), "click") for gamma in gammas]
        tables[label] = _family_table("gamma", theta, runs)
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
