"""Parameter scans, extremum searches and the dB conversion helper.

Sweeps evaluate either the loss-free closed form ("ideal") or the full
detection-plus-click chain ("click") over 1- or 2-axis grids, emitting
rows in row-major axis order.  Per-point failures (vacuum input, zero
signal) are recorded in the row diagnostics and never abort a sweep.

Extremum searches run a coarse grid (log-spaced for amplitude-like
parameters) followed by golden-section refinement inside the bracket
around the best coarse sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .clicks import CoherenceTriple, click_coherence
from .coherence import ideal_coherence
from .detection import DetectionParams, apply_detection
from .errors import Hbt4Error, InvalidParameterError, NoSignalError, UndefinedCoherenceError
from .states import StateParams, squeezed_distribution

PIPELINES = ("ideal", "click")
PARAMETERS = ("r", "theta", "alpha", "eta", "gamma")

# Parameters scanned on a logarithmic grid by default: dips and peaks sit
# at small amplitudes and noise spans decades.
_LOG_PARAMS = frozenset({"r", "alpha", "gamma"})

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepAxis:
    """One scanned parameter: name, inclusive bounds, point count and
    spacing ("linear" or "log").  Degenerate axes (start == stop) are
    allowed and produce constant columns."""

    name: str
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        if self.name not in PARAMETERS:
            raise InvalidParameterError("axis.name", f"unknown parameter {self.name!r}")
        if self.points < 2:
            raise InvalidParameterError("axis.points", "must be >= 2")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise InvalidParameterError("axis.bounds", "must be finite")
        if self.start > self.stop:
            raise InvalidParameterError("axis.bounds", "start must be <= stop")
        if self.scale not in ("linear", "log"):
            raise InvalidParameterError("axis.scale", f"must be linear or log, got {self.scale!r}")
        if self.scale == "log" and self.start <= 0.0:
            raise InvalidParameterError("axis.bounds", "log axis requires start > 0")

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[SweepAxis, ...]
    state: StateParams
    detection: DetectionParams = field(default_factory=DetectionParams)
    pipeline: str = "ideal"
    orders: tuple[int, ...] = (2, 3, 4)
    tol: float = 1e-12

    def __post_init__(self):
        if not (1 <= len(self.axes) <= 2):
            raise InvalidParameterError("axes", "need 1 or 2 axes")
        if self.pipeline not in PIPELINES:
            raise InvalidParameterError("pipeline", f"must be one of {PIPELINES}")
        if not self.orders or any(o not in (2, 3, 4) for o in self.orders):
            raise InvalidParameterError("orders", "must be a non-empty subset of {2, 3, 4}")


@dataclass(frozen=True)
class SweepRow:
    axis_values: tuple[float, ...]
    g2: float
    g3: float
    g4: float
    mean: float
    pipeline: str
    diagnostics: str = ""


@dataclass(frozen=True)
class SweepTable:
    axis_names: tuple[str, ...]
    rows: tuple[SweepRow, ...]


@dataclass(frozen=True)
class ExtremumResult:
    parameter: str
    location: float
    value: float
    order: int
    bracket_width: float
    boundary: bool
    mode: str
    pipeline: str


def squeezing_db(r: float) -> float:
    """Squeezing magnitude in decibels: -10 log10 e^(-2r)."""
    if not (math.isfinite(r) and r >= 0.0):
        raise InvalidParameterError("r", f"must be finite and >= 0, got {r}")
    return 20.0 * math.log10(math.e) * r


def _with_parameter(
    state: StateParams, detection: DetectionParams, name: str, value: float
) -> tuple[StateParams, DetectionParams]:
    if name in ("r", "theta", "alpha"):
        return replace(state, **{name: value}), detection
    return state, replace(detection, **{name: value})


def evaluate_point(
    state: StateParams,
    detection: DetectionParams,
    pipeline: str,
    tol: float = 1e-12,
) -> CoherenceTriple:
    """Coherence at one parameter point through the selected pipeline."""
    if pipeline == "ideal":
        return ideal_coherence(state)
    dist = apply_detection(squeezed_distribution(state, tol), detection)
    return click_coherence(dist)


def sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the pipeline over the grid; rows in row-major axis order."""
    grids = [axis.grid() for axis in spec.axes]
    rows: list[SweepRow] = []
    if len(grids) == 1:
        points = [(v,) for v in grids[0]]
    else:
        points = [(a, b) for a in grids[0] for b in grids[1]]
    for values in points:
        state, detection = spec.state, spec.detection
        for axis, value in zip(spec.axes, values):
            state, detection = _with_parameter(state, detection, axis.name, float(value))
        try:
            triple = evaluate_point(state, detection, spec.pipeline, spec.tol)
            row = SweepRow(
                axis_values=tuple(float(v) for v in values),
                g2=triple.g2 if 2 in spec.orders else math.nan,
                g3=triple.g3 if 3 in spec.orders else math.nan,
                g4=triple.g4 if 4 in spec.orders else math.nan,
                mean=triple.mean_clicks,
                pipeline=spec.pipeline,
            )
        except (UndefinedCoherenceError, NoSignalError) as exc:
            row = SweepRow(
                axis_values=tuple(float(v) for v in values),
                g2=math.nan,
                g3=math.nan,
                g4=math.nan,
                mean=math.nan,
                pipeline=spec.pipeline,
                diagnostics=str(exc),
            )
        rows.append(row)
    return SweepTable(
        axis_names=tuple(axis.name for axis in spec.axes), rows=tuple(rows)
    )


def _order_value(triple: CoherenceTriple, order: int) -> float:
    return (triple.g2, triple.g3, triple.g4)[order - 2]


def find_extremum(
    order: int,
    parameter: str,
    bounds: tuple[float, float],
    state: StateParams,
    detection: DetectionParams | None = None,
    mode: str = "min",
    pipeline: str = "ideal",
    coarse_points: int = 200,
    bracket_tol: float = 1e-4,
    tol: float = 1e-12,
) -> ExtremumResult:
    """Locate a single extremum of g^(order) along one parameter.

    A coarse scan (log-spaced for r, alpha and gamma) picks the best
    sample; golden-section search then shrinks the bracket around it to a
    relative width of ``bracket_tol``.  Ties on the coarse grid resolve to
    the smallest parameter value.  An extremum sitting on a bound is
    returned with ``boundary=True`` and no refinement.
    """
    if order not in (2, 3, 4):
        raise InvalidParameterError("order", f"must be 2, 3 or 4, got {order}")
    if parameter not in PARAMETERS:
        raise InvalidParameterError("parameter", f"unknown parameter {parameter!r}")
    if mode not in ("min", "max"):
        raise InvalidParameterError("mode", f"must be min or max, got {mode}")
    if pipeline not in PIPELINES:
        raise InvalidParameterError("pipeline", f"must be one of {PIPELINES}")
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParameterError("bounds", "must be finite with lower < upper")
    detection = detection or DetectionParams()
    log_scale = parameter in _LOG_PARAMS
    if log_scale and lo <= 0.0:
        raise InvalidParameterError("bounds", f"log-scanned parameter {parameter} needs lower > 0")

    sign = 1.0 if mode == "min" else -1.0

    def objective(value: float) -> float:
        s, d = _with_parameter(state, detection, parameter, value)
        try:
            return sign * _order_value(evaluate_point(s, d, pipeline, tol), order)
        except (UndefinedCoherenceError, NoSignalError):
            return math.inf

    grid = (
        np.geomspace(lo, hi, coarse_points) if log_scale else np.linspace(lo, hi, coarse_points)
    )
    values = np.array([objective(v) for v in grid])
    if not np.any(np.isfinite(values)):
        raise Hbt4Error("extremum search failed: no finite objective value on the coarse grid")
    best = int(np.nanargmin(np.where(np.isfinite(values), values, np.inf)))
    if best == 0 or best == coarse_points - 1:
        return ExtremumResult(
            parameter=parameter,
            location=float(grid[best]),
            value=sign * float(values[best]),
            order=order,
            bracket_width=math.nan,
            boundary=True,
            mode=mode,
            pipeline=pipeline,
        )

    # Golden-section refinement inside [grid[best-1], grid[best+1]]; work in
    # log space for log-scanned parameters so bracket width is relative.
    if log_scale:
        to_x, from_x = math.log, math.exp
    else:
        to_x, from_x = (lambda v: v), (lambda v: v)
    a, b = to_x(float(grid[best - 1])), to_x(float(grid[best + 1]))
    scale = max(abs(a), abs(b), 1e-30) if not log_scale else 1.0
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(from_x(c)), objective(from_x(d))
    for _ in range(200):
        if (b - a) / scale <= bracket_tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(from_x(c))
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(from_x(d))
    x = c if fc < fd else d
    fx = min(fc, fd)
    # Never report worse than the best coarse sample.
    if float(values[best]) < fx:
        x, fx = to_x(float(grid[best])), float(values[best])
    return ExtremumResult(
        parameter=parameter,
        location=from_x(x),
        value=sign * fx,
        order=order,
        bracket_width=(b - a) / scale,
        boundary=False,
        mode=mode,
        pipeline=pipeline,
    )


def minimized_map(
    order: int,
    gamma_axis: SweepAxis,
    eta_axis: SweepAxis,
    state: StateParams,
    alpha_bounds: tuple[float, float] = (1e-3, 1.0),
    pipeline: str = "click",
    coarse_points: int = 60,
) -> SweepTable:
    """Map of the alpha-minimized g^(order) over a (gamma, eta) grid.

    Re-runs the 1-D amplitude minimization in every cell; the minimizing
    alpha is recorded in the row diagnostics.
    """
    if gamma_axis.name != "gamma" or eta_axis.name != "eta":
        raise InvalidParameterError("axes", "expected a gamma axis and an eta axis")
    rows: list[SweepRow] = []
    for gamma in gamma_axis.grid():
        for eta in eta_axis.grid():
            detection = DetectionParams(eta=float(eta), gamma=float(gamma))
            result = find_extremum(
                order,
                "alpha",
                alpha_bounds,
                state,
                detection,
                mode="min",
                pipeline=pipeline,
                coarse_points=coarse_points,
            )
            g = [math.nan, math.nan, math.nan]
            g[order - 2] = result.value
            s, d = _with_parameter(state, detection, "alpha", result.location)
            mean = evaluate_point(s, d, pipeline).mean_clicks
            rows.append(
                SweepRow(
                    axis_values=(float(gamma), float(eta)),
                    g2=g[0],
                    g3=g[1],
                    g4=g[2],
                    mean=mean,
                    pipeline=pipeline,
                    diagnostics=f"alpha_min={result.location:.12g}",
                )
            )
    return SweepTable(axis_names=("gamma", "eta"), rows=tuple(rows))
