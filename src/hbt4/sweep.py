"""Parameter scans, extremum searches and the dB conversion helper.

Sweeps evaluate either the loss-free closed form ("ideal") or the full
detection-plus-click chain ("click") over 1- or 2-axis grids, emitting
rows in row-major axis order.  Per-point failures (vacuum input, zero
signal) are recorded in the row diagnostics and never abort a sweep.

A click point is the photon-number distribution times the cached 5 x N
click operator of its detector (``clicks.detected_clicks``), one
matrix-vector product; sweeps and extremum searches at a fixed
(eta, gamma) share one operator.  The per-distribution chain,
``clicks.click_coherence(apply_detection(...))``, is its reference.

Extremum searches run a coarse grid (log-spaced for amplitude-like
parameters) followed by golden-section refinement inside the bracket
around the best coarse sample.  Minimized maps share one coarse amplitude
grid: its states are built once per map, each (gamma, eta) cell fetches
its click operator once and evaluates every coarse state against it, and
every order is refined from those values inside the cell.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .clicks import CoherenceTriple, _click_operator, coherence_from_clicks, detected_clicks
from .coherence import ideal_coherence
from .detection import DetectionParams
from .errors import Hbt4Error, InvalidParameterError, NoSignalError, UndefinedCoherenceError
from .states import StateParams, squeezed_distribution

PIPELINES = ("ideal", "click")
PARAMETERS = ("r", "theta", "alpha", "eta", "gamma")

# Parameters scanned on a logarithmic grid by default: dips and peaks sit
# at small amplitudes and noise spans decades.
_LOG_PARAMS = frozenset({"r", "alpha", "gamma"})

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BRACKET_TOL = 1e-4


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
        if isinstance(self.points, bool) or not isinstance(self.points, numbers.Integral):
            raise InvalidParameterError("axis.points", f"must be an integer, got {self.points!r}")
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
        _check_orders(self.orders)


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
    """Coherence at one parameter point through the selected pipeline.

    The click pipeline equals ``click_coherence(apply_detection(
    squeezed_distribution(state, tol), detection))`` up to rounding.
    """
    if pipeline == "ideal":
        return ideal_coherence(state)
    return coherence_from_clicks(detected_clicks(squeezed_distribution(state, tol), detection))


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


def _check_orders(orders) -> tuple[int, ...]:
    """``orders`` as a tuple: a non-empty collection of distinct 2, 3, 4."""
    try:
        values = tuple(orders)
    except TypeError:
        raise InvalidParameterError("orders", f"must be a list, got {orders!r}") from None
    if (
        not values
        or any(not isinstance(o, numbers.Integral) or o not in (2, 3, 4) for o in values)
        or len(set(values)) != len(values)
    ):
        raise InvalidParameterError("orders", f"must be distinct values of 2, 3, 4, got {orders!r}")
    return values


def _coarse_grid(
    parameter: str, bounds: tuple[float, float], points: int
) -> tuple[np.ndarray, bool]:
    """The coarse search grid over ``bounds`` and whether it is log-spaced."""
    if isinstance(points, bool) or not isinstance(points, numbers.Integral) or points < 3:
        raise InvalidParameterError("coarse_points", f"must be an integer >= 3, got {points!r}")
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParameterError("bounds", "must be finite with lower < upper")
    log_scale = parameter in _LOG_PARAMS
    if log_scale and lo <= 0.0:
        raise InvalidParameterError("bounds", f"log-scanned parameter {parameter} needs lower > 0")
    grid = np.geomspace(lo, hi, points) if log_scale else np.linspace(lo, hi, points)
    return grid, log_scale


def _golden_section(
    objective: Callable[[float], float],
    grid: np.ndarray,
    values: np.ndarray,
    log_scale: bool,
    bracket_tol: float,
) -> tuple[float, float, float, bool]:
    """Minimize ``objective`` from its ``values`` on the coarse ``grid``.

    Golden-section search shrinks the bracket between the neighbours of
    the best coarse sample to a relative width of ``bracket_tol``, in log
    space for log-spaced grids.  Ties on the grid resolve to the smallest
    parameter value.  A best sample on a bound is returned as it is.
    Returns (location, value, bracket width, on a bound).
    """
    if not np.any(np.isfinite(values)):
        raise Hbt4Error("extremum search failed: no finite objective value on the coarse grid")
    best = int(np.nanargmin(np.where(np.isfinite(values), values, np.inf)))
    if best == 0 or best == grid.size - 1:
        return float(grid[best]), float(values[best]), math.nan, True
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
    return from_x(x), fx, (b - a) / scale, False


def find_extremum(
    order: int,
    parameter: str,
    bounds: tuple[float, float],
    state: StateParams,
    detection: DetectionParams | None = None,
    mode: str = "min",
    pipeline: str = "ideal",
    coarse_points: int = 200,
    bracket_tol: float = _BRACKET_TOL,
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
    if not (isinstance(bracket_tol, numbers.Real) and 0.0 < bracket_tol < math.inf):
        raise InvalidParameterError("bracket_tol", f"must be finite and > 0, got {bracket_tol!r}")
    grid, log_scale = _coarse_grid(parameter, bounds, coarse_points)
    detection = detection or DetectionParams()
    sign = 1.0 if mode == "min" else -1.0

    def objective(value: float) -> float:
        s, d = _with_parameter(state, detection, parameter, value)
        triple = _coherence_or_none(evaluate_point, s, d, pipeline, tol)
        return math.inf if triple is None else sign * _order_value(triple, order)

    values = np.array([objective(v) for v in grid])
    location, value, width, boundary = _golden_section(
        objective, grid, values, log_scale, bracket_tol
    )
    return ExtremumResult(
        parameter=parameter,
        location=location,
        value=sign * value,
        order=order,
        bracket_width=width,
        boundary=boundary,
        mode=mode,
        pipeline=pipeline,
    )


def _coherence_or_none(evaluate: Callable, *args) -> CoherenceTriple | None:
    """``evaluate(*args)``, or None where the coherence is undefined."""
    try:
        return evaluate(*args)
    except (UndefinedCoherenceError, NoSignalError):
        return None


def minimized_maps(
    orders: Sequence[int],
    gamma_axis: SweepAxis,
    eta_axis: SweepAxis,
    state: StateParams,
    alpha_bounds: tuple[float, float] = (1e-3, 1.0),
    pipeline: str = "click",
    coarse_points: int = 60,
) -> dict[int, SweepTable]:
    """Maps of the alpha-minimized g^(order) over a (gamma, eta) grid, one
    per order.

    The coarse amplitude states depend only on (r, theta, alpha), so they
    are built once per map.  Every cell fetches its click operator once, at
    the largest coarse support, evaluates all coarse states against it and
    refines each order from those values.  The minimizing alpha is recorded
    in the row diagnostics; the row's mean is taken from the refinement
    point there, or evaluated once when the minimum is a coarse sample.
    """
    orders = _check_orders(orders)
    if gamma_axis.name != "gamma" or eta_axis.name != "eta":
        raise InvalidParameterError("axes", "expected a gamma axis and an eta axis")
    if pipeline not in PIPELINES:
        raise InvalidParameterError("pipeline", f"must be one of {PIPELINES}")
    grid, _ = _coarse_grid("alpha", alpha_bounds, coarse_points)
    coarse = [replace(state, alpha=alpha) for alpha in grid]
    if pipeline == "click":
        dists = [squeezed_distribution(s) for s in coarse]
        width = max(len(dist) for dist in dists)
    else:
        triples = [_coherence_or_none(ideal_coherence, s) for s in coarse]
    rows: dict[int, list[SweepRow]] = {order: [] for order in orders}
    for gamma in gamma_axis.grid():
        for eta in eta_axis.grid():
            detection = DetectionParams(eta=float(eta), gamma=float(gamma))
            if pipeline == "click":
                # Fetched at the widest coarse support first, the kept
                # operator serves every coarse and refinement state.
                _click_operator(detection.eta, detection.gamma, width)
                triples = [
                    _coherence_or_none(coherence_from_clicks, detected_clicks(dist, detection))
                    for dist in dists
                ]
            refined: dict[float, CoherenceTriple | None] = {}

            def triple_at(alpha: float) -> CoherenceTriple | None:
                if alpha not in refined:
                    s = replace(state, alpha=alpha)
                    refined[alpha] = _coherence_or_none(evaluate_point, s, detection, pipeline)
                return refined[alpha]

            for order in orders:

                def objective(alpha: float, order: int = order) -> float:
                    triple = triple_at(alpha)
                    return math.inf if triple is None else _order_value(triple, order)

                values = np.array(
                    [math.inf if t is None else _order_value(t, order) for t in triples]
                )
                location, value, _, _ = _golden_section(objective, grid, values, True, _BRACKET_TOL)
                # Coarse states were built from the grid's numpy amplitudes,
                # which round differently from the reported float.
                at_min = refined.get(location) or evaluate_point(
                    replace(state, alpha=location), detection, pipeline
                )
                g = [math.nan, math.nan, math.nan]
                g[order - 2] = value
                rows[order].append(
                    SweepRow(
                        axis_values=(float(gamma), float(eta)),
                        g2=g[0],
                        g3=g[1],
                        g4=g[2],
                        mean=at_min.mean_clicks,
                        pipeline=pipeline,
                        diagnostics=f"alpha_min={location:.12g}",
                    )
                )
    return {
        order: SweepTable(axis_names=("gamma", "eta"), rows=tuple(order_rows))
        for order, order_rows in rows.items()
    }


def minimized_map(
    order: int,
    gamma_axis: SweepAxis,
    eta_axis: SweepAxis,
    state: StateParams,
    alpha_bounds: tuple[float, float] = (1e-3, 1.0),
    pipeline: str = "click",
    coarse_points: int = 60,
) -> SweepTable:
    """Map of the alpha-minimized g^(order) over a (gamma, eta) grid: the
    one-order case of ``minimized_maps``."""
    return minimized_maps(
        (order,), gamma_axis, eta_axis, state, alpha_bounds, pipeline, coarse_points
    )[order]
