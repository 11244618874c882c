"""Parameter scans, extremum searches and the dB conversion helper.

Sweeps evaluate either the loss-free closed form ("ideal") or the full
detection-plus-click chain ("click") over 1- or 2-axis grids, emitting
rows in row-major axis order.  Per-point failures (vacuum input, zero
signal, or a mean too small to resolve g4) are recorded in the row
diagnostics and never abort a sweep.

A single click point (``evaluate_point``) is its photon-number
distribution times the cached 5 x N click operator of its detector
(``clicks.detected_clicks``), one matrix-vector product.  Sweeps and the
coarse grids of extremum searches over every parameter go through one
evaluator, ``_evaluate``: the states at one detector are built by
``states.packed_distributions`` as the columns of one zero-padded N x K
matrix, running the recurrence for all of them together, the matrix takes
one product with the operator, and the coincidence ratios of all K columns
follow from the weight table that ``clicks.coherence_from_clicks`` uses.
An undefined point gives the message of the error ``evaluate_point``
raises there.  The per-distribution chain,
``clicks.click_coherence(apply_detection(...))``, is the reference of both.

Extremum searches run a coarse grid (log-spaced for amplitude-like
parameters) followed by golden-section refinement inside the bracket
around the best coarse sample; an undefined point scores +inf.  Minimized
maps share one coarse amplitude grid: its states are built once per map,
each (gamma, eta) cell fetches its click operator once and evaluates every
coarse state against it, and every order is refined from those values
inside the cell.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .clicks import (
    N_DETECTORS,
    CoherenceTriple,
    _click_operator,
    _coincidence_ratios,
    _no_signal,
    coherence_from_clicks,
    detected_clicks,
)
from .coherence import ideal_coherence
from .detection import DetectionParams
from .errors import Hbt4Error, InvalidParameterError, NoSignalError, UndefinedCoherenceError
from .states import StateParams, packed_distributions, squeezed_distribution

PIPELINES = ("ideal", "click")
PARAMETERS = ("r", "theta", "alpha", "eta", "gamma")
_STATE_PARAMETERS = frozenset({"r", "theta", "alpha"})

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
        _check_pipeline(self.pipeline)
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


def _check_pipeline(pipeline: str) -> None:
    if pipeline not in PIPELINES:
        raise InvalidParameterError("pipeline", f"must be one of {PIPELINES}, got {pipeline!r}")


def _points(
    state: StateParams, detection: DetectionParams, names: Sequence[str], grid: Iterable[tuple]
) -> list[tuple[StateParams, DetectionParams]]:
    """The (state, detection) point of every tuple of values of the named
    parameters in ``grid``, each built directly, with its field checks."""
    base = vars(state) | vars(detection)
    sets_state = not _STATE_PARAMETERS.isdisjoint(names)
    sets_detection = not _STATE_PARAMETERS.issuperset(names)
    points = []
    for values in grid:
        fields = base | dict(zip(names, values))
        if sets_state:
            state = StateParams(fields["r"], fields["theta"], fields["alpha"])
        if sets_detection:
            detection = DetectionParams(fields["eta"], fields["gamma"])
        points.append((state, detection))
    return points


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
    _check_pipeline(pipeline)
    if pipeline == "ideal":
        return ideal_coherence(state)
    return coherence_from_clicks(detected_clicks(squeezed_distribution(state, tol), detection))


def _point_result(
    state: StateParams, detection: DetectionParams, pipeline: str, tol: float
) -> CoherenceTriple | str:
    """``evaluate_point``, or the message of its error where the coherence
    is undefined."""
    try:
        return evaluate_point(state, detection, pipeline, tol)
    except (UndefinedCoherenceError, NoSignalError) as exc:
        return str(exc)


_CLICK_NUMBERS = np.arange(N_DETECTORS + 1.0)

# Sweeps pack at most this many states into one matrix.  Building it takes
# about twice its size (tracemalloc peak of ``packed_distributions``): below
# 12 MB at supports of 2014 to 2754 (measured 11.3 MB), 17.4 MB at the
# 4097-entry support cap.
_GRID_COLUMNS = 256


def _click_grid(packed: np.ndarray, detection: DetectionParams) -> list[CoherenceTriple | str]:
    """Click-chain coherence of every column of ``packed`` at ``detection``:
    one product with the click operator at the full width, then the
    coincidence ratios of all columns at once.  Where ``evaluate_point``
    raises NoSignalError, the column gives that error's message instead."""
    op, _ = _click_operator(detection.eta, detection.gamma, packed.shape[0])
    probs = np.maximum(op @ packed, 0.0)
    mean = _CLICK_NUMBERS @ probs
    means = mean.tolist()
    reasons = [_no_signal(n) for n in means]
    # Columns without signal get <n> = 1, so no division warns; they
    # are dropped below.
    defined = np.array([reason is None for reason in reasons])
    ratios = _coincidence_ratios(probs, np.where(defined, mean, 1.0))
    columns = zip(reasons, *(g.tolist() for g in ratios), means)
    return [reason or CoherenceTriple(g2, g3, g4, n) for reason, g2, g3, g4, n in columns]


def _sweep_row(values: tuple[float, ...], result: CoherenceTriple | str, spec: SweepSpec) -> SweepRow:
    """The row of one grid point: its triple, or NaN and the diagnostics
    message when the coherence is undefined there."""
    if isinstance(result, str):
        nan = math.nan
        return SweepRow(values, nan, nan, nan, nan, spec.pipeline, diagnostics=result)
    return SweepRow(
        axis_values=values,
        g2=result.g2 if 2 in spec.orders else math.nan,
        g3=result.g3 if 3 in spec.orders else math.nan,
        g4=result.g4 if 4 in spec.orders else math.nan,
        mean=result.mean_clicks,
        pipeline=spec.pipeline,
    )


def _evaluate(
    points: Sequence[tuple[StateParams, DetectionParams]], pipeline: str, tol: float
) -> list[CoherenceTriple | str]:
    """The coherence of every (state, detection) point, or the message of
    the error ``evaluate_point`` raises there.  Click points are evaluated
    by detector: the states that share one (eta, gamma) take one
    ``_click_grid`` product per ``_GRID_COLUMNS``."""
    if pipeline == "ideal":
        return [_point_result(state, detection, pipeline, tol) for state, detection in points]
    by_detector: dict[DetectionParams, list[int]] = {}
    for i, (_, detection) in enumerate(points):
        by_detector.setdefault(detection, []).append(i)
    results: list = [None] * len(points)
    for detection, indices in by_detector.items():
        for start in range(0, len(indices), _GRID_COLUMNS):
            chunk = indices[start : start + _GRID_COLUMNS]
            packed = packed_distributions([points[i][0] for i in chunk], tol)
            for i, result in zip(chunk, _click_grid(packed, detection)):
                results[i] = result
    return results


def sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the pipeline over the grid; rows in row-major axis order."""
    names = tuple(axis.name for axis in spec.axes)
    grid = list(itertools.product(*(axis.grid().tolist() for axis in spec.axes)))
    results = _evaluate(_points(spec.state, spec.detection, names, grid), spec.pipeline, spec.tol)
    return SweepTable(
        axis_names=names,
        rows=tuple(_sweep_row(values, result, spec) for values, result in zip(grid, results)),
    )


def _order_value(result: CoherenceTriple | str, order: int, sign: float = 1.0) -> float:
    """The score of g^(order) at a point, ``sign`` times its value, or
    +inf where the coherence is undefined."""
    if isinstance(result, str):
        return math.inf
    return sign * (result.g2, result.g3, result.g4)[order - 2]


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
    _check_pipeline(pipeline)
    if not (isinstance(bracket_tol, numbers.Real) and 0.0 < bracket_tol < math.inf):
        raise InvalidParameterError("bracket_tol", f"must be finite and > 0, got {bracket_tol!r}")
    grid, log_scale = _coarse_grid(parameter, bounds, coarse_points)
    detection = detection or DetectionParams()
    sign = 1.0 if mode == "min" else -1.0

    def objective(value: float) -> float:
        (point,) = _points(state, detection, (parameter,), [(value,)])
        return _order_value(_point_result(*point, pipeline, tol), order, sign)

    coarse = _evaluate(_points(state, detection, (parameter,), zip(grid.tolist())), pipeline, tol)
    values = np.array([_order_value(result, order, sign) for result in coarse])
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
    are built once per map and packed into one matrix.  Every cell takes one
    product of that matrix with its click operator and refines each order
    from those values.  The minimizing alpha is recorded
    in the row diagnostics; the row's mean is taken from the refinement
    point there, or evaluated once when the minimum is a coarse sample.
    """
    orders = _check_orders(orders)
    if gamma_axis.name != "gamma" or eta_axis.name != "eta":
        raise InvalidParameterError("axes", "expected a gamma axis and an eta axis")
    _check_pipeline(pipeline)
    grid, _ = _coarse_grid("alpha", alpha_bounds, coarse_points)
    coarse = [StateParams(state.r, state.theta, alpha) for alpha in grid.tolist()]
    if pipeline == "click":
        packed = packed_distributions(coarse)
    else:
        results = _evaluate([(s, DetectionParams()) for s in coarse], pipeline, 1e-12)
    rows: dict[int, list[SweepRow]] = {order: [] for order in orders}
    for gamma in gamma_axis.grid():
        for eta in eta_axis.grid():
            detection = DetectionParams(eta=float(eta), gamma=float(gamma))
            if pipeline == "click":
                # Fetched at the widest coarse support first, the kept
                # operator serves every coarse and refinement state.
                results = _click_grid(packed, detection)
            refined: dict[float, CoherenceTriple | str] = {}

            def result_at(alpha: float) -> CoherenceTriple | str:
                if alpha not in refined:
                    s = StateParams(state.r, state.theta, alpha)
                    refined[alpha] = _point_result(s, detection, pipeline, 1e-12)
                return refined[alpha]

            for order in orders:

                def objective(alpha: float, order: int = order) -> float:
                    return _order_value(result_at(alpha), order)

                values = np.array([_order_value(result, order) for result in results])
                location, value, _, _ = _golden_section(objective, grid, values, True, _BRACKET_TOL)
                # A minimum on a coarse sample takes its mean from the
                # one-state product, as at the refinement points.
                at_min = refined.get(location) or evaluate_point(
                    StateParams(state.r, state.theta, location), detection, pipeline
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
