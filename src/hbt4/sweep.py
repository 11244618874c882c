"""Parameter scans, extremum searches and the dB conversion helper.

Sweeps evaluate either the loss-free closed form ("ideal") or the full
detection-plus-click chain ("click") over 1- or 2-axis grids, emitting
rows in row-major axis order.  Where the coherence is undefined, at a mean
photon or click number that is zero or too small to resolve g4, one rule
(``clicks._undefined``) gives the row's diagnostics message, the message
of the UndefinedCoherenceError that ``evaluate_point`` raises there; such
a point never aborts a sweep.

A single point (``evaluate_point``) is ``ideal_coherence`` of its state, or
its photon-number distribution times the cached 5 x N click operator of
its detector (``clicks.detected_clicks``), one matrix-vector product.
Sweeps and the coarse grids of extremum searches and minimized maps go
through one evaluator, ``_evaluate``, which takes the grid as parameter
columns (``_columns``): r, theta, alpha, eta and gamma as lists of floats,
each scanned column checked once by the rule of its dataclass field.  An
ideal grid is one call of ``coherence._normal_moments``, which rounds as
a single point does.  Click points are grouped by their (eta, gamma)
pair: the states at one detector are built by
``states.packed_distributions`` as the columns of one zero-padded N x K
matrix, running the recurrence for all of them together, the matrix takes
one product with the operator, and the coincidence ratios of all K columns
follow from the weight table that ``clicks.coherence_from_clicks`` uses.
The per-distribution chain,
``clicks.click_coherence(apply_detection(...))``, is the reference of both.

Extremum searches run a coarse grid (log-spaced for amplitude-like
parameters) followed by Brent's method inside the bracket around the best
coarse sample, seeded by that sample and its two neighbours, whose values
the grid already has; an undefined point scores +inf.  Minimized maps
evaluate one coarse amplitude grid in every (gamma, eta) cell, whose
states are packed once per map since the last packing is kept; each cell
fetches its click operator once and refines every order from its values.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .clicks import (
    N_DETECTORS,
    CoherenceTriple,
    _click_operator,
    _coincidence_ratios,
    _undefined,
    coherence_from_clicks,
    detected_clicks,
)
from .coherence import _normal_moments, _ratios, ideal_coherence
from .detection import _DETECTION_RULES, DetectionParams
from .errors import Hbt4Error, InvalidParameterError, UndefinedCoherenceError
from .states import (
    _STATE_RULES,
    StateParams,
    _check_tol,
    _integer,
    _real,
    packed_distributions,
    squeezed_distribution,
)

PIPELINES = ("ideal", "click")
PARAMETERS = ("r", "theta", "alpha", "eta", "gamma")
_STATE_PARAMETERS = frozenset({"r", "theta", "alpha"})

# The field rules of every parameter, in the order a point checks them.
_RULES = _STATE_RULES | _DETECTION_RULES

# Parameters scanned on a logarithmic grid by default: dips and peaks sit
# at small amplitudes and noise spans decades.
_LOG_PARAMS = frozenset({"r", "alpha", "gamma"})

# The golden-section fraction of a bracket, (3 - sqrt 5) / 2.
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0
_BRACKET_TOL = 3e-7


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
        _integer("axis.points", self.points, 2)
        for name in ("start", "stop"):
            object.__setattr__(self, name, _real("axis.bounds", getattr(self, name)))
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
        object.__setattr__(self, "orders", _check_orders(self.orders))
        _check_tol(self.tol)


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
    """One extremum of g^(order) along ``parameter``.  ``bracket_width`` is
    the width of the bracket that Brent's method ended with, at most four
    times ``bracket_tol``: in log units on log-spaced grids, relative to
    the larger bound magnitude of the first bracket on linear ones.  It is
    NaN when ``boundary`` is set: the best coarse sample sits on a bound
    and is returned unrefined."""

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


def _columns(
    state: StateParams, detection: DetectionParams, scanned: dict[str, list[float]]
) -> dict[str, list[float]]:
    """The r, theta, alpha, eta and gamma columns of a grid whose
    ``scanned`` parameters take the listed float values and whose others
    take those of ``state`` and ``detection``.

    Each scanned column is checked once, by the rule of its dataclass
    field.  InvalidParameterError names the field and value that building
    the points one by one would stop at: the first point with a broken
    rule, and there the first field in ``PARAMETERS`` order.
    """
    broken = []
    for name, values in scanned.items():
        message, valid = _RULES[name]
        ok = valid(np.array(values))
        if not ok.all():
            at = int(np.argmin(ok))
            broken.append((at, PARAMETERS.index(name), name, message, values[at]))
    if broken:
        _, _, name, message, value = min(broken)
        raise InvalidParameterError(name, f"{message}, got {value}")
    size = len(next(iter(scanned.values())))
    base = vars(state) | vars(detection)
    return {name: scanned[name] if name in scanned else [base[name]] * size for name in PARAMETERS}


def _point(
    state: StateParams, detection: DetectionParams, name: str, value: float
) -> tuple[StateParams, DetectionParams]:
    """The (state, detection) point where parameter ``name`` takes ``value``."""
    if name in _STATE_PARAMETERS:
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
    except UndefinedCoherenceError as exc:
        return str(exc)


_CLICK_NUMBERS = np.arange(N_DETECTORS + 1.0)

# Sweeps pack at most this many states into one matrix.  Building it takes
# about twice its size (tracemalloc peak of ``packed_distributions``): below
# 12 MB at supports of 2014 to 2754 (measured 11.3 MB), 17.4 MB at the
# 4097-entry support cap.  The last matrix is kept until the next packing,
# at most one more matrix: 8.4 MB at 256 x 4097.
_GRID_COLUMNS = 256

# The (r, theta, alpha) states, tol and matrix of the last packing, kept as
# ``clicks`` keeps its last operator and read and replaced whole, so threads
# share it safely.
_last_packing: list = [None, None, None]


def _packed(states: list[tuple[float, float, float]], tol: float) -> np.ndarray:
    """``packed_distributions(states, tol)``, or the kept matrix when the
    last packing had the same states and tol."""
    kept_states, kept_tol, packed = _last_packing
    if tol != kept_tol or states != kept_states:
        packed = packed_distributions(states, tol)
        _last_packing[:] = states, tol, packed
    return packed


def _grid_results(
    mean: np.ndarray, quantity: str, ratios: Callable[[np.ndarray], tuple]
) -> list[CoherenceTriple | str]:
    """The triple of every column from its ``mean`` and the (g2, g3, g4)
    arrays that ``ratios`` gives for the means, or, where the coherence is
    undefined, the message of ``clicks._undefined`` for the mean
    ``quantity`` number."""
    means = mean.tolist()
    reasons = [_undefined(n, quantity) for n in means]
    # Undefined columns get a mean of 1, so no division warns; they are
    # dropped below.
    defined = np.array([why is None for why in reasons])
    columns = zip(reasons, *(g.tolist() for g in ratios(np.where(defined, mean, 1.0))), means)
    return [why or CoherenceTriple(g2, g3, g4, n) for why, g2, g3, g4, n in columns]


def _click_grid(packed: np.ndarray, eta: float, gamma: float) -> list[CoherenceTriple | str]:
    """Click-chain coherence of every column of ``packed`` at the detector
    (eta, gamma): one product with the click operator at the full width,
    then the coincidence ratios of all columns at once.  Where
    ``evaluate_point`` raises NoSignalError, the column gives that error's
    message instead."""
    probs = _click_operator(eta, gamma, packed.shape[0]) @ packed
    return _grid_results(_CLICK_NUMBERS @ probs, "click", lambda n: _coincidence_ratios(probs, n))


def _ideal_grid(
    r: np.ndarray, theta: np.ndarray, alpha: np.ndarray
) -> list[CoherenceTriple | str]:
    """``ideal_coherence`` of every state of the columns, bit for bit, or
    the message of its UndefinedCoherenceError."""
    n1, n2, n3, n4 = _normal_moments(r, theta, alpha, 4)
    return _grid_results(n1, "photon", lambda n: _ratios(n, n2, n3, n4))


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
    columns: dict[str, list[float]], pipeline: str, tol: float
) -> list[CoherenceTriple | str]:
    """The coherence at every point of the grid ``columns`` (``_columns``),
    or the message of the error ``evaluate_point`` raises there.  An ideal
    grid is one ``_ideal_grid`` call.  Click points are evaluated by
    detector: the states that share one (eta, gamma) pair take one
    ``_click_grid`` product per ``_GRID_COLUMNS``."""
    if pipeline == "ideal":
        return _ideal_grid(*(np.array(columns[name]) for name in ("r", "theta", "alpha")))
    states = list(zip(columns["r"], columns["theta"], columns["alpha"]))
    by_detector: dict[tuple[float, float], list[int]] = {}
    for i, detector in enumerate(zip(columns["eta"], columns["gamma"])):
        by_detector.setdefault(detector, []).append(i)
    results: list = [None] * len(states)
    for (eta, gamma), indices in by_detector.items():
        for start in range(0, len(indices), _GRID_COLUMNS):
            chunk = indices[start : start + _GRID_COLUMNS]
            packed = _packed([states[i] for i in chunk], tol)
            for i, result in zip(chunk, _click_grid(packed, eta, gamma)):
                results[i] = result
    return results


def sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the pipeline over the grid; rows in row-major axis order."""
    names = tuple(axis.name for axis in spec.axes)
    grid = list(itertools.product(*(axis.grid().tolist() for axis in spec.axes)))
    scanned = {name: list(values) for name, values in zip(names, zip(*grid))}
    results = _evaluate(_columns(spec.state, spec.detection, scanned), spec.pipeline, spec.tol)
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
    highest = max((_integer("orders", o, 2) for o in values), default=5)
    if highest > 4 or len(set(values)) < len(values):
        raise InvalidParameterError("orders", f"must be distinct values of 2, 3, 4, got {orders!r}")
    return values


def _coarse_grid(
    parameter: str, bounds: tuple[float, float], points: int
) -> tuple[np.ndarray, bool]:
    """The coarse search grid over ``bounds`` and whether it is log-spaced."""
    _integer("coarse_points", points, 3)
    try:
        lo, hi = (_real("bounds", b) for b in bounds)
    except (TypeError, ValueError):
        raise InvalidParameterError("bounds", f"must be a pair of numbers, got {bounds!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParameterError("bounds", "must be finite with lower < upper")
    log_scale = parameter in _LOG_PARAMS
    if log_scale and lo <= 0.0:
        raise InvalidParameterError("bounds", f"log-scanned parameter {parameter} needs lower > 0")
    grid = np.geomspace(lo, hi, points) if log_scale else np.linspace(lo, hi, points)
    return grid, log_scale


def _refine_minimum(
    objective: Callable[[float], float],
    grid: np.ndarray,
    values: np.ndarray,
    log_scale: bool,
    bracket_tol: float,
) -> tuple[float, float, float, bool]:
    """Minimize ``objective`` from its ``values`` on the coarse ``grid``.

    Brent's method (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 5) inside the bracket between the neighbours of
    the best coarse sample, in log space for log-spaced grids: a parabola
    through the best three points so far, or a golden-section step where
    the parabola is unsafe.  It starts from the coarse triple, whose values
    are known, so the first step can already be parabolic; a point that
    scores +inf enters no parabola.  It stops once both ends of the
    bracket lie within 2 ``bracket_tol`` of the best point (relative to
    the larger bound magnitude on linear grids).  Ties on the grid resolve
    to the smallest parameter value; the result is never worse than the
    best coarse sample.  A best sample on a bound is returned as it is.
    Returns (location, value, final bracket width, on a bound).
    """
    if not np.any(np.isfinite(values)):
        raise Hbt4Error("extremum search failed: no finite objective value on the coarse grid")
    best = int(np.nanargmin(np.where(np.isfinite(values), values, np.inf)))
    if best == 0 or best == grid.size - 1:
        return float(grid[best]), float(values[best]), math.nan, True
    to_x, from_x = (math.log, math.exp) if log_scale else (float, float)
    location = float(grid[best])
    a, x, b = (to_x(float(g)) for g in grid[best - 1 : best + 2])
    fa, fx, fb = values[best - 1 : best + 2].tolist()
    # w holds the second best point so far and v the third.
    (fw, w), (fv, v) = sorted([(fa, a), (fb, b)])
    scale = 1.0 if log_scale else max(abs(a), abs(b), 1e-30)
    tol = bracket_tol * scale
    # Trial points are rounded to multiples of this grain, so that coarse
    # values that differ in their last bits, as grid and single-point
    # evaluations of one state do, still lead to the same points.
    grain = tol / 4.0
    # As if the two steps before had each spanned the bracket.
    d = e = b - a
    for _ in range(200):
        if max(x - a, b - x) <= 2.0 * tol:
            break
        mid = 0.5 * (a + b)
        parabolic = False
        if abs(e) > tol and math.isfinite(fv) and math.isfinite(fw):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # Accept the vertex only inside the bracket, and only if it
            # moves less than half the step before last.
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                parabolic = True
                e, d = d, p / q
                if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                    d = math.copysign(tol, mid - x)
        if not parabolic:
            e = a - x if x >= mid else b - x
            d = _GOLDEN_STEP * e
        u = grain * round((x + (d if abs(d) >= tol else math.copysign(tol, d))) / grain)
        at_u = from_x(u)
        fu = objective(at_u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw = w, fw, x, fx
            x, fx, location = u, fu, at_u
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return location, fx, (b - a) / scale, False


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
    sample.  Brent's method then refines it between its two neighbours,
    starting from the three coarse values, so its first step can already
    be parabolic; it makes about 5 to 7 evaluations.  ``bracket_tol`` is
    its location tolerance: in log units on log-spaced grids, relative to
    the larger bracket bound on linear ones.  Ties on the coarse grid
    resolve to the smallest parameter value, and the result is never worse
    than the best coarse sample.  An extremum sitting on a bound is
    returned with ``boundary=True`` and no refinement.
    """
    if order not in (2, 3, 4):
        raise InvalidParameterError("order", f"must be 2, 3 or 4, got {order}")
    if parameter not in PARAMETERS:
        raise InvalidParameterError("parameter", f"unknown parameter {parameter!r}")
    if mode not in ("min", "max"):
        raise InvalidParameterError("mode", f"must be min or max, got {mode}")
    _check_pipeline(pipeline)
    _check_tol(tol)
    if not (isinstance(bracket_tol, numbers.Real) and 0.0 < bracket_tol < math.inf):
        raise InvalidParameterError("bracket_tol", f"must be finite and > 0, got {bracket_tol!r}")
    grid, log_scale = _coarse_grid(parameter, bounds, coarse_points)
    detection = detection or DetectionParams()
    sign = 1.0 if mode == "min" else -1.0

    def objective(value: float) -> float:
        point = _point(state, detection, parameter, value)
        return _order_value(_point_result(*point, pipeline, tol), order, sign)

    coarse = _evaluate(_columns(state, detection, {parameter: grid.tolist()}), pipeline, tol)
    values = np.array([_order_value(result, order, sign) for result in coarse])
    location, value, width, boundary = _refine_minimum(
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

    Every cell evaluates the coarse amplitude grid with ``_evaluate``, whose
    kept packing serves every cell after the first, and refines each order
    from those values.  The minimizing alpha is recorded in the row
    diagnostics, and the row's mean is the single-point evaluation there.
    """
    orders = _check_orders(orders)
    if gamma_axis.name != "gamma" or eta_axis.name != "eta":
        raise InvalidParameterError("axes", "expected a gamma axis and an eta axis")
    _check_pipeline(pipeline)
    grid, _ = _coarse_grid("alpha", alpha_bounds, coarse_points)
    coarse = {"alpha": grid.tolist()}
    rows: dict[int, list[SweepRow]] = {order: [] for order in orders}
    for gamma in gamma_axis.grid():
        for eta in eta_axis.grid():
            detection = DetectionParams(eta=float(eta), gamma=float(gamma))
            # Fetched at the widest coarse support first, the kept
            # operator serves every coarse and refinement state.
            results = _evaluate(_columns(state, detection, coarse), pipeline, 1e-12)
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
                location, value, _, _ = _refine_minimum(objective, grid, values, True, _BRACKET_TOL)
                # The single-point product, even where the minimum is a coarse sample.
                at_min = result_at(location)
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
