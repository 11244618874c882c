"""Photon-number distributions of displaced squeezed and coherent states.

The squeezed-state distribution oscillates with photon number and involves
Hermite polynomials of a complex argument.  Evaluating it naively overflows
for moderate photon numbers, so it is built by one scaled three-term
recurrence with a running log-scale.  The coherent state is its r = 0 case.

A single state is built by that recurrence in Python complex arithmetic
(``squeezed_distribution``).  A grid of states is built as the columns of
one zero-padded matrix (``packed_distributions``): the same recurrence runs
for all columns at once, one numpy step per photon number, rounding exactly
as the scalar one, so every column equals its single-state build bit for
bit.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, InvalidParameterError, TruncationError

# Hard cap on the truncated photon-number support.
N_HARD_MAX = 4096

# Extra support kept beyond the point where the probability mass criterion
# is met.  High-order factorial moments weight p_n by n(n-1)(n-2)(n-3), so
# terms far below any total-mass tolerance can still matter; the margin
# keeps those terms available to downstream consumers.
_SUPPORT_MARGIN = 16

_DEFAULT_TOL = 1e-12

# Recurrence iterates are divided by this power of two (exactly) when they
# exceed it.  An iterate times an underflowed running scale is below
# 2^128 * 1e-308, so any p_n lost that way is below 1e-538.
_RESCALE_AT = 2.0**128
_LOG_RESCALE_AT = 128.0 * math.log(2.0)


def _real(field: str, value) -> float:
    """``value`` as a Python float; InvalidParameterError unless it is a
    real number.  Python floats throughout: numpy scalars would run the
    recurrence in numpy arithmetic, slower and rounded differently."""
    if type(value) is float:
        return value
    if not isinstance(value, numbers.Real):
        raise InvalidParameterError(field, f"must be a real number, got {value!r}")
    return float(value)


def _integer(field: str, value, minimum: int):
    """``value``; InvalidParameterError unless it is an integer, not a
    bool, of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidParameterError(field, f"must be an integer >= {minimum}, got {value!r}")
    return value


# The rule of each parameter field: its message and a test of valid values
# that holds elementwise on float arrays too, so that a grid's columns are
# checked by the rules of its points.
_STATE_RULES = {
    "r": ("must be finite and >= 0", lambda v: (v >= 0.0) & (v < math.inf)),
    "theta": ("must be finite", lambda v: abs(v) < math.inf),
    "alpha": ("must be finite and real", lambda v: abs(v) < math.inf),
}


def _check_fields(params, rules: dict) -> None:
    """Cast the fields of the dataclass ``params`` named in ``rules`` to
    floats (``_real``), then raise InvalidParameterError at the first field
    that breaks its rule."""
    for name in rules:
        if type(value := getattr(params, name)) is not float:
            object.__setattr__(params, name, _real(name, value))
    for name, (message, valid) in rules.items():
        if not valid(value := getattr(params, name)):
            raise InvalidParameterError(name, f"{message}, got {value}")


@dataclass(frozen=True)
class StateParams:
    """Squeezing magnitude ``r``, squeezing phase ``theta`` (radians) and
    real displacement amplitude ``alpha``."""

    r: float
    theta: float
    alpha: float

    def __post_init__(self):
        _check_fields(self, _STATE_RULES)


@dataclass(frozen=True)
class PhotonDistribution:
    """Truncated photon-number distribution plus the probability mass that
    fell beyond the truncation point."""

    probs: np.ndarray
    tail_mass: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise InvalidParameterError("probs", "must be a non-empty 1-d array")
        # NaN and -inf fail the comparison through min; +inf makes the sum
        # non-finite.
        if not (probs.min() >= 0.0 and math.isfinite(total := probs.sum())):
            raise InvalidParameterError("probs", "entries must be finite and >= 0")
        if not (0.0 <= self.tail_mass <= 1.0):
            raise InvalidParameterError("tail_mass", f"must lie in [0, 1], got {self.tail_mass}")
        total += self.tail_mass
        if abs(total - 1.0) > 1e-9:
            raise InternalInvariantError(
                f"probabilities + tail must sum to 1, got {total!r}"
            )

    def __len__(self) -> int:
        return self.probs.size

    @property
    def mean(self) -> float:
        """First moment of the truncated distribution."""
        return float(np.arange(self.probs.size) @ self.probs)


def fock_distribution(n: int) -> PhotonDistribution:
    """Deterministic ``n``-photon source (useful as a diagnostic input)."""
    _integer("n", n, 0)
    probs = np.zeros(n + 1)
    probs[n] = 1.0
    return PhotonDistribution(probs=probs, tail_mass=0.0)


def _scaled_hermite(
    y: complex,
    t: float,
    log_scale: float = 0.0,
    w_prev: complex = 0j,
    w: complex = 1.0 + 0j,
    n: int = 0,
):
    """Yield u_n * exp(log_scale) for n = 0, 1, 2, ..., where
    u_n = H_n(x) t^(n/2) / sqrt(n!) and y = sqrt(t) x, from

        u_{n+1} = (2y u_n - 2t sqrt(n) u_{n-1}) / sqrt(n+1),

    which stays regular as t -> 0.  The iterates carry a running log-scale:
    when one passes _RESCALE_AT, both are divided by it, so none overflows.
    A recurrence stopped before entry ``n`` resumes from its iterates
    ``w_prev`` and ``w`` and its ``log_scale``, yielding entry n first.
    """
    y2, t2 = 2.0 * y, 2.0 * t
    scale = math.exp(log_scale)
    sqrt_n = math.sqrt(n)
    while True:
        yield w * scale
        n += 1
        sqrt_next = math.sqrt(n)
        w_prev, w = w, (y2 * w - t2 * sqrt_n * w_prev) / sqrt_next
        sqrt_n = sqrt_next
        if abs(w) > _RESCALE_AT:
            w_prev /= _RESCALE_AT
            w /= _RESCALE_AT
            log_scale += _LOG_RESCALE_AT
            scale = math.exp(log_scale)


def hermite_scaled(n_max: int, x: complex, t: float) -> np.ndarray:
    """Scaled Hermite values u_n = H_n(x) * t^(n/2) / sqrt(n!) for n = 0..n_max.

    H_n is the physicists' Hermite polynomial.  The recurrence

        u_{n+1} = sqrt(4t/(n+1)) * x * u_n - 2t * sqrt(n/(n+1)) * u_{n-1}

    folds the t^(n/2)/sqrt(n!) scaling into every step, so no factorial or
    bare polynomial value is ever formed.  It is the recurrence that builds
    ``squeezed_distribution``.
    """
    if n_max < 0:
        raise InvalidParameterError("n_max", "must be >= 0")
    x = complex(x)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise InvalidParameterError("x", "must be finite")
    if not (0.0 <= t <= 0.5):
        raise InvalidParameterError("t", f"must lie in [0, 0.5], got {t}")
    terms = itertools.islice(_scaled_hermite(math.sqrt(t) * x, t), n_max + 1)
    return np.fromiter(terms, dtype=complex, count=n_max + 1)


def coherent_distribution(alpha: float, tol: float = _DEFAULT_TOL) -> PhotonDistribution:
    """Poisson photon-number distribution of a coherent state of amplitude
    ``alpha`` (mean alpha**2), truncated so the tail is below ``tol``: the
    r = 0 case of ``squeezed_distribution``."""
    return squeezed_distribution(StateParams(r=0.0, theta=0.0, alpha=alpha), tol)


def _check_tol(tol: float) -> None:
    if not (0.0 < _real("tol", tol) <= 1e-6):
        raise InvalidParameterError("tol", f"must lie in (0, 1e-6], got {tol}")


def _recurrence_start(r: float, theta: float, alpha: float) -> tuple[complex, float, float]:
    """y, t and the initial log-scale of the recurrence of the state
    (r, theta, alpha) (see ``squeezed_distribution``)."""
    y = alpha * cmath.exp(-0.5j * theta) / (2.0 * math.cosh(r))
    t = math.tanh(r) / 2.0
    log_pref = -alpha * alpha + alpha * alpha * math.cos(theta) * math.tanh(r) - math.log(math.cosh(r))
    return y, t, 0.5 * log_pref


def _kept_length(count: int) -> int:
    """Entries kept when the first ``count`` entries leave a tail below tol."""
    return min(max(2 * count, count + _SUPPORT_MARGIN), N_HARD_MAX + 1)


def _truncation_error(state: tuple[float, float, float], tol: float) -> TruncationError:
    r, theta, alpha = state
    return TruncationError(
        f"squeezed state (r={r:g}, theta={theta:g}, alpha={alpha:g}) does not "
        f"reach tail < {tol:g} within {N_HARD_MAX} photon numbers"
    )


def _squared_moduli(
    terms, state: tuple[float, float, float], tol: float, n: int = 0, mass: float = 0.0,
    n_keep: int = 0,
) -> list[float]:
    """p = |u|^2 of the recurrence ``terms`` of ``state`` (r, theta, alpha)
    from entry ``n`` on, the first
    ``n`` entries summing to ``mass``, up to the kept length: ``n_keep``, or
    when that is 0, ``_kept_length`` of the first entry count whose tail is
    below ``tol``.  Each p is h * h with h = |u|, rounded as in
    ``packed_distributions``."""
    probs: list[float] = []
    if not n_keep:
        for u in itertools.islice(terms, N_HARD_MAX + 1 - n):
            h = abs(u)
            p = h * h
            probs.append(p)
            mass += p
            if 1.0 - mass < tol:
                break
        else:
            raise _truncation_error(state, tol)
        n_keep = _kept_length(n + len(probs))
    probs += [h * h for h in map(abs, itertools.islice(terms, n_keep - n - len(probs)))]
    return probs


def squeezed_distribution(params: StateParams, tol: float = _DEFAULT_TOL) -> PhotonDistribution:
    """Photon-number distribution of the displaced squeezed state (Yuen,
    PRA 13, 2226 (1976)).

    p_n = |u_n|^2 exp(-alpha^2 + alpha^2 cos(theta) tanh r) / cosh r, with
    u_n the scaled Hermite values of x = alpha e^{-i theta/2} /
    sqrt(2 cosh r sinh r) at t = tanh(r)/2; the real form of the exponent
    holds because alpha is real.  The recurrence runs in y = sqrt(t) x =
    alpha e^{-i theta/2} / (2 cosh r), so r = 0 is the coherent state, and
    the prefactor seeds its log-scale, so neither exp(-alpha^2) nor a huge
    |u_n|^2 is ever formed.  One pass stops at the first n_mass whose tail
    is below ``tol`` and keeps max(2 (n_mass + 1), n_mass + 1 + margin)
    entries, at most N_HARD_MAX + 1.  TruncationError when the tail is
    still above ``tol`` at N_HARD_MAX.
    """
    _check_tol(tol)
    state = params.r, params.theta, params.alpha
    y, t, log_scale = _recurrence_start(*state)
    kept = np.array(_squared_moduli(_scaled_hermite(y, t, log_scale), state, tol))
    return PhotonDistribution(probs=kept, tail_mass=max(0.0, 1.0 - float(kept.sum())))


# Below this many unfinished columns ``packed_distributions`` hands each one
# to the scalar recurrence: one vectorized step costs about as much as this
# many scalar steps.
_HANDOFF_COLUMNS = 32

# Kept length of a column whose tail has not yet fallen below tol.
_UNKNOWN = N_HARD_MAX + 2


def packed_distributions(
    states: Sequence[tuple[float, float, float]], tol: float = _DEFAULT_TOL
) -> np.ndarray:
    """The photon-number distributions of ``states``, (r, theta, alpha)
    triples of Python floats that pass the ``StateParams`` checks, as the
    columns of one zero-padded N x K matrix, N the widest support: column k
    is ``squeezed_distribution(StateParams(*states[k]), tol).probs`` bit for
    bit, then zeros.

    The recurrence of ``squeezed_distribution`` runs for all unfinished
    columns at once, one numpy step per photon number, in real float64
    arithmetic that rounds exactly as Python's complex arithmetic does in
    ``_scaled_hermite``; each column keeps its own log-scale.  A column
    leaves the batch at its kept length, and once fewer than
    ``_HANDOFF_COLUMNS`` are left, each finishes in ``_scaled_hermite`` from
    its current iterates.  TruncationError, with the message of
    ``squeezed_distribution``, names the first state that does not converge.
    """
    _check_tol(tol)
    states = list(states)
    if not states:
        raise InvalidParameterError("states", "need at least one state")
    starts = [_recurrence_start(*s) for s in states]
    k = len(starts)
    y2r = 2.0 * np.array([y.real for y, _, _ in starts])
    y2i = 2.0 * np.array([y.imag for y, _, _ in starts])
    # Complex products as real rows: with w = (wr, wi) and w[::-1] = (wi, wr),
    # 2y w = y2r * w + (-y2i, y2i) * w[::-1], rounded as Python rounds it.
    y2_cross = np.stack([-y2i, y2i])
    t2 = 2.0 * np.array([t for _, t, _ in starts])
    log_scale = np.array([ls for _, _, ls in starts])
    scale = np.array([math.exp(ls) for _, _, ls in starts])
    # The live columns, their iterates w and w_prev as (real, imag) rows,
    # running mass, tol (-inf once met) and kept length.
    cols = np.arange(k)
    w, w_prev = np.zeros((2, k)), np.zeros((2, k))
    w[0] = 1.0
    mass, tols, n_keep = np.zeros(k), np.full(k, tol), np.full(k, _UNKNOWN)
    next_done, unmet = _UNKNOWN, k
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    n, sqrt_n = 0, 0.0
    hypot, count = np.hypot, np.count_nonzero
    while cols.size >= _HANDOFF_COLUMNS:
        u = w * scale
        h = hypot(u[0], u[1])
        p = h * h
        rows.append((cols, p))
        n += 1
        if unmet:
            mass += p
            met = 1.0 - mass < tols
            if newly := count(met):
                unmet -= newly
                n_keep[met] = _kept_length(n)
                tols[met] = -math.inf
                next_done = min(next_done, _kept_length(n))
            if n == N_HARD_MAX + 1 and unmet:
                raise _truncation_error(states[cols[n_keep == _UNKNOWN][0]], tol)
        if n == next_done:
            live = n_keep != n
            cols, mass, tols, n_keep = cols[live], mass[live], tols[live], n_keep[live]
            y2r, y2_cross, t2 = y2r[live], y2_cross[:, live], t2[live]
            log_scale, scale = log_scale[live], scale[live]
            w, w_prev = w[:, live], w_prev[:, live]
            if not cols.size:
                break
            next_done = int(n_keep.min())
        # One step of _scaled_hermite: w_prev, w = w, (2y w - 2t sqrt(n-1) w_prev) / sqrt(n).
        sqrt_next = math.sqrt(n)
        w, w_prev = (y2r * w + y2_cross * w[::-1] - (t2 * sqrt_n) * w_prev) / sqrt_next, w
        sqrt_n = sqrt_next
        big = hypot(w[0], w[1]) > _RESCALE_AT
        if count(big):
            w[:, big] /= _RESCALE_AT
            w_prev[:, big] /= _RESCALE_AT
            for j in np.flatnonzero(big).tolist():
                log_scale[j] += _LOG_RESCALE_AT
                scale[j] = math.exp(log_scale[j])
    width = len(rows)
    tails = []
    for j, col in enumerate(cols.tolist()):
        y, t, _ = starts[col]
        terms = _scaled_hermite(
            y, t, float(log_scale[j]), complex(*w_prev[:, j]), complex(*w[:, j]), n
        )
        known = int(n_keep[j]) if n_keep[j] != _UNKNOWN else 0
        tail = np.array(_squared_moduli(terms, states[col], tol, n, float(mass[j]), known))
        tails.append((col, tail))
        width = max(width, n + tail.size)
    packed = np.zeros((k, width))
    for i, (at, p) in enumerate(rows):
        packed[at, i] = p
    for col, tail in tails:
        packed[col, n : n + tail.size] = tail
    return packed.T
