"""Photon-number distributions of displaced squeezed and coherent states.

The squeezed-state distribution oscillates with photon number and involves
Hermite polynomials of a complex argument.  Evaluating it naively overflows
for moderate photon numbers, so it is built by one scaled three-term
recurrence with a running log-scale.  The coherent state is its r = 0 case.
"""

from __future__ import annotations

import cmath
import itertools
import math
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


@dataclass(frozen=True)
class StateParams:
    """Squeezing magnitude ``r``, squeezing phase ``theta`` (radians) and
    real displacement amplitude ``alpha``."""

    r: float
    theta: float
    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.r) or self.r < 0.0:
            raise InvalidParameterError("r", f"must be finite and >= 0, got {self.r}")
        if not math.isfinite(self.theta):
            raise InvalidParameterError("theta", f"must be finite, got {self.theta}")
        if not math.isfinite(self.alpha):
            raise InvalidParameterError("alpha", f"must be finite and real, got {self.alpha}")


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
    if n < 0:
        raise InvalidParameterError("n", "photon number must be >= 0")
    probs = np.zeros(n + 1)
    probs[n] = 1.0
    return PhotonDistribution(probs=probs, tail_mass=0.0)


def _scaled_hermite(y: complex, t: float, log_scale: float = 0.0):
    """Yield u_n * exp(log_scale) for n = 0, 1, 2, ..., where
    u_n = H_n(x) t^(n/2) / sqrt(n!) and y = sqrt(t) x, from

        u_{n+1} = (2y u_n - 2t sqrt(n) u_{n-1}) / sqrt(n+1),

    which stays regular as t -> 0.  The iterates carry a running log-scale:
    when one passes _RESCALE_AT, both are divided by it, so none overflows.
    """
    y2, t2 = 2.0 * y, 2.0 * t
    scale = math.exp(log_scale)
    w_prev, w = 0j, 1.0 + 0j
    sqrt_n, n = 0.0, 0
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
    if not (0.0 < tol <= 1e-6):
        raise InvalidParameterError("tol", f"must lie in (0, 1e-6], got {tol}")
    r, theta, alpha = params.r, params.theta, params.alpha
    y = alpha * cmath.exp(-0.5j * theta) / (2.0 * math.cosh(r))
    t = math.tanh(r) / 2.0
    log_pref = -alpha * alpha + alpha * alpha * math.cos(theta) * math.tanh(r) - math.log(math.cosh(r))
    terms = _scaled_hermite(y, t, 0.5 * log_pref)
    probs: list[float] = []
    mass = 0.0
    for u in itertools.islice(terms, N_HARD_MAX + 1):
        p = abs(u) ** 2
        probs.append(p)
        mass += p
        if 1.0 - mass < tol:
            break
    else:
        raise TruncationError(
            f"squeezed state (r={r:g}, theta={theta:g}, alpha={alpha:g}) does not "
            f"reach tail < {tol:g} within {N_HARD_MAX} photon numbers"
        )
    n_keep = min(max(2 * len(probs), len(probs) + _SUPPORT_MARGIN), N_HARD_MAX + 1)
    probs += [abs(u) ** 2 for u in itertools.islice(terms, n_keep - len(probs))]
    kept = np.array(probs)
    return PhotonDistribution(probs=kept, tail_mass=max(0.0, 1.0 - float(kept.sum())))
