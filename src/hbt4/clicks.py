"""Joint click statistics of four on/off detectors behind a balanced
splitter tree.

Three 50/50 beam splitters route every photon to one of four detectors
with equal probability 1/4, so the number of detectors that fire is the
number of occupied cells when L photons are thrown uniformly into 4 boxes.
``click_probabilities`` evaluates the closed-form occupancy expression
(inclusion-exclusion, one shared table for all photon numbers); the literal
multinomial routing sums are kept in ``multinomial_click_probabilities`` as
the O(L^3) reference path the closed form is validated against.

For a fixed detector (eta, gamma) the whole chain, occupancy after noise
after loss, is one linear map from photon numbers before detection to the
five click probabilities.  ``_click_operator`` builds that 5 x n matrix
from the same positive pieces (occupancy rows, a correlation with the
Poisson noise kernel, a de Casteljau pass for the binomial loss) and
keeps the operator of the last detector asked for, so that a state costs
one matrix-vector product, and a grid of states packed as matrix columns
one matrix product.  Column n is the click distribution of exactly
n photons, whatever the support it is used with.  The per-distribution
chain, ``click_probabilities`` of ``detection.apply_detection``, is its
reference.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .detection import DetectionParams, _noise_kernel
from .errors import InvalidParameterError, NoSignalError
from .states import N_HARD_MAX, PhotonDistribution

N_DETECTORS = 4


@dataclass(frozen=True)
class ClickDistribution:
    """Probabilities that exactly 0..4 detectors fire in one window.

    ``defect`` is the probability mass of the truncated photon-number tail
    that could not be assigned to any click count; it is reported rather
    than silently folded into the zero-click bucket.
    """

    probs: np.ndarray
    defect: float = 0.0

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.shape != (N_DETECTORS + 1,):
            raise InvalidParameterError("probs", "must have exactly 5 entries")
        # NaN fails the comparison through min; +-inf makes the sum non-finite.
        if not (probs.min() >= 0.0 and math.isfinite(probs.sum())):
            raise InvalidParameterError("probs", "entries must be finite and >= 0")

    @property
    def mean_clicks(self) -> float:
        return float(np.arange(N_DETECTORS + 1) @ self.probs)


@dataclass(frozen=True)
class CoherenceTriple:
    """Second-, third- and fourth-order coherence plus the mean (click or
    photon) number they were normalized with."""

    g2: float
    g3: float
    g4: float
    mean_clicks: float


# The click operator of the last detector asked for, and its kernel tail,
# under its (eta, gamma): at most one entry.  Sweeps, extremum searches and
# minimized-map cells evaluate their states at one detector in a row, so
# one entry serves them.
_last_operator: dict[tuple[float, float], tuple[np.ndarray, float]] = {}

# Every _FLUSH_EVERY loss steps, operator entries below _NEGLIGIBLE are set
# to 0.  That moves no click probability by more than about 1e-249, while
# left alone such entries decay into subnormal numbers, whose arithmetic
# made a 4097-column build about six times slower.
_NEGLIGIBLE = 1e-250
_FLUSH_EVERY = 16


@functools.lru_cache(maxsize=None)
def _occupancy_rows(size: int) -> np.ndarray:
    """``size`` x 5 table whose row L holds P(exactly j of 4 equally likely
    cells occupied | L balls) for j = 0..4, via inclusion-exclusion over
    the empty cells."""
    L = np.arange(size, dtype=float)
    table = np.zeros((size, N_DETECTORS + 1))
    for j in range(N_DETECTORS + 1):
        for i in range(j + 1):
            table[:, j] += (-1) ** i * math.comb(j, i) * ((j - i) / N_DETECTORS) ** L
        table[:, j] *= math.comb(N_DETECTORS, j)
    table.setflags(write=False)
    return table


def _occupancy_table(length: int) -> np.ndarray:
    """The first ``length`` rows of the shared occupancy table, which is
    built at power-of-two sizes.  Every entry is computed elementwise, so
    it does not depend on the size of the table it comes from."""
    return _occupancy_rows(max(64, 1 << (length - 1).bit_length()))[:length]


def click_probabilities(dist: PhotonDistribution) -> ClickDistribution:
    """All five click probabilities of the transformed photon-number
    distribution, computed by the occupancy closed form."""
    lam = dist.probs
    probs = np.maximum(lam @ _occupancy_table(lam.size), 0.0)
    return ClickDistribution(probs=probs, defect=dist.tail_mass)


def _build_click_operator(eta: float, gamma: float, width: int) -> tuple[np.ndarray, float]:
    """``width`` x 5 click operator, one row per photon number before
    detection, and the noise-kernel tail.

    Occupancy rows over width + K photon numbers, K the noise-kernel
    length, in a valid correlation with the Poisson kernel give the clicks
    of m photons after noise; a de Casteljau pass then averages them over
    the Binomial(n, eta) survivors: after step k, row 0 of the working
    array is row k of the operator.  Every step is a convex combination of
    non-negative numbers, so nothing cancels, and every entry is computed
    elementwise (negligible ones flushed to 0 at fixed steps), so a row
    does not depend on ``width``.
    """
    if gamma == 0.0:
        noisy, kernel_tail = _occupancy_table(width).copy(), 0.0
    else:
        kernel, kernel_tail = _noise_kernel(gamma)
        occupancy = _occupancy_table(width + kernel.size - 1)
        noisy = kernel[0] * occupancy[:width]
        for k in range(1, kernel.size):
            noisy += kernel[k] * occupancy[k : k + width]
    if eta == 1.0:
        op = noisy
    elif eta == 0.0:
        op = np.repeat(noisy[:1], width, axis=0)
    else:
        keep = 1.0 - eta
        op = np.empty_like(noisy)
        op[0] = noisy[0]
        survivors = np.empty_like(noisy)
        for k in range(1, width):
            rest = width - k
            np.multiply(noisy[1 : rest + 1], eta, out=survivors[:rest])
            noisy[:rest] *= keep
            noisy[:rest] += survivors[:rest]
            op[k] = noisy[0]
            if k % _FLUSH_EVERY == 0:
                head = noisy[:rest]
                head[head < _NEGLIGIBLE] = 0.0
    op.setflags(write=False)
    return op, kernel_tail


def _click_operator(eta: float, gamma: float, n: int) -> tuple[np.ndarray, float]:
    """5 x ``n`` matrix whose column m is the click distribution of exactly
    m photons before loss ``eta`` and noise ``gamma``, and the probability
    mass the truncated noise kernel leaves out.

    The operator of the last (eta, gamma) is kept and, when a larger ``n``
    is asked for, rebuilt at least twice as wide, up to N_HARD_MAX + 1.
    A column does not depend on the width it was built with, so results
    never depend on what is kept.
    """
    key = (float(eta), float(gamma))
    entry = _last_operator.get(key)
    if entry is None or len(entry[0]) < n:
        width = n if entry is None else max(n, min(2 * len(entry[0]), N_HARD_MAX + 1))
        entry = _build_click_operator(*key, width)
        _last_operator.clear()
        _last_operator[key] = entry
    op, kernel_tail = entry
    return op[:n].T, kernel_tail


def detected_clicks(dist: PhotonDistribution, detection: DetectionParams) -> ClickDistribution:
    """Click probabilities of ``dist`` after the detection chain, by one
    product with the cached click operator.  Equals
    ``click_probabilities(apply_detection(dist, detection))`` up to
    rounding, with the same defect."""
    op, kernel_tail = _click_operator(detection.eta, detection.gamma, len(dist))
    probs = np.maximum(op @ dist.probs, 0.0)
    return ClickDistribution(probs=probs, defect=min(1.0, dist.tail_mass + kernel_tail))


@functools.lru_cache(maxsize=None)
def _multinomial_inner_sums(L: int) -> tuple[int, int, int]:
    """Exact integer values of the nested splitter sums for L photons:
    the two-, three- and four-detector multinomial counts."""
    s2 = sum(math.comb(L, k1) for k1 in range(1, L)) if L >= 2 else 0
    s3 = (
        sum(
            math.comb(L, k1) * math.comb(k1, k3)
            for k1 in range(2, L)
            for k3 in range(1, k1)
        )
        if L >= 3
        else 0
    )
    s4 = (
        sum(
            math.comb(L, k1) * math.comb(k1, k3) * math.comb(L - k1, k5)
            for k1 in range(2, L - 1)
            for k3 in range(1, k1)
            for k5 in range(1, L - k1)
        )
        if L >= 4
        else 0
    )
    return s2, s3, s4


def multinomial_click_probabilities(dist: PhotonDistribution) -> ClickDistribution:
    """Reference evaluation by the literal nested multinomial routing sums.

    Inner sums run over the photon splits at each beam splitter and are
    accumulated in exact integer arithmetic (cached per photon number)
    before the single 4^-L scaling.  Cost grows cubically with the support;
    intended for validation, not for the production pipeline.
    """
    lam = dist.probs
    probs = np.zeros(N_DETECTORS + 1)
    if lam.size > 0:
        probs[0] = lam[0]
    for L in range(1, lam.size):
        w = lam[L] * 0.25**L
        if w == 0.0:
            continue
        s2, s3, s4 = _multinomial_inner_sums(L)
        probs[1] += 4.0 * w
        probs[2] += 6.0 * w * float(s2)
        probs[3] += 4.0 * w * float(s3)
        probs[4] += w * float(s4)
    return ClickDistribution(probs=probs, defect=dist.tail_mass)


# Coincidence weights of the click estimators.  With G_j the probability
# of exactly j clicks and <n> = sum_j j G_j, entry k - 2 holds the divisor
# d_k and the pairs (j, w_kj) of the nonzero weights in
#
#     g_k = sum_j w_kj G_j / (d_k <n>^k):
#
# g2 = (8 G_2 + 24 G_3 + 48 G_4) / (3 <n>^2), g3 = 16 G_3 / <n>^3 and
# g4 = 256 G_4 / <n>^4.
_COINCIDENCE_WEIGHTS = (
    (3.0, ((2, 8.0), (3, 24.0), (4, 48.0))),
    (1.0, ((3, 16.0),)),
    (1.0, ((4, 256.0),)),
)

_NO_SIGNAL = "mean click number is zero; coherence undefined"
_UNRESOLVED = "mean click number too small to resolve g4 (<n>^4 underflows); coherence undefined"


def _unresolved(n: float) -> bool:
    """Whether a positive mean (click or photon) number ``n`` is too small
    to resolve g4: below <n>^4 = sys.float_info.min, the fourth-order
    moment (G_4, about <n>^4 / 256 for a weak field) is deep in the
    subnormal range, so g4 would lose its digits to underflow, read 0 and,
    once <n>^4 itself underflows, NaN or a division by zero."""
    return n**4 < sys.float_info.min


def _no_signal(n: float) -> str | None:
    """The NoSignalError message for mean click number ``n``, or None where
    the coherence is defined.  Zero has no signal at all; a positive mean
    may be too small to resolve (``_unresolved``)."""
    if n <= 0.0:
        return _NO_SIGNAL
    if _unresolved(n):
        return _UNRESOLVED
    return None


def _coincidence_ratios(probs, n) -> tuple:
    """g2, g3 and g4 of the click distribution ``probs`` (5 entries, or
    5 x K with one distribution per column) with mean click number ``n``
    (a number, or K of them), from ``_COINCIDENCE_WEIGHTS``."""
    numerators = []
    for _, weights in _COINCIDENCE_WEIGHTS:
        total = 0.0
        for j, w in weights:
            total = total + w * probs[j]
        numerators.append(total)
    g2, g3, g4 = numerators
    # Each denominator is written out so that it rounds as it always has.
    (d2, _), (d3, _), (d4, _) = _COINCIDENCE_WEIGHTS
    return g2 / (d2 * n * n), g3 / (d3 * n**3), g4 / (d4 * n**4)


def coherence_from_clicks(clicks: ClickDistribution) -> CoherenceTriple:
    """Click-based coherence estimators, from the coincidence weights in
    ``_COINCIDENCE_WEIGHTS``.

    With G_i the probability of exactly i clicks and <n> = sum i*G_i:

        g2 = (8 G_2 + 24 G_3 + 48 G_4) / (3 <n>^2)
        g3 = 16 G_3 / <n>^3
        g4 = 256 G_4 / <n>^4

    g2 and g4 average over the detector groupings: g2 counts every pair of
    fired detectors, in two-, three- and four-click events, and g4 has the
    single grouping of all four.  g3 uses exactly-three-click events only;
    the grouping average would be 16 (G_3 + 4 G_4) / <n>^3.  The two agree
    in the weak-field limit, where G_4 is negligible next to G_3, but not
    at strong fields, where g3 falls towards 0 as nearly every window
    fires all four detectors.  NoSignalError when <n> is zero or so small
    that <n>^4 is below the smallest normal float (``_no_signal``).
    """
    n = clicks.mean_clicks
    if reason := _no_signal(n):
        raise NoSignalError(reason)
    g2, g3, g4 = _coincidence_ratios(clicks.probs, n)
    return CoherenceTriple(g2=g2, g3=g3, g4=g4, mean_clicks=n)


def click_coherence(dist: PhotonDistribution) -> CoherenceTriple:
    """Coherence of a fully transformed distribution via the click model."""
    return coherence_from_clicks(click_probabilities(dist))
