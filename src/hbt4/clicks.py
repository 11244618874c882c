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
photon by photon.  Row 0 is the click distribution of the noise alone:
each detector receives its own Poisson(gamma / 4) share of the
background, so the number that fire is Binomial(4, 1 - exp(-gamma / 4)).
Each further photon is lost or lands on one of the four detectors, which
moves the distribution one step of the on/off click model of Sperling,
Vogel & Agarwal, PRA 85, 023820 (2012), in O(n).  The operator of the
last detector asked for is kept, so that a state costs one matrix-vector
product, and a grid of states packed as matrix columns one matrix
product.  Column n is the click distribution of exactly n photons,
whatever the support it is used with.  The per-distribution chain,
``click_probabilities`` of ``detection.apply_detection``, is its
reference.

Every order of coherence is read from the five click probabilities by
one formula, the click correlation of the same paper
(``coherence_from_clicks``).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .detection import DetectionParams
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


def _undefined(mean: float, quantity: str) -> str | None:
    """Why a coherence normalized by the mean ``quantity`` ("photon" or
    "click") number ``mean`` is undefined, or None where it is defined.
    Every g_k divides by <n>^k, so zero has no coherence at all.  Below
    <n>^4 = sys.float_info.min, the fourth-order moment (about <n>^4 / 256
    for a weak field) is deep in the subnormal range, so g4 would lose its
    digits to underflow, read 0 and, once <n>^4 itself underflows, NaN or
    a division by zero."""
    if mean <= 0.0:
        return f"mean {quantity} number is zero; coherence undefined"
    if mean**4 < sys.float_info.min:
        return f"mean {quantity} number too small to resolve g4 (<n>^4 underflows); coherence undefined"
    return None


# The click operator of the last detector asked for, under its
# (eta, gamma): at most one entry.  Sweeps, extremum searches and
# minimized-map cells evaluate their states at one detector in a row, so
# one entry serves them.
_last_operator: dict[tuple[float, float], np.ndarray] = {}


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


def _build_click_operator(eta: float, gamma: float, width: int) -> np.ndarray:
    """``width`` x 5 click operator, one row per photon number before
    detection.

    Row 0 is the click distribution of the noise alone, Binomial(4, q):
    each detector receives its own Poisson(gamma / 4) share of the
    background and fires with probability q = 1 - exp(-gamma / 4),
    independently.  Row n + 1 is row n after one more photon, in two sub-steps: with j detectors fired, a
    landing photon leaves j fired with probability j/4 and fires a new one
    with probability (4 - j)/4 (exact dyadic weights), and the photon
    lands with probability eta or is lost with probability 1 - eta.  Every
    step is a convex combination of non-negative numbers, so nothing
    cancels; the build costs O(width), and row n does not depend on
    ``width``.
    """
    q, s = -math.expm1(-gamma / 4), math.exp(-gamma / 4)
    entries = [math.comb(4, j) * q**j * s ** (4 - j) for j in range(5)]
    keep = 1.0 - eta
    a0, a1, a2, a3, a4 = entries
    for _ in range(1, width):
        b1 = 0.25 * a1 + a0
        b2 = 0.5 * a2 + 0.75 * a1
        b3 = 0.75 * a3 + 0.5 * a2
        b4 = a4 + 0.25 * a3
        # Folding eta into the landing weights would round them, and the
        # rows would drift by about 1e-14 relative over a few hundred steps.
        a0, a1, a2 = keep * a0, keep * a1 + eta * b1, keep * a2 + eta * b2
        a3, a4 = keep * a3 + eta * b3, keep * a4 + eta * b4
        entries += (a0, a1, a2, a3, a4)
    op = np.array(entries).reshape(width, N_DETECTORS + 1)
    op.setflags(write=False)
    return op


def _click_operator(eta: float, gamma: float, n: int) -> np.ndarray:
    """5 x ``n`` matrix whose column m is the click distribution of exactly
    m photons before loss ``eta`` and noise ``gamma``.

    The operator of the last (eta, gamma) is kept and, when a larger ``n``
    is asked for, rebuilt at least twice as wide, up to N_HARD_MAX + 1.
    A column does not depend on the width it was built with, so results
    never depend on what is kept.
    """
    key = (float(eta), float(gamma))
    op = _last_operator.get(key)
    if op is None or len(op) < n:
        width = n if op is None else max(n, min(2 * len(op), N_HARD_MAX + 1))
        op = _build_click_operator(*key, width)
        _last_operator.clear()
        _last_operator[key] = op
    return op[:n].T


def detected_clicks(dist: PhotonDistribution, detection: DetectionParams) -> ClickDistribution:
    """Click probabilities of ``dist`` after the detection chain, by one
    product with the cached click operator.  Equals
    ``click_probabilities(apply_detection(dist, detection))`` up to
    rounding and the reference chain's truncated noise kernel; the defect
    is the state's tail mass alone."""
    op = _click_operator(detection.eta, detection.gamma, len(dist))
    return ClickDistribution(probs=op @ dist.probs, defect=dist.tail_mass)


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


# Weights of the click correlations: g_k = sum_j w_kj G_j / <n>^k, with
# w_kj = 4^k C(j, k) / C(4, k) in entry k - 2, position j; zero for j < k.
_CORRELATION_WEIGHTS = tuple(
    tuple(4**k * math.comb(j, k) / math.comb(N_DETECTORS, k) for j in range(N_DETECTORS + 1))
    for k in (2, 3, 4)
)


def _coincidence_ratios(probs, n) -> tuple:
    """g2, g3 and g4 of the click distribution ``probs`` (5 entries, or
    5 x K with one distribution per column) with mean click number ``n``
    (a number, or K of them), from ``_CORRELATION_WEIGHTS``."""
    ratios = []
    for k, w in enumerate(_CORRELATION_WEIGHTS, start=2):
        total = 0.0
        for j in range(k, N_DETECTORS + 1):
            total = total + w[j] * probs[j]
        # n * n, not n**2, which is np.square for an array and pow() for a
        # number: the two can round differently.
        ratios.append(total / (n * n if k == 2 else n**k))
    return tuple(ratios)


def coherence_from_clicks(clicks: ClickDistribution) -> CoherenceTriple:
    """Click correlations of Sperling, Vogel & Agarwal, PRA 85, 023820
    (2012): the probability that a fixed set of k detectors all fire over
    the k-th power of the probability that one fires.  With G_j the
    probability of exactly j clicks and <n> = sum j*G_j,

        g_k = 4^k sum_j C(j, k) G_j / (C(4, k) <n>^k),

    so g2 = (8/3 G_2 + 8 G_3 + 16 G_4) / <n>^2, g3 = 16 (G_3 + 4 G_4) / <n>^3
    and g4 = 256 G_4 / <n>^4.  Independently firing detectors (a coherent
    state, noise alone) give every g_k = 1.  NoSignalError when <n> is zero
    or <n>^4 is below the smallest normal float (``_undefined``).
    """
    n = clicks.mean_clicks
    if reason := _undefined(n, "click"):
        raise NoSignalError(reason)
    g2, g3, g4 = _coincidence_ratios(clicks.probs, n)
    return CoherenceTriple(g2=g2, g3=g3, g4=g4, mean_clicks=n)


def click_coherence(dist: PhotonDistribution) -> CoherenceTriple:
    """Coherence of a fully transformed distribution via the click model."""
    return coherence_from_clicks(click_probabilities(dist))
