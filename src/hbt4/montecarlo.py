"""Seeded stochastic simulation of the whole measurement chain.

One trial samples a photon number from the source state, thins it through
the efficiency, adds Poisson background photons, throws every surviving
photon uniformly onto one of the four detectors and records how many
detectors fired.  Estimates of the click probabilities and the click-based
coherences follow from the empirical histogram, with standard errors from
multinomial variance propagation.

Only that histogram leaves a chunk of trials, so the trials of a chunk are
exchangeable: their order carries no information, and each stage may
draw the whole chunk as counts instead of one trial at a time, exactly in
distribution.
- Photon numbers: one multinomial draw gives how many trials hold each
  photon number of the support, and the trials are laid out grouped by
  that number.
- Loss: each group of k photons is thinned by one binomial draw of
  Binomial(k, eta) for all of its trials.
- Background: where gamma <= 1, the chunk's total M ~ Poisson(gamma * size)
  is drawn once and its photons are scattered uniformly over the trials,
  which gives each trial an independent Poisson(gamma) count.  Above that,
  each trial draws its own count, so memory stays bounded by the trials.

Weak fields make multi-click events vanishingly rare, so the simulator
optionally stratifies on the total photon number L reaching the splitter
tree: trials are split between the exactly known strata {L < k} and
{L >= k} (sampled from the deterministic post-detection distribution) and
the estimates recombined with the exact stratum weights.  That keeps
four-click validation feasible in seconds instead of days; only the
routing combinatorics remain stochastic in that mode.

Routing is simulated photon by photon.  A trial with L < 2 photons at the
splitter fires exactly L detectors, so it is counted without a draw.  Each
further photon of a trial with L >= 2 lands on a detector drawn uniformly
from the four.  Detectors are exchangeable, so with k of them fired they can
be labelled 0 .. k-1, and the photon fires a new one exactly when its drawn
detector is >= k.  A trial leaves the simulation when its photons run out or
all four detectors have fired, so routing draws O(1) numbers per trial in
expectation (on average 25/3 photons fire all four) and its memory is
bounded by the number of trials, however bright the field.  No
path uses the occupancy table, the click operator or any other closed form
for clicks, so the simulation stays an independent check of them.

Determinism: trials are processed in chunks of at most 2^18 and every
(stratum, chunk) job draws from its own counter-based Philox stream keyed
on (seed, stratum, chunk).  The jobs are mapped over a thread pool of one
worker per available CPU, at most 4 (numpy's samplers and array kernels
release the GIL); their integer histograms are summed per stratum after the
map, so results are bit-identical for a given McConfig regardless of worker
count and scheduling.  The cap keeps at most 4 x 2^18 = 2^20 trials in
flight, whatever the number of CPUs the host reports.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .clicks import (
    _CORRELATION_WEIGHTS,
    N_DETECTORS,
    ClickDistribution,
    CoherenceTriple,
    _coincidence_ratios,
    _undefined,
)
from .detection import DetectionParams, apply_detection
from .errors import InvalidParameterError, NoSignalError
from .states import PhotonDistribution, StateParams, _check_tol, _integer, squeezed_distribution

_CHUNK = 1 << 18
# A CPU quota does not show in the affinity mask, and each worker holds a
# chunk: the cap bounds both the threads and the memory in flight.
_MAX_WORKERS = 4

# Photon totals at the splitter for ``size`` trials, drawn from ``rng``.
Sampler = Callable[["np.random.Generator", int], np.ndarray]


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int
    state: StateParams | None = None
    detection: DetectionParams = field(default_factory=DetectionParams)
    source: PhotonDistribution | None = None
    condition_min_photons: int = 0
    tol: float = 1e-12

    def __post_init__(self):
        for name, minimum in (("trials", 1), ("seed", 0), ("condition_min_photons", 0)):
            _integer(name, getattr(self, name), minimum)
        if self.seed >= 2**64:
            raise InvalidParameterError("seed", "must be a 64-bit unsigned integer")
        if (self.state is None) == (self.source is None):
            raise InvalidParameterError("state", "give exactly one of state and source")
        if not isinstance(self.detection, DetectionParams):
            raise InvalidParameterError(
                "detection", f"must be a DetectionParams, got {self.detection!r}"
            )
        _check_tol(self.tol)


@dataclass(frozen=True)
class McResult:
    """Raw click histogram, weighted click-probability estimates with their
    standard errors, and the derived coherences with delta-method errors."""

    click_histogram: np.ndarray
    gamma_hat: np.ndarray
    gamma_se: np.ndarray
    estimated: CoherenceTriple
    estimated_se: tuple[float, float, float]


def _rng(seed: int, stratum: int, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stratum, chunk))
    return np.random.Generator(np.random.Philox(ss))


def _route_clicks(rng: np.random.Generator, totals: np.ndarray) -> np.ndarray:
    """Click-count histogram for trials with the given photon totals.

    A trial with 0 or 1 photons fires that many detectors.  The other trials
    route their photons one per round: with ``fired`` detectors labelled
    0 .. fired-1, a photon drawn onto detector ``d >= fired`` fires a new one.
    A trial is counted and dropped once its photons run out or all four
    detectors have fired.
    """
    hist = np.zeros(N_DETECTORS + 1, dtype=np.int64)
    hist[1] = np.count_nonzero(totals == 1)
    left = totals[totals >= 2]
    hist[0] = totals.size - hist[1] - left.size
    fired = np.ones(left.size, dtype=np.uint8)
    left -= 1
    while left.size:
        fired += rng.integers(0, N_DETECTORS, size=left.size, dtype=np.uint8) >= fired
        left -= 1
        done = (left == 0) | (fired == N_DETECTORS)
        hist += np.bincount(fired[done], minlength=N_DETECTORS + 1)
        fired, left = fired[~done], left[~done]
    return hist


def _source_distribution(config: McConfig) -> PhotonDistribution:
    if config.source is not None:
        return config.source
    return squeezed_distribution(config.state, config.tol)


def _sampler(probs: np.ndarray, offset: int = 0, eta: float = 1.0, gamma: float = 0.0) -> Sampler:
    """Photon totals at the splitter: ``offset`` plus a draw from ``probs``,
    thinned by binomial loss at efficiency ``eta``, plus Poisson(``gamma``)
    background photons.  The totals come out grouped by the drawn photon
    number, not in trial order."""
    # Inverse-CDF law of ``probs``: mass beyond the support (below the
    # distribution tolerance) goes to the last entry, and a sum that rounds
    # above 1 is cut off there.
    cdf = np.minimum(np.cumsum(probs), 1.0)
    cdf[-1] = 1.0
    pvals = np.diff(cdf, prepend=0.0)
    photons = np.arange(probs.size, dtype=np.int32)

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        counts = rng.multinomial(size, pvals)
        n = np.repeat(photons, counts)
        if eta < 1.0:
            end = np.cumsum(counts)
            for k in np.flatnonzero(counts[1:]) + 1:
                n[end[k] - counts[k] : end[k]] = rng.binomial(k, eta, counts[k])
        if 0.0 < gamma <= 1.0:
            # Given their sum, Poisson(gamma) counts over ``size`` trials fall
            # on the trials uniformly: memory stays O(size) while gamma <= 1.
            hits = rng.integers(0, size, rng.poisson(gamma * size))
            n += np.bincount(hits, minlength=size)
        elif gamma > 1.0:
            # int64 sum: a bright background can overflow int32 totals.
            n = n + rng.poisson(gamma, size)
        n += offset
        return n

    return draw


def _strata(
    config: McConfig, source: PhotonDistribution
) -> tuple[list[Sampler], list[float], list[int]]:
    """Samplers, exact weights and trial counts of the strata to simulate."""
    k = config.condition_min_photons
    if k == 0:
        det = config.detection
        return [_sampler(source.probs, eta=det.eta, gamma=det.gamma)], [1.0], [config.trials]
    probs = apply_detection(source, config.detection).probs
    samplers: list[Sampler] = []
    weights: list[float] = []
    head_w = float(probs[:k].sum())
    tail_w = float(probs[k:].sum())
    if head_w > 0.0:
        samplers.append(_sampler(probs[:k] / head_w))
        weights.append(head_w)
    if tail_w > 0.0:
        samplers.append(_sampler(probs[k:] / tail_w, offset=k))
        weights.append(tail_w)
    if not samplers:
        raise NoSignalError("transformed distribution carries no probability mass")
    if config.trials < len(samplers):
        raise InvalidParameterError(
            "trials", f"must be >= {len(samplers)}, one per populated stratum"
        )
    # Split trials evenly across the active strata, remainder to the first.
    per = config.trials // len(samplers)
    trial_counts = [per] * len(samplers)
    trial_counts[0] += config.trials - per * len(samplers)
    return samplers, weights, trial_counts


def _workers() -> int:
    """CPUs this process may run on (all of the host's under a CPU quota)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _histograms(
    config: McConfig, samplers: list[Sampler], trial_counts: list[int]
) -> list[np.ndarray]:
    """Per-stratum click histograms, one job per (stratum, chunk).

    The full chain draws from stream stratum 0, the strata of stratified
    mode from 1, 2, ...
    """
    first = 1 if config.condition_min_photons > 0 else 0
    jobs = [
        (s, chunk, min(_CHUNK, t_s - done))
        for s, t_s in enumerate(trial_counts)
        for chunk, done in enumerate(range(0, t_s, _CHUNK))
    ]

    def run(job: tuple[int, int, int]) -> np.ndarray:
        s, chunk, size = job
        rng = _rng(config.seed, s + first, chunk)
        return _route_clicks(rng, samplers[s](rng, size))

    workers = min(len(jobs), _workers(), _MAX_WORKERS)
    if workers > 1:
        # Imported here, not at the top: it loads logging, which nothing
        # else in hbt4 needs, and would add to every import of the package.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]
    histograms = [np.zeros(N_DETECTORS + 1, dtype=np.int64) for _ in samplers]
    for (s, _, _), hist in zip(jobs, results):
        histograms[s] += hist
    return histograms


def _coherence_gradients(gamma_hat: np.ndarray) -> tuple[np.ndarray, ...]:
    """Gradients of g2, g3 and g4 with respect to the click probabilities
    G, from the correlations' weights (``clicks._CORRELATION_WEIGHTS``):
    g_k = (w_k . G) / <n>^k with <n> = j . G has the gradient
    w_k / <n>^k - k (w_k . G) / <n>^(k+1) j."""
    j = np.arange(N_DETECTORS + 1, dtype=float)
    n = float(j @ gamma_hat)
    return tuple(
        w / n**k - (k * float(w @ gamma_hat) / n ** (k + 1)) * j
        for k, w in enumerate(np.array(_CORRELATION_WEIGHTS), start=2)
    )


def run_mc(config: McConfig) -> McResult:
    """Run the simulation and estimate click probabilities and coherences.

    Raises NoSignalError, with the result attached and NaN coherences, where
    the estimated mean click number leaves the coherence undefined
    (``clicks._undefined``): no clicks at all, or too few to resolve g4.
    """
    samplers, weights, trial_counts = _strata(config, _source_distribution(config))
    histograms = _histograms(config, samplers, trial_counts)

    click_histogram = np.sum(histograms, axis=0)
    gamma_hat = np.zeros(N_DETECTORS + 1)
    cov = np.zeros((N_DETECTORS + 1, N_DETECTORS + 1))
    for hist, w, t_s in zip(histograms, weights, trial_counts):
        p_s = hist / t_s
        gamma_hat += w * p_s
        cov += (w * w / t_s) * (np.diag(p_s) - np.outer(p_s, p_s))
    gamma_se = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    clicks = ClickDistribution(probs=np.clip(gamma_hat, 0.0, None))
    n = clicks.mean_clicks
    if reason := _undefined(n, "click"):
        nan = math.nan
        partial = McResult(
            click_histogram, gamma_hat, gamma_se, CoherenceTriple(nan, nan, nan, n), (nan, nan, nan)
        )
        raise NoSignalError(reason, result=partial)
    grads = _coherence_gradients(gamma_hat)
    return McResult(
        click_histogram=click_histogram,
        gamma_hat=gamma_hat,
        gamma_se=gamma_se,
        estimated=CoherenceTriple(*_coincidence_ratios(clicks.probs, n), mean_clicks=n),
        estimated_se=tuple(float(math.sqrt(max(0.0, g @ cov @ g))) for g in grads),
    )
