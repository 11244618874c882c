"""Seeded stochastic simulation of the whole measurement chain.

One trial samples a photon number from the source state, thins it through
the efficiency, adds Poisson background photons, throws every surviving
photon uniformly onto one of the four detectors and records how many
detectors fired.  Estimates of the click probabilities and the click-based
coherences follow from the empirical histogram, with standard errors from
multinomial variance propagation.

Only that histogram leaves a chunk of trials, so the trials of a chunk are
exchangeable: their order carries no information, and every stage draws the
whole chunk as counts instead of one trial at a time, exactly in
distribution.  A chunk is carried as a histogram over photon totals (entry
L counts the trials holding L photons) from its first draw to its click
histogram, so its memory is O(support), whatever the number of trials.
- Photon numbers: one multinomial draw gives how many trials hold each
  photon number of the support.
- Loss: the c_k trials holding k photons keep a Binomial(k, eta) number
  each, so one multinomial draw of c_k over the Binomial(k, eta) pmf gives
  their thinned histogram.  The pmf comes from log-factorials, log(eta)
  and log1p(-eta), is cached per k, and eta = 0 and eta = 1 draw nothing.
- Background: i.i.d. Poisson(gamma) counts X are drawn as a chain of
  conditional binomials: at h = 0, 1, ..., of the trials of each total
  still in the chain, Binomial(remaining, P(X = h | X >= h)) stop at h
  background photons.  The hazards are computed in log space, the tails
  below the mean from the head and above it summed from the far end, so
  that exp(-gamma) never underflows and no tail cancels.  The chain ends at
  gamma + 40 sqrt(gamma) + 60, beyond which the Poisson tail is below
  1e-38; for gamma >= _BACKGROUND_CAP it ends at that cap, and the trials
  still in it carry _BACKGROUND_CAP background photons (a trial with that
  many photons fires all four detectors but for a probability below
  4 (3/4)^4096 < 1e-500).

Weak fields make multi-click events vanishingly rare, so the simulator
optionally stratifies on the total photon number L reaching the splitter
tree: trials are split between the exactly known strata {L < k} and
{L >= k} (sampled from the deterministic post-detection distribution) and
the estimates recombined with the exact stratum weights.  That keeps
four-click validation feasible in seconds instead of days; only the
routing combinatorics remain stochastic in that mode.

Routing is simulated photon by photon, over buckets of trials with equal
(photons left, detectors fired).  A trial with L < 2 photons at the splitter
fires exactly L detectors, so it is counted without a draw.  Each further
photon lands on a detector drawn uniformly from the four.  Detectors are
exchangeable, so with f of them fired the photon fires a new one with
probability (4 - f) / 4, and one vectorised binomial draw per photon gives
how many trials of each bucket move from f to f + 1 fired.  A bucket leaves
once it is empty, all four detectors have fired or its photons run out, so
routing ends after at most as many rounds as the largest photon total, and
in a bright field once the chunk's slowest trial has fired all four (on
average 25/3 photons do), however many photons remain.  No path uses the
occupancy table, the click operator or any other closed form for clicks,
and the full chain does not use the loss or noise transforms either, so
the simulation stays an independent check of them.

Determinism: trials are processed in chunks of at most 2^18 and every
(stratum, chunk) job draws from its own counter-based Philox stream keyed
on (seed, stratum, chunk).  The jobs are mapped over a thread pool of one
worker per available CPU, at most 4; their integer histograms are summed
per stratum after the map, so results are bit-identical for a given
McConfig regardless of worker count and scheduling.
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
# A CPU quota does not show in the affinity mask: the cap bounds the threads
# whatever the number of CPUs the host reports.
_MAX_WORKERS = 4
# Most background photons one trial is given (see the module docstring).
_BACKGROUND_CAP = 4096
# P(a photon fires a new detector) with 1, 2 and 3 of the four fired.
_FIRES_NEW = np.array([3.0, 2.0, 1.0]) / N_DETECTORS

# Photon-total histogram of ``size`` trials drawn from ``rng``: entry L
# counts the trials holding L photons at the splitter.
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


def _route_clicks(rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
    """Click-count histogram of the trials of the photon-total histogram
    ``counts``.

    A trial with 0 or 1 photons fires that many detectors.  The other trials
    are routed one photon per round, as rows of equal photon total holding
    the number of trials with 1, 2 and 3 detectors fired; one binomial draw
    per round moves the trials whose photon fires a new detector.  A row is
    counted and dropped once its photons run out or none of its trials has a
    detector left to fire.
    """
    hist = np.zeros(N_DETECTORS + 1, dtype=np.int64)
    hist[: min(2, counts.size)] = counts[:2]
    totals = np.flatnonzero(counts[2:]) + 2
    live = np.zeros((totals.size, N_DETECTORS - 1), dtype=np.int64)
    live[:, 0] = counts[totals]
    routed = 1
    while totals.size:
        new = rng.binomial(live, _FIRES_NEW)
        live -= new
        live[:, 1:] += new[:, :-1]
        hist[N_DETECTORS] += new[:, -1].sum()
        routed += 1
        spent = totals == routed
        hist[1:N_DETECTORS] += live[spent].sum(axis=0)
        keep = ~spent & live.any(axis=1)
        totals, live = totals[keep], live[keep]
    return hist


def _source_distribution(config: McConfig) -> PhotonDistribution:
    if config.source is not None:
        return config.source
    return squeezed_distribution(config.state, config.tol)


def _binomial_law(k: int, eta: float, log_factorial: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes and pmf of Binomial(k, eta), 0 < eta < 1, for one multinomial
    draw: outcomes whose probability underflows are left out, and the mode
    goes last.  numpy's multinomial draws each entry against the mass not
    yet drawn, 1 minus a running sum; with the mode last that mass never
    falls below the mode's, so no conditional probability cancels."""
    j = np.arange(k + 1)
    log_p = (
        log_factorial[k] - log_factorial[: k + 1] - log_factorial[k::-1]
        + j * math.log(eta) + (k - j) * math.log1p(-eta)
    )
    p = np.exp(log_p - log_p.max())
    outcomes = np.flatnonzero(p)
    p = p[outcomes] / p[outcomes].sum()
    order = np.roll(np.arange(p.size), -1 - int(np.argmax(p)))
    return outcomes[order], p[order]


def _poisson_hazards(gamma: float) -> np.ndarray:
    """Hazards P(X = h | X >= h), h = 0 .. H - 1, of X ~ Poisson(``gamma``),
    gamma > 0: H = ceil(gamma + 40 sqrt(gamma) + 60), where the last hazard
    is 1, or H = _BACKGROUND_CAP for gamma >= _BACKGROUND_CAP.  Tails at
    h <= gamma are 1 minus the head sum; beyond, they are summed from the
    far end."""
    if gamma < _BACKGROUND_CAP:
        size = math.ceil(gamma + 40.0 * math.sqrt(gamma) + 60.0)
    else:
        size = _BACKGROUND_CAP
    h = np.arange(size)
    log_factorial = np.array([math.lgamma(n + 1.0) for n in range(size)])
    log_pmf = h * math.log(gamma) - gamma - log_factorial
    head = min(size, math.floor(gamma) + 1)
    log_tail = np.empty(size)
    log_tail[0] = 0.0
    log_tail[1:head] = np.log1p(-np.exp(np.logaddexp.accumulate(log_pmf[: head - 1])))
    log_tail[head:] = np.logaddexp.accumulate(log_pmf[head:][::-1])[::-1]
    return np.minimum(np.exp(log_pmf - log_tail), 1.0)


def _sampler(probs: np.ndarray, offset: int = 0, eta: float = 1.0, gamma: float = 0.0) -> Sampler:
    """Photon-total histograms at the splitter: ``offset`` plus a draw from
    ``probs``, thinned by binomial loss at efficiency ``eta``, plus
    Poisson(``gamma``) background photons."""
    # Inverse-CDF law of ``probs``: mass beyond the support (below the
    # distribution tolerance) goes to the last entry, and a sum that rounds
    # above 1 is cut off there.
    cdf = np.minimum(np.cumsum(probs), 1.0)
    cdf[-1] = 1.0
    pvals = np.diff(cdf, prepend=0.0)
    if 0.0 < eta < 1.0:
        log_factorial = np.array([math.lgamma(n + 1.0) for n in range(probs.size)])
        # Shared by the chunks of every worker: a law computed twice by two
        # threads is the same array either way.
        laws: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    hazards = _poisson_hazards(gamma) if gamma > 0.0 else None

    def thin(rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
        if eta == 0.0:
            return np.array([counts.sum()])
        thinned = np.zeros_like(counts)
        thinned[0] = counts[0]
        for k in np.flatnonzero(counts[1:]) + 1:
            if (law := laws.get(k)) is None:
                law = laws.setdefault(k, _binomial_law(k, eta, log_factorial))
            outcomes, p = law
            thinned[outcomes] += rng.multinomial(counts[k], p)
        return thinned

    def add_background(rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
        totals = np.flatnonzero(counts)
        left = counts[totals]
        noisy = np.zeros(counts.size + hazards.size + 1, dtype=np.int64)
        # A zero hazard draws nothing and consumes no random numbers.
        for h in np.flatnonzero(hazards):
            stop = rng.binomial(left, hazards[h])
            noisy[totals + h] += stop
            left -= stop
            if not left.any():
                return noisy
        noisy[totals + hazards.size] += left
        return noisy

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        counts = rng.multinomial(size, pvals)
        if eta < 1.0:
            counts = thin(rng, counts)
        if hazards is not None:
            counts = add_background(rng, counts)
        return np.concatenate((np.zeros(offset, dtype=np.int64), counts)) if offset else counts

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
