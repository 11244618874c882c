"""Detection-chain transforms: binomial loss followed by Poisson noise.

Loss (the overall efficiency eta of the measurement arm) thins the
photon-number distribution binomially; dark counts and stray light add a
Poissonian background of mean gamma by discrete convolution.  The physical
chain applies loss first and noise second; ``apply_detection`` pins that
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .states import PhotonDistribution, _check_fields

# The rules of the detection fields, as ``states._STATE_RULES``.
_DETECTION_RULES = {
    "eta": ("must lie in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0)),
    "gamma": ("must be finite and >= 0", lambda v: (v >= 0.0) & (v < math.inf)),
}


@dataclass(frozen=True)
class DetectionParams:
    """Overall efficiency ``eta`` in [0, 1] and mean background-noise photon
    number ``gamma`` >= 0."""

    eta: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        _check_fields(self, _DETECTION_RULES)


def bernoulli_loss(dist: PhotonDistribution, eta: float) -> PhotonDistribution:
    """Binomially thinned distribution: each photon survives with
    probability ``eta`` independently.

    Output support equals input support; the input tail mass is carried
    over unchanged (conservative: lost tail photons are never credited to
    the retained range).
    """
    if not (math.isfinite(eta) and 0.0 <= eta <= 1.0):
        raise InvalidParameterError("eta", f"must lie in [0, 1], got {eta}")
    if eta == 1.0:
        return dist
    p = dist.probs
    size = p.size
    if eta == 0.0:
        out = np.zeros(size)
        out[0] = p.sum()
        return PhotonDistribution(probs=out, tail_mass=dist.tail_mass)
    # w holds the Binomial(n, eta) pmf, advanced one photon at a time via
    # Pascal's recurrence; out accumulates p_n-weighted rows.  Avoids any
    # factorial and keeps dyadic eta (e.g. 0.5) exact.
    keep = 1.0 - eta
    out = np.zeros(size)
    w = np.zeros(size)
    w[0] = 1.0
    out[0] += p[0]
    for n in range(1, size):
        w[n] = eta * w[n - 1]
        if n > 1:
            w[1:n] = keep * w[1:n] + eta * w[: n - 1]
        w[0] *= keep
        if p[n] != 0.0:
            out[: n + 1] += p[n] * w[: n + 1]
    return PhotonDistribution(probs=out, tail_mass=dist.tail_mass)


def _poisson_pmf(gamma: float, k_max: int) -> np.ndarray:
    k = np.arange(k_max + 1)
    log_factorial = np.array([math.lgamma(i + 1.0) for i in range(k_max + 1)])
    return np.exp(k * math.log(gamma) - gamma - log_factorial)


def noise_kernel_length(gamma: float) -> int:
    """Support of the Poisson noise kernel; keeps the neglected kernel tail
    below 1e-12 for any gamma up to 1e4."""
    return int(math.ceil(gamma + 10.0 * math.sqrt(gamma) + 20.0))


def _noise_kernel(gamma: float) -> tuple[np.ndarray, float]:
    """Truncated Poisson noise kernel of mean ``gamma`` > 0 and the
    probability mass it leaves out."""
    kernel = _poisson_pmf(gamma, noise_kernel_length(gamma))
    return kernel, max(0.0, 1.0 - float(kernel.sum()))


def noise_convolve(dist: PhotonDistribution, gamma: float) -> PhotonDistribution:
    """Convolution of ``dist`` with a Poisson background of mean ``gamma``:

        q_L = sum_{m<=L} p_m * gamma^(L-m) e^(-gamma) / (L-m)!

    The support grows by the kernel length so the added truncation error
    stays below 1e-12.
    """
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise InvalidParameterError("gamma", f"must be finite and >= 0, got {gamma}")
    if gamma == 0.0:
        return dist
    kernel, kernel_tail = _noise_kernel(gamma)
    out = np.convolve(dist.probs, kernel)
    tail = min(1.0, dist.tail_mass + kernel_tail)
    return PhotonDistribution(probs=out, tail_mass=tail)


def apply_detection(dist: PhotonDistribution, detection: DetectionParams) -> PhotonDistribution:
    """Full detection chain in the physical order: loss, then noise."""
    return noise_convolve(bernoulli_loss(dist, detection.eta), detection.gamma)
