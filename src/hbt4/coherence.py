"""Closed-form coherence of the displaced squeezed state, plus the
factorial-moment definition usable on any photon-number distribution.

The state S(xi) D(alpha)|0> with xi = r e^{i theta} is Gaussian: its photon
field is a displaced zero-mean Gaussian with

    displacement   W  = alpha (cosh r - e^{i theta} sinh r)
    occupation     nb = <b+ b>  = sinh^2 r
    pair moment    m  = <b b>   = -e^{i theta} cosh r sinh r

so the normally ordered moments N_k = <a+^k a^k> follow from Wick pairings
in (nb, m, m*) alone, and g^(k) = N_k / N_1^k.  These expressions are exact
and are cross-validated against direct summation over the photon-number
distribution in the test suite.

A second closed form for the fourth order circulates, written with the
constants C = cosh 2r + 3 sinh^2 r and D = 13 cosh^2 r + 23 cosh 2r.  That
bracket fails the cross-validation whenever alpha != 0 (its |W|^6 term and
the signs inside its mixed term are inconsistent); it is retained in
``fourth_order_variant`` purely so the disagreement can be reported next
to the trusted value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .clicks import CoherenceTriple, _unresolved
from .errors import InternalInvariantError, InvalidParameterError, UndefinedCoherenceError
from .states import PhotonDistribution, StateParams

# Tolerated imaginary residue on quantities that are real by construction.
_IMAG_TOL = 1e-10

_UNRESOLVED = "mean photon number too small to resolve g4 (<n>^4 underflows); coherence undefined"


def _check_resolved(mean: float) -> None:
    """UndefinedCoherenceError for a positive mean photon number too small
    to resolve g4, by the click chain's rule (``clicks._unresolved``)."""
    if _unresolved(mean):
        raise UndefinedCoherenceError(_UNRESOLVED)


@dataclass(frozen=True)
class AnalyticIntermediates:
    """Building blocks of the closed forms: the displaced field amplitude
    W, the mean photon number A = |W|^2 + sinh^2 r, the real
    pair-interference term B, and the squeezing constants C and D used by
    the alternative fourth-order bracket."""

    omega: complex
    a_val: float
    b_val: float
    c_val: float
    d_val: float


def analytic_intermediates(params: StateParams) -> AnalyticIntermediates:
    """Evaluate W, A, B, C, D with complex arithmetic; quantities that are
    real by construction are checked for imaginary residue."""
    r, theta = params.r, params.theta
    ch, sh = math.cosh(r), math.sinh(r)
    w = params.alpha * (ch - cmath.exp(1j * theta) * sh)
    b = (w.conjugate() ** 2 * cmath.exp(1j * theta) + w**2 * cmath.exp(-1j * theta)) * ch * sh
    if abs(b.imag) > _IMAG_TOL * (1.0 + abs(b.real)):
        raise InternalInvariantError(
            f"pair-interference term acquired an imaginary residue {b.imag!r}"
        )
    return AnalyticIntermediates(
        omega=w,
        a_val=abs(w) ** 2 + sh * sh,
        b_val=b.real,
        c_val=math.cosh(2 * r) + 3.0 * sh * sh,
        d_val=13.0 * ch * ch + 23.0 * math.cosh(2 * r),
    )


def gaussian_moments(params: StateParams) -> tuple[float, float, float, float]:
    """Normally ordered moments N_1..N_4 = <a+^k a^k> of the state."""
    inter = analytic_intermediates(params)
    sh = math.sinh(params.r)
    ch = math.cosh(params.r)
    w2 = abs(inter.omega) ** 2
    nb = sh * sh
    m2 = (ch * sh) ** 2
    B = inter.b_val
    n1 = w2 + nb
    n2 = w2**2 + 4.0 * w2 * nb + 2.0 * nb**2 - B + m2
    n3 = (
        w2**3
        + 9.0 * w2**2 * nb
        + 18.0 * w2 * nb**2
        + 6.0 * nb**3
        - 3.0 * B * (w2 + 3.0 * nb)
        + 9.0 * m2 * (w2 + nb)
    )
    n4 = (
        w2**4
        + 16.0 * w2**3 * nb
        + 72.0 * w2**2 * nb**2
        + 96.0 * w2 * nb**3
        + 24.0 * nb**4
        - 6.0 * B * (w2**2 + 8.0 * w2 * nb + 12.0 * nb**2 + 3.0 * m2)
        + 3.0 * B**2
        + m2 * (30.0 * w2**2 + 144.0 * w2 * nb + 72.0 * nb**2)
        + 9.0 * m2**2
    )
    return n1, n2, n3, n4


def ideal_coherence(params: StateParams) -> CoherenceTriple:
    """Loss- and noise-free coherence of the state; ``mean_clicks`` carries
    the true mean photon number A = |W|^2 + sinh^2 r."""
    n1, n2, n3, n4 = gaussian_moments(params)
    if n1 <= 0.0:
        raise UndefinedCoherenceError("vacuum input: coherence undefined")
    _check_resolved(n1)
    return CoherenceTriple(
        g2=n2 / n1**2, g3=n3 / n1**3, g4=n4 / n1**4, mean_clicks=n1
    )


def fourth_order_variant(params: StateParams) -> float:
    """Fourth-order coherence from the alternative D-constant bracket.

    Evaluated exactly as that form is written.  It agrees with
    ``ideal_coherence`` only at alpha = 0 and is exposed for diagnostic
    comparison (see ``fourth_order_report``), not for production use.
    """
    inter = analytic_intermediates(params)
    r = params.r
    w2 = abs(inter.omega) ** 2
    nb = math.sinh(r) ** 2
    A = inter.a_val
    B = inter.b_val
    if A <= 0.0:
        raise UndefinedCoherenceError("vacuum input: coherence undefined")
    _check_resolved(A)
    C = inter.c_val
    D = inter.d_val
    bracket = (
        3.0 * B**2
        + (3.0 - 7.0 * math.cosh(2 * r) + 13.0 * math.cosh(4 * r)) * nb**2
        + 12.0 * w2**3 * nb**3
        - 6.0 * B * (w2**2 - 8.0 * w2 * nb - 3.0 * C * nb)
        + 6.0 * w2 * nb * (2.0 * C + 3.0 * math.cosh(2 * r))
        + 4.0 * D * w2 * nb**2
    )
    return 1.0 + bracket / A**4


def fourth_order_report(params: StateParams) -> tuple[float, float, float]:
    """(trusted g4, variant g4, relative difference) for one state."""
    trusted = ideal_coherence(params).g4
    variant = fourth_order_variant(params)
    rel = abs(variant - trusted) / abs(trusted) if trusted != 0.0 else math.inf
    return trusted, variant, rel


def factorial_moments(dist: PhotonDistribution, order_max: int = 4) -> CoherenceTriple:
    """Normalized factorial moments g^(m) = <n(n-1)..(n-m+1)> / <n>^m of a
    photon-number distribution, by direct summation over the truncated
    support.  Orders above ``order_max`` are reported as NaN;
    ``mean_clicks`` carries the distribution mean.

    Accuracy at fourth order is limited by the input truncation: the
    n(n-1)(n-2)(n-3) weight amplifies tail terms, which is why
    ``squeezed_distribution`` keeps max(2 (n_mass + 1), n_mass + 17)
    entries past the first n_mass that meets its mass tolerance.
    """
    if order_max not in (2, 3, 4):
        raise InvalidParameterError("order_max", f"must be 2, 3 or 4, got {order_max}")
    p = dist.probs
    n = np.arange(p.size, dtype=float)
    mean = float(n @ p)
    if mean <= 0.0:
        raise UndefinedCoherenceError("zero-mean distribution: coherence undefined")
    _check_resolved(mean)
    out = [math.nan, math.nan, math.nan]
    weight = n.copy()
    for order in range(2, 5):
        weight = weight * (n - (order - 1))
        if order <= order_max:
            out[order - 2] = float(weight @ p) / mean**order
    return CoherenceTriple(g2=out[0], g3=out[1], g4=out[2], mean_clicks=mean)
