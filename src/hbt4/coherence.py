"""Closed-form coherence of the displaced squeezed state, plus the
factorial-moment definition usable on any photon-number distribution.

The state S(xi) D(alpha)|0> with xi = r e^{i theta} is Gaussian.  Its field
is a = W + cosh r c + s c+ on the vacuum of c, with

    displacement   W = alpha (cosh r - e^{i theta} sinh r)
    squeezing      s = -e^{i theta} sinh r
    pair moment    m = <b b> = -e^{i theta} cosh r sinh r

so a^k|0> = sum_j C(k, j) s^j h_{k-j} c+^j|0>, where the h_l are Hermite
values: h_0 = 1, h_1 = W, h_{l+1} = W h_l + l m h_{l-1}.  The normally
ordered moments are then sums of non-negative terms,

    N_k = <a+^k a^k> = sum_j C(k, j)^2 j! sinh^{2j} r |h_{k-j}|^2,

and g^(k) = N_k / N_1^k.  Any cancellation stays inside h (h_2 = W^2 + m),
so g^(k) keeps its digits at an antibunching dip, where the Wick pairings
of <a+^k a^k>, whose terms have both signs, lose them.  ``_normal_moments``
evaluates the sums for one state or a whole grid of them in the same
operations, so a grid and its points agree bit for bit; the results are
cross-validated against direct summation over the photon-number
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


def _each(f, x):
    """``f`` of a number, or of every entry of an array, one ``math`` call
    each, so that a grid rounds as its points do."""
    if isinstance(x, np.ndarray):
        return np.array([f(v) for v in x.tolist()])
    return f(x)


def _normal_moments(r, theta, alpha, k_max: int) -> list:
    """N_1..N_k_max = <a+^k a^k> of the states (r, theta, alpha): numbers,
    or float arrays holding one state per entry.

    The sums of the module docstring, in real arithmetic on (real, imag)
    pairs, so that numbers and arrays take the same roundings: numpy's
    elementwise +, -, * round as Python's float operations, and the
    transcendentals go through ``math`` entry by entry.
    """
    ch, sh = _each(math.cosh, r), _each(math.sinh, r)
    c, s = _each(math.cos, theta), _each(math.sin, theta)
    nb = sh * sh
    chsh = ch * sh
    wr, wi = alpha * (ch - c * sh), -(alpha * (s * sh))
    mr, mi = -(c * chsh), -(s * chsh)
    # h_l as (real, imag) pairs: h_{l+1} = W h_l + l m h_{l-1}.
    h = [(1.0, 0.0), (wr, wi)]
    for l in range(1, k_max):
        (pr, pi), (hr, hi) = h[l - 1], h[l]
        h.append(
            (wr * hr - wi * hi + l * (mr * pr - mi * pi), wr * hi + wi * hr + l * (mr * pi + mi * pr))
        )
    moduli = [hr * hr + hi * hi for hr, hi in h]
    moments = []
    for k in range(1, k_max + 1):
        total, nb_j, weight = moduli[k], 1.0, 1
        for j in range(1, k + 1):
            nb_j = nb_j * nb
            # C(k, j)^2 j!, from C(k, j - 1)^2 (j - 1)!.
            weight = weight * (k - j + 1) ** 2 // j
            total = total + weight * nb_j * moduli[k - j]
        moments.append(total)
    return moments


def gaussian_moments(params: StateParams) -> tuple[float, float, float, float]:
    """Normally ordered moments N_1..N_4 = <a+^k a^k> of the state."""
    return tuple(_normal_moments(params.r, params.theta, params.alpha, 4))


def _undefined(mean: float) -> str | None:
    """The UndefinedCoherenceError message of the closed form at mean
    photon number ``mean``, or None where its coherence is defined."""
    if mean <= 0.0:
        return "vacuum input: coherence undefined"
    if _unresolved(mean):
        return _UNRESOLVED
    return None


def _ratios(n1, n2, n3, n4) -> tuple:
    """g2, g3, g4 = N_k / N_1^k of moments that are numbers or arrays, in
    products rather than powers, which round differently for the two."""
    n1_2 = n1 * n1
    return n2 / n1_2, n3 / (n1_2 * n1), n4 / (n1_2 * n1_2)


def ideal_coherence(params: StateParams) -> CoherenceTriple:
    """Loss- and noise-free coherence of the state; ``mean_clicks`` carries
    the true mean photon number A = |W|^2 + sinh^2 r."""
    n1, n2, n3, n4 = _normal_moments(params.r, params.theta, params.alpha, 4)
    if reason := _undefined(n1):
        raise UndefinedCoherenceError(reason)
    return CoherenceTriple(*_ratios(n1, n2, n3, n4), mean_clicks=n1)


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
