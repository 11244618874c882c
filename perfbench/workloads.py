"""Seeded inputs, operations and correctness gates of the four workloads.

Every input is plain data (floats, ints, strings, dicts) generated from the
seed with the standard library only, so input generation neither imports
nor depends on hbt4.  Parameters come from a Kronecker (additive
recurrence) lattice with a seeded random offset: each seed gives a
different input sequence, and any run prefix covers the parameter domain
evenly, which keeps run-to-run spread low without narrowing the domain.

Each workload defines:

- ``unit``: what ``units_per_s`` counts;
- ``warmup(seed)``: the untimed first operation, fixed in size so that
  set-up time does not depend on the seed;
- ``inputs(seed)``: an endless iterator of operation inputs;
- ``run(hbt4, inp)``: one operation, the timed call into the public API;
- ``units(inp, result)``: units of work the operation did;
- ``check(hbt4, inp, result)``: None when the output is correct, else a
  one-line reason.  Runs outside the timed section.
- ``probe(seed)``, optional: untimed inputs over the workload's whole
  domain, where the timed inputs cover only part of it.

Calls go through module attributes at call time (``hbt4.sweep(...)``,
``hbt4.tableio.to_csv(...)``) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import cmath
import math
import random
from itertools import count, islice

TWO_PI = 2.0 * math.pi
MC_CHUNK = 1 << 20


class Lattice:
    """Points u_i in [0, 1)^dims: u_i = frac(offset + i * a) with a the
    generalized golden ratio powers (Roberts' R_d sequence) and the offset
    drawn from the seed."""

    def __init__(self, seed: int, dims: int, stream: int = 0):
        phi = 2.0
        for _ in range(64):
            phi = (1.0 + phi) ** (1.0 / (dims + 1))
        self.step = [(1.0 / phi ** (k + 1)) % 1.0 for k in range(dims)]
        rng = random.Random(f"{seed}:{stream}")
        self.offset = [rng.random() for _ in range(dims)]

    def point(self, i: int) -> list[float]:
        return [(o + i * a) % 1.0 for o, a in zip(self.offset, self.step)]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _uniform(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0.0 else abs(a - b)


# --------------------------------------------------------------------- scans
# 1-D sweeps as in the presets, each followed by to_csv; three sweeps in four
# run the click chain and one the closed form.  Detection is fixed within a
# sweep.  Click sweeps keep to the presets' click-chain domain (fig3, fig5:
# r <= 1, alpha <= 1), where supports are mostly below 60 photons; closed-form
# sweeps span the fig2map domain (r <= 1.5, alpha <= 2).  Click points at
# r > 1 have supports of 500 to 1200 and belong to the strong workload.

SCAN_DOMAIN = {
    "click": {"alpha": (1e-3, 1.0, "log"), "r": (1e-4, 1.0, "log"),
              "theta": (0.0, TWO_PI, "linear")},
    "ideal": {"alpha": (1e-3, 2.0, "log"), "r": (1e-4, 1.5, "log"),
              "theta": (0.0, TWO_PI, "linear")},
}
MULTINOMIAL_MAX_SUPPORT = 60


def _scan_input(u: list[float], pipeline: str) -> dict:
    domain = SCAN_DOMAIN[pipeline]
    axis = ("alpha", "r", "theta")[min(2, int(u[0] * 3))]
    points = 101 + min(60, int(u[1] * 61))
    return {
        "axis": axis,
        "points": points,
        "pipeline": pipeline,
        "r": _log_uniform(u[2], domain["r"][0], domain["r"][1]),
        "theta": _uniform(u[3], 0.0, TWO_PI),
        "alpha": _log_uniform(u[4], domain["alpha"][0], domain["alpha"][1]),
        "eta": _uniform(u[5], 0.1, 1.0),
        "gamma": _log_uniform(u[6], 1e-9, 1e-2),
        "check_row": min(points - 1, int(u[7] * points)),
    }


class Scans:
    name = "scans"
    unit = "points"

    @staticmethod
    def warmup(seed: int) -> dict:
        u = Lattice(seed, 8, stream=1).point(0)
        inp = _scan_input(u, "click")
        inp.update(axis="theta", points=101, r=1e-3, alpha=0.032)
        inp["check_row"] = min(inp["check_row"], 100)
        return inp

    @staticmethod
    def inputs(seed: int):
        lattice = Lattice(seed, 8)
        for i in count():
            yield _scan_input(lattice.point(i), "ideal" if i % 4 == 3 else "click")

    @staticmethod
    def _spec(hbt4, inp: dict):
        lo, hi, scale = SCAN_DOMAIN[inp["pipeline"]][inp["axis"]]
        return hbt4.SweepSpec(
            axes=(hbt4.SweepAxis(inp["axis"], lo, hi, inp["points"], scale),),
            state=hbt4.StateParams(r=inp["r"], theta=inp["theta"], alpha=inp["alpha"]),
            detection=hbt4.DetectionParams(eta=inp["eta"], gamma=inp["gamma"]),
            pipeline=inp["pipeline"],
        )

    @classmethod
    def run(cls, hbt4, inp: dict):
        table = hbt4.sweep(cls._spec(hbt4, inp))
        return table, hbt4.tableio.to_csv(table)

    @staticmethod
    def units(inp: dict, result) -> int:
        return len(result[0].rows)

    @classmethod
    def check(cls, hbt4, inp: dict, result) -> str | None:
        table, csv = result
        if len(table.rows) != inp["points"] or csv.count("\n") != inp["points"] + 1:
            return f"table has {len(table.rows)} rows, csv {csv.count(chr(10))} lines"
        row = table.rows[inp["check_row"]]
        values = dict(r=inp["r"], theta=inp["theta"], alpha=inp["alpha"])
        values[inp["axis"]] = row.axis_values[0]
        state = hbt4.StateParams(**values)
        got = (row.g2, row.g3, row.g4)
        if inp["pipeline"] == "ideal":
            # Criterion 4: closed form against the factorial-moment oracle.
            ref = hbt4.factorial_moments(hbt4.squeezed_distribution(state))
            worst = max(_rel(g, m) for g, m in zip(got, (ref.g2, ref.g3, ref.g4)))
            if not worst <= 1e-6:
                return f"ideal row {inp['check_row']}: {worst:.2e} from factorial moments"
            return None
        det = hbt4.DetectionParams(eta=inp["eta"], gamma=inp["gamma"])
        dist = hbt4.apply_detection(hbt4.squeezed_distribution(state), det)
        clicks = hbt4.click_probabilities(dist)
        if len(dist) <= MULTINOMIAL_MAX_SUPPORT:
            # Criterion 5: occupancy closed form against the multinomial route.
            ref = hbt4.multinomial_click_probabilities(dist)
            diff = max(abs(a - b) for a, b in zip(clicks.probs, ref.probs))
            if not diff <= 1e-12:
                return f"click row {inp['check_row']}: routes differ by {diff:.2e}"
            clicks = ref
        expect = hbt4.coherence_from_clicks(clicks)
        worst = max(_rel(g, e) for g, e in zip(got, (expect.g2, expect.g3, expect.g4)))
        if not worst <= 1e-9:
            return f"click row {inp['check_row']}: g differs by {worst:.2e} from its clicks"
        return None


# -------------------------------------------------------------------- minmap
# Small fig4 maps: a seeded (gamma, eta) sub-grid of 2 x 2 cells, all three
# orders, the preset's default 60 coarse amplitudes and amplitude bounds.
# One map size keeps operation times alike, so a run's percentiles rest on
# about a hundred operations of one kind rather than on its size mix.

MINMAP_ORDERS = (2, 3, 4)
MINMAP_POINTS = 2


def _minmap_input(u: list[float]) -> dict:
    g = sorted(_log_uniform(x, 1e-9, 1e-2) for x in u[:2])
    e = sorted(_uniform(x, 0.1, 1.0) for x in u[2:4])
    return {
        "gamma_min": g[0], "gamma_max": g[1], "gamma_points": MINMAP_POINTS,
        "eta_min": e[0], "eta_max": e[1], "eta_points": MINMAP_POINTS,
        "orders": list(MINMAP_ORDERS),
    }


class Minmap:
    name = "minmap"
    unit = "cell-orders"

    @staticmethod
    def warmup(seed: int) -> dict:
        return _minmap_input(Lattice(seed, 4, stream=1).point(0))

    @staticmethod
    def inputs(seed: int):
        lattice = Lattice(seed, 4)
        for i in count():
            yield _minmap_input(lattice.point(i))

    @staticmethod
    def run(hbt4, inp: dict):
        return hbt4.presets.build_preset("fig4", inp)

    @staticmethod
    def units(inp: dict, result) -> int:
        return inp["gamma_points"] * inp["eta_points"] * len(inp["orders"])

    @staticmethod
    def check(hbt4, inp: dict, result) -> str | None:
        """Re-evaluating the reported alpha_min reproduces the row value to
        1e-9 relative plus the change of g across the rounding interval of
        alpha_min, which the preset prints to 6 significant digits."""
        params, tables, _ = result
        for order in inp["orders"]:
            rows = tables[f"gmin{order}"].rows
            if len(rows) != inp["gamma_points"] * inp["eta_points"]:
                return f"gmin{order} has {len(rows)} rows"
            for row in rows:
                gamma, eta = row.axis_values
                alpha = float(row.diagnostics.removeprefix("alpha_min="))
                half_digit = 0.5 * 10.0 ** (math.floor(math.log10(alpha)) - 5)
                det = hbt4.DetectionParams(eta=eta, gamma=gamma)
                g = []
                for a in (alpha, alpha - half_digit, alpha + half_digit):
                    state = hbt4.StateParams(r=params["r"], theta=params["theta"], alpha=a)
                    triple = hbt4.evaluate_point(state, det, "click")
                    g.append((triple.g2, triple.g3, triple.g4)[order - 2])
                got = (row.g2, row.g3, row.g4)[order - 2]
                budget = 1e-9 * abs(g[0]) + max(abs(g[1] - g[0]), abs(g[2] - g[0]))
                if not abs(got - g[0]) <= budget:
                    return (f"gmin{order} at gamma={gamma:.3g}, eta={eta:.3g}: "
                            f"{got!r} vs {g[0]!r} at alpha_min={alpha!r}")
        return None


# -------------------------------------------------------------------- strong
# Single click-chain points at strong displacement and feasible detection.
# The workload's domain stops at closed-form mean photon number 1200, so the
# 4096-entry support cap is never a legitimate reason for a refusal.  From
# a mean of about 530 up, the program refuses a growing share of the points
# today, more than half above 600 (overflowing recurrence: TruncationError,
# InvalidParameterError and RuntimeWarnings).  Timed operations keep below a mean of 500, where every
# point is accepted; the refusals are measured on every run by an untimed
# probe over the whole domain and reported as ``accepted_frac``.

STRONG_MAX_MEAN = 500.0
PROBE_MAX_MEAN = 1200.0
PROBE_POINTS = 128
STRONG_ETA, STRONG_GAMMA = 0.5, 1e-5


def closed_form_mean(r: float, theta: float, alpha: float) -> float:
    """Mean photon number |alpha (cosh r - e^{i theta} sinh r)|^2 + sinh^2 r."""
    w = alpha * (math.cosh(r) - cmath.exp(1j * theta) * math.sinh(r))
    return abs(w) ** 2 + math.sinh(r) ** 2


def _strong_inputs(lattice: Lattice, max_mean: float):
    for i in count():
        u = lattice.point(i)
        inp = {
            "r": _uniform(u[0], 0.0, 0.5),
            "theta": _uniform(u[1], 0.0, TWO_PI),
            "alpha": _log_uniform(u[2], 3.0, 40.0),
        }
        if closed_form_mean(**inp) < max_mean:
            yield inp


class Strong:
    name = "strong"
    unit = "points"

    @staticmethod
    def warmup(seed: int) -> dict:
        u = Lattice(seed, 3, stream=1).point(0)
        return {"r": _uniform(u[0], 0.0, 0.5), "theta": _uniform(u[1], 0.0, TWO_PI),
                "alpha": 3.0 + u[2]}

    @staticmethod
    def inputs(seed: int):
        return _strong_inputs(Lattice(seed, 3), STRONG_MAX_MEAN)

    @staticmethod
    def probe(seed: int) -> list[dict]:
        """Seeded points over the whole domain, overflow band included."""
        return list(islice(_strong_inputs(Lattice(seed, 3, stream=2), PROBE_MAX_MEAN),
                           PROBE_POINTS))

    @staticmethod
    def run(hbt4, inp: dict):
        state = hbt4.StateParams(**inp)
        det = hbt4.DetectionParams(eta=STRONG_ETA, gamma=STRONG_GAMMA)
        return hbt4.evaluate_point(state, det, "click")

    @staticmethod
    def units(inp: dict, result) -> int:
        return 1

    @staticmethod
    def check(hbt4, inp: dict, result) -> str | None:
        state = hbt4.StateParams(**inp)
        closed = hbt4.ideal_coherence(state)
        dist = hbt4.squeezed_distribution(state)
        moments = hbt4.factorial_moments(dist)
        for label, got, want in (
            ("mean", dist.mean, closed.mean_clicks),
            ("g2", moments.g2, closed.g2),
            ("g4", moments.g4, closed.g4),
        ):
            if not _rel(got, want) <= 1e-9:
                return f"{label} {got!r} vs closed form {want!r}"
        return None


# ------------------------------------------------------------------------ mc
# run_mc calls of two 2^20-trial chunks, alternating full-chain configs like
# acceptance criterion 6 with stratified weak-field configs at the paper's
# regime.  The gate compares each click probability with the deterministic
# chain at the two-sided 5-sigma level.  Unlike criterion 6, these configs
# are not filtered for well-populated click counts, so a count whose
# expected number is small (rare four-fold events) is judged by its exact
# Poisson tail instead of a normal pull, which one chance event would fail.

MC_TRIALS = 2 * MC_CHUNK
MC_PULL_MAX = 5.0
MC_TAIL_MIN = 0.5 * math.erfc(MC_PULL_MAX / math.sqrt(2.0))
MC_POISSON_BELOW = 20.0


def poisson_tails(n: int, mu: float) -> tuple[float, float]:
    """P(K <= n) and P(K >= n) for K ~ Poisson(mu)."""
    def term(k: int) -> float:
        return math.exp(k * math.log(mu) - mu - math.lgamma(k + 1)) if mu > 0 else float(k == 0)
    upto = math.fsum(term(k) for k in range(n + 1))
    beyond = math.fsum(term(k) for k in range(n, n + 400))
    return min(1.0, upto), min(1.0, beyond)


def _mc_input(u: list[float], i: int, seed_base: int) -> dict:
    if i % 2 == 0:
        return {
            "mode": "full",
            "r": _uniform(u[0], 0.05, 0.5),
            "theta": _uniform(u[1], 0.0, TWO_PI),
            "alpha": _uniform(u[2], 0.4, 1.2),
            "eta": _uniform(u[3], 0.3, 0.9),
            "gamma": _uniform(u[4], 0.02, 0.3),
            "condition_min_photons": 0,
            "trials": MC_TRIALS,
            "seed": seed_base + i,
        }
    return {
        "mode": "stratified",
        "r": _log_uniform(u[0], 7e-4, 1.4e-3),
        "theta": _uniform(u[1], 0.0, TWO_PI),
        "alpha": _log_uniform(u[2], 0.021, 0.042),
        "eta": 0.5,
        "gamma": 1e-5,
        "condition_min_photons": 2,
        "trials": MC_TRIALS,
        "seed": seed_base + i,
    }


class Mc:
    name = "mc"
    unit = "trials"

    @staticmethod
    def warmup(seed: int) -> dict:
        inp = _mc_input(Lattice(seed, 5, stream=1).point(0), 1, 0)
        inp["seed"] = random.Random(f"{seed}:mc-warmup").getrandbits(32)
        return inp

    @staticmethod
    def inputs(seed: int):
        lattice = Lattice(seed, 5)
        seed_base = random.Random(f"{seed}:mc").getrandbits(32)
        for i in count():
            yield _mc_input(lattice.point(i), i, seed_base)

    @staticmethod
    def config(hbt4, inp: dict):
        return hbt4.McConfig(
            trials=inp["trials"],
            seed=inp["seed"],
            state=hbt4.StateParams(r=inp["r"], theta=inp["theta"], alpha=inp["alpha"]),
            detection=hbt4.DetectionParams(eta=inp["eta"], gamma=inp["gamma"]),
            condition_min_photons=inp["condition_min_photons"],
        )

    @classmethod
    def run(cls, hbt4, inp: dict):
        return hbt4.run_mc(cls.config(hbt4, inp))

    @staticmethod
    def units(inp: dict, result) -> int:
        return inp["trials"]

    @classmethod
    def expected(cls, hbt4, inp: dict) -> tuple[list[float], list[float], list[float]]:
        """Exact click probabilities, the exact standard error of the
        estimator and the expected click counts: one stratum in full-chain
        mode; in stratified mode the strata {L < k} and {L >= k} with trials
        split evenly, remainder to the first."""
        config = cls.config(hbt4, inp)
        transformed = hbt4.apply_detection(
            hbt4.squeezed_distribution(config.state, config.tol), config.detection
        )
        k = config.condition_min_photons
        if k == 0:
            p = list(hbt4.click_probabilities(transformed).probs)
            se = [math.sqrt(x * (1.0 - x) / config.trials) for x in p]
            return p, se, [x * config.trials for x in p]
        q = list(transformed.probs)
        strata = []
        for lo, hi in ((0, k), (k, len(q))):
            w = math.fsum(q[lo:hi])
            if w > 0.0:
                cond = [0.0] * lo + [x / w for x in q[lo:hi]]
                part = hbt4.PhotonDistribution(probs=cond, tail_mass=0.0)
                strata.append((w, list(hbt4.click_probabilities(part).probs)))
        per = config.trials // len(strata)
        counts = [per] * len(strata)
        counts[0] += config.trials - per * len(strata)
        p = [math.fsum(w * ps[j] for w, ps in strata) for j in range(5)]
        se = [
            math.sqrt(math.fsum(w * w * ps[j] * (1.0 - ps[j]) / t
                                for (w, ps), t in zip(strata, counts)))
            for j in range(5)
        ]
        mu = [math.fsum(t * ps[j] for (_, ps), t in zip(strata, counts)) for j in range(5)]
        return p, se, mu

    @classmethod
    def check(cls, hbt4, inp: dict, result) -> str | None:
        p, se, mu = cls.expected(hbt4, inp)
        for j in range(5):
            n = int(result.click_histogram[j])
            if mu[j] < MC_POISSON_BELOW:
                low, high = poisson_tails(n, mu[j])
                if min(low, high) < MC_TAIL_MIN:
                    return f"{n} runs with {j} clicks where {mu[j]:.3g} are expected"
                continue
            pull = abs(float(result.gamma_hat[j]) - p[j]) / se[j]
            if not pull <= MC_PULL_MAX:
                return f"G_{j} pull {pull:.2f} > {MC_PULL_MAX} standard errors"
        return None

    @classmethod
    def rerun_identical(cls, hbt4, inp: dict, result) -> bool:
        again = cls.run(hbt4, inp)
        return bool(
            (again.click_histogram == result.click_histogram).all()
            and (again.gamma_hat == result.gamma_hat).all()
        )


WORKLOADS = {w.name: w for w in (Scans, Minmap, Strong, Mc)}
