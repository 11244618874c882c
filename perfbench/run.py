"""Benchmark of hbt4: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (hbt4 is imported from ``./src``, never from
an installed copy):

    python3 perfbench/run.py --workload scans --seed 1 --seconds 26 --trace 0

Workloads (see ``workloads.py`` for inputs and correctness gates):

    scans   1-D sweeps + to_csv, weak-to-moderate fields   unit: points
    minmap  small fig4 maps (amplitude-minimized)           unit: cell-orders
    strong  single click-chain points at strong fields      unit: points
    mc      run_mc, full-chain and stratified               unit: trials

Each run is a closed loop of one client in one process: the next operation
starts when the previous one returns, until the operations have taken
``--seconds``.  The first operation is an untimed warm-up.  Every operation
is gated for correctness right after it returns, outside its timing; an
exception, a RuntimeWarning or a failed gate fails the operation and the run
goes on.

``--trace 0`` reports the end-to-end metrics:

    units_per_s   units of passed operations / time in operations units/s
    op_p50_ms     median operation time                          ms
    op_p90_ms     90th-percentile operation time                 ms
    accepted_frac share of the probe the program accepts          ratio
    setup_s       median over 5 fresh processes of importing hbt4
                  and finishing the warm-up operation            s
    peak_rss_mb   peak resident memory of this process plus the
                  largest child it waited for                    MB

The probe is a set of inputs over the workload's whole input domain.  On
``strong`` it is 128 seeded points, run untimed after the timed loop, and it
holds the points the program refuses today; on the other workloads the
timed operations cover the whole domain and are the probe.  A probe input
is accepted when it raises nothing, warns nothing and passes its gate.

``--trace 1`` runs every operation twice, once with every layer's public
functions wrapped (``tracing.py``) and once without, alternating the order,
and reports per-layer counts and self times of the traced runs, plus
``trace.overhead_frac``: traced over untraced operation time, minus one.
Spans, and per run a result file with the provenance and every failure, are
written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the provenance.  ``correct`` is false when a completed operation or
probe input returned a wrong result; refused or warning operations count in
``failed``, refused probe inputs in ``accepted_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    inp: dict
    seconds: float
    result: object = None
    error: str | None = None
    wrong: bool = False
    units: int = 0


def import_hbt4(root: Path):
    """Import hbt4 from ``root/src``; refuse any other copy."""
    src = (root / "src").resolve()
    if not (src / "hbt4" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hbt4 sources under {src}")
    sys.path.insert(0, str(src))
    import hbt4
    import hbt4.presets
    import hbt4.tableio

    if Path(hbt4.__file__).resolve().parent != src / "hbt4":
        raise SystemExit(f"perfbench: imported hbt4 from {hbt4.__file__}, not {src}")
    return hbt4


def run_op(workload, hbt4, inp: dict) -> Outcome:
    """One timed operation; exceptions and RuntimeWarnings fail it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            result, error = workload.run(hbt4, inp), None
        except Exception as exc:  # the loop must go on; the reason is reported
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if runtime:
        note = f"{len(runtime)} RuntimeWarning(s), first: {runtime[0].message}"
        error = note if error is None else f"{error}; {note}"
    return Outcome(inp, seconds, result, error)


def gate(workload, hbt4, o: Outcome, rerun: bool = False) -> None:
    """Correctness gate of one completed operation, run outside its timing.
    Sets the failure reason and the units the operation earned, then drops
    the result so a run's memory does not grow with its length.  ``rerun``
    also repeats the operation where the workload requires a bit-identical
    seeded rerun."""
    if o.result is not None:
        try:
            reason = workload.check(hbt4, o.inp, o.result)
            if reason is None and rerun and hasattr(workload, "rerun_identical"):
                if not workload.rerun_identical(hbt4, o.inp, o.result):
                    reason = "seeded rerun differs"
        except Exception as exc:  # a gate that cannot run fails its operation
            reason = f"gate raised {type(exc).__name__}: {exc}"
        if reason is not None:
            o.wrong = True
            o.error = f"check: {reason}" if o.error is None else f"{o.error}; check: {reason}"
        if o.error is None:
            o.units = workload.units(o.inp, o.result)
    o.result = None


def timed_loop(workload, hbt4, inputs, seconds: float):
    """Closed loop over ``inputs`` until the operations took ``seconds``;
    each operation is gated right after it returns."""
    outcomes = []
    timed = 0.0
    for inp in inputs:
        if timed >= seconds:
            break
        o = run_op(workload, hbt4, inp)
        timed += o.seconds
        gate(workload, hbt4, o, rerun=not outcomes)
        outcomes.append(o)
    return outcomes, timed


def run_probe(workload, hbt4, seed: int, outcomes: list[Outcome]) -> list[Outcome]:
    """The workload's probe, gated; a workload without one is its own probe."""
    if not hasattr(workload, "probe"):
        return outcomes
    probe = [run_op(workload, hbt4, inp) for inp in workload.probe(seed)]
    for o in probe:
        gate(workload, hbt4, o)
    return probe


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_probe(root: Path, workload, seed: int) -> float:
    """Fresh-process set-up: import hbt4, finish the warm-up operation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
           "--seed", str(seed), "--seconds", "1", "--probe-setup"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root, args, workload, outcomes, units) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "ops": len(outcomes),
        "units": units,
        "unit": workload.unit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": git_commit(root),
    }


def end_to_end(root, args, workload, hbt4, setup_main: float):
    inputs = workload.inputs(args.seed)
    outcomes, timed = timed_loop(workload, hbt4, inputs, args.seconds)
    rss = peak_rss_mb()
    probe = run_probe(workload, hbt4, args.seed, outcomes)
    setups = [setup_main] + [setup_probe(root, workload, args.seed)
                             for _ in range(SETUP_SAMPLES - 1)]
    times_ms = [o.seconds * 1e3 for o in outcomes]
    units = sum(o.units for o in outcomes)
    failed = sum(o.error is not None for o in outcomes)
    metrics = {
        "units_per_s": (units / timed, "units/s"),
        "op_p50_ms": (statistics.median(times_ms), "ms"),
        "op_p90_ms": (percentile(times_ms, 90.0), "ms"),
        "accepted_frac": (sum(o.error is None for o in probe) / len(probe), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = [
        f"ops {len(outcomes)} in {timed:.3f} s; {units} {workload.unit} passed",
        f"failed_frac = {failed / len(outcomes)!r} ({failed} of {len(outcomes)} ops)",
        f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    return outcomes, probe, metrics, notes, None


def traced(root, args, workload, hbt4):
    """Each operation runs twice, once traced and once not, alternating
    which goes first; the untraced twin measures the tracing overhead."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    outcomes = []
    plain_s = traced_s = 0.0
    for i, inp in enumerate(workload.inputs(args.seed)):
        if plain_s + traced_s >= args.seconds:
            break
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain_s += run_op(workload, hbt4, inp).seconds
                continue
            tracer.op = i
            tracer.install()
            try:
                o = run_op(workload, hbt4, inp)
            finally:
                tracer.restore()
            traced_s += o.seconds
            gate(workload, hbt4, o, rerun=not outcomes)
            outcomes.append(o)
    probe = run_probe(workload, hbt4, args.seed, outcomes)
    metrics = layer_metrics(tracer.spans)
    metrics["probe.points"] = (len(probe), "count")
    metrics["probe.refused"] = (sum(o.error is not None for o in probe), "count")
    metrics["trace.untraced_s"] = (plain_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    metrics["trace.ops"] = (len(outcomes), "count")
    notes = [f"ops {len(outcomes)}: untraced {plain_s:.3f} s, traced {traced_s:.3f} s"]
    return outcomes, probe, metrics, notes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    root = Path.cwd()
    # One closed-loop client with no extra threads: pin BLAS pools to one
    # thread unless the caller chose otherwise.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    workload = WORKLOADS[args.workload]
    warmup = workload.warmup(args.seed)

    t0 = time.perf_counter()
    hbt4 = import_hbt4(root)
    run_op(workload, hbt4, warmup)
    setup_main = time.perf_counter() - t0
    if args.probe_setup:
        print(repr(setup_main))
        return 0

    if args.trace:
        outcomes, probe, metrics, notes, tracer = traced(root, args, workload, hbt4)
    else:
        outcomes, probe, metrics, notes, tracer = end_to_end(root, args, workload, hbt4, setup_main)
    units = sum(o.units for o in outcomes)
    failures = [{"input": o.inp, "error": o.error} for o in outcomes if o.error is not None]
    refusals = ([] if probe is outcomes else
                [{"input": o.inp, "error": o.error} for o in probe if o.error is not None])
    prov = provenance(root, args, workload, outcomes, units)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(out_dir / f"spans-{stem}.tsv")
    result = {
        "correct": not any(o.wrong for o in outcomes + probe),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out_dir / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "result": result, "failures": failures,
                   "probe_refusals": refusals}, fh, indent=1)

    for line in notes:
        print(f"# {line}")
    for label, listed in (("failures", failures), ("probe refusals", refusals)):
        reasons = [f["error"].split(":", 1)[0] for f in listed]
        for reason in sorted(set(reasons)):
            print(f"# {label}: {reasons.count(reason)} x {reason}")
    if probe is not outcomes:
        print(f"# probe: {len(probe) - len(refusals)} of {len(probe)} inputs accepted")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
