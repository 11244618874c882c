"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import pytest

import run
import workloads
from tracing import hbt4_namespaces

ROOT = Path(__file__).resolve().parent.parent
hbt4 = run.import_hbt4(ROOT)


def first_inputs(workload, seed: int, n: int = 40) -> list[dict]:
    return list(itertools.islice(workload.inputs(seed), n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = workloads.WORKLOADS[name]
    assert first_inputs(workload, 7) == first_inputs(workload, 7)
    assert workload.warmup(7) == workload.warmup(7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seeds_give_different_inputs(name):
    workload = workloads.WORKLOADS[name]
    a, b = first_inputs(workload, 7), first_inputs(workload, 8)
    assert all(x != y for x, y in zip(a, b))


def test_strong_inputs_stay_below_the_mean_cap():
    for inp in first_inputs(workloads.Strong, 3, 500):
        assert workloads.closed_form_mean(**inp) < workloads.STRONG_MAX_MEAN
        assert math.isclose(
            workloads.closed_form_mean(**inp),
            hbt4.ideal_coherence(hbt4.StateParams(**inp)).mean_clicks,
            rel_tol=1e-12,
        )


def snapshot() -> dict[tuple[str, str], object]:
    return {(ns.__name__, attr): obj for ns in hbt4_namespaces() for attr, obj in vars(ns).items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_restores_every_wrapped_name(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    before = snapshot()
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0.1", "--trace", "1"]) == 0
    after = snapshot()
    # Warnings raised during the run may add a module's __warningregistry__.
    assert {attr for _, attr in after.keys() - before.keys()} <= {"__warningregistry__"}
    changed = [key for key, obj in before.items() if after.get(key) is not obj]
    assert changed == []
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["metrics"]["trace.spans"]["value"] > 0


def test_tracer_wraps_names_in_every_importing_namespace():
    from tracing import Tracer

    originals = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = {key for key, obj in snapshot().items() if obj is not originals[key]}
    finally:
        tracer.restore()
    for key in [("hbt4.sweep", "squeezed_distribution"), ("hbt4.montecarlo", "apply_detection"),
                ("hbt4.presets", "minimized_map"), ("hbt4.sweep", "click_coherence"),
                ("hbt4.detection", "bernoulli_loss"), ("hbt4", "run_mc")]:
        assert key in wrapped


def test_overflowing_strong_point_fails_one_op_and_the_run_goes_on():
    overflow = {"r": 0.3, "theta": math.pi, "alpha": 24.0}
    good = {"r": 0.2, "theta": 1.0, "alpha": 5.0}
    outcomes, _ = run.timed_loop(workloads.Strong, hbt4, [overflow, good, overflow], math.inf)
    assert [o.error is not None for o in outcomes] == [True, False, True]
    assert not any(o.wrong for o in outcomes)
    assert [o.units for o in outcomes] == [0, 1, 0]


def test_strong_probe_spans_the_domain_above_the_timed_cap():
    probe = workloads.Strong.probe(3)
    assert len(probe) == workloads.PROBE_POINTS
    means = [workloads.closed_form_mean(**inp) for inp in probe]
    assert max(means) < workloads.PROBE_MAX_MEAN
    assert any(m >= workloads.STRONG_MAX_MEAN for m in means)
    assert probe == workloads.Strong.probe(3) != workloads.Strong.probe(4)


def test_a_refused_probe_point_is_counted_and_not_a_wrong_result(monkeypatch):
    overflow = {"r": 0.3, "theta": math.pi, "alpha": 24.0}
    good = {"r": 0.2, "theta": 1.0, "alpha": 5.0}
    monkeypatch.setattr(workloads.Strong, "probe", staticmethod(lambda seed: [overflow, good]))
    probe = run.run_probe(workloads.Strong, hbt4, 1, [])
    assert [o.error is not None for o in probe] == [True, False]
    assert not any(o.wrong for o in probe)


def test_without_a_probe_the_timed_operations_are_the_probe():
    outcomes, _ = run.timed_loop(workloads.Scans, hbt4, workloads.Scans.inputs(1), 0.01)
    assert run.run_probe(workloads.Scans, hbt4, 1, outcomes) is outcomes


def test_a_wrong_result_is_caught_by_the_gate():
    inp = next(workloads.Scans.inputs(2))
    outcome = run.run_op(workloads.Scans, hbt4, inp)
    table, csv = outcome.result
    assert workloads.Scans.check(hbt4, inp, outcome.result) is None
    row = table.rows[inp["check_row"]]
    rows = list(table.rows)
    rows[inp["check_row"]] = type(row)(**{**row.__dict__, "g4": row.g4 * (1 + 1e-6)})
    outcome.result = (type(table)(table.axis_names, tuple(rows)), csv)
    run.gate(workloads.Scans, hbt4, outcome)
    assert outcome.wrong and outcome.units == 0


def test_mc_gate_rejects_a_shifted_estimate():
    inp = next(workloads.Mc.inputs(1))
    result = workloads.Mc.run(hbt4, inp)
    assert workloads.Mc.check(hbt4, inp, result) is None
    shifted = dict(inp, eta=inp["eta"] * 0.9)
    assert workloads.Mc.check(hbt4, shifted, result) is not None


def test_poisson_tails():
    low, high = workloads.poisson_tails(0, 2.0)
    assert low == pytest.approx(math.exp(-2.0))
    assert high == pytest.approx(1.0)
    low, high = workloads.poisson_tails(3, 0.5)
    assert high == pytest.approx(1.0 - math.exp(-0.5) * (1 + 0.5 + 0.125))
