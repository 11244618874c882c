"""One rule decides where coherence is undefined: ``clicks._undefined``.

Every path that normalizes by a mean photon or click number, single points
and grid rows of both pipelines, the distribution moments, the variant
bracket and the Monte-Carlo estimate, carries exactly its message.
"""

import pytest

from hbt4 import (
    DetectionParams,
    McConfig,
    NoSignalError,
    StateParams,
    SweepAxis,
    SweepSpec,
    UndefinedCoherenceError,
    evaluate_point,
    factorial_moments,
    fourth_order_variant,
    gaussian_moments,
    run_mc,
    squeezed_distribution,
    sweep,
)
from hbt4.cli import main
from hbt4.clicks import _undefined, detected_clicks

DETECTION = DetectionParams(eta=0.5, gamma=0.0)
# Mean photon number 0, and 1e-90, whose fourth power underflows.
STATES = {"zero": StateParams(r=0.0, theta=0.0, alpha=0.0),
          "unresolved": StateParams(r=0.0, theta=0.0, alpha=1e-45)}
KINDS = {"zero": "is zero", "unresolved": "too small"}


def message(mean, quantity, kind):
    reason = _undefined(mean, quantity)
    assert reason is not None and KINDS[kind] in reason
    return reason


def row_message(state, pipeline):
    axis = SweepAxis("alpha", state.alpha, state.alpha, 2)
    (row, _) = sweep(SweepSpec((axis,), state, DETECTION, pipeline=pipeline)).rows
    return row.diagnostics


def test_no_signal_is_undefined_coherence():
    assert issubclass(NoSignalError, UndefinedCoherenceError)


@pytest.mark.parametrize("kind", STATES)
def test_ideal_point_and_row(kind):
    state = STATES[kind]
    want = message(gaussian_moments(state)[0], "photon", kind)
    with pytest.raises(UndefinedCoherenceError) as err:
        evaluate_point(state, DETECTION, "ideal")
    assert str(err.value) == want
    assert row_message(state, "ideal") == want


@pytest.mark.parametrize("kind", STATES)
def test_click_point_and_row(kind):
    state = STATES[kind]
    mean = detected_clicks(squeezed_distribution(state), DETECTION).mean_clicks
    want = message(mean, "click", kind)
    with pytest.raises(NoSignalError) as err:
        evaluate_point(state, DETECTION, "click")
    assert str(err.value) == want
    assert row_message(state, "click") == want


@pytest.mark.parametrize("kind", STATES)
def test_distribution_moments(kind):
    dist = squeezed_distribution(STATES[kind])
    with pytest.raises(UndefinedCoherenceError) as err:
        factorial_moments(dist)
    assert str(err.value) == message(dist.mean, "photon", kind)


@pytest.mark.parametrize("kind", STATES)
def test_variant_bracket(kind):
    state = STATES[kind]
    with pytest.raises(UndefinedCoherenceError) as err:
        fourth_order_variant(state)
    assert str(err.value) == message(gaussian_moments(state)[0], "photon", kind)


# The vacuum draws no clicks; stratified on {L >= 1}, the unresolved state's
# clicks come from a stratum of weight 5e-91.
@pytest.mark.parametrize("kind, condition", [("zero", 0), ("unresolved", 1)])
def test_monte_carlo_estimate(kind, condition):
    config = McConfig(trials=1000, seed=3, state=STATES[kind], detection=DETECTION,
                      condition_min_photons=condition)
    with pytest.raises(NoSignalError) as err:
        run_mc(config)
    assert str(err.value) == message(err.value.result.estimated.mean_clicks, "click", kind)


def test_cli_exits_4(capsys):
    assert main(["point", "--r", "0", "--alpha", "0"]) == 4
    assert capsys.readouterr().err == "no signal: mean click number is zero; coherence undefined\n"
