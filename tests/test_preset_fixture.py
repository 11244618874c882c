"""The five presets against their stored reference rows
(``make_preset_fixture.py``): every stored number within 1e-10 relative,
NaN matching NaN, and every diagnostics string equal except the
``alpha_min`` of the minimized maps, which is a number held to the same
bound."""

import numpy as np

from make_preset_fixture import FIXTURE, preset_samples

_RTOL = 1e-10
_ALPHA_MIN = "alpha_min="


def _split(diagnostics: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The diagnostics strings with each alpha_min value taken out, and
    those values (NaN where a row has none)."""
    texts, values = [], []
    for text in diagnostics.tolist():
        if text.startswith(_ALPHA_MIN):
            texts.append(_ALPHA_MIN)
            values.append(float(text[len(_ALPHA_MIN) :]))
        else:
            texts.append(text)
            values.append(np.nan)
    return texts, np.array(values)


def test_presets_reproduce_the_fixture():
    with np.load(FIXTURE, allow_pickle=False) as stored:
        expected = {key: stored[key] for key in stored.files}
    rebuilt = preset_samples()
    assert sorted(rebuilt) == sorted(expected)
    for key, want in expected.items():
        got = rebuilt[key]
        assert got.shape == want.shape, key
        if key.endswith(".diagnostics"):
            got_texts, got_alpha = _split(got)
            want_texts, want_alpha = _split(want)
            assert got_texts == want_texts, key
            got, want = got_alpha, want_alpha
        close = np.isclose(got, want, rtol=_RTOL, atol=0.0, equal_nan=True)
        assert close.all(), (key, np.argwhere(~close)[:5].tolist())
