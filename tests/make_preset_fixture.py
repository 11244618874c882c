"""Write ``tests/data/preset_samples.npz``, the reference rows that
``test_preset_fixture.py`` rebuilds: every 10th row of each sweep table and
every row of the minimized maps (fig4), of the five presets at their
defaults.

Each table gives two arrays: ``<preset>.<part>.values``, one row per kept
table row (axis values, g2, g3, g4, mean), and
``<preset>.<part>.diagnostics``, the rows' diagnostics strings.  A change
that moves preset results on purpose regenerates the file, from the
repository root:

    PYTHONPATH=src python tests/make_preset_fixture.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from hbt4.presets import PRESETS, build_preset

FIXTURE = Path(__file__).parent / "data" / "preset_samples.npz"


def preset_samples() -> dict[str, np.ndarray]:
    """The sampled rows of every preset table, keyed as in the fixture."""
    samples = {}
    for name in PRESETS:
        _, tables, _ = build_preset(name)
        stride = 1 if name == "fig4" else 10
        for part, table in tables.items():
            rows = table.rows[::stride]
            key = f"{name}.{part}"
            samples[f"{key}.values"] = np.array(
                [(*row.axis_values, row.g2, row.g3, row.g4, row.mean) for row in rows]
            )
            samples[f"{key}.diagnostics"] = np.array([row.diagnostics for row in rows])
    return samples


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    np.savez_compressed(FIXTURE, **preset_samples())
