"""`c_eigenpairs` against triples recorded before it became one batched ascent
(tests/data/ceigen_panel.json).

The inputs are the 24 panel tensors of the benchmark's `tensors` workload:
tensor i is a seeded standard normal 3x3x3 draw, symmetrized in its last two
indices.  For each one the file holds the (lam, x, y) triples that
`c_eigenpairs(a, starts=64)` returned.  Every recorded triple must be found
again; new triples are allowed.  Regenerate with

    PYTHONPATH=src python tests/test_ceigen_snapshot.py > tests/data/ceigen_panel.json
"""

import json
import os

import numpy as np
import pytest

from octupolar import c_eigenpairs

DATA = os.path.join(os.path.dirname(__file__), "data", "ceigen_panel.json")
PANEL = 24
STARTS = 64


def panel_tensor(i: int) -> np.ndarray:
    a = np.random.default_rng([0, i]).normal(size=(3, 3, 3))
    return 0.5 * (a + np.transpose(a, (0, 2, 1)))


def record(a) -> list:
    return [{"lam": float(t.lam), "x": [float(v) for v in t.x], "y": [float(v) for v in t.y]}
            for t in c_eigenpairs(a, starts=STARTS)]


@pytest.fixture(scope="module")
def recorded():
    with open(DATA) as f:
        return json.load(f)


@pytest.mark.parametrize("i", range(PANEL))
def test_recorded_triples_found_again(recorded, i):
    got = c_eigenpairs(panel_tensor(i), starts=STARTS)
    for want in recorded[str(i)]:
        x, y = np.array(want["x"]), np.array(want["y"])
        assert any(abs(t.lam - want["lam"]) <= 1e-12 * abs(want["lam"])
                   and np.linalg.norm(t.x - x) <= 1e-6
                   and min(np.linalg.norm(t.y - y), np.linalg.norm(t.y + y)) <= 1e-6
                   for t in got), f"triple lam={want['lam']} of panel tensor {i} is lost"


if __name__ == "__main__":
    print(json.dumps({str(i): record(panel_tensor(i)) for i in range(PANEL)}, indent=1))
