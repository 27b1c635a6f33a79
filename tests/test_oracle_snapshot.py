"""The dense oracle and `orient` against values recorded before the oracle's
Newton kernel was rewritten in coefficient form (tests/data/oracle_panel.json).

The panel is 24 piezoelectric-like tensors: ``default_rng([0, i])`` normal
(3, 3, 3) draws for i < 24, symmetrized in their last two indices, reduced to
their octupolar part.  For each one the file holds the oracle's total,
counts, continuum flag and every point (kind, index, x, lam), and `orient`'s
parameters and mirror flag.  Regenerate with

    PYTHONPATH=src python tests/test_oracle_snapshot.py > tests/data/oracle_panel.json
"""

import json
import os

import numpy as np
import pytest

from octupolar import harmonic_decompose, oracle_critical_points, orient

DATA = os.path.join(os.path.dirname(__file__), "data", "oracle_panel.json")
PANEL = 24


def panel_octupole(i: int) -> np.ndarray:
    a = np.random.default_rng([0, i]).normal(size=(3, 3, 3))
    return harmonic_decompose(0.5 * (a + np.transpose(a, (0, 2, 1)))).d3


def record(i: int) -> dict:
    d3 = panel_octupole(i)
    rep = oracle_critical_points(d3)
    o = orient(d3)
    return {
        "total": rep.total,
        "counts": rep.counts,
        "continuum": rep.continuum,
        "points": [{"kind": q.kind, "index": q.index, "x": q.x.tolist(), "lam": q.lam}
                   for q in rep.points],
        "orient": {"params": [o.params.rho, o.params.chi, o.params.bigk],
                   "mirrored": o.mirrored},
    }


@pytest.fixture(scope="module")
def recorded():
    with open(DATA) as f:
        return json.load(f)


@pytest.mark.parametrize("i", range(PANEL))
def test_oracle_and_orient_match_recorded_panel(recorded, i):
    want, got = recorded[i], record(i)
    assert got["total"] == want["total"]
    assert got["counts"] == want["counts"]
    assert got["continuum"] == want["continuum"]
    assert [(q["kind"], q["index"]) for q in got["points"]] \
        == [(q["kind"], q["index"]) for q in want["points"]]
    for g, w in zip(got["points"], want["points"]):
        np.testing.assert_allclose(g["x"], w["x"], rtol=0, atol=1e-9)
        assert abs(g["lam"] - w["lam"]) <= 1e-9
    np.testing.assert_allclose(got["orient"]["params"], want["orient"]["params"], rtol=0, atol=1e-9)
    assert got["orient"]["mirrored"] == want["orient"]["mirrored"]


if __name__ == "__main__":
    print(json.dumps([record(i) for i in range(PANEL)], indent=1))
