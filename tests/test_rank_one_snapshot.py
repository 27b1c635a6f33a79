"""`incremental_rank_one` against the chains recorded while `c_eigenpairs` was a
64-start alternating ascent (tests/data/rank_one_panel.json).

The inputs are the 24 panel tensors of `test_ceigen_snapshot.py`.  For each
one the file holds the 13 deflation terms (lam, x, y) and the residual
norms that `incremental_rank_one(a)` returned.  Every term must come back
to 1e-6: lam, x and the residual as recorded, y up to sign.  The ascent
stopped each term about 1e-8 short of the exact triple, so the chains can
drift apart by that much and no more.  Regenerate with

    PYTHONPATH=src python tests/test_rank_one_snapshot.py > tests/data/rank_one_panel.json
"""

import json
import os

import numpy as np
import pytest

from octupolar import incremental_rank_one

from test_ceigen_snapshot import PANEL, panel_tensor

DATA = os.path.join(os.path.dirname(__file__), "data", "rank_one_panel.json")
TOL = 1e-6


def record(a) -> dict:
    terms, residuals = incremental_rank_one(a)
    return {"terms": [{"lam": float(lam), "x": [float(v) for v in x], "y": [float(v) for v in y]}
                      for lam, x, y in terms],
            "residuals": [float(r) for r in residuals]}


@pytest.fixture(scope="module")
def recorded():
    with open(DATA) as f:
        return json.load(f)


@pytest.mark.parametrize("i", range(PANEL))
def test_recorded_chain_comes_back(recorded, i):
    want = recorded[str(i)]
    terms, residuals = incremental_rank_one(panel_tensor(i))
    assert len(terms) == len(want["terms"]) == len(residuals)
    for k, ((lam, x, y), w, r, wr) in enumerate(zip(terms, want["terms"], residuals,
                                                    want["residuals"])):
        wx, wy = np.array(w["x"]), np.array(w["y"])
        assert abs(lam - w["lam"]) <= TOL, f"term {k}"
        assert np.linalg.norm(x - wx) <= TOL, f"term {k}"
        assert min(np.linalg.norm(y - wy), np.linalg.norm(y + wy)) <= TOL, f"term {k}"
        assert abs(r - wr) <= TOL, f"term {k}"


if __name__ == "__main__":
    print(json.dumps({str(i): record(panel_tensor(i)) for i in range(PANEL)}, indent=1))
