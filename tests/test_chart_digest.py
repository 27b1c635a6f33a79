"""The chart path bit for bit: SHA-256 digests of every output, recorded
before its kernels were restructured (tests/data/ceigen_digest.json).

The snapshot tests hold the chart's outputs to tolerances; this one holds
them to the last bit, so a rewrite of the C-eigenpair kernel, the
rank-one chain, the chart or the oracle's Newton that claims to keep its
bits is checked on it.  The inputs are the 24 panel tensors of
`test_ceigen_snapshot` and the 10 `random_piezo` draws of
`test_ceigen_classes` for `c_eigenpairs`, `best_rank_one` and
`incremental_rank_one` (every lam, x and y, and the chain's residuals),
and the 24 panel octupoles of `test_oracle_snapshot` for `orient` (its
rotation, scale and parameters) and `oracle_critical_points(a,
samples=100_000)` (every point's x, lam, kind and index).  An input that
raises records the error message instead.

The digests read the bytes of float64 values, so they depend on the
platform's floating point as well as on the code: a numpy or BLAS that
rounds one operation differently changes them.  Regenerate, on the commit
whose bits are the reference, with

    PYTHONPATH=src python tests/test_chart_digest.py > tests/data/ceigen_digest.json
"""

import hashlib
import json
import os

import numpy as np
import pytest

from octupolar import best_rank_one, c_eigenpairs, incremental_rank_one, oracle_critical_points, orient

from test_ceigen_classes import RANDOM, random_piezo
from test_ceigen_snapshot import PANEL, panel_tensor
from test_oracle_snapshot import panel_octupole

DATA = os.path.join(os.path.dirname(__file__), "data", "ceigen_digest.json")
SAMPLES = 100_000
PIEZO = [f"panel-{i}" for i in range(PANEL)] + [f"random-{k}" for k in range(RANDOM)]


def piezo(name: str) -> np.ndarray:
    kind, i = name.split("-")
    return panel_tensor(int(i)) if kind == "panel" else random_piezo(int(i))


def digest(fn, *args) -> str:
    """SHA-256 of the float64 bytes and labels that fn(*args) returns, or of its error message."""
    h = hashlib.sha256()
    try:
        parts = fn(*args)
    except (RuntimeError, ValueError) as e:
        parts = [f"{type(e).__name__}: {e}"]
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else np.asarray(p, dtype=np.float64).tobytes())
    return h.hexdigest()


def triples(a):
    return [v for t in c_eigenpairs(a) for v in (t.lam, t.x, t.y)]


def top(a):
    return list(best_rank_one(a))


def chain(a):
    terms, residuals = incremental_rank_one(a)
    return [v for term in terms for v in term] + [residuals]


def oriented(a):
    o = orient(a)
    return [o.rotation, o.scale, [o.params.rho, o.params.chi, o.params.bigk], str(o.mirrored)]


def oracle(a):
    rep = oracle_critical_points(a, samples=SAMPLES)
    return [v for q in rep.points for v in (q.x, q.lam, f"{q.kind} {q.index}")] \
        + [f"{rep.total} {rep.continuum}"]


PIEZO_FNS = {"c_eigenpairs": triples, "best_rank_one": top, "incremental_rank_one": chain}
OCTUPOLE_FNS = {"orient": oriented, "oracle_critical_points": oracle}


def record() -> dict:
    out = {name: {key: digest(fn, piezo(key)) for key in PIEZO} for name, fn in PIEZO_FNS.items()}
    out.update({name: {f"panel-{i}": digest(fn, panel_octupole(i)) for i in range(PANEL)}
                for name, fn in OCTUPOLE_FNS.items()})
    return out


@pytest.fixture(scope="module")
def recorded():
    with open(DATA) as f:
        return json.load(f)


@pytest.mark.parametrize("key", PIEZO)
def test_piezo_outputs_keep_their_bits(recorded, key):
    a = piezo(key)
    assert {name: digest(fn, a) for name, fn in PIEZO_FNS.items()} \
        == {name: recorded[name][key] for name in PIEZO_FNS}


@pytest.mark.parametrize("i", range(PANEL))
def test_octupole_outputs_keep_their_bits(recorded, i):
    a = panel_octupole(i)
    assert {name: digest(fn, a) for name, fn in OCTUPOLE_FNS.items()} \
        == {name: recorded[name][f"panel-{i}"] for name in OCTUPOLE_FNS}


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))
