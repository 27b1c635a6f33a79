"""`canonicalize_params` against outputs recorded before it became the batch of
one of the array form (tests/data/canonicalize_cases.json).

The inputs are built here from a fixed seed: random points of the cylinder
(rho in [0, 2], chi in [-pi, pi], K in [-2, 2]) with all six rotation images
of each and the mirror image of each of those; and the exact sector edges
chi = -pi/2, -pi/6, pi/6 and chi = +-pi, with rho below and at the axis
tolerance 1e-12, K = +-0 and tiny or negative K, each with the same twelve
images.  For each input the file holds a digest of the canonical
parameters, the bytes of ``op`` and the mirror flag, so the comparison is
bit for bit.  Regenerate with

    PYTHONPATH=src python tests/test_canonicalize_parity.py > tests/data/canonicalize_cases.json
"""

import hashlib
import json
import os

import numpy as np

from octupolar import potential

DATA = os.path.join(os.path.dirname(__file__), "data", "canonicalize_cases.json")
PI = np.pi


def images(rho: float, chi: float, k: float) -> list:
    """The point itself and its images: chi shifted by 2 pi m / 3 (K flipped for
    odd m), each also mirrored to -chi - pi/3."""
    out = [(rho, chi, k)]
    for m in range(6):
        for mirror in (False, True):
            c = -chi - PI / 3 if mirror else chi
            c = (c + 2.0 * PI * m / 3.0 + PI) % (2.0 * PI) - PI
            out.append((rho, c, -k if m % 2 else k))
    return out


def inputs() -> list:
    rng = np.random.default_rng(3)
    base = [(rng.uniform(0.0, 2.0), rng.uniform(-PI, PI), rng.uniform(-2.0, 2.0))
            for _ in range(200)]
    base += [(rho, chi, k) for chi in (-PI / 2, -PI / 6, PI / 6, PI, -PI)
             for rho in (0.0, 5e-13, 1e-12, 1.3) for k in (0.0, -0.0, 0.6, -0.6, 1e-13)]
    return [(float(r), float(c), float(k)) for p in base for r, c, k in images(*p)]


def digest(params, op, mirrored) -> str:
    h = hashlib.sha256(np.array(params, dtype=float).tobytes())
    h.update(np.asarray(op, dtype=float).tobytes())
    h.update(b"1" if mirrored else b"0")
    return h.hexdigest()[:16]


def record() -> list:
    out = []
    for rho, chi, k in inputs():
        p, op, mirrored = potential.canonicalize_params(rho, chi, k)
        out.append(digest(p.as_tuple(), op, mirrored))
    return out


def test_canonicalize_params_matches_recorded_output():
    with open(DATA) as f:
        recorded = json.load(f)
    got = record()
    assert len(got) == len(recorded)
    for x, want, have in zip(inputs(), recorded, got):
        assert have == want, x


def test_array_form_matches_batch_of_one():
    rho, chi, k = np.array(inputs()).T
    canon, op, mirrored = potential.canonicalize_arrays(rho, chi, k)
    with open(DATA) as f:
        recorded = json.load(f)
    assert [digest(c, o, m) for c, o, m in zip(canon.T, op, mirrored)] == recorded


if __name__ == "__main__":
    print(json.dumps(record()))
