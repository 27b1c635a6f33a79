"""`orient` against values recorded before it became an exact ascent plus the
solver's class list (tests/data/orient_cases.json).

The inputs are built here from fixed seeds: rotated and scaled images of
(rho, chi, K) points drawn over the whole cylinder (rho in [0, 2], chi in
[-pi, pi], K in [-2, 2]), many of them with a pole that is not the global
maximum; the same images of points on the chi = -pi/2 and chi = -pi/6 planes
and their symmetry images, on K = 0 and on the axis rho = 0; mirror images;
the tetrahedral tensor; and both continuum tensors, (0, -pi/2, 0) and
(2, -pi/6, 1).  For each one the file holds `orient`'s parameters, mirror
flag, continuum flag and scale, or the error it raised.  Regenerate with

    PYTHONPATH=src python tests/test_orient_snapshot.py > tests/data/orient_cases.json
"""

import json
import os

import numpy as np
import pytest

from octupolar import (OctupolarTensor, OrientedParams, from_rho_chi_K, orient, solve_oriented,
                       tetrahedral_tensor)
from octupolar.potential import MIRROR, apply_rotation

DATA = os.path.join(os.path.dirname(__file__), "data", "orient_cases.json")
PI = np.pi
CYLINDER = 80
SPECIAL = [(0.7, -PI / 2, 0.4), (1.3, PI / 2, -0.9), (0.4, -PI / 6, 1.5), (1.6, 5 * PI / 6, 0.3),
           (0.9, -1.0, 0.0), (1.8, 2.5, 0.0), (0.0, -PI / 2, 0.8), (0.0, 1.1, -1.7)]


def random_rotation(rng) -> np.ndarray:
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def image(params, seed, mirror=False) -> np.ndarray:
    """A rotated, scaled (and optionally mirrored) image of the oriented tensor at params."""
    rng = np.random.default_rng(seed)
    a = from_rho_chi_K(OrientedParams(*params)).array
    if mirror:
        a = apply_rotation(MIRROR, a)
    return rng.uniform(0.2, 5.0) * apply_rotation(random_rotation(rng), a)


def cylinder_point(i: int) -> tuple:
    rng = np.random.default_rng([11, i])
    return (rng.uniform(0.0, 2.0), rng.uniform(-PI, PI), rng.uniform(-2.0, 2.0))


def cases() -> list:
    """(name, tensor) for every recorded input."""
    out = [(f"cylinder-{i}", image(cylinder_point(i), [12, i])) for i in range(CYLINDER)]
    out += [(f"special-{i}", image(p, [13, i])) for i, p in enumerate(SPECIAL)]
    out += [(f"mirror-{i}", image(p, [14, i], mirror=True))
            for i, p in enumerate([(0.5, -PI / 3, 0.2), cylinder_point(0), cylinder_point(1)])]
    out.append(("tetrahedral", tetrahedral_tensor(1.0).array))
    out.append(("tetrahedral-image", image((0.0, -PI / 2, 2 ** -0.5), [15, 0])))
    for name, p in (("axisymmetric", (0.0, -PI / 2, 0.0)), ("rim", (2.0, -PI / 6, 1.0))):
        out.append((name, from_rho_chi_K(OrientedParams(*p)).array))
        out.append((name + "-image", image(p, [16, len(out)])))
    return out


def record(t) -> dict:
    try:
        o = orient(OctupolarTensor.from_array(t))
    except RuntimeError as exc:
        return {"error": str(exc)}
    return {"params": [float(v) for v in o.params.as_tuple()],
            "mirrored": bool(o.mirrored), "continuum": bool(o.continuum), "scale": float(o.scale)}


CASES = cases()


@pytest.fixture(scope="module")
def recorded():
    with open(DATA) as f:
        return json.load(f)


@pytest.mark.parametrize("i", range(len(CASES)), ids=[c[0] for c in CASES])
def test_orient_matches_recorded_case(recorded, i):
    name, t = CASES[i]
    want, got = recorded[name], record(t)
    if "error" in want:
        # recorded as a failure: the pole of the result must be a global
        # maximum, and the result must reproduce the input
        o = orient(OctupolarTensor.from_array(t))
        assert max(abs(q.lam) for q in solve_oriented(o.params).pairs) <= 1.0 + 1e-9
        assert np.max(np.abs(o.undo().array - t)) <= 1e-9 * np.max(np.abs(t))
        return
    np.testing.assert_allclose(got["params"], want["params"], rtol=0, atol=1e-9)
    assert got["mirrored"] == want["mirrored"]
    assert got["continuum"] == want["continuum"]
    assert abs(got["scale"] - want["scale"]) <= 1e-9 * want["scale"]


if __name__ == "__main__":
    print(json.dumps({name: record(t) for name, t in CASES}, indent=1))
