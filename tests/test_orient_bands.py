"""`orient` next to the chi = -pi/6 and chi = -pi/2 planes and the rim rho = 2.

Each input is a rotated, scaled image of an oriented tensor, built as in
tests/test_orient_snapshot.py.  `orient` must put a global maximum of the
cubic form at the pole: 1 / scale is at least the form's maximum over
`fibonacci_sphere(200_000)` and at most that times 1 + 1e-4, the lattice's
covering error.  `undo()` must give back the input to 1e-9.

The pinned inputs are those on which an ascent-and-round-trip `orient`
(through `solve_oriented` and its branch solvers) oriented at a maximum that
was not global, or raised an eigenpair residual error.  The sweep draws 600
points, one band each by j mod 3: chi = -pi/6 - d and chi = -pi/2 + d with d
log-uniform in [1e-8, 1e-3], and rho = 2 - d with d log-uniform in
[1e-10, 1e-3]; the other coordinates are uniform over the sector, K in [0, 2].
"""

import numpy as np
import pytest

from octupolar import OctupolarTensor, OrientedParams, from_rho_chi_K, orient
from octupolar._optim import fibonacci_sphere
from test_orient_snapshot import image

PI = np.pi
SWEEP = 600
CHUNK = 25


def band_point(j: int) -> tuple:
    rng = np.random.default_rng([40, j])
    d = 10.0 ** rng.uniform(-8, -3)
    rho, chi, k = rng.uniform(0.0, 2.0), rng.uniform(-PI / 2, -PI / 6), rng.uniform(0.0, 2.0)
    if j % 3 == 0:
        chi = -PI / 6 - d
    elif j % 3 == 1:
        chi = -PI / 2 + d
    else:
        rho = 2.0 - 10.0 ** rng.uniform(-10, -3)
    return rho, chi, k


PINNED = {
    "pi6-wrong-maximum": image((1.0049241887349138, -0.5235991022493803, 0.3898507234194956),
                               [31, 289]),
    "rim-pi6-meridian-raise": from_rho_chi_K(
        OrientedParams(1.9999999997551072, -0.5658998800668238, 0.08165710361732997)).array,
    "sweep-329-raise": image(band_point(329), [41, 329]),
    "sweep-360-wrong-maximum": image(band_point(360), [41, 360]),
}


@pytest.fixture(scope="module")
def cubes():
    """x_i x_j x_k of every lattice point, (27, 200000): A x^3 is then a.reshape(27) @ cubes."""
    x = fibonacci_sphere(200_000)
    return np.einsum("ni,nj,nk->ijkn", x, x, x).reshape(27, -1)


def failures(tensors: np.ndarray, cubes: np.ndarray) -> list:
    """(index, reason) of each tensor that `orient` misreads."""
    out = []
    for lo in range(0, len(tensors), CHUNK):
        chunk = tensors[lo:lo + CHUNK]
        dense = (chunk.reshape(-1, 27) @ cubes).max(axis=1)
        for i, (t, top) in enumerate(zip(chunk, dense), lo):
            try:
                o = orient(OctupolarTensor.from_array(t))
            except RuntimeError as exc:
                out.append((i, f"raised {exc}"))
                continue
            undo = np.max(np.abs(o.undo().array - t)) / np.max(np.abs(t))
            if not top <= 1.0 / o.scale <= top * (1.0 + 1e-4) or undo > 1e-9:
                out.append((i, f"pole value {1.0 / o.scale} against {top}, undo error {undo:.1e}"))
    return out


@pytest.mark.parametrize("name", PINNED)
def test_pinned_input_orients_at_a_global_maximum(cubes, name):
    assert failures(PINNED[name][None], cubes) == []


def test_band_sweep_orients_at_global_maxima(cubes):
    tensors = np.array([image(band_point(j), [41, j]) for j in range(SWEEP)])
    assert failures(tensors, cubes) == []
