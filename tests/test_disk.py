"""The disk K = 0, where every tensor is a rotation about the pole of the one
at chi = -pi/2.

`canonicalize_arrays` brings each disk point to chi = -pi/2, so one disk
solver serves the whole disk.  The closed form below is the former second
disk solver, for chi away from -pi/2, kept as an independent reference:
equatorial roots of a quadratic in s plus the vertical lines
s = tan chi +- sec chi.  Its roots cancel next to -pi/2, so the reference
stops 3e-6 from that plane; closer in it loses two classes.
"""

import numpy as np
import pytest

from octupolar import (OrientedParams, from_rho_chi_K, full_topology, full_topology_batch, orient,
                       solve_oriented_batch)
from octupolar.eigen import _disk_coeffs, _quad_rows, _st_slots
from octupolar.potential import MIRROR, apply_rotation
from test_orient_snapshot import random_rotation

PI = np.pi
_TOL_SNAP = 1e-12


def disk_reference(rho, chi):
    """K = 0 entries at chi away from -pi/2: x (n, 7, 3) in the frame of
    (rho, chi, 0), pole first, and multiplicities (n, 7), 0 for none."""
    co, si = np.cos(chi), np.sin(chi)
    # t = 0 branch: quadratic in s with discriminant rho^2 - 1
    (e0, e1), (me0, me1) = _quad_rows(0.5 * (rho * si - 1.0), rho * co, -0.5 * (rho * si + 1.0))
    # vertical lines where the t-linear factor vanishes: s = tan chi +/- sec chi
    s = np.array([np.tan(chi) + 1.0 / co, np.tan(chi) - 1.0 / co])
    c2, c0 = _disk_coeffs(rho, co, si, s)
    t2, scale = -c0 / c2, np.abs(c0 / c2) + 1.0
    # where c2 vanishes (the rho = 2 line) the quadratic degenerates: no solutions
    live = ~(np.abs(c2) <= 1e-12 * (np.abs(c0) + 1.0))
    two = live & (t2 > _TOL_SNAP * scale)
    mv = two + 2 * (live & ~two & (np.abs(t2) <= _TOL_SNAP * scale))
    tq = np.sqrt(np.where(two, t2, 0.0))
    return _st_slots([e0, e1, s[0], s[0], s[1], s[1]], [0.0, 0.0, tq[0], -tq[0], tq[1], -tq[1]],
                     [me0, me1, mv[0], two[0], mv[1], two[1]])


def sector_disk_cells() -> list:
    rhos = np.concatenate([np.geomspace(1e-6, 1e-2, 8), np.linspace(0.02, 2.0, 34),
                           [1.0, 2.0, 2.0 - 1e-6]])
    chis = np.concatenate([np.linspace(-PI / 2 + 1e-3, -PI / 6, 50),
                           -PI / 2 + np.array([3e-6, 1e-5, 1e-4]), [-PI / 6 - 1e-8]])
    return [(float(r), float(c)) for r in rhos for c in chis]


def test_disk_classes_match_the_closed_form_reference():
    cells = sector_disk_cells()
    assert len(cells) >= 2000
    rho, chi = np.array(cells).T
    with np.errstate(divide="ignore", invalid="ignore"):
        x_ref, m_ref = disk_reference(rho, chi)
    sols = solve_oriented_batch([OrientedParams(r, c, 0.0) for r, c in cells])
    for i, sol in enumerate(sols):
        ref = x_ref[i, m_ref[i] > 0]
        got = np.array([p.x for p in sol.pairs])
        # distance between classes up to antipodes, |x - y| or |x + y|
        dist = np.minimum(np.linalg.norm(ref[:, None] - got, axis=2),
                          np.linalg.norm(ref[:, None] + got, axis=2))
        near = np.maximum(dist.min(axis=1).max(), dist.min(axis=0).max())
        assert near <= 1e-8, (cells[i], ref, got)


@pytest.mark.parametrize("d", [3e-7, 1e-6])
def test_full_topology_next_to_the_pi2_disk(d):
    """K = 0 within 1e-6 of chi = -pi/2, where the reference's vertical-line
    roots cancel, reads as the chi = -pi/2 disk point does."""
    rhos = np.random.default_rng(0).uniform(0.01, 1.99, 100).tolist()
    near = full_topology_batch([OrientedParams(r, -PI / 2 + d, 0.0) for r in rhos])
    on = full_topology_batch([OrientedParams(r, -PI / 2, 0.0) for r in rhos])
    for r, a, b in zip(rhos, near, on):
        assert a.index_sum == 2, r
        assert (a.counts, a.total) == (b.counts, b.total), r
    # one point through the single-point path
    rep = full_topology(OrientedParams(rhos[0], -PI / 2 + d, 0.0))
    assert rep.index_sum == 2 and rep.counts == on[0].counts


@pytest.mark.parametrize("rho, chi", [(0.3, -0.8), (0.9, -1.0), (1.0, -1.3), (1.3, 0.3),
                                      (1.8, 2.5)])
def test_orient_gives_one_point_per_disk_tensor(rho, chi):
    """Rotated, scaled and mirrored images of one K = 0 tensor orient alike;
    a result that stays on K = 0 sits at chi = -pi/2 with no mirror."""
    rng = np.random.default_rng([17, int(1000 * rho)])
    base = from_rho_chi_K(OrientedParams(rho, chi, 0.0)).array
    results = []
    for i in range(6):
        a = apply_rotation(MIRROR, base) if i % 2 else base
        t = rng.uniform(0.2, 5.0) * apply_rotation(random_rotation(rng), a)
        o = orient(t)
        assert np.max(np.abs(o.undo().array - t)) <= 1e-9 * np.max(np.abs(t))
        results.append((o.params.as_tuple(), o.mirrored))
    (p0, m0), others = results[0], results[1:]
    for p, m in others:
        np.testing.assert_allclose(p, p0, rtol=0, atol=1e-8)
        assert m == m0
    if p0[2] <= 1e-9:
        assert abs(p0[1] + PI / 2) <= 1e-12 and not m0
