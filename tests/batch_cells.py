"""Seeded parameter points covering every dispatch branch of the solver.

Shared by the batch-engine tests and by the script that records the
reference topology in ``tests/data/topology_cells.json``:

    PYTHONPATH=src python tests/batch_cells.py > tests/data/topology_cells.json
"""

import json

import numpy as np

PI = np.pi
SECTOR = (-PI / 2 + 0.02, -PI / 6 - 0.02)


def _kappa(rho, chi):
    si = np.sin(chi)
    return rho * np.cos(chi) * np.sqrt((1.0 - rho * si) / (2.0 * (2.0 - rho * si)))


def _image(rho, chi, k, m, mirror):
    """The same tensor class written with chi rotated by 2 pi m / 3 (and mirrored)."""
    if mirror:
        chi = -chi - PI / 3
    chi = (chi + 2.0 * PI * m / 3.0 + PI) % (2.0 * PI) - PI
    return rho, chi, -k if m % 2 else k


def cells(seed: int = 2024) -> list[tuple[float, float, float]]:
    """200 (rho, chi, K) points: interior, both exact planes, axis, K = 0,
    K at and near the degree-drop value kappa, the rim, and images of
    canonical points under the sector symmetries."""
    rng = np.random.default_rng(seed)
    out = []

    def interior():
        return rng.uniform(0.05, 1.95), rng.uniform(*SECTOR), rng.uniform(0.02, 2.0)

    out += [interior() for _ in range(40)]
    for chi in (-PI / 2, -PI / 6):
        out += [(rng.uniform(0.05, 1.95), chi, rng.uniform(0.02, 2.0)) for _ in range(16)]
        out += [(rng.uniform(0.05, 1.95), chi, 0.0) for _ in range(4)]
    out += [(0.0, -PI / 2, rng.uniform(0.05, 2.0)) for _ in range(12)]
    out += [(0.0, -PI / 2, 1.0 / np.sqrt(2.0)), (0.0, -PI / 2, 0.0)]
    out += [(rng.uniform(0.05, 1.95), rng.uniform(*SECTOR), 0.0) for _ in range(14)]
    for _ in range(10):
        rho, chi = rng.uniform(0.05, 1.95), rng.uniform(*SECTOR)
        out.append((rho, chi, _kappa(rho, chi)))
        out.append((rho, chi, _kappa(rho, chi) * (1.0 + rng.choice((-1e-3, 1e-3)))))
    out += [(2.0, rng.uniform(*SECTOR), rng.uniform(0.1, 2.0)) for _ in range(6)]
    out += [(1.0, -PI / 2, 0.0), (2.0, -PI / 6, 1.0)]
    canonical = list(out)
    for _ in range(200 - len(out)):
        rho, chi, k = canonical[rng.integers(len(canonical))]
        out.append(_image(rho, chi, k, int(rng.integers(1, 3)), bool(rng.integers(2))))
    return [(float(r), float(c), float(k)) for r, c, k in out]


def summary(rep, sol) -> dict:
    """Counts and, per solved pair, its branch and the kinds and index of the
    point and its antipode.  Pairs are sorted: classes tied in lam by symmetry
    have no meaningful order."""
    pts = rep.points
    pairs = [[b, pts[2 * i].kind, pts[2 * i + 1].kind, pts[2 * i].index]
             for i, b in enumerate(q.branch for q in sol.pairs)]
    return {"continuum": rep.continuum, "total": rep.total, "index_sum": rep.index_sum,
            "pairs": sorted(pairs)}


if __name__ == "__main__":
    from octupolar import OrientedParams, full_topology, solve_oriented

    rows = []
    for rho, chi, k in cells():
        p = OrientedParams(rho, chi, k)
        rows.append({"params": [rho, chi, k], **summary(full_topology(p), solve_oriented(p))})
    print("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]")
