"""
Classification of critical points on the sphere and global index bookkeeping.

A critical point is classified by the two eigenvalues of the tangential
Hessian P (6 A x - 3 lam I) P; when either is negligible the topological
index comes from the winding number of the normalized surface gradient
around a small circle.  The indices of all critical points must sum to 2,
the Euler characteristic of the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _optim
from .eigen import Eigenpair, solve_oriented, solved_blocks
from .potential import OrientedParams, from_rho_chi_K
from .tensors import as_array

__all__ = ["CriticalPoint", "TopologyReport", "classify", "full_topology",
           "full_topology_batch", "iter_full_topology", "oracle_critical_points"]

KINDS = ("maximum", "minimum", "saddle", "degenerate_saddle", "monkey_saddle")

_DEGEN_REL = 1e-7
_SWAP = {"maximum": "minimum", "minimum": "maximum"}


@dataclass(frozen=True)
class CriticalPoint:
    x: np.ndarray
    lam: float
    kind: str
    index: int
    hessian_eigs: tuple[float, float]
    branch: str | None = None       # solver branch, when classified from an Eigenpair
    multiplicity_hint: int = 1

    def antipode(self) -> "CriticalPoint":
        h1, h2 = self.hessian_eigs
        return CriticalPoint(x=-self.x, lam=-self.lam, kind=_SWAP.get(self.kind, self.kind),
                             index=self.index, hessian_eigs=(-h2, -h1), branch=self.branch,
                             multiplicity_hint=self.multiplicity_hint)


@dataclass(frozen=True)
class TopologyReport:
    params: OrientedParams | None
    points: tuple
    index_sum: int
    counts: dict
    continuum: bool = False

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def n_max(self) -> int:
        return self.counts.get("maximum", 0)

    @property
    def n_min(self) -> int:
        return self.counts.get("minimum", 0)

    @property
    def n_saddle(self) -> int:
        return sum(self.counts.get(k, 0)
                   for k in ("saddle", "degenerate_saddle", "monkey_saddle"))


def _winding_index(a: np.ndarray, x: np.ndarray, radius: float = 1e-3,
                   samples: int = 720) -> int:
    """Winding number of the normalized surface gradient around x."""
    u, v = (w[:, 0] for w in _optim.tangent_basis(x[:, None]))
    th = 2.0 * np.pi * np.arange(samples) / samples
    pts = (np.cos(radius) * x[None, :]
           + np.sin(radius) * (np.cos(th)[:, None] * u + np.sin(th)[:, None] * v))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    sgrad = _optim.surface_gradient(a, pts.T).T
    gu = sgrad @ u
    gv = sgrad @ v
    ang = np.unwrap(np.arctan2(gv, gu))
    closing = np.arctan2(gv[0], gu[0]) - ang[-1]
    closing = (closing + np.pi) % (2.0 * np.pi) - np.pi
    total = (ang[-1] - ang[0]) + closing
    return int(np.rint(total / (2.0 * np.pi)))


def _classify_rows(a: np.ndarray, x: np.ndarray, lam: np.ndarray):
    """Kind, index and tangent-Hessian eigenvalues of critical points.

    One tensor per row, ``a`` of shape (n, 3, 3, 3).  The eigenvalues of the
    tangential Hessian P (6 A x - 3 lam I) P decide the kind; rows where
    either is negligible get their index from the winding number.  Returns
    (kinds, indices, eigenvalues (n, 2) ascending).
    """
    scale = np.maximum(np.max(np.abs(a), axis=(1, 2, 3)), 1e-300)
    res = _optim.residual_batch(a, x, lam)
    bad = np.flatnonzero(res > 1e-6 * np.maximum(1.0, scale))
    if bad.size:
        raise ValueError(f"point is not critical (residual {res[bad[0]]:.2e})")
    basis = np.stack([w.T for w in _optim.tangent_basis(x.T)], axis=1)   # (n, 2, 3)
    h = 6.0 * np.einsum("rijk,rk->rij", a, x) - 3.0 * lam[:, None, None] * np.eye(3)
    eigs = np.linalg.eigvalsh(basis @ h @ basis.transpose(0, 2, 1))
    h1, h2 = eigs[:, 0], eigs[:, 1]
    big = np.maximum(np.abs(h1), np.abs(h2))
    both_degenerate = big <= _DEGEN_REL * 6.0 * scale
    one_degenerate = (np.minimum(np.abs(h1), np.abs(h2)) <= _DEGEN_REL * big) | (big <= 0.0)
    definite = np.where(h2 < 0, 0, np.where(h1 > 0, 1, 2))    # KINDS position
    kinds = [KINDS[d] for d in definite.tolist()]
    index = np.where(definite < 2, 1, -1)
    for r in np.flatnonzero(both_degenerate | one_degenerate):
        idx = _winding_index(a[r], x[r])
        if idx == 1:
            kinds[r] = "maximum" if (h1[r] + h2[r]) < 0 else "minimum"
        elif idx == -1:
            kinds[r] = "saddle"
        elif idx == -2 and both_degenerate[r]:
            kinds[r] = "monkey_saddle"
        else:
            kinds[r] = "degenerate_saddle"
        index[r] = idx
    return kinds, index, eigs


def _points(x, lam, kinds, index, eigs, branch=None, mult=None) -> list:
    """Critical points from classified rows, each followed by its antipode."""
    n = len(kinds)
    branch = [None] * n if branch is None else branch
    mult = [1] * n if mult is None else mult.tolist()
    out = []
    for row in zip(x, lam.tolist(), kinds, index.tolist(), map(tuple, eigs.tolist()), branch, mult):
        cp = CriticalPoint(*row)
        out += (cp, cp.antipode())
    return out


def classify(t, pair: Eigenpair | tuple) -> CriticalPoint:
    """Classify one critical point of the cubic form restricted to the sphere."""
    a = as_array(t)
    if isinstance(pair, Eigenpair):
        x, lam = np.asarray(pair.x, dtype=float), float(pair.lam)
        branch, mult = pair.branch, pair.multiplicity_hint
    else:
        x, lam = np.asarray(pair[0], dtype=float), float(pair[1])
        branch, mult = None, 1
    kinds, index, eigs = _classify_rows(a[None], x[None], np.array([lam]))
    h1, h2 = eigs[0].tolist()
    return CriticalPoint(x=x, lam=lam, kind=kinds[0], index=int(index[0]), hessian_eigs=(h1, h2),
                         branch=branch, multiplicity_hint=mult)


def _report(points, params, continuum) -> TopologyReport:
    counts: dict = {}
    for pt in points:
        counts[pt.kind] = counts.get(pt.kind, 0) + 1
    index_sum = sum(pt.index for pt in points)
    if not continuum and index_sum != 2:
        where = "" if params is None else f" at {params}"
        found = ", ".join(f"{pt.kind}[{pt.index:+d}] lam={pt.lam:.6g}" for pt in points[::2])
        raise RuntimeError(f"index sum {index_sum} != 2{where}; classification inconsistent; "
                           f"{len(points) // 2} classes found: {found}")
    return TopologyReport(params=params, points=tuple(points),
                          index_sum=index_sum, counts=counts, continuum=continuum)


def full_topology(p: OrientedParams) -> TopologyReport:
    """Solve and classify every critical point (both antipodal partners)."""
    sol = solve_oriented(p)
    a = from_rho_chi_K(p).array
    points = []
    for pair in sol.pairs:
        cp = classify(a, pair)
        points.append(cp)
        points.append(cp.antipode())
    return _report(points, p, sol.continuum)


def iter_full_topology(params):
    """`full_topology` for each of a sequence of parameter points, lazily.

    Each block of BLOCK_CELLS points is solved and classified in one
    vectorized pass, and its reports are yielded before the next block
    starts, so a caller that keeps only a summary holds one block at a time.
    Raises the error of the first failing point, as a loop over
    `full_topology` would.
    """
    for block in solved_blocks(params):
        points = _points(block.x, block.lam, *_classify_rows(block.arrays[block.cell], block.x,
                                                             block.lam), block.branch, block.mult)
        for i, p in enumerate(block.params):
            if block.errors[i] is not None:
                raise RuntimeError(block.errors[i])
            rows = block.rows(i)
            yield _report(points[2 * rows.start:2 * rows.stop], p, bool(block.continuum[i]))


def full_topology_batch(params) -> list[TopologyReport]:
    """`full_topology` for each of a sequence of parameter points (see `iter_full_topology`)."""
    return list(iter_full_topology(params))


def oracle_critical_points(t, samples: int = 100_000) -> TopologyReport:
    """Independent dense-sampling search, classified like the solver output.

    Fibonacci-sphere seeding with projected-gradient warm-up and batched
    Newton refinement; clusters of near-critical scatter around degenerate
    points are merged through a midpoint-criticality test.
    """
    if samples < 1000:
        raise ValueError("use at least 1000 samples")
    a = as_array(t)
    classes, continuum = _optim.find_critical_classes(a, samples=samples)
    points = []
    if classes:
        x = np.array([xi for xi, _ in classes])
        lam = np.array([li for _, li in classes])
        points = _points(x, lam, *_classify_rows(np.broadcast_to(a, (len(x), 3, 3, 3)), x, lam))
    if continuum:
        return TopologyReport(params=None, points=tuple(points),
                              index_sum=sum(p.index for p in points),
                              counts={}, continuum=True)
    return _report(points, None, continuum)
