"""
Classification of critical points on the sphere and global index bookkeeping.

A critical point is classified by the two eigenvalues of the tangential
Hessian P (6 A x - 3 lam I) P; when either is negligible the topological
index comes from the winding number of the normalized surface gradient
around a small circle.  The indices of all critical points must sum to 2,
the Euler characteristic of the sphere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import _optim
from .eigen import Eigenpair, solve_oriented, solved_blocks
from .potential import OrientedParams, from_rho_chi_K
from .tensors import _symmetric_array

__all__ = ["CriticalPoint", "TopologyReport", "classify", "critical_point_totals",
           "full_topology", "full_topology_batch", "oracle_critical_points"]

KINDS = ("maximum", "minimum", "saddle", "degenerate_saddle", "monkey_saddle")

_WINDING_RADIUS = 1e-3      # angular radius of the winding circle
_WINDING_SAMPLES = 720
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


def _winding_index(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Winding numbers of the normalized surface gradient around the rows of x.

    ``c`` holds the coefficients of one tensor or one per row, x has shape (n, 3).
    In each row's frame (x, u, v) the circle is the same curve
    p = (cos r, sin r cos th, sin r sin th), so the frame components of the
    gradient, A p p, are the row's tensor in its frame times one fixed
    (9, samples) basis of the products of two components of p.
    """
    frame = _optim._frame(x.T)
    m = np.stack([_optim._in_frame(c, frame, k) for k in range(3)])   # (k, a, b, n)
    th = 2.0 * np.pi * np.arange(_WINDING_SAMPLES) / _WINDING_SAMPLES
    p = np.stack((np.full(_WINDING_SAMPLES, np.cos(_WINDING_RADIUS)),
                  np.sin(_WINDING_RADIUS) * np.cos(th), np.sin(_WINDING_RADIUS) * np.sin(th)))
    grad = m.transpose(3, 1, 0, 2).reshape(-1, 3, 9) @ (p[:, None] * p).reshape(9, _WINDING_SAMPLES)
    radial = np.einsum("ram,am->rm", grad, p)
    gu, gv = grad[:, 1] - radial * p[1], grad[:, 2] - radial * p[2]
    ang = np.unwrap(np.arctan2(gv, gu), axis=1)
    closing = np.arctan2(gv[:, 0], gu[:, 0]) - ang[:, -1]
    closing = (closing + np.pi) % (2.0 * np.pi) - np.pi
    return np.rint((ang[:, -1] - ang[:, 0] + closing) / (2.0 * np.pi)).astype(int)


def _classify_rows(c: np.ndarray, x: np.ndarray, lam: np.ndarray):
    """Kind, index and tangent-Hessian eigenvalues of critical points.

    ``c`` holds the coefficients of one tensor or one per row.  The
    eigenvalues of the tangential Hessian P (6 A x - 3 lam I) P decide the
    kind; rows where either is negligible (`_optim.tangent_hessian`, whose
    rule the oracle's early stop shares) get their index from the winding
    number.  Returns (kinds, indices, eigenvalues (n, 2) ascending).

    The rows must be critical points, and callers own that check: `classify`
    makes it on its outside input, while `solve_block` has already dropped
    every row above its 1e-9 residual tolerance and the oracle keeps only
    rows within 1e-9 on its tensor scaled to max |a| in [1/2, 1), both well
    inside the 1e-6 * max(1, max |a|) that `classify` allows.
    """
    eigs, both_degenerate, degenerate = _optim.tangent_hessian(c, x, lam)
    h1, h2 = eigs[:, 0], eigs[:, 1]
    kind = np.where(h2 < 0, 0, np.where(h1 > 0, 1, 2))    # KINDS position
    index = np.where(kind < 2, 1, -1)
    rows = degenerate.nonzero()[0]
    if rows.size:
        idx = index[rows] = _winding_index(_optim._rows(c, rows), x[rows])
        kind[rows] = np.select([idx == 1, idx == -1, (idx == -2) & both_degenerate[rows]],
                               [np.where(h1[rows] + h2[rows] < 0, 0, 1), 2, 4], 3)
    return [KINDS[k] for k in kind.tolist()], index, eigs


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
    """Classify one critical point of the cubic form of a fully symmetric tensor on the sphere."""
    a = _symmetric_array(t)
    if isinstance(pair, Eigenpair):
        x, lam = np.asarray(pair.x, dtype=float), float(pair.lam)
        branch, mult = pair.branch, pair.multiplicity_hint
    else:
        x, lam = np.asarray(pair[0], dtype=float), float(pair[1])
        branch, mult = None, 1
    b, c = _optim._coefficients(a)
    res = _optim._residual(b, x[:, None], lam)[0]
    if res > 1e-6 * max(1.0, np.abs(a).max()):
        raise ValueError(f"point is not critical (residual {res:.2e})")
    kinds, index, eigs = _classify_rows(c, x[None], np.array([lam]))
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
    t = from_rho_chi_K(p)               # a typed tensor: classify need not check its symmetry
    points = []
    for pair in sol.pairs:
        cp = classify(t, pair)
        points.append(cp)
        points.append(cp.antipode())
    return _report(points, p, sol.continuum)


def full_topology_batch(params) -> list[TopologyReport]:
    """`full_topology` for each of a sequence of parameter points.

    Each block of BLOCK_CELLS points is solved and classified in one
    vectorized pass.  Raises the error of the first failing point, as a
    loop over `full_topology` would.
    """
    out = []
    for block in solved_blocks(params):
        c = _optim._coefficients(block.arrays)[1][..., block.cell]
        points = _points(block.x, block.lam, *_classify_rows(c, block.x, block.lam),
                         block.branch, block.mult)
        for i, p in enumerate(block.params):
            if block.errors[i] is not None:
                raise RuntimeError(block.errors[i])
            rows = block.rows(i)
            out.append(_report(points[2 * rows.start:2 * rows.stop], p, bool(block.continuum[i])))
    return out


def critical_point_totals(params) -> list[int]:
    """`full_topology(p).total` for each of a sequence of parameter points, -1 at a continuum.

    Classifies each block's rows as `full_topology_batch` does and counts
    them per cell, without building points or reports.  Raises the error of
    the first failing point, with the message `full_topology` gives there.
    """
    out = []
    for block in solved_blocks(params):
        n = len(block.params)
        c = _optim._coefficients(block.arrays)[1][..., block.cell]
        kinds, index, eigs = _classify_rows(c, block.x, block.lam)
        index_sum = np.bincount(block.cell, weights=2 * index, minlength=n)
        failed = np.array([e is not None for e in block.errors])
        failed |= ~block.continuum & (index_sum != 2)
        if failed.any():
            i = int(np.argmax(failed))
            if block.errors[i] is not None:
                raise RuntimeError(block.errors[i])
            r = block.rows(i)       # points of this one cell, for the message _report raises
            _report(_points(block.x[r], block.lam[r], kinds[r.start:r.stop], index[r], eigs[r]),
                    block.params[i], False)
        out += np.where(block.continuum, -1, 2 * np.bincount(block.cell, minlength=n)).tolist()
    return out


def oracle_critical_points(t, samples: int = 100_000) -> TopologyReport:
    """Independent dense-sampling search, classified like the solver output.

    Fibonacci-sphere seeding with projected-gradient warm-up and batched
    Newton refinement.  The classes are the seeds that Newton converged to
    residual 1e-9, one per 2e-7 key, deduped to 1e-6 up to x ~ -x; classes
    closer than 1e-4 then merge unless the derivative of the potential at
    their midpoint reads two roots, as two simple critical points next to
    the rim do, rather than rows spread along the valley of one double
    root (`_optim.merge_degenerate`).  More than count_bound(3, 3) = 7
    isolated real classes raise.  The seeds run in slices that each span
    the sphere, a first one of 1,024 and then 8,192 at a time, and the
    search stops after any slice once its real classes, none degenerate
    and no continuum, together with the non-real eigenvector classes that
    a small complex Newton verifies, number count_bound(3, 3) = 7: then
    the skipped seeds could add only duplicates, as `_optim._complete`
    argues after Cartwright and Sturmfels (2013).  Most tensors stop after
    the first slice, so the search's memory does not grow with ``samples``.

    The tensor must be fully symmetric to 1e-10 max |a|; pass
    ``tensors.symmetrize(a)`` for the cubic form of any other tensor.
    ``samples`` must be an integer (``np.int64`` included) of at least 1000.
    """
    try:
        samples = operator.index(samples)
    except TypeError:
        raise TypeError(f"samples must be an integer, not {type(samples).__name__}") from None
    if samples < 1000:
        raise ValueError("use at least 1000 samples")
    a = _symmetric_array(t)
    classes, continuum = _optim.find_critical_classes(a, samples=samples)
    points = []
    if classes:
        x = np.array([xi for xi, _ in classes])
        lam = np.array([li for _, li in classes])
        points = _points(x, lam, *_classify_rows(_optim._coefficients(a)[1], x, lam))
    if continuum:
        return TopologyReport(params=None, points=tuple(points),
                              index_sum=sum(p.index for p in points),
                              counts={}, continuum=True)
    return _report(points, None, continuum)
