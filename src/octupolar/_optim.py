"""Shared numerical machinery: sphere seeding, Newton refinement, dedupe."""

from __future__ import annotations

import numpy as np

_GOLDEN = (1.0 + 5.0 ** 0.5) / 2.0


def fibonacci_sphere(n: int) -> np.ndarray:
    """n quasi-uniform points on the unit sphere, shape (n, 3)."""
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    theta = 2.0 * np.pi * i / _GOLDEN
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def potential_batch(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.einsum("ijk,ni,nj,nk->n", a, x, x, x)


def residual_batch(a: np.ndarray, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Max-norm residual of the stationarity system A x^2 = lam x, per row.

    ``a`` is one tensor (3, 3, 3) for all rows or one per row (n, 3, 3, 3).
    """
    return np.max(np.abs(np.einsum("...ijk,...j,...k->...i", a, x, x) - lam[:, None] * x), axis=1)


# The array kernels below take points component-major, x of shape (3, n).
_J, _K = np.triu_indices(3)                           # the six pairs j <= k
_JK = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])   # position of (j, k) among them
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])
_CROSS_E3 = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])   # x -> x cross e3
_CROSS_E1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])   # x -> x cross e1


def tangent_basis(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent vectors (u, v) at each column of x, shape (3, n).

    u is x cross e3, or x cross e1 within 0.9 of the poles; v = x cross u.
    """
    u = np.where(np.abs(x[2]) < 0.9, _CROSS_E3 @ x, _CROSS_E1 @ x)
    u /= np.sqrt((u * u).sum(0))
    return u, x[_NEXT] * u[_PREV] - x[_PREV] * u[_NEXT]


def _coefficients(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 10 independent components of a symmetric tensor as matrices b (3, 6), c (6, 3).

    With q = x[_J] * x[_K], A x x = b @ q and the six entries of the matrix A x are c @ x.
    """
    c = np.asarray(a, dtype=float)[_J, _K]
    return c.T * np.where(_J == _K, 1.0, 2.0), c


def _axx(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    return b @ (x[_J] * x[_K])


def surface_gradient(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of the cubic form projected onto the tangent planes at the columns of x."""
    grad = 3.0 * _axx(_coefficients(a)[0], x)
    return grad - (grad * x).sum(0) * x


def _bordered(b: np.ndarray, x: np.ndarray, lam: np.ndarray):
    """The bordered residual (3 A x^2 - 3 lam x, (|x|^2 - 1)/2), shape (4, n), and its norms."""
    f = np.concatenate((3.0 * (_axx(b, x) - lam * x), 0.5 * ((x * x).sum(0, keepdims=True) - 1.0)))
    return f, np.sqrt(np.einsum("im,im->m", f, f))


def _bordered_step(c: np.ndarray, x: np.ndarray, lam: np.ndarray, f: np.ndarray):
    """Newton step (dx, dlam) of the bordered system at unit columns x.

    The 4x4 Jacobian [[H, -3 x], [x^T, 0]] with H = 6 A x - 3 lam I is solved
    in the orthonormal frame (x, u, v): the x component of dx is -f[3], a
    2x2 solve gives the tangent components, and the x row gives dlam.  A
    singular 2x2 gets 1e-13 added to its diagonal.
    """
    frame = np.concatenate((x, *tangent_basis(x))).reshape(3, 3, -1)
    h = np.einsum("aim,bim->abm", frame, np.einsum("ijm,ajm->aim", (c @ x)[_JK], frame))
    h *= 6.0
    h[[0, 1, 2], [0, 1, 2]] -= 3.0 * lam             # H in the frame
    fq = np.einsum("aim,im->am", frame, f[:3])
    s = np.empty_like(fq)                            # the step in the frame
    s[0] = -f[3]
    r = -(fq[1:] + s[0] * h[1:, 0])
    det = h[1, 1] * h[2, 2] - h[1, 2] * h[1, 2]
    if not det.all():
        h[[1, 2], [1, 2]] += 1e-13 * (det == 0.0)
        det = h[1, 1] * h[2, 2] - h[1, 2] * h[1, 2]
    s[1] = (h[2, 2] * r[0] - h[1, 2] * r[1]) / det
    s[2] = (h[1, 1] * r[1] - h[1, 2] * r[0]) / det
    return np.einsum("am,aim->im", s, frame), (fq[0] + np.einsum("am,am->m", h[0], s)) / 3.0


def newton_refine(a: np.ndarray, x: np.ndarray, lam: np.ndarray,
                  iters: int = 50, damping: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on the bordered system in (x, lam), batched over rows.

    Equations: 3 A x^2 - 3 lam x = 0 for a symmetric tensor a, together with
    the unit-norm constraint row (|x|^2 - 1)/2 = 0.  A step is halved, up
    to 8 times, whenever it increases the residual norm; a row whose step
    is still rejected then keeps its point and stops.  Returns the rows
    (n, 3) and lam = A x^3.
    """
    b, c = _coefficients(a)
    x = np.asarray(x, dtype=float).T.copy()
    xa, la = x.copy(), np.array(lam, dtype=float)
    active = np.arange(la.size)
    ga, gna = _bordered(b, xa, la)
    stuck = active[:0]
    for _ in range(iters):
        done = gna <= 1e-15
        done[stuck] = True
        if done.any():
            x[:, active[done]] = xa[:, done]
            keep = ~done
            active, xa, la, ga, gna = active[keep], xa[:, keep], la[keep], ga[:, keep], gna[keep]
        if active.size == 0:
            break
        dx, dl = _bordered_step(c, xa, la, ga)
        xt, lt = xa + dx, la + dl
        worse = np.flatnonzero(_bordered(b, xt, lt)[1] > gna)
        scale = 1.0
        for _half in range(8):
            if worse.size == 0:
                break
            scale *= damping
            xs = xa[:, worse] + scale * dx[:, worse]
            ls = la[worse] + scale * dl[worse]
            better = _bordered(b, xs, ls)[1] <= gna[worse]
            idx = worse[better]
            xt[:, idx] = xs[:, better]
            lt[idx] = ls[better]
            worse = worse[~better]
        xt[:, worse] = xa[:, worse]
        lt[worse] = la[worse]
        stuck = worse
        xa, la = xt, lt
        nrm = np.sqrt((xa * xa).sum(0))
        xa /= np.where(nrm == 0.0, 1.0, nrm)
        ga, gna = _bordered(b, xa, la)
    x[:, active] = xa
    return x.T, (x * _axx(b, x)).sum(0)


def canonical_flip(x: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Rows whose antipode is the class representative.

    The representative has x3 > 0, ties broken by x1 > 0 then x2 > 0.
    """
    x3_zero = np.abs(x[:, 2]) <= tol
    return (x[:, 2] < -tol) | (x3_zero & (x[:, 0] < -tol)) \
        | (x3_zero & (np.abs(x[:, 0]) <= tol) & (x[:, 1] < 0.0))


def class_distance(x: np.ndarray, lx: float, y: np.ndarray, ly: float) -> float:
    """Distance between antipodal equivalence classes (lam, x) ~ (-lam, -x)."""
    d_same = max(float(np.linalg.norm(x - y)), abs(lx - ly))
    d_flip = max(float(np.linalg.norm(x + y)), abs(lx + ly))
    return min(d_same, d_flip)


def dedupe_classes(points, tol: float = 1e-8):
    """Merge antipodal classes closer than tol; sums multiplicity hints.

    `points` is a list of (x, lam, payload) where payload carries
    (branch, multiplicity).  The first-seen branch tag wins.
    """
    out = []
    for x, lam, (branch, mult) in points:
        for k, (px, pl, (pb, pm)) in enumerate(out):
            if class_distance(x, lam, px, pl) < tol:
                out[k] = (px, pl, (pb, pm + mult))
                break
        else:
            out.append((x, lam, (branch, mult)))
    return out


def dedupe_rows(cell: np.ndarray, x: np.ndarray, lam: np.ndarray,
                mult: np.ndarray, tol: float = 1e-8):
    """`dedupe_classes` within each cell, vectorized over cells.

    Rows are grouped by ascending ``cell``.  A row merges into the first
    earlier kept row of its cell closer than ``tol`` in class distance, which
    then sums the multiplicities.  Returns (keep mask, merged multiplicities).
    """
    if cell.size == 0:
        return np.zeros(0, dtype=bool), mult
    first = np.r_[True, cell[1:] != cell[:-1]]
    group = np.cumsum(first) - 1
    pos = np.arange(cell.size) - np.flatnonzero(first)[group]
    shape = (group[-1] + 1, pos.max() + 1)
    xp = np.full(shape + (3,), np.nan)
    lp = np.full(shape, np.nan)
    xp[group, pos], lp[group, pos] = x, lam
    d_same = np.maximum(np.linalg.norm(xp[:, :, None] - xp[:, None], axis=-1),
                        np.abs(lp[:, :, None] - lp[:, None]))
    d_flip = np.maximum(np.linalg.norm(xp[:, :, None] + xp[:, None], axis=-1),
                        np.abs(lp[:, :, None] + lp[:, None]))
    close = np.minimum(d_same, d_flip) < tol      # padding is NaN, never close
    close &= np.tri(shape[1], k=-1, dtype=bool)     # only earlier rows absorb later ones
    if not close.any():
        return np.ones(cell.size, dtype=bool), mult
    kept = np.zeros(shape, dtype=bool)
    kept[group, pos] = True
    mp = np.zeros(shape, dtype=int)
    mp[group, pos] = mult
    for j in np.flatnonzero(close.any(axis=(0, 2))):
        hit = close[:, j, :j] & kept[:, :j]
        rows = np.flatnonzero(kept[:, j] & hit.any(axis=1))
        into = hit[rows].argmax(axis=1)
        kept[rows, j] = False
        mp[rows, into] += mp[rows, j]
    return kept[group, pos], mp[group, pos]


def merge_degenerate(a: np.ndarray, points, radius: float = 2e-3,
                     residual_tol: float = 1e-9):
    """Merge clusters of near-critical scatter around degenerate points.

    Two classes closer than `radius` are merged only when the normalized
    midpoint is itself critical to `residual_tol`, which distinguishes the
    flat valley around a degenerate point from genuinely distinct roots.
    """
    out = []
    for x, lam, payload in points:
        merged = False
        for k, (px, pl, pp) in enumerate(out):
            for sgn in (1.0, -1.0):
                if np.linalg.norm(sgn * x - px) < radius and abs(sgn * lam - pl) < 1e-6:
                    mid = sgn * x + px
                    nrm = np.linalg.norm(mid)
                    if nrm < 1e-12:
                        continue
                    mid /= nrm
                    lmid = np.einsum("ijk,i,j,k->", a, mid, mid, mid)
                    if residual_batch(a, mid[None], lmid[None])[0] < residual_tol:
                        merged = True
                        break
            if merged:
                break
        if not merged:
            out.append((x, lam, payload))
    return out


def _first_of_each(keys: np.ndarray) -> np.ndarray:
    """Index of the first row with each distinct key row, in sorted key order."""
    order = np.lexsort(keys.T[::-1])
    k = keys[order]
    return order[np.r_[True, (k[1:] != k[:-1]).any(axis=1)]]


def find_critical_classes(a: np.ndarray, samples: int = 4000,
                          residual_tol: float = 1e-9,
                          gradient_presteps: int = 3):
    """All antipodal classes of critical points of the cubic form on S^2.

    Seeds a Fibonacci grid, runs a few projected-gradient ascent/descent
    steps, then batched Newton; returns (classes, continuum) where each
    class is (x, lam) in canonical-representative form.  `continuum` is set
    when far more clusters survive than any isolated configuration allows.
    """
    b, _ = _coefficients(a)
    x = fibonacci_sphere(samples).T.copy()
    step = np.where(np.arange(samples) < samples // 2, 0.1, -0.1)
    for _ in range(gradient_presteps):
        x = x + step * surface_gradient(a, x)
        x /= np.sqrt((x * x).sum(0))
    x, lam = newton_refine(a, x.T, (x * _axx(b, x)).sum(0))
    ok = np.abs(_axx(b, x.T) - lam * x.T).max(0) <= residual_tol
    x, lam = x[ok], lam[ok]
    # vectorized antipodal canonicalization, then coarse pre-clustering
    flip = canonical_flip(x)
    x[flip] *= -1.0
    lam[flip] *= -1.0
    if x.shape[0] == 0:
        return [], False
    first = _first_of_each(np.round(x / 2e-7).astype(np.int64))
    x, lam = x[first], lam[first]
    continuum = x.shape[0] > 64
    if continuum:
        # a continuum of critical points; thin out to coarse representatives
        first = _first_of_each(np.round(x / 1e-2).astype(np.int64))
        x, lam = x[first], lam[first]
    points = [(xi, li, (None, 1)) for xi, li in zip(x, lam)]
    points = dedupe_classes(points, tol=1e-6)
    if not continuum:
        points = merge_degenerate(a, points, residual_tol=residual_tol)
    xs = np.array([xi for xi, _, _ in points])
    sign = np.where(canonical_flip(xs), -1.0, 1.0)
    return [(s * xi, s * li) for s, (xi, li, _) in zip(sign, points)], continuum
