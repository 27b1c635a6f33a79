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


def surface_gradient(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of the cubic form projected onto the tangent planes at the rows of x."""
    grad = 3.0 * np.einsum("ijk,nj,nk->ni", a, x, x)
    return grad - np.einsum("ni,ni->n", grad, x)[:, None] * x


def newton_refine(a: np.ndarray, x: np.ndarray, lam: np.ndarray,
                  iters: int = 50, damping: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on the bordered system in (x, lam), batched over rows.

    Equations: 3 A x^2 - 3 lam x = 0 together with the unit-norm constraint
    row (|x|^2 - 1)/2 = 0; a step is halved whenever it increases the
    residual norm.
    """
    x = np.array(x, dtype=float, copy=True)
    lam = np.array(lam, dtype=float, copy=True)
    n = x.shape[0]
    eye = np.eye(3)

    def system(xv, lv):
        ax = np.einsum("ijk,nk->nij", a, xv)
        f1 = 3.0 * np.einsum("nij,nj->ni", ax, xv) - 3.0 * lv[:, None] * xv
        f2 = 0.5 * (np.einsum("ni,ni->n", xv, xv) - 1.0)
        return ax, np.concatenate([f1, f2[:, None]], axis=1)

    active = np.arange(n)
    xa, la = x[active], lam[active]
    ga = system(xa, la)[1]
    gna = np.linalg.norm(ga, axis=1)
    for _ in range(iters):
        done = gna <= 1e-15
        if np.any(done):
            x[active[done]] = xa[done]
            lam[active[done]] = la[done]
            active = active[~done]
            xa, la, ga, gna = xa[~done], la[~done], ga[~done], gna[~done]
        if active.size == 0:
            break
        m = active.size
        ax = np.einsum("ijk,nk->nij", a, xa)
        jac = np.zeros((m, 4, 4))
        jac[:, :3, :3] = 6.0 * ax - 3.0 * la[:, None, None] * eye
        jac[:, :3, 3] = -3.0 * xa
        jac[:, 3, :3] = xa
        try:
            step = np.linalg.solve(jac, -ga[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            jac[:, np.arange(4), np.arange(4)] += 1e-13
            step = np.linalg.solve(jac, -ga[:, :, None])[:, :, 0]
        xt = xa + step[:, :3]
        lt = la + step[:, 3]
        gt = system(xt, lt)[1]
        gtn = np.linalg.norm(gt, axis=1)
        worse = np.flatnonzero(gtn > gna)
        scale = 1.0
        for _half in range(8):
            if worse.size == 0:
                break
            scale *= damping
            xs = xa[worse] + scale * step[worse, :3]
            ls = la[worse] + scale * step[worse, 3]
            gs = np.linalg.norm(system(xs, ls)[1], axis=1)
            better = gs <= gna[worse]
            idx = worse[better]
            xt[idx] = xs[better]
            lt[idx] = ls[better]
            gtn[idx] = gs[better]
            worse = worse[~better]
        if worse.size:
            xt[worse] = xa[worse]
            lt[worse] = la[worse]
        xa, la = xt, lt
        nrm = np.linalg.norm(xa, axis=1)
        nrm[nrm == 0.0] = 1.0
        xa /= nrm[:, None]
        ga = system(xa, la)[1]
        gna = np.linalg.norm(ga, axis=1)
    x[active] = xa
    lam[active] = la
    lam = potential_batch(a, x)
    return x, lam


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


def find_critical_classes(a: np.ndarray, samples: int = 4000,
                          residual_tol: float = 1e-9,
                          gradient_presteps: int = 3):
    """All antipodal classes of critical points of the cubic form on S^2.

    Seeds a Fibonacci grid, runs a few projected-gradient ascent/descent
    steps, then batched Newton; returns (classes, continuum) where each
    class is (x, lam) in canonical-representative form.  `continuum` is set
    when far more clusters survive than any isolated configuration allows.
    """
    x = fibonacci_sphere(samples)
    half = samples // 2
    sign = np.ones(samples)
    sign[half:] = -1.0
    for _ in range(gradient_presteps):
        x = x + 0.1 * sign[:, None] * surface_gradient(a, x)
        x /= np.linalg.norm(x, axis=1)[:, None]
    lam = potential_batch(a, x)
    x, lam = newton_refine(a, x, lam)
    res = residual_batch(a, x, lam)
    ok = res <= residual_tol
    x, lam = x[ok], lam[ok]
    # vectorized antipodal canonicalization, then coarse pre-clustering
    flip = canonical_flip(x)
    x[flip] *= -1.0
    lam[flip] *= -1.0
    if x.shape[0] == 0:
        return [], False
    keys, first = np.unique(np.round(x / 2e-7).astype(np.int64), axis=0, return_index=True)
    x, lam = x[first], lam[first]
    continuum = x.shape[0] > 64
    if continuum:
        # a continuum of critical points; thin out to coarse representatives
        _, first = np.unique(np.round(x / 1e-2).astype(np.int64), axis=0, return_index=True)
        x, lam = x[first], lam[first]
    points = [(xi, li, (None, 1)) for xi, li in zip(x, lam)]
    points = dedupe_classes(points, tol=1e-6)
    if not continuum:
        points = merge_degenerate(a, points, residual_tol=residual_tol)
    xs = np.array([xi for xi, _, _ in points])
    sign = np.where(canonical_flip(xs), -1.0, 1.0)
    return [(s * xi, s * li) for s, (xi, li, _) in zip(sign, points)], continuum
