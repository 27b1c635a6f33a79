"""Shared numerical machinery: sphere seeding, Newton refinement, dedupe, the class bound."""

from __future__ import annotations

import sys
from functools import cache

import numpy as np

_GOLDEN = (1.0 + 5.0 ** 0.5) / 2.0


def _debug(msg: str, *args) -> None:
    """Log msg % args at DEBUG on the "octupolar" logger.

    Only a program that has imported `logging` can have set the DEBUG level
    that lets the record through, so without it there is nothing to emit;
    importing it here would add 4-6 ms to the first oracle call.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("octupolar").debug(msg, *args)


def _lattice(i: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The components (x, y, z) of the points i of the n-point Fibonacci lattice."""
    z = 1.0 - 2.0 * (i + 0.5) / n
    theta = 2.0 * np.pi * i / _GOLDEN
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return r * np.cos(theta), r * np.sin(theta), z


@cache
def fibonacci_sphere(n: int) -> np.ndarray:
    """n quasi-uniform points on the unit sphere, shape (n, 3); built once per n, read-only."""
    x = np.stack(_lattice(np.arange(n), n), axis=1)
    x.flags.writeable = False
    return x


# The array kernels below take points component-major, x of shape (3, n), real or complex.
# Every internal evaluation of a symmetric cubic form goes through their coefficients.
_J, _K = np.triu_indices(3)                           # the six pairs j <= k
_JK = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])   # position of (j, k) among them
_W = np.where(_J == _K, 1.0, 2.0)                    # how often each pair occurs in A x x
_C = 9 * _J[:, None] + 3 * _K[:, None] + np.arange(3)  # flat positions of a_jki, (6, 3)
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
    One tensor per row, a of shape (n, 3, 3, 3), gives b (3, 6, n) and c (6, 3, n).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 3:
        c = a.reshape(27)[_C]
        return c.T * _W, c
    c = a.reshape(-1, 27).T[_C]             # component-major, so the rows slice by [..., rows]
    return np.swapaxes(c, 0, 1) * _W[:, None], c


def _ax(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    return c @ x if c.ndim == 2 else np.einsum("pin,in->pn", c, x)


def _axx(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    q = x[_J] * x[_K]
    return b @ q if b.ndim == 2 else np.einsum("ipn,pn->in", b, q)


def _value(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The cubic form A x^3 at each column of x."""
    return (x * _axx(b, x)).sum(0)


def _residual(b: np.ndarray, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Max-norm residual max |A x^2 - lam x| of the stationarity system at each column of x."""
    return np.abs(_axx(b, x) - lam * x).max(0)


def _frame(x: np.ndarray) -> np.ndarray:
    """The orthonormal frame (x, u, v) at each unit column of x, shape (3, 3, n): f_a = frame[a]."""
    return np.concatenate((x, *tangent_basis(x))).reshape(3, 3, -1)


def _in_frame(c: np.ndarray, frame: np.ndarray, k: int) -> np.ndarray:
    """The matrix A f_k in the frame: entries f_a . (A f_k) f_b, shape (3, 3, n)."""
    return np.einsum("aim,bim->abm", frame, np.einsum("ijm,ajm->aim", _ax(c, frame[k])[_JK], frame))


def _rows(coef: np.ndarray, idx) -> np.ndarray:
    """The coefficients of the rows idx: all of them when one tensor serves every row."""
    return coef if coef.ndim == 2 else coef[..., idx]


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
    frame = _frame(x)
    h = 6.0 * _in_frame(c, frame, 0)
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
                  iters: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on the bordered system in (x, lam), batched over rows.

    Equations: 3 A x^2 - 3 lam x = 0 for a symmetric tensor a, together with
    the unit-norm constraint row (|x|^2 - 1)/2 = 0.  A step is halved, up
    to 8 times, whenever it increases the residual norm; a row whose step
    is still rejected then keeps its point and stops.  Returns the rows
    (n, 3) and lam = A x^3.

    ``a`` is one tensor (3, 3, 3) for all rows or one per row (n, 3, 3, 3);
    rows never interact, so the rows of many tensors can share one call.
    """
    b, c = _coefficients(a)
    x = np.asarray(x, dtype=float).T.copy()
    xa, la = x.copy(), np.array(lam, dtype=float)
    active = np.arange(la.size)
    ba, ca = b, c
    ga, gna = _bordered(b, xa, la)
    stuck = active[:0]
    for _ in range(iters):
        done = gna <= 1e-15
        done[stuck] = True
        if done.any():
            x[:, active[done]] = xa[:, done]
            keep = ~done
            active, xa, la, ga, gna = active[keep], xa[:, keep], la[keep], ga[:, keep], gna[keep]
            ba, ca = _rows(ba, keep), _rows(ca, keep)
        if active.size == 0:
            break
        dx, dl = _bordered_step(ca, xa, la, ga)
        xt, lt = xa + dx, la + dl
        worse = np.flatnonzero(_bordered(ba, xt, lt)[1] > gna)
        scale = 1.0
        for _half in range(8):
            if worse.size == 0:
                break
            scale *= 0.5
            xs = xa[:, worse] + scale * dx[:, worse]
            ls = la[worse] + scale * dl[worse]
            better = _bordered(_rows(ba, worse), xs, ls)[1] <= gna[worse]
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
        ga, gna = _bordered(ba, xa, la)
    x[:, active] = xa
    return x.T, _value(b, x)


_DEGEN_REL = 1e-7        # relative size of a negligible tangent-Hessian eigenvalue
_FLIP_TOL = 1e-9         # |coordinate| that canonical_flip counts as zero
_MERGE_RADIUS = 1e-4     # merge_degenerate's cluster radius
_CRITICAL_TOL = 1e-9     # residual of a critical point in the dense search
_PRESTEPS = 3            # projected-gradient steps before the dense search's Newton
_FIRST = 1024            # seeds in the dense search's first slice, which most tensors stop after
_SLICE = 8192            # seeds per later slice; its Newton temporaries stay in cache


def tangent_hessian(c: np.ndarray, x: np.ndarray, lam: np.ndarray):
    """Tangent-Hessian eigenvalues at critical rows, and which of them are degenerate.

    ``c`` holds the coefficients of one tensor or one per row, x has shape (n, 3).
    Returns the ascending eigenvalues (n, 2) of P (6 A x - 3 lam I) P, in closed
    form, the rows where both are negligible against 6 max |a|, and the rows
    where either is: below _DEGEN_REL of the other, or both zero.
    """
    h = 6.0 * _in_frame(c, _frame(x.T), 0)                # 6 A x in the frame (x, u, v)
    mid = 0.5 * (h[1, 1] + h[2, 2]) - 3.0 * lam
    half = np.hypot(0.5 * (h[1, 1] - h[2, 2]), h[1, 2])
    small, big = np.abs(np.abs(mid) - half), np.abs(mid) + half    # the eigenvalues' magnitudes
    flat = big <= _DEGEN_REL * 6.0 * np.abs(c).max(axis=(0, 1))
    return np.stack((mid - half, mid + half), axis=1), flat, flat | (small <= _DEGEN_REL * big)


def count_bound(r: int, n: int) -> int:
    """Upper bound ((r-1)^n - 1)/(r-2) on equivalence classes of eigenvalues."""
    if r <= 2:
        raise ValueError("rank r must exceed 2")
    if n < 1:
        raise ValueError("n must be positive")
    return ((r - 1) ** n - 1) // (r - 2)


def canonical_flip(x: np.ndarray) -> np.ndarray:
    """Rows whose antipode is the class representative.

    The representative has x3 > 0, ties broken by x1 > 0 then x2 > 0.
    """
    x3_zero = np.abs(x[:, 2]) <= _FLIP_TOL
    return (x[:, 2] < -_FLIP_TOL) | (x3_zero & (x[:, 0] < -_FLIP_TOL)) \
        | (x3_zero & (np.abs(x[:, 0]) <= _FLIP_TOL) & (x[:, 1] < 0.0))


def dedupe_rows(cell: np.ndarray, x: np.ndarray, lam: np.ndarray,
                mult: np.ndarray, tol: float = 1e-8):
    """Merge antipodal classes (lam, x) ~ (-lam, -x) within each cell, vectorized over cells.

    Rows are grouped by ascending ``cell``.  A row merges into the first
    earlier kept row of its cell closer than ``tol`` in class distance, the
    smaller of max(|x - y|, |lx - ly|) and max(|x + y|, |lx + ly|); that row
    then sums the multiplicities.  Returns (keep mask, merged multiplicities).

    Only rows that can merge are compared.  A close pair has
    ||lx| - |ly|| <= min(|lx - ly|, |lx + ly|) < tol, also in floating
    point, so sorting a cell's rows by |lam| and cutting wherever
    consecutive |lam| differ by tol or more (or are NaN) puts both rows of
    a close pair in one run.  Whether a row is kept, and where it merges,
    then depends only on the earlier rows of its run, so each run of two
    or more rows goes through the all-pairs comparison on its own, in row
    order; a block without such a run returns at once.
    """
    keep = np.ones(cell.size, dtype=bool)
    mag = np.abs(lam)
    order = np.lexsort((mag, cell))
    m, c = mag[order], cell[order]
    joined = (c[1:] == c[:-1]) & (m[1:] - m[:-1] < tol)
    if not joined.any():
        return keep, mult
    start = np.concatenate(([True], ~joined))
    member = ~start | np.concatenate((joined, [False]))
    group = np.cumsum(start[member]) - 1
    rows = order[member]
    by_row = np.lexsort((rows, group))
    rows, group = rows[by_row], group[by_row]
    pos = np.arange(rows.size) - np.searchsorted(group, group)
    shape = (group[-1] + 1, pos.max() + 1)
    xp = np.full(shape + (3,), np.nan)
    lp = np.full(shape, np.nan)
    xp[group, pos], lp[group, pos] = x[rows], lam[rows]
    diff, pair_sum = xp[:, :, None] - xp[:, None], xp[:, :, None] + xp[:, None]
    d_same = np.maximum(np.sqrt((diff * diff).sum(axis=-1)), np.abs(lp[:, :, None] - lp[:, None]))
    d_flip = np.maximum(np.sqrt((pair_sum * pair_sum).sum(axis=-1)),
                        np.abs(lp[:, :, None] + lp[:, None]))
    close = np.minimum(d_same, d_flip) < tol      # padding is NaN, never close
    close &= np.tri(shape[1], k=-1, dtype=bool)     # only earlier rows absorb later ones
    if not close.any():
        return keep, mult
    kept = np.zeros(shape, dtype=bool)
    kept[group, pos] = True
    mp = np.zeros(shape, dtype=int)
    mp[group, pos] = mult[rows]
    for j in np.flatnonzero(close.any(axis=(0, 2))):
        hit = close[:, j, :j] & kept[:, :j]
        runs = np.flatnonzero(kept[:, j] & hit.any(axis=1))
        into = hit[runs].argmax(axis=1)
        kept[runs, j] = False
        mp[runs, into] += mp[runs, j]
    mult = np.array(mult, dtype=int)
    keep[rows], mult[rows] = kept[group, pos], mp[group, pos]
    return keep, mult


def dedupe_classes(points, tol: float = 1e-8):
    """`dedupe_rows` on one cell of (x, lam, (branch, multiplicity)) points.

    Each kept point keeps its own x, lam and branch tag and sums the
    multiplicities of the points merged into it.
    """
    if not points:
        return []
    x = np.array([p[0] for p in points])
    lam = np.array([p[1] for p in points])
    keep, mult = dedupe_rows(np.zeros(len(points), dtype=int), x, lam,
                             np.array([p[2][1] for p in points]), tol)
    return [(p[0], p[1], (p[2][0], int(m))) for p, k, m in zip(points, keep, mult) if k]


def merge_degenerate(a: np.ndarray, points):
    """Merge the converged rows that spread along the flat valley of a double root.

    Newton converges only linearly to a degenerate point, so rows several
    1e-6 apart pass the residual gate there, each a class to
    `dedupe_classes`.  Two classes x and y closer than _MERGE_RADIUS, up to
    x ~ -x, are told apart by the derivative g of the potential along their
    chord, of unit direction u and length d.  If both are roots of g, the
    cubic interpolant of g from the second derivatives e = u^T H u there
    reads d (e_x - e_y) / 8 at the midpoint, which the tangential gradient
    at the normalized midpoint then matches.  Near one double root, where
    g ~ alpha (s - s0)^2, the midpoint reads alpha's sign and the two-root
    value the other.  Two classes merge when the midpoint reads less than
    half the two-root value.  Classes are visited by ascending smaller
    tangent-Hessian eigenvalue magnitude, and each kept one absorbs the
    later classes it merges with, so a cluster keeps the row nearest its
    double root, which the winding number then classifies.
    """
    x = np.array([p[0] for p in points]).reshape(-1, 3)
    sign = np.where(np.abs(x[:, None] - x).max(2) <= np.abs(x[:, None] + x).max(2), 1.0, -1.0)
    y = sign[..., None] * x             # y[i, j]: x_j on the side of x_i
    dist = np.sqrt(((y - x[:, None]) ** 2).sum(2))
    i, j = np.nonzero(np.triu(dist < _MERGE_RADIUS, 1))
    if i.size == 0:
        return points
    b, c = _coefficients(a)
    lam = np.array([p[1] for p in points])
    d, xi, yj = dist[i, j], x[i].T, y[i, j].T
    u, mid = (yj - xi) / d, xi + yj
    mid /= np.sqrt((mid * mid).sum(0))
    t = _axx(b, mid)
    g = 3.0 * (u * (t - (mid * t).sum(0) * mid)).sum(0)     # the radial part cancels only to 1e-16 / d

    def curvature(z, mu):
        return 6.0 * np.einsum("ik,ijk,jk->k", u, _ax(c, z)[_JK], u) - 3.0 * mu

    two_roots = d * (curvature(xi, lam[i]) - curvature(yj, sign[i, j] * lam[j])) / 8.0
    order = np.argsort(np.abs(tangent_hessian(c, x, lam)[0]).min(1), kind="stable")
    merge = np.zeros(dist.shape, dtype=bool)
    merge[i, j] = merge[j, i] = g * two_roots < 0.5 * two_roots ** 2
    keep = np.ones(len(points), dtype=bool)
    for k in order:
        if keep[k]:
            keep[merge[k]] = False
    return [p for p, k in zip(points, keep) if k]


def _first_of_each(keys: np.ndarray, rank: np.ndarray | None = None) -> np.ndarray:
    """Index of the first row with each distinct key row, in sorted key order.

    First means of lowest ``rank``, when given, and then of lowest position.
    """
    order = np.lexsort(keys.T[::-1] if rank is None else (rank, *keys.T[::-1]))
    k = keys[order]
    new = np.ones(len(k), dtype=bool)
    new[1:] = (k[1:] != k[:-1]).any(axis=1)
    return order[new]


def _first_rows(x: np.ndarray, lam: np.ndarray, index: np.ndarray, cell: float = 2e-7):
    """The row (x, lam, index) of lowest index of each key round(x / cell), in sorted key order."""
    first = _first_of_each(np.round(x / cell).astype(np.int64), index)
    return x[first], lam[first], index[first]


def _seeds(samples: int):
    """The dense search's seeds, slice by slice: (x (3, m), lattice indices (m,)) per slice.

    With n = ceil(samples / _FIRST), the `fibonacci_sphere(samples)` points
    are visited in residue order: every lattice index = 0 (mod n), then every
    index = 1, and so on.  The lattice runs from pole to pole, so each
    residue class, of at most _FIRST points, spans the whole sphere.  The
    first slice is the first _FIRST points of this order, residue class 0
    whole among them, and each later slice the next _SLICE; samples <= _FIRST
    is one slice in the lattice order.

    Each slice's indices come from where the residue classes begin, and its
    seeds from the lattice formula at those indices, bitwise equal to those
    rows of `fibonacci_sphere(samples)`; nothing of size ``samples`` is built
    or cached.
    """
    n = -(-samples // _FIRST)
    k = np.arange(n)
    start = k * (samples // n) + np.minimum(k, samples % n)    # where residue class k begins
    bounds = [0, *range(_FIRST, samples, _SLICE), samples]
    for lo, hi in zip(bounds, bounds[1:]):
        pos = np.arange(lo, hi)
        r = np.searchsorted(start, pos, side="right") - 1       # the residue class at each position
        index = r + n * (pos - start[r])
        yield np.stack(_lattice(index, samples)), index


def _slice_survivors(a: np.ndarray, b: np.ndarray, x: np.ndarray, index: np.ndarray, samples: int):
    """The dense search on one slice of seeds x (3, n): its critical rows, one per 2e-7 key.

    A seed ascends (step 0.1) when its lattice index is below samples // 2,
    otherwise it descends (-0.1).  Each kept row (x, lam, index) is
    canonically flipped and is the slice's row of lowest lattice index of its key.
    """
    step = np.where(index < samples // 2, 0.1, -0.1)
    for _ in range(_PRESTEPS):
        x = x + step * surface_gradient(a, x)
        x /= np.sqrt((x * x).sum(0))
    x, lam = newton_refine(a, x.T, (x * _axx(b, x)).sum(0))
    ok = _residual(b, x.T, lam) <= _CRITICAL_TOL
    x, lam = x[ok], lam[ok]
    flip = canonical_flip(x)
    x[flip] *= -1.0
    lam[flip] *= -1.0
    return _first_rows(x, lam, index[ok])


def _continuum(x: np.ndarray) -> bool:
    """Whether survivors x (n, 3), one row per 2e-7 key, lie on a continuum.

    The dense search's one continuum rule: more than 64 keys, far more than
    any isolated configuration leaves (ROADMAP item 14 is to replace it).
    """
    return x.shape[0] > 64


def _classes(a: np.ndarray, x: np.ndarray, lam: np.ndarray):
    """The classes of survivors reduced to one row per 2e-7 key.

    A continuum (`_continuum`) is thinned out to coarse representatives;
    otherwise the rows are deduped and the rows spread around a double root
    merged (`merge_degenerate`).
    """
    continuum = _continuum(x)
    if continuum:
        x, lam, _ = _first_rows(x, lam, np.arange(x.shape[0]), 1e-2)
    points = dedupe_classes([(xi, li, (None, 1)) for xi, li in zip(x, lam)], tol=1e-6)
    return points if continuum else merge_degenerate(a, points)


def cubic_map(b: np.ndarray, c: np.ndarray):
    """The map y -> A y^2 of a symmetric cubic, and its Jacobian y -> 2 A y as rows (n, 3, 3)."""
    return (lambda y: _axx(b, y)), (lambda y: 2.0 * _ax(c, y)[_JK].transpose(2, 0, 1))


def _bordered_system(gmap, y: np.ndarray, mu: np.ndarray):
    """Residual (g(y) - mu y, (y^T y - 1)/2), shape (n, 4), and Jacobian (n, 4, 4) at the columns of y."""
    g, dg = gmap
    f = np.concatenate((g(y) - mu * y, 0.5 * ((y * y).sum(0, keepdims=True) - 1.0))).T
    jac = np.zeros((y.shape[1], 4, 4), dtype=f.dtype)
    jac[:, :3, :3] = dg(y)
    jac[:, [0, 1, 2], [0, 1, 2]] -= mu[:, None]
    jac[:, :3, 3], jac[:, 3, :3] = -y.T, y.T
    return f, jac


def _solve_stack(jac: np.ndarray, rhs: np.ndarray):
    """Stacked solves jac @ step = rhs, jac (m, k, k): steps (m, k) and which systems are singular.

    np.linalg.solve rejects a whole stack for one singular system.  Then the
    systems of determinant exactly 0, which it rejects, get a zero step, and
    the rest are solved in one more stacked call; the first call stays
    whole, as a determinant on every call costs more than the rare retry.
    """
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0], np.zeros(len(jac), dtype=bool)
    except np.linalg.LinAlgError:
        singular = np.linalg.det(jac) == 0.0
        step = np.zeros_like(rhs)
        step[~singular] = np.linalg.solve(jac[~singular], rhs[~singular, :, None])[..., 0]
        return step, singular


def _bordered_newton(gmap, y: np.ndarray, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Undamped Newton on (g(y) - mu y, (y^T y - 1)/2) from the rows y (n, 3), real or complex.

    ``gmap`` is a pair of functions of columns y (3, n): g, to (3, n), and
    its Jacobian, to rows (n, 3, 3), e.g. `cubic_map`.  Each row starts at
    y / sqrt(y^T y) with mu = y^T g(y), and stops once its residual or its
    step is at most 1e-15 (max norm), or when its Jacobian is non-finite or
    exactly singular; at most ``iters`` steps.  Returns (y (n, 3), mu (n,))
    where each row stopped, y scaled to y^T y = 1.
    """
    y = y.T / np.sqrt((y * y).sum(1))
    mu = (y * gmap[0](y)).sum(0)
    run = np.arange(mu.size)
    with np.errstate(all="ignore"):         # a diverging row stops at its non-finite Jacobian
        for _ in range(iters):
            f, jac = _bordered_system(gmap, y[:, run], mu[run])
            go = np.isfinite(jac).all(axis=(1, 2)) & (np.abs(f).max(1) > 1e-15)
            run, f, jac = run[go], f[go], jac[go]
            if run.size == 0:
                break
            step, singular = _solve_stack(jac, f)
            run, step = run[~singular], step[~singular]
            y[:, run] -= step[:, :3].T
            mu[run] -= step[:, 3]
            run = run[np.abs(step).max(1) > 1e-15]
        return (y / np.sqrt((y * y).sum(0))).T, mu


def _nonreal_classes(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Verified non-real eigenvector classes of a symmetric tensor, with their conjugates.

    Newton on the bilinear system A x^2 = lam x, x^T x = 1 runs from 64
    fixed complex seeds for at most 60 steps, on the tensor scaled by a power
    of two to max |a| in [1/2, 1).  A root is accepted when its residual is
    at most 1e-13, its Jacobian is well conditioned (sigma_min > 1e-8
    sigma_max), and the imaginary part of x exceeds both 1e-6 and 1e3 times
    the Newton error bound |F| / sigma_min: the exact root within that bound
    is then not real, as a class with x^T x = 1 is real only if x is real up
    to sign.  Each accepted root brings its conjugate (the tensor is real).
    A root is kept unless an earlier kept one lies within 1e-6 plus 1e3 times
    their error bounds up to x ~ -x, so the kept roots are distinct classes.
    Returns (x (m, 3), lam (m,)), both complex, scaled back.
    """
    e = np.frexp(np.max(np.abs(a)))[1]
    cubic = cubic_map(*_coefficients(np.ldexp(a, -e)))
    rng = np.random.default_rng(0)
    x, lam = _bordered_newton(cubic, rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3)), 60)
    with np.errstate(all="ignore"):
        f, jac = _bordered_system(cubic, x.T, lam)
        ok = np.isfinite(jac).all(axis=(1, 2))
        x, lam, f, jac = x[ok], lam[ok], f[ok], jac[ok]
        sv = np.linalg.svd(jac, compute_uv=False)
        err = np.sqrt((np.abs(f) ** 2).sum(1)) / sv[:, -1]
    imag = np.sqrt((x.imag ** 2).sum(1))
    ok = (np.abs(f).max(1) <= 1e-13) & (sv[:, -1] > 1e-8 * sv[:, 0]) \
        & (imag > 1e3 * err) & (imag > 1e-6)
    x, lam, err = (np.concatenate((v[ok], np.conj(v[ok]))) for v in (x, lam, err))
    dist = np.minimum(np.abs(x[:, None] - x[None]).max(2), np.abs(x[:, None] + x[None]).max(2))
    close = dist <= 1e-6 + 1e3 * (err[:, None] + err[None])
    keep = ~np.tril(close, -1).any(1)
    return x[keep], np.ldexp(1.0, e) * lam[keep]


def _complete(a: np.ndarray, points, nonreal=None) -> bool:
    """Whether isolated classes use up the bound count_bound(3, 3) = 7.

    They do when the real classes ``points`` are all simple, with neither
    tangent-Hessian eigenvalue negligible, and with the verified non-real
    classes of `_nonreal_classes` they number exactly 7.  Over C a symmetric
    3x3x3 tensor with finitely many eigenvector classes has exactly 7,
    counted with multiplicity (Cartwright and Sturmfels, The number of
    eigenvalues of a tensor, Linear Algebra Appl. 438, 2013), so seven
    distinct simple classes leave no other class, real or not.  The
    non-real search runs only when the real classes are simple and fewer
    than 7; ``nonreal``, a function of no arguments that returns their
    number, lets a caller run it once for many calls on one tensor.
    """
    bound = count_bound(3, 3)
    if not 0 < len(points) <= bound:
        return False
    x = np.array([p[0] for p in points])
    lam = np.array([p[1] for p in points])
    if tangent_hessian(_coefficients(a)[1], x, lam)[2].any():
        return False
    if len(points) == bound:
        return True
    return len(points) + (nonreal or (lambda: len(_nonreal_classes(a)[0])))() == bound


def find_critical_classes(a: np.ndarray, samples: int):
    """All antipodal classes of critical points of the cubic form on S^2.

    Seeds a Fibonacci grid (the first half ascends, the second descends),
    runs a few projected-gradient steps, then batched Newton, and keeps the
    points with residual at most _CRITICAL_TOL.  The seeds go through this
    in the slices of `_seeds`, a first one of _FIRST rows and then _SLICE
    rows at a time, each of which spans the sphere; each slice is reduced
    to one row per 2e-7 key, and the survivors of all slices so far keep
    the row of lowest lattice index of each key.  A row depends only on its
    own seed, so a search over all slices keeps the rows that the lattice
    order would.
    The search runs on the tensor scaled by a power of two to max |a| in
    [1/2, 1), so its absolute tolerances are relative ones, and lam is
    scaled back.  Returns (classes, continuum) where each class is (x, lam)
    in canonical-representative form and `continuum` is the verdict of
    `_continuum`; the zero tensor, critical everywhere, is a continuum with
    no classes.  More than count_bound(3, 3) isolated classes raise
    RuntimeError.

    After each slice `_continuum` judges the survivors so far.  Once they
    hold a continuum they always will, so the later slices' rows are only
    collected, and reduced and classified (`_classes`) once after the last
    slice.  Otherwise the slice's classes are derived, and the search stops
    before the remaining slices once they are complete (`_complete`, which
    argues why this is sound): count_bound(3, 3) = 7 simple classes, real
    or verified non-real; the non-real search runs at most once per call.
    The small first slice lets most tensors stop after _FIRST polished
    seeds, and the larger later ones keep a full sweep as fast as before.
    A continuum that `_continuum` misses shows up as scattered points of
    it, which are degenerate and never stop the search.

    Each call logs one DEBUG line on the "octupolar" logger: the slices run
    out of the total, the keys, whether the class bound stopped the search,
    and the real and verified non-real class counts.
    """
    slices = 1 + len(range(_FIRST, samples, _SLICE))       # as `_seeds` cuts them
    peak = np.max(np.abs(a))
    if peak == 0.0:
        _debug("find_critical_classes: the zero tensor, a continuum; 0 of %d slices", slices)
        return [], True
    e = np.frexp(peak)[1]
    a = np.ldexp(a, -e)
    b, _ = _coefficients(a)
    rows = np.empty((0, 3)), np.empty(0), np.empty(0, dtype=int)    # x, lam and lattice index
    continuum = stopped = False
    nonreal = cache(lambda: len(_nonreal_classes(a)[0]))
    for run, (x, index) in enumerate(_seeds(samples), 1):
        new = _slice_survivors(a, b, x, index, samples)
        rows = tuple(np.concatenate(pair) for pair in zip(rows, new))
        if continuum:
            continue        # a continuum for good: its rows are reduced once, after the loop
        rows = _first_rows(*rows)
        continuum = _continuum(rows[0])
        if not continuum:
            points = _classes(a, *rows[:2])
            stopped = run < slices and _complete(a, points, nonreal)
            if stopped:
                break
    if continuum:
        rows = _first_rows(*rows)
        points = _classes(a, *rows[:2])
    _debug("find_critical_classes: %d of %d slices, %d keys, stopped at the class bound: %s, "
           "%d real classes, verified non-real classes: %s%s", run, slices,
           len(rows[0]), stopped, len(points),
           nonreal() if nonreal.cache_info().currsize else "not searched",
           ", a continuum" if continuum else "")
    if not continuum and len(points) > count_bound(3, 3):
        raise RuntimeError(f"{len(points)} isolated real classes exceed the bound "
                           f"count_bound(3, 3) = {count_bound(3, 3)}")
    return [(xi, np.ldexp(li, e)) for xi, li, _ in points], continuum
