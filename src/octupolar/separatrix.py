"""
Boundaries in (rho, chi, K) space across which the number of critical
points changes.

Two symmetry planes have closed-form separatrices, g on chi = -pi/2 and f
on chi = -pi/6.  In between, the separatrix K* is found where the
reduction polynomial acquires a double root: each coefficient is linear in
K^2, so requiring the polynomial and its derivative to vanish gives a 2x2
linear system in K^2 whose compatibility condition is a polynomial of
degree 10 in the root location.  K* is solved for all rho of one chi
slice in one array pass: the determinant roots, the Newton polish of every
candidate and the real-root counts that validate them run stacked over the
slice, and each fallback tier runs stacked over the rows still left without
an answer.  The two vaults meet along the cusp line
chi = -arcsin(1/rho), K = h(rho).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._optim import _solve_stack
from .eigen import (_deflate, _derivative, _polyval_rows, _quad_rows, _real_eigs, _real_root_rows,
                    _scalar_pow, walcher_split)
from .potential import OrientedParams
# full_topology stays bound here: bench/tests checks that the tracer patches this binding
from .topology import critical_point_totals, full_topology  # noqa: F401

__all__ = ["BoundaryEval", "KStar", "RegionSample", "boundary_functions",
           "k_star", "cusp_location", "region_scan", "scan_csv_lines",
           "separatrix_csv_lines"]


@dataclass(frozen=True)
class BoundaryEval:
    g: float
    f: float
    kappa: float
    h: float | None


@dataclass(frozen=True)
class KStar:
    k: float
    s_star: float
    branch: str


@dataclass(frozen=True)
class RegionSample:
    rho: float
    chi: float
    bigk: float
    count: int          # -1 marks a continuum point


def g_function(rho: float) -> float:
    """Separatrix on the chi = -pi/2 plane; zero at rho = 0, 1, 2."""
    if rho <= 1.0:
        return float(np.sqrt(2.0 * rho ** 2 * (1.0 - rho) / (3.0 * (6.0 - rho))))
    return float(np.sqrt(max(2.0 * (2.0 - rho) * (rho - 1.0), 0.0)))


def f_function(rho: float) -> float:
    """Separatrix on the chi = -pi/6 plane."""
    return float(np.sqrt(2.0 * rho ** 2 * (1.0 + rho) / (3.0 * (6.0 + rho))))


def kappa_function(rho: float, chi: float) -> float:
    """K at which the x2 = 0 background family exists (degree drop surface)."""
    si = np.sin(chi)
    return float(rho * np.cos(chi) * np.sqrt((1.0 - rho * si) / (2.0 * (2.0 - rho * si))))


def h_function(rho: float) -> float | None:
    """K along the cusp line, defined for 1 < rho <= 2."""
    if rho <= 1.0 or rho > 2.0 + 1e-12:
        return None
    return float(np.sqrt((rho ** 2 - 1.0) / 3.0))


def boundary_functions(rho: float, chi: float) -> BoundaryEval:
    if rho < -1e-12 or rho > 2.0 + 1e-9:
        raise ValueError("rho must lie in [0, 2]")
    return BoundaryEval(g=g_function(rho), f=f_function(rho),
                        kappa=kappa_function(rho, chi), h=h_function(rho))


def _count_real(coeffs: np.ndarray) -> np.ndarray:
    """Real roots, with multiplicity, of each row of (n, d) ascending coefficients."""
    lo, _, real = _real_eigs(coeffs, realness=1e-7)
    return lo + real.sum(axis=1)


def _largest(row: np.ndarray, k: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    """Per row of n, the largest of its candidates (K, s) = (k, s)[row == i] as
    max() orders pairs: K first, then s, the first of equal ones.  Returns
    K and s (2, n), NaN for a row without candidates."""
    order = np.lexsort((np.arange(row.size), -s, -k, row))
    pick = order[np.unique(row[order], return_index=True)[1]]
    out = np.full((2, n), np.nan)
    out[:, row[pick]] = k[pick], s[pick]
    return out


def _near_pi2_candidate(table: np.ndarray):
    """Double root of the quadratic truncation S0 + S1 s + S2 s^2, per row of
    (m, 6, 7) tables: (K, s) (m,), NaN where there is none.

    Valid when the coalescence happens at small s: requiring the quadratic
    discriminant to vanish is itself a quadratic equation in K^2.  A
    candidate keeps its polished (K, s) when the polish stays within 1e-3 of
    its K.
    """
    b, c = table[:, 0, :3].T, table[:, 1, :3].T
    # S_i = K^2 b_i + c_i; discriminant S1^2 - 4 S2 S0 = A K^4 + B K^2 + C
    aa = b[1] * b[1] - 4.0 * (b[2] * b[0])
    bb = 2.0 * b[1] * c[1] - 4.0 * (b[2] * c[0] + c[2] * b[0])
    cc = c[1] * c[1] - 4.0 * c[2] * c[0]
    with np.errstate(divide="ignore", invalid="ignore"):    # a root-free slot may hold 0 / 0
        k2, mult = _quad_rows(aa, bb, cc, snap=0.0)
        s1 = k2 * b[1] + c[1]
        s2 = k2 * b[2] + c[2]
        s0 = -s1 / (2.0 * s2)
        # the truncation is only trustworthy for small s
        row, slot = np.nonzero(((mult > 0) & (k2 > 0.0) & (s2 != 0.0) & (np.abs(s0) <= 0.05)).T)
    k2, s0 = k2[slot, row], s0[slot, row]
    kv = np.sqrt(k2)
    k, s, ok = _refine(table[row], s0, k2)
    ok &= np.abs(k - kv) <= 1e-3 * (1.0 + kv)
    return _largest(row, np.where(ok, k, kv), np.where(ok, s, s0), len(table))


def _bisect_transition(table: np.ndarray):
    """Per row of (m, 6, 7) tables, the K where two real roots of K^2 b + c
    coalesce, by bisection on the real-root count, and the closest root pair
    there: (K, s) (m,), NaN where the count does not drop below K = 4."""
    n = len(table)
    out = np.full((2, n), np.nan)
    b, c = table[:, 0], table[:, 1]
    k_hi = 4.0
    n_hi = _count_real(b * k_hi ** 2 + c)
    # halve K from k_hi down to 1e-9 until the count drops, all halvings in one pass
    kts = np.ldexp(k_hi, -np.arange(1, 61))
    kts = kts[:np.argmax(kts < 1e-9)]
    drop = _count_real((b[:, None] * (kts * kts)[:, None] + c[:, None]).reshape(-1, 7)) \
        .reshape(n, kts.size) < n_hi[:, None]
    rows = np.flatnonzero(drop.any(axis=1))
    if rows.size == 0:
        return out
    first = drop[rows].argmax(axis=1)
    b, c, n_hi = b[rows], c[rows], n_hi[rows]
    lo, hi = kts[first], np.where(first > 0, kts[first - 1], k_hi)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        up = _count_real(b * _scalar_pow(mid, 2)[:, None] + c) >= n_hi
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    k2 = _scalar_pow(lo, 2)
    coeffs = b * k2[:, None] + c
    # the roots in numpy.roots order: the companion roots, then the s = 0 ones
    zeros, roots, _ = _real_eigs(coeffs, 0.0, trim=0.0)
    deg = (~np.isnan(roots)).sum(axis=1)
    slot = np.arange(6)
    roots[(slot >= deg[:, None]) & (slot < (deg + zeros)[:, None])] = 0.0
    i, j = np.triu_indices(6, 1)
    dist = np.abs(roots[:, i] - roots[:, j])
    dist[np.isnan(dist)] = np.inf
    m = dist.argmin(axis=1)                             # the first closest pair
    pair = np.flatnonzero(np.isfinite(dist[np.arange(rows.size), m]))
    best = 0.5 * (roots[pair, i[m[pair]]] + roots[pair, j[m[pair]]]).real
    k, s, ok = _refine(table[rows[pair]], best, k2[pair])
    out[:, rows[pair]] = np.where(ok, k, 0.5 * (lo[pair] + hi[pair])), np.where(ok, s, best)
    return out


def _refine(table: np.ndarray, s: np.ndarray, k2: np.ndarray):
    """2D Newton on (W, W') = 0 in the unknowns (s, K^2), one candidate per table.

    ``table`` (m, 6, w) holds each candidate's rows b, c, b', c', b'', c''.
    A candidate stops once both steps fall below 1e-15 (relative), or after
    60 steps.  Returns (K, s, ok): ok is False where a step was singular, W
    or W' exceeds 1e-8 of its scale, K^2 is not finite and positive, or the
    two equations disagree on K^2.
    """
    s, k2 = s.astype(float), k2.astype(float)
    ok = np.ones(len(s), dtype=bool)
    width = table.shape[2]
    # the running candidates: their index, coefficient j of their six rows at
    # coef[j], and their (s, K^2)
    run, coef, sr, kr = np.arange(len(s)), np.moveaxis(table, 2, 0), s.copy(), k2.copy()
    for _ in range(60):
        if run.size == 0:
            break
        v, at = np.zeros((run.size, 6)), sr[:, None]
        for cj in coef[::-1]:
            v = v * at + cj
        w = kr[:, None] * v[:, ::2] + v[:, 1::2]            # W, W', W''
        # the Jacobian [[W', b], [W'', b']] of (W, W') in (s, K^2), row by row
        jac = np.hstack([w[:, 1:], v[:, ::2]])[:, [0, 2, 1, 3]].reshape(-1, 2, 2)
        step, singular = _solve_stack(jac, -w[:, :2])
        if singular.any():
            ok[run[singular]] = False
            go = ~singular
            run, coef, sr, kr, step = run[go], coef[:, go], sr[go], kr[go], step[go]
        ds, dk2 = step.T
        sr, kr = sr + ds, kr + dk2
        s[run], k2[run] = sr, kr
        go = ~((np.abs(ds) <= 1e-15 * (1.0 + np.abs(sr))) & (np.abs(dk2) <= 1e-15 * (1.0 + np.abs(kr))))
        if not go.all():
            run, coef, sr, kr = run[go], coef[:, go], sr[go], kr[go]
    # W, W' at s and their scales, the same rows in |coefficient| at |s|
    live = np.flatnonzero(ok)
    sl, kl = s[live], k2[live]
    rows = table[live, :4]
    at = np.repeat(np.stack([sl, np.abs(sl)], axis=1), 4, axis=1)
    bv, cv, bdv, cdv, ab, ac, abd, acd = _polyval_rows(
        np.concatenate([rows, np.abs(rows)], axis=1).reshape(-1, width), at.ravel()).reshape(-1, 8).T
    w_scale = np.abs(kl) * ab + ac + 1e-300
    wd_scale = np.abs(kl) * abd + acd + 1e-300
    good = ~((np.abs(kl * bv + cv) > 1e-8 * w_scale) | (np.abs(kl * bdv + cdv) > 1e-8 * wd_scale))
    good &= np.isfinite(kl)
    good[good] = kl[good] > 0.0
    # consistency across the two equations, each in its own scaling
    for n, d, scale in ((cv, bv, ab), (cdv, bdv, abd)):
        i = np.flatnonzero(good & (np.abs(d) > 1e-10 * scale + 1e-300))
        good[i[np.abs(-n[i] / d[i] - kl[i]) > 1e-8 * (1.0 + np.abs(kl[i]))]] = False
    ok[live] = good
    k = np.full(len(s), np.nan)
    k[ok] = np.sqrt(k2[ok])
    return k, s, ok


def _kstar_tables(rho: np.ndarray, chi: float):
    """Per rho: the rows b, c, b', c', b'', c'' of W = K^2 b + c (n, 6, 7),
    ascending and zero-padded, their width, and the rim collision (K, s),
    NaN where there is none."""
    n = rho.size
    table = np.zeros((n, 6, 7))
    table[:, 0], table[:, 1] = walcher_split(rho, chi)
    width = np.full(n, 7)
    extra = np.full((n, 2), np.nan)
    rim = np.flatnonzero(rho >= 2.0 - 1e-9)
    if rim.size:
        # on the rho = 2 boundary the polynomial keeps a permanent root at
        # s_plus; deflate it from both coefficient arrays and also consider
        # the K at which a genuine root collides with it
        s_plus = np.tan(chi) + 1.0 / np.cos(chi)
        rows = _deflate(table[rim, :2], s_plus)
        table[rim, :2, :6], table[rim, :2, 6], width[rim] = rows, 0.0, 6
        bv, cv = _polyval_rows(rows.reshape(-1, 6), np.full(2 * rim.size, s_plus)).reshape(-1, 2).T
        meet = np.flatnonzero(np.abs(bv) > 1e-12)
        q = -cv[meet] / bv[meet]
        meet, q = meet[q > -1e-12], q[q > -1e-12]
        # a genuine root collides with the permanent boundary root; the
        # vault terminates here (K -> 0 as rho -> 2)
        extra[rim[meet], 0], extra[rim[meet], 1] = np.sqrt(np.where(q > 0.0, q, 0.0)), s_plus
    for i in (2, 4):
        table[:, i:i + 2, :-1] = _derivative(table[:, i - 2:i])
    return table, width, extra


def _kstar_candidates(table: np.ndarray, width: np.ndarray, extra: np.ndarray):
    """Distinct polished candidates per rho, in candidate order: keep, K and s (n, C).

    The rim collision comes first, then K^2 from each equation at each real
    root of the determinant, in root order, the first equation first; a
    candidate within 1e-9 of an earlier one is that one again.
    """
    n = len(table)
    # the determinant by np.convolve row by row: its sums are what the recorded
    # separatrix depends on to the last bit
    det = np.zeros((n, 12))
    for t, w, d in zip(table, width, det):
        conv = np.convolve(t[0, :w], t[3, :w - 1]) - np.convolve(t[2, :w - 1], t[1, :w])
        d[:conv.size] = conv
    roots, mult = _real_root_rows(det, realness=1e-8, cluster=1e-9)
    row, col = np.nonzero(mult)
    s0 = roots[row, col]
    bv, cv, bdv, cdv = _polyval_rows(table[row, :4].reshape(-1, 7), np.repeat(s0, 4)).reshape(-1, 4).T
    k2 = np.full((row.size, 2), np.nan)
    for e, (num, den) in enumerate(((cv, bv), (cdv, bdv))):
        i = np.flatnonzero(np.abs(den) > 1e-300)
        k2[i, e] = -num[i] / den[i]
    start = np.isfinite(k2)
    start[start] = k2[start] > 0.0
    pair, eq = np.nonzero(start)
    got_k, got_s, got_ok = _refine(table[row[pair]], s0[pair], k2[pair, eq])
    slots = 1 + 2 * roots.shape[1]
    kk, ss = np.full((n, slots), np.nan), np.full((n, slots), np.nan)
    kk[:, 0], ss[:, 0] = extra.T
    keep = np.isfinite(kk)
    at = (row[pair], 1 + 2 * col[pair] + eq)
    kk[at], ss[at], keep[at] = got_k, got_s, got_ok
    # the polished candidates to the front of each row, in order
    order = np.argsort(~keep, axis=1, kind="stable")[:, :max(keep.sum(axis=1).max(), 1)]
    keep, kk, ss = (np.take_along_axis(a, order, axis=1) for a in (keep, kk, ss))
    for j in range(1, keep.shape[1]):
        i = np.flatnonzero(keep[:, j])
        kj, sj = kk[i, j, None], ss[i, j, None]
        far = (np.abs(kj - kk[i, :j]) > 1e-9 * (1.0 + kj)) \
            | (np.abs(sj - ss[i, :j]) > 1e-9 * (1.0 + np.abs(sj)))
        keep[i, j] = np.all(far | ~keep[i, :j], axis=1)
    return keep, kk, ss


def _kstar_validated(table: np.ndarray, keep: np.ndarray, kk: np.ndarray) -> np.ndarray:
    """Candidates across whose K the real-root count rises: more real roots at
    K (1 + 1e-5) than at K (1 - 1e-5).  A vault terminating at K = 0 has no
    two-sided transition to test."""
    vr, vc = np.nonzero(keep & (kk > 1e-7))
    kv = kk[vr, vc]
    k2 = np.concatenate([_scalar_pow(kv * (1 + 1e-5), 2), _scalar_pow(kv * (1 - 1e-5), 2)])
    vr2 = np.concatenate([vr, vr])
    above, below = _count_real(table[vr2, 0] * k2[:, None] + table[vr2, 1]).reshape(2, -1)
    valid = np.zeros_like(keep)
    valid[vr[above > below], vc[above > below]] = True
    return valid


def _k_star_rows(rhos, chi) -> list:
    """`k_star` at every rho of one chi slice, in one array pass.

    Returns, per rho, its KStar or the exception `k_star` raises there.
    Rows with no validated candidate go through the fallback tiers, each
    tier over all the rows still without an answer.
    """
    out = [None] * len(rhos)
    rho = np.array(rhos, dtype=float).reshape(-1)
    for i in np.flatnonzero(~((0.0 < rho) & (rho <= 2.0 + 1e-12))):
        out[i] = ValueError("rho must lie in (0, 2]")
    idx = np.flatnonzero([o is None for o in out])
    if not (-np.pi / 2 < chi < -np.pi / 6):
        for i in idx:
            out[i] = ValueError("chi must lie strictly between -pi/2 and -pi/6")
        return out
    if idx.size == 0:
        return out
    table, width, extra = _kstar_tables(rho[idx], chi)
    keep, kk, ss = _kstar_candidates(table, width, extra)
    row, col = np.nonzero(_kstar_validated(table, keep, kk))
    kv, sv = _largest(row, kk[row, col], ss[row, col], idx.size)
    # near the chi = -pi/2 plane the coalescing pair sits at s = O(eps) where
    # the full polynomial is ill-conditioned; the truncation to quadratic
    # order is exact there up to O(s*) relative corrections.  The generic
    # fallback is bisection on the real-root-count transition.
    tiers = (_near_pi2_candidate, _bisect_transition) if chi < -np.pi / 2 + 1e-2 else (_bisect_transition,)
    for tier in tiers:
        rows = np.flatnonzero(np.isnan(kv))
        if rows.size:       # an empty stack answers nothing but still sets up a polish
            kv[rows], sv[rows] = tier(table[rows])
    # the last resort: the rim collision, else the largest unvalidated candidate
    rows = np.flatnonzero(np.isnan(kv))
    pool = keep[rows]
    pool[np.isfinite(extra[rows, 0]), 1:] = False
    row, col = np.nonzero(pool)
    kv[rows], sv[rows] = _largest(row, kk[rows[row], col], ss[rows[row], col], rows.size)
    for r, k, s in zip(idx, kv.tolist(), sv.tolist()):
        branch = "cusp" if abs(s) <= 1e-6 else ("left" if s < 0 else "right")
        out[r] = RuntimeError(f"no admissible double root at rho={rhos[r]}, chi={chi}") \
            if np.isnan(k) else KStar(k=k, s_star=s, branch=branch)
    return out


def k_star(rho: float, chi: float) -> KStar:
    """Double-root location of the reduction polynomial and the K it occurs at.

    Valid for 0 < rho <= 2 and -pi/2 < chi < -pi/6.  Candidates with
    inconsistent K^2 between the two linear equations, or not producing a
    real-root-count transition, are discarded; raises when none survives.
    """
    return _kstar_or_raise(_k_star_rows([rho], chi)[0])


def _kstar_or_raise(got):
    """A row of `_k_star_rows`: its KStar, or raise its exception."""
    if isinstance(got, Exception):
        raise got
    return got


def cusp_location(chi: float, bracket: tuple[float, float] = (1.0 + 1e-6, 2.0)) -> tuple[float, float]:
    """(rho, K) of the cusp at fixed chi, located by the sign flip of s*."""
    lo, hi = bracket
    slo = k_star(lo, chi).s_star
    shi = k_star(hi, chi).s_star
    if slo * shi > 0:
        raise RuntimeError("cusp not bracketed")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        sm = k_star(mid, chi).s_star
        if sm == 0.0:
            lo = hi = mid
            break
        if sm * slo > 0:
            lo, slo = mid, sm
        else:
            hi = mid
    rho_c = 0.5 * (lo + hi)
    return rho_c, k_star(rho_c, chi).k


def region_scan(chi: float, rho_steps: int, k_max: float, k_steps: int,
                rho_max: float = 2.0, on_separatrix: bool = False) -> list[RegionSample]:
    """Critical-point counts over a midpoint grid at fixed chi.

    Midpoint sampling keeps the grid off the measure-zero separatrix; with
    ``on_separatrix`` the K column is replaced by the separatrix value at
    each rho (g, f, or the interior K*), sampling the boundary itself.  The
    counts come from `critical_point_totals`, one block of cells at a time,
    without building reports; the first failing cell raises with the
    message `full_topology` gives there.
    """
    if rho_steps < 2 or k_steps < 2:
        raise ValueError("grid steps must be at least 2")
    rhos = (np.arange(rho_steps) + 0.5) * rho_max / rho_steps
    if on_separatrix:
        if abs(chi + np.pi / 2) <= 1e-11:
            ks = [g_function(float(r)) for r in rhos]
        elif abs(chi + np.pi / 6) <= 1e-11:
            ks = [f_function(float(r)) for r in rhos]
        else:
            ks = [_kstar_or_raise(got).k for got in _k_star_rows([float(r) for r in rhos], chi)]
        cells = [(float(r), k) for r, k in zip(rhos, ks)]
    else:
        ks = (np.arange(k_steps) + 0.5) * k_max / k_steps
        cells = [(float(r), float(k)) for r in rhos for k in ks]
    counts = critical_point_totals([OrientedParams(r, chi, k) for r, k in cells])
    return [RegionSample(rho=r, chi=chi, bigk=k, count=n) for (r, k), n in zip(cells, counts)]


def scan_csv_lines(samples: list[RegionSample]):
    yield "rho,chi,K,count"
    for s in samples:
        yield f"{s.rho:.17g},{s.chi:.17g},{s.bigk:.17g},{s.count}"


def separatrix_csv_lines(chi: float, rhos) -> "list[str]":
    lines = ["rho,chi,k_star,s_star,branch"]
    for r, ks in zip(rhos, _k_star_rows([float(r) for r in rhos], chi)):
        ks = _kstar_or_raise(ks)
        lines.append(f"{r:.17g},{chi:.17g},{ks.k:.17g},{ks.s_star:.17g},{ks.branch}")
    return lines
