"""
Boundaries in (rho, chi, K) space across which the number of critical
points changes.

Two symmetry planes have closed-form separatrices, g on chi = -pi/2 and f
on chi = -pi/6.  In between, the separatrix K* is found where the
reduction polynomial acquires a double root: each coefficient is linear in
K^2, so requiring the polynomial and its derivative to vanish gives a 2x2
linear system in K^2 whose compatibility condition is a polynomial of
degree 10 in the root location.  The two vaults meet along the cusp line
chi = -arcsin(1/rho), K = h(rho).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import _deflate, _derivative, _polyval_rows, _quad_rows, real_roots, walcher_split
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


def _count_real(coeffs: np.ndarray) -> int:
    roots = real_roots(coeffs, realness=1e-7, cluster=1e-9) if np.any(coeffs) else []
    return sum(m for _, m in roots)


def _near_pi2_candidate(b: np.ndarray, c: np.ndarray, refine):
    """Double root of the quadratic truncation S0 + S1 s + S2 s^2.

    Valid when the coalescence happens at small s: requiring the quadratic
    discriminant to vanish is itself a quadratic equation in K^2.
    """
    # S_i = K^2 b_i + c_i; discriminant S1^2 - 4 S2 S0 = A K^4 + B K^2 + C
    aa = b[1] * b[1] - 4.0 * (b[2] * b[0])
    bb = 2.0 * b[1] * c[1] - 4.0 * (b[2] * c[0] + c[2] * b[0])
    cc = c[1] * c[1] - 4.0 * c[2] * c[0]
    best = None
    with np.errstate(divide="ignore", invalid="ignore"):    # a root-free slot may hold 0 / 0
        k2s, mult = _quad_rows(aa, bb, cc, snap=0.0)
    for k2 in k2s[mult > 0]:
        if k2 <= 0.0:
            continue
        s1 = k2 * b[1] + c[1]
        s2 = k2 * b[2] + c[2]
        if s2 == 0.0:
            continue
        s0 = -s1 / (2.0 * s2)
        if abs(s0) > 0.05:
            continue  # truncation only trustworthy for small s
        kv = float(np.sqrt(k2))
        got = refine(float(s0), float(k2))
        if got is not None and abs(got[0] - kv) <= 1e-3 * (1.0 + kv):
            cand = got
        else:
            cand = (kv, float(s0))
        if best is None or cand[0] > best[0]:
            best = cand
    return best


def _bisect_transition(b: np.ndarray, c: np.ndarray, refine):
    """Locate the K where two real roots of K^2 b + c coalesce, by bisection
    on the real-root count, then identify the closest root pair there."""
    k_hi = 4.0
    n_hi = _count_real(b * k_hi ** 2 + c)
    lo = hi = None
    prev = k_hi
    kt = k_hi
    for _ in range(60):
        kt *= 0.5
        if kt < 1e-9:
            break
        if _count_real(b * kt ** 2 + c) < n_hi:
            lo, hi = kt, prev
            break
        prev = kt
    if lo is None:
        return None
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if _count_real(b * mid ** 2 + c) >= n_hi:
            hi = mid
        else:
            lo = mid
    k_t = lo
    coeffs = b * k_t ** 2 + c
    roots = np.roots(coeffs[::-1] / np.max(np.abs(coeffs)))
    i, j = np.triu_indices(len(roots), 1)
    if i.size == 0:
        return None
    m = np.argmin(np.abs(roots[i] - roots[j]))      # the first closest pair
    best = 0.5 * (roots[i[m]] + roots[j[m]]).real
    got = refine(float(best), float(k_t ** 2))
    if got is not None:
        return got
    return float(0.5 * (lo + hi)), float(best)


def k_star(rho: float, chi: float) -> KStar:
    """Double-root location of the reduction polynomial and the K it occurs at.

    Valid for 0 < rho <= 2 and -pi/2 < chi < -pi/6.  Candidates with
    inconsistent K^2 between the two linear equations, or not producing a
    real-root-count transition, are discarded; raises when none survives.
    """
    if not (0.0 < rho <= 2.0 + 1e-12):
        raise ValueError("rho must lie in (0, 2]")
    if not (-np.pi / 2 < chi < -np.pi / 6):
        raise ValueError("chi must lie strictly between -pi/2 and -pi/6")
    rows = np.stack(walcher_split(rho, chi))
    extra = []
    if rho >= 2.0 - 1e-9:
        # on the rho = 2 boundary the polynomial keeps a permanent root at
        # s_plus; deflate it from both coefficient arrays and also consider
        # the K at which a genuine root collides with it
        s_plus = np.tan(chi) + 1.0 / np.cos(chi)
        rows = _deflate(rows, s_plus)
        bv, cv = _polyval_rows(rows, np.full(2, s_plus))
        if abs(bv) > 1e-12 and -cv / bv > -1e-12:
            # a genuine root collides with the permanent boundary root; the
            # vault terminates here (K -> 0 as rho -> 2)
            extra.append((float(np.sqrt(max(0.0, -cv / bv))), float(s_plus)))
    # rows b, c, b', c', b'', c'' of W = K^2 b + c, ascending, zero-padded
    table = np.zeros((6, rows.shape[1]))
    table[:2] = rows
    for i in (2, 4):
        table[i:i + 2, :-1] = _derivative(table[i - 2:i])
    b, c = table[:2]
    det = np.convolve(b, table[3, :-1]) - np.convolve(table[2, :-1], c)
    checks = np.vstack([table[:4], np.abs(table[:4])])

    def refine(s0: float, k2: float):
        """2D Newton on (W, W') = 0 in the unknowns (s, K^2)."""
        for _ in range(60):
            v = _polyval_rows(table, np.full(6, s0))
            w, wd, wdd = k2 * v[::2] + v[1::2]          # W, W', W''
            try:
                ds, dk2 = np.linalg.solve(np.array([[wd, v[0]], [wdd, v[2]]]), [-w, -wd])
            except np.linalg.LinAlgError:
                return None
            s0 += ds
            k2 += dk2
            if abs(ds) <= 1e-15 * (1.0 + abs(s0)) and abs(dk2) <= 1e-15 * (1.0 + abs(k2)):
                break
        # W, W' at s0 and their scales, the same rows in |coefficient| at |s0|
        bv, cv, bdv, cdv, ab, ac, abd, acd = _polyval_rows(checks, np.repeat([s0, abs(s0)], 4))
        w_scale = abs(k2) * ab + ac + 1e-300
        wd_scale = abs(k2) * abd + acd + 1e-300
        if abs(k2 * bv + cv) > 1e-8 * w_scale or abs(k2 * bdv + cdv) > 1e-8 * wd_scale:
            return None
        if not np.isfinite(k2) or k2 <= 0.0:
            return None
        # consistency across the two equations, each in its own scaling
        for n, d, scale in ((cv, bv, ab), (cdv, bdv, abd)):
            if abs(d) > 1e-10 * scale + 1e-300 and abs(-n / d - k2) > 1e-8 * (1.0 + abs(k2)):
                return None
        return float(np.sqrt(k2)), float(s0)

    candidates = list(extra)
    for s0, _m in real_roots(det, cluster=1e-9):
        bv, cv, bdv, cdv = _polyval_rows(table[:4], np.full(4, s0))
        for k2 in [-n / d for n, d in ((cv, bv), (cdv, bdv)) if abs(d) > 1e-300]:
            if not np.isfinite(k2) or k2 <= 0.0:
                continue
            got = refine(float(s0), float(k2))
            if got is not None and all(abs(got[0] - kv) > 1e-9 * (1.0 + got[0])
                                       or abs(got[1] - sv) > 1e-9 * (1.0 + abs(got[1]))
                                       for kv, sv in candidates):
                candidates.append(got)
    validated = []
    for kv, s0 in candidates:
        if kv <= 1e-7:
            # vault terminating at K = 0: no two-sided transition to test
            continue
        above = _count_real(b * (kv * (1 + 1e-5)) ** 2 + c)
        below = _count_real(b * (kv * (1 - 1e-5)) ** 2 + c)
        if above > below:
            validated.append((kv, s0))
    if validated:
        pool = validated
    else:
        pool = []
        if chi < -np.pi / 2 + 1e-2:
            # near the chi = -pi/2 plane the coalescing pair sits at s = O(eps)
            # where the full polynomial is ill-conditioned; the truncation to
            # quadratic order is exact there up to O(s*) relative corrections
            got = _near_pi2_candidate(b, c, refine)
            if got is not None:
                pool = [got]
        if not pool:
            # generic fallback: bisection on the real-root-count transition
            bis = _bisect_transition(b, c, refine)
            pool = [bis] if bis is not None else (extra or candidates)
    if not pool:
        raise RuntimeError(f"no admissible double root at rho={rho}, chi={chi}")
    kv, s0 = max(pool)
    branch = "cusp" if abs(s0) <= 1e-6 else ("left" if s0 < 0 else "right")
    return KStar(k=kv, s_star=s0, branch=branch)


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
        cells = []
        for r in rhos:
            if abs(chi + np.pi / 2) <= 1e-11:
                cells.append((float(r), g_function(float(r))))
            elif abs(chi + np.pi / 6) <= 1e-11:
                cells.append((float(r), f_function(float(r))))
            else:
                cells.append((float(r), k_star(float(r), chi).k))
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
    for r in rhos:
        ks = k_star(float(r), chi)
        lines.append(f"{r:.17g},{chi:.17g},{ks.k:.17g},{ks.s_star:.17g},{ks.branch}")
    return lines
