"""
Real generalized eigenpairs of an oriented traceless symmetric tensor.

The critical points of the cubic form on the unit sphere split into the
poles, the "background" family on the great circle x2 = 0, and all
remaining points, which map to roots of a single-variable polynomial of
degree six in s = x1/x2 (with t = x3/x2 recovered from a quotient that is
linear in t).  The symmetry planes of the reduced parameter space need
their own lower-degree branches; every branch below was checked against a
dense numerical search.

For a tensor that is only symmetric in its last two indices the analogous
objects are the stationary pairs of the bilinear form x . A[y (x) y]; these
feed the incremental rank-one approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _optim
from .potential import OrientedParams, canonicalize_arrays, oriented_arrays, rotation_z
from .tensors import as_array

__all__ = [
    "Eigenpair",
    "WalcherPoly",
    "EigenSolution",
    "CEigenTriple",
    "walcher_coefficients",
    "walcher_split",
    "real_roots",
    "solve_oriented",
    "solve_oriented_batch",
    "count_bound",
    "c_eigenpairs",
    "best_rank_one",
    "incremental_rank_one",
]

_TOL_PLANE = 1e-11       # membership thresholds for K = 0
_TOL_CHI = 1e-7          # membership of the chi symmetry planes and the axis;
                         # closer than this the generic quotient loses all
                         # precision, while the plane solver plus one Newton
                         # polish recovers the true points
_TOL_SNAP = 1e-12        # relative snap of near-zero discriminants
_POLISH_TOL = 1e-11      # residual above which a solution gets Newton-polished
_RESIDUAL_TOL = 1e-9

#: cells per vectorized pass; bounds the padded (cells, P, P) dedupe arrays
BLOCK_CELLS = 128
_POLE = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class Eigenpair:
    """One antipodal class (lam, x) with A x^2 = lam x and |x| = 1.

    Only the representative with x3 > 0 (ties: x1 > 0, then x2 > 0) is
    stored; the conjugate (-lam, -x) is implied.
    """

    lam: float
    x: np.ndarray
    branch: str
    multiplicity_hint: int = 1

    def conjugate(self) -> tuple[float, np.ndarray]:
        return (-self.lam, -self.x)


@dataclass(frozen=True)
class WalcherPoly:
    """Degree-six reduction polynomial; coefficients ascending in s.

    ``spurious_roots`` holds (s_minus, s_plus), the zeros of the quotient
    denominator; only s_plus can contaminate the root set, and only on the
    rho = 2 boundary where the polynomial itself vanishes there.
    """

    s_coeffs: np.ndarray
    spurious_roots: tuple[float, float]

    def __call__(self, s):
        return np.polyval(self.s_coeffs[::-1], s)


def walcher_split(rho, chi) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient arrays (b, c) with S_i = K^2 b_i + c_i, ascending in s.

    ``rho`` and ``chi`` may be arrays of one shape; the seven coefficients
    then run along a new last axis.
    """
    rho, chi = np.asarray(rho, dtype=float), np.asarray(chi, dtype=float)
    co, si = np.cos(chi), np.sin(chi)
    # squares and cubes by the C library's pow, as scalar ** takes them: numpy's
    # array square and SIMD power differ from it in the last bit now and then
    rho2, rho3, co2 = (np.reshape([v ** e for v in a.ravel().tolist()], a.shape)
                       for a, e in ((rho, 2), (rho, 3), (co, 2)))
    # shared subexpressions, each evaluated in the order the full formulas use;
    # -4 rho co and 2 rho co scale rho co by powers of two, which is exact
    rsi, rco, rho2co2 = rho * si, rho * co, rho2 * co2
    r3si, r3co2, r2co = 3.0 * rho * si, 3.0 * rho * co2, 2.0 * rho2 * co
    f5, f4, si2, rho_2 = 5.0 * rho2 * co2, 4.0 * rho2, 2.0 * si, 2.0 * rho
    b = np.zeros(rho.shape + (7,))
    c = np.empty(rho.shape + (7,))
    b[..., 1] = -6.0 * rho * co
    b[..., 2] = 6.0 * (rsi + 6.0)
    b[..., 3] = -4.0 * rco
    b[..., 4] = 4.0 * (rsi - 6.0)
    b[..., 5] = 2.0 * rco
    b[..., 6] = 2.0 * (2.0 - rsi)
    c[..., 0] = -rho2co2 * (1.0 + rsi)
    c[..., 1] = r2co * (r3co2 - si2 - rho_2)
    c[..., 2] = f5 * (r3si + 1.0) - f4 * (1.0 + rsi)
    c[..., 3] = 4.0 * rho3 * co * (4.0 - 5.0 * co2)
    c[..., 4] = f5 * (1.0 - r3si) + f4 * (rsi - 1.0)
    c[..., 5] = r2co * (r3co2 + si2 - rho_2)
    c[..., 6] = rho2co2 * (rsi - 1.0)
    return b, c


def walcher_coefficients(p: OrientedParams) -> WalcherPoly:
    """Reduction-polynomial coefficients at the given parameters."""
    b, c = walcher_split(p.rho, p.chi)
    s = b * p.bigk ** 2 + c
    tn, sc = np.tan(p.chi), 1.0 / np.cos(p.chi)
    return WalcherPoly(s_coeffs=s, spurious_roots=(tn - sc, tn + sc))


def real_roots(coeffs, realness: float = 1e-8, cluster: float = 1e-6):
    """Real roots with multiplicities of a polynomial (ascending coefficients).

    Roots come from the eigenvalues of the companion matrix; a root is
    accepted as real when |Im| <= realness * (1 + |Re|) and nearby reals are
    clustered (radius ``cluster`` after normalizing the coefficients).
    Returns a list of (root, multiplicity) sorted ascending.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0 or not np.any(c != 0.0):
        raise ValueError("polynomial is identically zero")
    scale = np.max(np.abs(c))
    c = c / scale
    hi = c.size
    while hi > 1 and abs(c[hi - 1]) <= 1e-12:
        hi -= 1
    lo = 0
    while lo < hi - 1 and abs(c[lo]) <= 1e-12:
        lo += 1
    out = [(0.0, lo)] if lo > 0 else []
    poly = c[lo:hi]
    if poly.size > 1:
        out += [(float(r.real), 1) for r in np.roots(poly[::-1])
                if abs(r.imag) <= realness * (1.0 + abs(r.real))]
    out.sort(key=lambda rm: rm[0])
    merged = []
    for r, m in out:
        if merged and abs(r - merged[-1][0]) <= cluster * (1.0 + abs(r)):
            k = merged[-1][1]
            merged[-1][0] = (merged[-1][0] * k + r * m) / (k + m)
            merged[-1][1] = k + m
        else:
            merged.append([r, m])
    return [(r, m) for r, m in merged]


def count_bound(r: int, n: int) -> int:
    """Upper bound ((r-1)^n - 1)/(r-2) on equivalence classes of eigenvalues."""
    if r <= 2:
        raise ValueError("rank r must exceed 2")
    if n < 1:
        raise ValueError("n must be positive")
    return ((r - 1) ** n - 1) // (r - 2)


@dataclass(frozen=True)
class EigenSolution:
    """All stored eigenpair classes at one parameter point."""

    params: OrientedParams
    pairs: tuple
    continuum: bool = False

    @property
    def critical_point_total(self) -> int:
        return 2 * len(self.pairs)

    def to_report(self) -> dict:
        return {
            "params": {"rho": self.params.rho, "chi": self.params.chi,
                       "K": self.params.bigk},
            "pairs": [{"lambda": p.lam, "x": list(map(float, p.x)),
                       "branch": p.branch, "multiplicity": p.multiplicity_hint}
                      for p in self.pairs],
            "critical_point_total": self.critical_point_total,
            "continuum": self.continuum,
        }


# ---------------------------------------------------------------------------
# branch solvers; all work in the canonical sector and return raw entries
# (x_unit, branch, multiplicity) in that frame, poles excluded
# ---------------------------------------------------------------------------

def _entry_from_st(s: float, t: float, branch: str, mult: int = 1):
    n = np.sqrt(1.0 + s * s + t * t)
    return (np.array([s, 1.0, t]) / n, branch, mult)


def _quad_roots(a: float, b: float, c: float, snap: float = _TOL_SNAP):
    """Roots of a x^2 + b x + c with a relative snap of tiny discriminants.

    Returns (roots, multiplicity) pairs; a discriminant within snap of zero
    collapses to a double root, which keeps exactly-on-boundary parameter
    evaluations from losing their coalesced solutions to round-off.  With
    ``snap=0.0`` only an exactly zero discriminant gives a double root.
    """
    if abs(a) <= 1e-300:
        if abs(b) <= 1e-300:
            return []
        return [(-c / b, 1)]
    disc = b * b - 4.0 * a * c
    scale = b * b + 4.0 * abs(a * c) + 1e-300
    if abs(disc) <= snap * scale:
        return [(-b / (2.0 * a), 2)]
    if disc < 0.0:
        return []
    sq = np.sqrt(disc)
    return [((-b - sq) / (2.0 * a), 1), ((-b + sq) / (2.0 * a), 1)]


def _deflate(a: np.ndarray, root) -> np.ndarray:
    """Synthetic division of ascending-coefficient polynomials (last axis) by (s - root)."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] - 1,))
    carry = 0.0
    for i in range(a.shape[-1] - 1, 0, -1):
        carry = a[..., i] + root * carry
        out[..., i - 1] = carry
    return out


def _polyval_rows(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Horner evaluation of each ascending-coefficient row of (n, d) at its s."""
    y = np.zeros_like(s)
    for j in range(coeffs.shape[1] - 1, -1, -1):
        y = y * s + coeffs[:, j]
    return y


def _solve_axis(k: float):
    """rho = 0, K > 0: three-fold symmetric family about the polar axis."""
    out = []
    for t, m in _quad_roots(2.0, -k, -0.5):
        out.append(_entry_from_st(0.0, t, "axis-meridian", m))
    for t, m in _quad_roots(1.0, k, -1.0):
        for s in (np.sqrt(3.0), -np.sqrt(3.0)):
            out.append(_entry_from_st(s, t, "axis-offset", m))
    return out, False


def _disk_coeffs(rho, chi, s):
    co, si = np.cos(chi), np.sin(chi)
    c2 = rho * si + 2.0 - rho * co * s
    c0 = 0.5 * (rho * si - 1.0) * s * s + rho * co * s - 0.5 * (rho * si + 1.0)
    return c2, c0


def _solve_disk_interior(rho: float, chi: float):
    """K = 0, chi away from -pi/2: equatorial roots plus two vertical lines."""
    out = []
    co, si = np.cos(chi), np.sin(chi)
    # t = 0 branch: quadratic in s with discriminant rho^2 - 1
    a = 0.5 * (rho * si - 1.0)
    for s, m in _quad_roots(a, rho * co, -0.5 * (rho * si + 1.0)):
        out.append(_entry_from_st(s, 0.0, "disk-equator", m))
    # vertical lines where the t-linear factor vanishes: s = tan chi +/- sec chi
    for s in (np.tan(chi) + 1.0 / co, np.tan(chi) - 1.0 / co):
        c2, c0 = _disk_coeffs(rho, chi, s)
        if abs(c2) <= 1e-12 * (abs(c0) + 1.0):
            continue  # the quadratic degenerates (rho = 2 line); no solutions
        t2 = -c0 / c2
        scale = abs(c0 / c2) + 1.0
        if t2 > _TOL_SNAP * scale:
            tq = np.sqrt(t2)
            out.append(_entry_from_st(s, tq, "disk-vertical"))
            out.append(_entry_from_st(s, -tq, "disk-vertical"))
        elif abs(t2) <= _TOL_SNAP * scale:
            out.append(_entry_from_st(s, 0.0, "disk-vertical", 2))
    return out, False


def _background_pi2(rho: float):
    x1 = np.sqrt(2.0 * (rho + 2.0) / (5.0 + 3.0 * rho))
    x3 = np.sqrt((rho + 1.0) / (5.0 + 3.0 * rho))
    return [(np.array([x1, 0.0, x3]), "background", 1),
            (np.array([-x1, 0.0, x3]), "background", 1)]


def _solve_disk_pi2(rho: float):
    """chi = -pi/2, K = 0: meridian and equator roots plus the background."""
    out = []
    for t, m in _quad_roots(2.0 - rho, 0.0, 0.5 * (rho - 1.0)):
        out.append(_entry_from_st(0.0, t, "disk-meridian", m))
    s2 = (rho - 1.0) / (rho + 1.0)
    if s2 > _TOL_SNAP:
        out.append(_entry_from_st(np.sqrt(s2), 0.0, "disk-equator"))
        out.append(_entry_from_st(-np.sqrt(s2), 0.0, "disk-equator"))
    elif abs(rho - 1.0) <= _TOL_SNAP * (rho + 1.0):
        out.append(_entry_from_st(0.0, 0.0, "disk-equator", 2))
    out.extend(_background_pi2(rho))
    return out, False


def _solve_chi_pi2(rho: float, k: float):
    """chi = -pi/2, K > 0."""
    out = []
    if abs(rho - 2.0) <= _TOL_PLANE:
        out.append(_entry_from_st(0.0, (rho - 1.0) / (2.0 * k), "pi2-meridian"))
    else:
        for t, m in _quad_roots(2.0 - rho, -k, 0.5 * (rho - 1.0)):
            out.append(_entry_from_st(0.0, t, "pi2-meridian", m))
    a = k * k * (rho + 2.0)
    b = -2.0 * k * k * (rho + 6.0) - 2.0 * rho ** 2 * (rho + 1.0)
    c = 3.0 * k * k * (6.0 - rho) + 2.0 * rho ** 2 * (rho - 1.0)
    for sig, m in _quad_roots(a, b, c):
        if sig <= _TOL_SNAP * (1.0 + abs(sig)):
            continue
        s = np.sqrt(sig)
        t = k * (sig - 3.0) / (2.0 * rho)
        out.append(_entry_from_st(s, t, "pi2-biquad", m))
        out.append(_entry_from_st(-s, t, "pi2-biquad", m))
    return out, False


def _solve_chi_pi6(rho: float, k: float):
    """chi = -pi/6, K > 0, handled in the frame rotated by 2 pi/3.

    In that frame the parameters read (rho, pi/2, K); the solutions are
    rotated back by Rz(4 pi/3) at the end.
    """
    out = []
    continuum = False
    for t, m in _quad_roots(rho + 2.0, -k, -0.5 * (rho + 1.0)):
        out.append((_entry_from_st(0.0, t, "pi6-meridian", m), t))
    branch = []
    if abs(rho - 2.0) <= _TOL_PLANE:
        if abs(k - 1.0) <= _TOL_PLANE:
            continuum = True
            # the whole t = K(3 - s^2)/(2 rho) curve is critical; only the
            # meridian root off that curve stays isolated
            t_orbit = 3.0 * k / (2.0 * rho)
            out = [(e, t) for e, t in out if abs(t - t_orbit) > 1e-9]
        else:
            for s in (np.sqrt(3.0), -np.sqrt(3.0)):
                branch.append((s, 0.0, 1))
    else:
        a = k * k * (rho - 2.0)
        b = 2.0 * (k * k * (6.0 - rho) + rho ** 2 * (1.0 - rho))
        c = -3.0 * k * k * (6.0 + rho) + 2.0 * rho ** 2 * (1.0 + rho)
        for sig, m in _quad_roots(a, b, c):
            if sig <= _TOL_SNAP * (1.0 + abs(sig)):
                continue
            s = np.sqrt(sig)
            t = k * (3.0 - sig) / (2.0 * rho)
            branch.append((s, t, m))
            branch.append((-s, t, m))
    for s, t, m in branch:
        out.append((_entry_from_st(s, t, "pi6-biquad", m), t))
    rot = rotation_z(4.0 * np.pi / 3.0)
    rotated = [((rot @ x, br, m)) for (x, br, m), _ in out]
    return rotated, continuum


def _quad_rows(a, b, c):
    """`_quad_roots` elementwise: roots (2, n) and multiplicities (2, n), 0 for no root."""
    lin = np.abs(a) <= 1e-300
    disc = b * b - 4.0 * a * c
    scale = b * b + 4.0 * np.abs(a * c) + 1e-300
    double = ~lin & (np.abs(disc) <= _TOL_SNAP * scale)
    two = ~lin & ~double & ~(disc < 0.0)
    sq = np.sqrt(np.where(two, disc, 0.0))
    roots = np.array([np.where(lin, -c / b, np.where(double, -b / (2.0 * a), (-b - sq) / (2.0 * a))),
                      (-b + sq) / (2.0 * a)])
    mult = np.array([np.where(lin, np.abs(b) > 1e-300, np.where(double, 2, two)), two])
    return roots, mult.astype(int)


def _stationary(work: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Newton on W' = 0 from s, per row of ascending coefficients of W.

    A row stops where W'' vanishes or once its step falls below 1e-14 (1 + |s|).
    """
    d1 = work[:, 1:] * np.arange(1, work.shape[1])
    d2 = d1[:, 1:] * np.arange(1, d1.shape[1])
    s = s.copy()
    run = np.arange(s.size)
    for _ in range(40):
        dp, ddp = _polyval_rows(d1[run], s[run]), _polyval_rows(d2[run], s[run])
        go = ddp != 0.0
        run, step = run[go], dp[go] / ddp[go]
        s[run] -= step
        run = run[~(np.abs(step) < 1e-14 * (1.0 + np.abs(s[run])))]
        if run.size == 0:
            break
    return s


def _pair_roots(work: np.ndarray, roots: np.ndarray, deg: np.ndarray):
    """Greedy pairing of coalescing roots, in root order, per row.

    A root takes its nearest unused partner within 1e-5 (relative) when W
    nearly vanishes at the stationary point of W next to it; the pair is
    then one double root there.  Returns s (n, 6) and multiplicities (n, 6)
    per root slot: 2 for a pair, 1 for a real single root, 0 otherwise.
    """
    n = len(deg)
    used = np.arange(6) >= deg[:, None]
    s_root = np.zeros((n, 6))
    m_root = np.zeros((n, 6), dtype=int)
    for i in range(6):
        live = np.flatnonzero(~used[:, i])
        ri = roots[live, i]
        dist = np.abs(ri[:, None] - roots[live])
        dist[used[live]] = np.inf
        dist[:, i] = np.inf
        j = np.argmin(dist, axis=1)
        near = np.flatnonzero(dist[np.arange(live.size), j] <= 1e-5 * (1.0 + np.abs(ri)))
        if near.size:
            rows = live[near]
            s0 = _stationary(work[rows], ri[near].real)
            ok = np.abs(_polyval_rows(work[rows], s0)) \
                <= 1e-9 * (_polyval_rows(np.abs(work[rows]), np.abs(s0)) + 1e-300)
            near, rows = near[ok], rows[ok]
            used[rows, j[near]] = True
            s_root[rows, i], m_root[rows, i] = s0[ok], 2
        used[live, i] = True
        single = np.ones(live.size, dtype=bool)
        single[near] = False
        real = single & (np.abs(ri.imag) <= 1e-9 * (1.0 + np.abs(ri.real)))
        s_root[live[real], i], m_root[live[real], i] = ri.real[real], 1
    return s_root, m_root


#: branch tag of each entry slot of `_solve_generic`
_GENERIC_SLOTS = np.array(["pole"] + ["walcher"] * 13 + ["background"], dtype=object)
_OFF_DIAGONAL = ~np.eye(6, dtype=bool)


def _solve_generic(rho: np.ndarray, chi: np.ndarray, k: np.ndarray):
    """Interior of the sector, all cells at once: the degree-six reduction polynomial.

    Takes (n,) canonical parameters.  Each cell has 15 entry slots in output
    order: the pole; the s = 0 root; two per root in ascending s (the second
    holds the other t of a double root at a zero of the quotient denominator
    q); the background row.  Returns x (n, 15, 3) and multiplicities
    (n, 15), 0 for an empty slot.
    """
    n = rho.size
    b, c = walcher_split(rho, chi)
    rho, k = rho[:, None], k[:, None]
    co, si = np.cos(chi)[:, None], np.sin(chi)[:, None]
    coeffs = b * k * k + c
    scale = np.abs(coeffs).max(axis=1, keepdims=True)
    deg6_lost = np.abs(coeffs[:, 6]) <= 1e-10 * scale[:, 0]
    work = coeffs
    rim = np.abs(rho[:, 0] - 2.0) <= 1e-9
    if rim.any():
        # on the rim the polynomial may vanish at s_plus, a zero of the
        # quotient denominator: that permanent root is divided out so its
        # genuine neighbours stay sharp
        s_plus = np.tan(chi) + 1.0 / co[:, 0]
        rows = np.flatnonzero(rim)
        w, sp = coeffs[rows], s_plus[rows]
        rim[rows] = np.abs(_polyval_rows(w, sp)) \
            <= 1e-10 * (_polyval_rows(np.abs(w), np.abs(sp)) + 1e-300)
        rows = np.flatnonzero(rim)
        work = coeffs.copy()
        work[rows, :6] = _deflate(coeffs[rows], s_plus[rows])
        work[rows, 6] = 0.0
        scale = np.abs(work).max(axis=1, keepdims=True)
    # trim coefficients below 1e-10 of the largest from both ends, keeping the
    # constant one at least: s = 0 is a root of multiplicity lo, and the rest
    # has degree hi - 1 - lo
    big = np.abs(work) > 1e-10 * scale
    lo = big.argmax(axis=1)
    big[:, 0] = True
    hi = 7 - big[:, ::-1].argmax(axis=1)
    lo = np.minimum(lo, hi - 1)
    deg = hi - lo - 1
    red = work / scale
    roots = np.full((n, 6), np.nan, dtype=complex)
    for d in sorted(set(deg.tolist()) - {0}):
        # companions as np.roots builds them, in one stacked eigvals call
        rows = np.flatnonzero(deg == d)
        comp = np.zeros((rows.size, d, d))
        comp.reshape(rows.size, -1)[:, d::d + 1] = 1.0      # the subdiagonal
        comp[:, 0] = -red[rows[:, None], hi[rows, None] - 2 - np.arange(d)] \
            / red[rows, hi[rows] - 1][:, None]
        roots[rows, :d] = np.linalg.eigvals(comp)

    # cells with no two roots within the pairing distance have single roots only
    s_root = roots.real.copy()
    m_root = (np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots.real))).astype(int)
    close = (np.abs(roots[:, :, None] - roots[:, None]) <= 1e-5 * (1.0 + np.abs(roots))[:, :, None]) \
        & _OFF_DIAGONAL
    pairing = np.flatnonzero(close.any(axis=(1, 2)))
    if pairing.size:
        s_root[pairing], m_root[pairing] = _pair_roots(work[pairing], roots[pairing], deg[pairing])
    order = np.argsort(np.where(m_root > 0, s_root, np.inf), axis=1, kind="stable")
    cells = np.arange(n)[:, None]
    r, m_root = s_root[cells, order], m_root[cells, order]
    if rim.any():
        # drop the spurious root annihilating the quotient denominator
        sp = s_plus[:, None]
        m_root[rim[:, None] & (np.abs(r - sp) <= 1e-8 * (1.0 + np.abs(sp)))] = 0

    x = np.zeros((n, 15, 3))
    x[:, 0, 2] = x[:, 1:14, 1] = 1.0
    mult = np.zeros((n, 15), dtype=int)
    mult[:, 0] = 1
    mult[:, 1] = lo               # the s = 0 root, where t vanishes with s
    x[:, 2:14:2, 0] = x[:, 3:14:2, 0] = r
    q = rho * (co * (r * r - 1.0) - 2.0 * r * si)
    x[:, 2:14:2, 2] = k * r * (r * r - 3.0) / q
    mult[:, 2:14:2] = m_root
    pair = m_root >= 2
    if pair.any():
        qscale = rho * (np.abs(co) * (r * r + 1.0) + 2.0 * np.abs(r * si)) + 1e-300
        # near a zero of q a "double root" is really two solutions with
        # distinct t at (almost) one s
        rows, col = np.nonzero(pair & (np.abs(q) <= 1e-6 * qscale))
        rs, rr, cr, sr, kr = r[rows, col], rho[rows, 0], co[rows, 0], si[rows, 0], k[rows, 0]
        tq, mq = _quad_rows(rr * sr + 2.0 - rr * cr * rs, kr * (rs * rs - 1.0),
                            0.5 * (rr * sr - 1.0) * rs * rs + rr * cr * rs - 0.5 * (rr * sr + 1.0))
        x[rows, 2 + 2 * col, 2], x[rows, 3 + 2 * col, 2] = tq
        mult[rows, 2 + 2 * col], mult[rows, 3 + 2 * col] = mq
    s, t = x[:, 1:14, 0], x[:, 1:14, 2]
    x[:, 1:14] /= np.sqrt(1.0 + s * s + t * t)[:, :, None]
    if deg6_lost.any():
        # degree dropped: the lost roots migrate to the x2 = 0 great circle
        rows = np.flatnonzero(deg6_lost)
        rsi = rho[rows, 0] * si[rows, 0]
        den = 5.0 - 3.0 * rho[rows, 0] * si[rows, 0]
        x[rows, 14, 0] = np.sqrt(2.0 * (2.0 - rsi) / den)
        x[rows, 14, 2] = np.sqrt((1.0 - rsi) / den)
        mult[rows, 14] = 1
    return x, mult


def _branch_rows(params):
    """Canonical-frame map and raw entries of a block of parameter points.

    Returns (ops, continuum, cell, x, branch, mult) with the rows grouped by
    ascending cell, each cell's pole first.  The generic cells are solved
    together; the plane, axis and disk solvers run per cell.
    """
    n = len(params)
    canon, ops, _mirrored = canonicalize_arrays(*np.reshape([p.as_tuple() for p in params], (n, 3)).T)
    rho, chi, k = canon
    axis, flat = rho <= _TOL_CHI, k <= _TOL_PLANE
    pi2, pi6 = np.abs(chi + np.pi / 2) <= _TOL_CHI, np.abs(chi + np.pi / 6) <= _TOL_CHI
    continuum = axis & flat
    generic = ~(axis | flat | pi2 | pi6)
    parts = []          # (cell, rank in cell, x, branch, mult) of each solver family
    if generic.any():
        with np.errstate(divide="ignore", invalid="ignore"):    # empty slots may hold 0 / 0
            x, mult = _solve_generic(rho[generic], chi[generic], k[generic])
        rows, rank = np.nonzero(mult)
        parts.append((np.flatnonzero(generic)[rows], rank, x[rows, rank], _GENERIC_SLOTS[rank],
                      mult[rows, rank]))
    special = []
    for i in np.flatnonzero(~generic).tolist():
        r, c, kk = canon[:, i].tolist()
        if continuum[i]:
            entries = []
        elif axis[i]:
            entries, _ = _solve_axis(kk)
        elif flat[i]:
            entries, _ = _solve_disk_pi2(r) if pi2[i] else _solve_disk_interior(r, c)
        elif pi2[i]:
            entries, _ = _solve_chi_pi2(r, kk)
        else:
            entries, continuum[i] = _solve_chi_pi6(r, kk)
        special += [(i, j, *e) for j, e in enumerate([(_POLE, "pole", 1)] + entries)]
    if special:
        sc, sr, sx, sb, sm = zip(*special)
        parts.append((np.array(sc), np.array(sr), np.array(sx), np.array(sb, dtype=object),
                      np.array(sm)))
    cell, rank, x, branch, mult = (np.concatenate(col) for col in zip(*parts))
    if len(parts) > 1:
        order = np.lexsort((rank, cell))
        cell, x, branch, mult = cell[order], x[order], branch[order], mult[order]
    return ops, continuum, cell, x, branch, mult


@dataclass
class SolvedBlock:
    """Eigenpair classes of a block of cells as row arrays.

    Rows are grouped by ascending ``cell`` and ordered within a cell as in
    `EigenSolution.pairs`.  A cell with an error message has no rows.
    """

    params: list
    arrays: np.ndarray          # (cells, 3, 3, 3) oriented tensors
    continuum: np.ndarray       # (cells,)
    errors: list                # per cell: None or the failure message
    cell: np.ndarray            # (rows,)
    x: np.ndarray               # (rows, 3) canonical representatives
    lam: np.ndarray
    branch: np.ndarray          # object array of branch tags
    mult: np.ndarray

    def rows(self, i: int) -> range:
        lo, hi = np.searchsorted(self.cell, [i, i + 1])
        return range(lo, hi)

    def raise_first_error(self) -> None:
        msg = next((e for e in self.errors if e is not None), None)
        if msg is not None:
            raise RuntimeError(msg)

    def solutions(self) -> list:
        return [EigenSolution(params=p, continuum=bool(self.continuum[i]), pairs=tuple(
                    Eigenpair(lam=float(self.lam[r]), x=self.x[r], branch=self.branch[r],
                              multiplicity_hint=int(self.mult[r])) for r in self.rows(i)))
                for i, p in enumerate(self.params)]


def solve_block(params) -> SolvedBlock:
    """Solve a block of parameter points in one vectorized pass.

    Canonicalization and the generic branch run once over all cells (the
    plane, axis and disk solvers per cell); back-rotation, dedupe, residual
    check, polish, canonicalization of the representatives and ordering run
    once over all rows.  A cell whose residual stays above tolerance gets
    an error message naming its parameters and classes instead of rows.
    """
    params = list(params)
    n = len(params)
    ops, continuum, cell, x, branch, mult = _branch_rows(params)
    x = np.einsum("rji,rj->ri", ops[cell], x)
    x /= np.sqrt((x * x).sum(axis=1))[:, None]
    arrays = oriented_arrays(params)
    lam = np.einsum("rijk,ri,rj,rk->r", arrays[cell], x, x, x)
    keep, mult = _optim.dedupe_rows(cell, x, lam, mult)
    cell, x, lam, mult, branch = cell[keep], x[keep], lam[keep], mult[keep], branch[keep]

    res = _optim.residual_batch(arrays[cell], x, lam)
    rough = res > _POLISH_TOL
    for i in np.unique(cell[rough]):
        rows = np.flatnonzero(rough & (cell == i))
        x[rows], lam[rows] = _optim.newton_refine(arrays[i], x[rows], lam[rows], iters=30)
        res[rows] = _optim.residual_batch(arrays[cell[rows]], x[rows], lam[rows])
    errors = [None] * n
    for r in np.flatnonzero(res > _RESIDUAL_TOL)[::-1]:   # the first bad row of a cell wins
        i = cell[r]
        found = ", ".join(f"{b} lam={l:.6g}" for b, l in zip(branch[cell == i], lam[cell == i]))
        errors[i] = (f"eigenpair residual {res[r]:.2e} exceeds tolerance on branch {branch[r]} "
                     f"at {params[i]}; classes found: {found}")
    ok = np.array([e is None for e in errors])[cell]
    cell, x, lam, mult, branch = cell[ok], x[ok], lam[ok], mult[ok], branch[ok]

    flip = _optim.canonical_flip(x)
    x[flip] *= -1.0
    lam[flip] *= -1.0
    # a polish step may have pulled plane-adjacent duplicates together
    keep, mult = _optim.dedupe_rows(cell, x, lam, mult)
    # by descending lam, then x1, x2; rounding keeps symmetry-equal classes
    # in the same order whatever their last-digit noise
    order = np.flatnonzero(keep)
    order = order[np.lexsort((-np.round(x[order, 1], 12), -np.round(x[order, 0], 12),
                              -np.round(lam[order], 12), cell[order]))]
    return SolvedBlock(params=params, arrays=arrays, continuum=continuum, errors=errors,
                       cell=cell[order], x=x[order], lam=lam[order], branch=branch[order],
                       mult=mult[order])


def solved_blocks(params):
    """`solve_block` over consecutive blocks of at most BLOCK_CELLS cells."""
    params = list(params)
    for start in range(0, len(params), BLOCK_CELLS):
        yield solve_block(params[start:start + BLOCK_CELLS])


def solve_oriented_batch(params) -> list[EigenSolution]:
    """`solve_oriented` for each of a sequence of parameter points.

    Raises the error of the first failing point, as a loop over
    `solve_oriented` would.
    """
    out = []
    for block in solved_blocks(params):
        block.raise_first_error()
        out += block.solutions()
    return out


def solve_oriented(p: OrientedParams) -> EigenSolution:
    """All stored eigenpair classes of the oriented tensor at ``p``.

    Parameters anywhere in the cylinder (rho in [0, 2], chi in [-pi, pi],
    any real K) are first reduced to the canonical sector; solutions are
    mapped back to the requested frame.  The poles are always included.
    The continuum flag marks the two axisymmetric parameter points, whose
    isolated classes are still listed.
    """
    return solve_oriented_batch([p])[0]


# ---------------------------------------------------------------------------
# stationary pairs of the bilinear form for last-two-index symmetric tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CEigenTriple:
    """Stationary value with left vector x and right vector y.

    The variants (lam, x, -y), (-lam, -x, y), (-lam, -x, -y) are implied.
    """

    lam: float
    x: np.ndarray
    y: np.ndarray


def _check_piezo(a: np.ndarray, tol: float = 1e-10) -> None:
    scale = max(float(np.max(np.abs(a))), 1e-300)
    if np.max(np.abs(a - np.transpose(a, (0, 2, 1)))) > tol * scale:
        raise ValueError("tensor must be symmetric in its last two indices")


def c_eigenpairs(t, starts: int = 64) -> list[CEigenTriple]:
    """Stationary triples of x . A[y (x) y] by one batched alternating ascent.

    All starts advance together.  A sweep sets x = A : y (x) y / |A : y (x) y|
    and then y to the top eigenvector of the symmetric matrix x . A.  A start
    retires when no component of x moves by more than 1e-9 (x is quadratic
    in y, so the arbitrary sign of y cannot stall this), or stops where it
    is when A : y (x) y vanishes.  Triples passing the residual check are
    deduplicated up to the sign family, the first start winning, and
    returned with lam >= 0, sorted descending.
    """
    a = as_array(t)
    _check_piezo(a)
    if starts < 1:
        raise ValueError("starts must be at least 1")
    norm_a = float(np.sqrt(np.einsum("ijk,ijk->", a, a))) or 1.0
    y = _optim.fibonacci_sphere(starts)
    x = np.full_like(y, np.nan)          # no x until A : y (x) y is nonzero once
    run = np.arange(starts)
    for _ in range(500):
        c = np.einsum("ijk,nj,nk->ni", a, y[run], y[run])
        nc = np.linalg.norm(c, axis=1)
        live = nc >= 1e-14 * norm_a
        run, xn = run[live], c[live] / nc[live, None]
        step = np.max(np.abs(xn - x[run]), axis=1)
        x[run] = xn
        y[run] = np.linalg.eigh(np.einsum("ni,ijk->njk", xn, a))[1][:, :, -1]
        run = run[~(step <= 1e-9)]       # NaN on a start's first sweep keeps it running
        if run.size == 0:
            break
    lam = np.einsum("ijk,ni,nj,nk->n", a, x, y, y)
    x[lam < 0.0] *= -1.0
    lam = np.abs(lam)
    r1 = np.abs(np.einsum("ijk,nj,nk->ni", a, y, y) - lam[:, None] * x)
    r2 = np.abs(np.einsum("ni,ijk,nj->nk", x, a, y) - lam[:, None] * y)
    ok = np.maximum(r1, r2).max(axis=1) <= 1e-8 * max(1.0, norm_a)     # False for NaN
    lam, x, y = lam[ok], x[ok], y[ok]
    near = lambda u, v: np.linalg.norm(u[:, None] - v, axis=-1) < 1e-6
    same = ((np.abs(lam[:, None] - lam) <= 1e-9 * (1.0 + lam[:, None])) & near(x, x)
            & (near(y, y) | near(y, -y)))
    first = np.flatnonzero(~np.tril(same, -1).any(axis=1))    # no earlier start found it
    first = first[np.argsort(-lam[first], kind="stable")]
    return [CEigenTriple(lam=float(lam[i]), x=x[i], y=y[i]) for i in first]


def best_rank_one(t, starts: int = 64) -> tuple[float, np.ndarray, np.ndarray]:
    """Best approximation lam x (x) y (x) y in the Frobenius norm."""
    triples = c_eigenpairs(t, starts=starts)
    if not triples:
        raise RuntimeError("no stationary triple found")
    top = triples[0]
    return top.lam, top.x, top.y


def incremental_rank_one(t, max_terms: int = 13, starts: int = 64,
                         rel_tol: float = 1e-10):
    """Greedy deflation by successive best rank-one terms.

    Returns (terms, residuals): the extracted (lam, x, y) triples and the
    Frobenius norm of the remainder after each step (non-increasing).
    """
    a = as_array(t).copy()
    norm0 = float(np.sqrt(np.einsum("ijk,ijk->", a, a)))
    terms, residuals = [], []
    for _ in range(max_terms):
        if np.sqrt(np.einsum("ijk,ijk->", a, a)) <= rel_tol * max(norm0, 1e-300):
            break
        lam, x, y = best_rank_one(a, starts=starts)
        terms.append((lam, x, y))
        a = a - lam * np.einsum("i,j,k->ijk", x, y, y)
        residuals.append(float(np.sqrt(np.einsum("ijk,ijk->", a, a))))
    return terms, residuals
