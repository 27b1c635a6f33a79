"""
Real generalized eigenpairs of an oriented traceless symmetric tensor.

The critical points of the cubic form on the unit sphere split into the
poles, the "background" family on the great circle x2 = 0, and all
remaining points, which map to roots of a single-variable polynomial of
degree six in s = x1/x2 (with t = x3/x2 recovered from a quotient that is
linear in t).  The symmetry planes of the reduced parameter space need
their own lower-degree branches; every branch below was checked against a
dense numerical search.  The chi = -pi/6 plane is the chi = -pi/2 plane
read in the frame rotated by 2 pi/3, at -rho, so one plane solver serves
both; every point of the disk K = 0 is canonicalized to chi = -pi/2, so one
disk solver serves it.  Every branch solver works on all of its cells at
once.

For a tensor that is only symmetric in its last two indices the analogous
objects are the stationary triples of the bilinear form x . A[y (x) y]; all
of them come from one chart solve, the quartic |A : yy|^2 in place of the
cubic form, and the top one feeds the incremental rank-one approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import _optim
from ._optim import count_bound
from .potential import (_TOL_DISK, OrientedParams, canonicalize_arrays, oriented_arrays, _param_rows,
                        rotation_z)
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

_TOL_PLANE = 1e-11       # membership thresholds of the rim rho = 2 and of K = 1 on it
_TOL_CHI = 1e-7          # membership of the chi symmetry planes and the axis;
                         # closer than this the generic quotient loses all
                         # precision, while the plane solver plus one Newton
                         # polish recovers the true points
_TOL_SNAP = 1e-12        # relative snap of near-zero discriminants
_POLISH_TOL = 1e-11      # residual above which a solution gets Newton-polished
_RESIDUAL_TOL = 1e-9

#: cells per vectorized pass: the per-block fixed cost is paid once per this many cells, and
#: the (rows, 3, 3, 3) gathers of each row's tensor grow with it (about 0.7 MB at 512)
BLOCK_CELLS = 512


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
        s = np.asarray(s)
        return _polyval_rows(self.s_coeffs[None], s).reshape(s.shape)[()]


def walcher_split(rho, chi) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient arrays (b, c) with S_i = K^2 b_i + c_i, ascending in s.

    ``rho`` and ``chi`` may be arrays of one shape; the seven coefficients
    then run along a new last axis.
    """
    rho, chi = np.asarray(rho, dtype=float), np.asarray(chi, dtype=float)
    co, si = np.cos(chi), np.sin(chi)
    rho2, rho3, co2 = _scalar_pow(rho, 2), _scalar_pow(rho, 3), _scalar_pow(co, 2)
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


def _scalar_pow(a, e: int) -> np.ndarray:
    """a ** e elementwise by the C library's pow, as scalar ** takes it: numpy's
    array square and SIMD power differ from it in the last bit now and then."""
    a = np.asarray(a, dtype=float)
    return np.reshape([v ** e for v in a.ravel().tolist()], a.shape)


def _companion_roots(red: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Roots of each row's polynomial red[lo:hi] (ascending, nonzero at both ends).

    Companions are built as numpy.roots builds them, one stacked eigvals call
    per degree.  Returns (n, d - 1) complex for (n, d) rows, NaN past each
    row's degree.
    """
    deg = hi - lo - 1
    roots = np.full((len(red), red.shape[1] - 1), np.nan, dtype=complex)
    for d in sorted(set(deg.tolist()) - {0}):
        rows = np.flatnonzero(deg == d)
        comp = np.zeros((rows.size, d, d))
        comp.reshape(rows.size, -1)[:, d::d + 1] = 1.0      # the subdiagonal
        comp[:, 0] = -red[rows[:, None], hi[rows, None] - 2 - np.arange(d)] \
            / red[rows, hi[rows] - 1][:, None]
        roots[rows, :d] = np.linalg.eigvals(comp)
    return roots


def _real_eigs(coeffs: np.ndarray, realness: float, trim: float = 1e-12):
    """Companion roots of each row of (n, d) ascending coefficients, as `real_roots` finds them.

    Each row is scaled by its largest |coefficient| and trimmed of
    coefficients up to ``trim`` at both ends, keeping the constant one at
    least: s = 0 is a root of multiplicity lo.  Returns lo (n,), the roots
    (n, d - 1), NaN past each row's degree, and whether each is real,
    |Im| <= realness * (1 + |Re|).  An all-zero row has no roots.
    """
    n, width = coeffs.shape
    scale = np.abs(coeffs).max(axis=1, keepdims=True)
    red = coeffs / np.where(scale > 0.0, scale, 1.0)
    big = np.abs(red) > trim
    lo = big.argmax(axis=1)
    big[:, 0] = True
    hi = width - big[:, ::-1].argmax(axis=1)
    lo = np.minimum(lo, hi - 1)
    roots = _companion_roots(red, lo, hi)
    return lo, roots, np.abs(roots.imag) <= realness * (1.0 + np.abs(roots.real))


def _real_root_rows(coeffs: np.ndarray, realness: float, cluster: float):
    """`real_roots` of every row of (n, d): roots (n, d) ascending and multiplicities (n, d), 0 past the last.

    Sorted reals closer than ``cluster`` (relative) to the running mean of
    the cluster before them join it, left to right.
    """
    n, width = coeffs.shape
    lo, roots, real = _real_eigs(coeffs, realness)
    # the s = 0 root first, then the real eigenvalues; a stable sort keeps that order on ties
    m = np.hstack([lo[:, None], real.astype(int)])
    s = np.hstack([np.zeros((n, 1)), np.where(real, roots.real, 0.0)])
    order = np.argsort(np.where(m > 0, s, np.inf), axis=1, kind="stable")
    s, m = np.take_along_axis(s, order, axis=1), np.take_along_axis(m, order, axis=1)
    out_s, out_m = np.zeros((n, width)), np.zeros((n, width), dtype=int)
    slot = np.zeros(n, dtype=int)
    mean, mult = s[:, 0].copy(), m[:, 0].copy()
    for j in range(1, width):
        r, mj = s[:, j], m[:, j]
        join = (mj > 0) & (np.abs(r - mean) <= cluster * (1.0 + np.abs(r)))
        rows = np.flatnonzero(join)
        mean[rows] = (mean[rows] * mult[rows] + r[rows] * mj[rows]) / (mult[rows] + mj[rows])
        mult[rows] += mj[rows]
        rows = np.flatnonzero((mj > 0) & ~join)
        out_s[rows, slot[rows]], out_m[rows, slot[rows]] = mean[rows], mult[rows]
        slot[rows] += 1
        mean[rows], mult[rows] = r[rows], mj[rows]
    rows = np.flatnonzero(mult > 0)
    out_s[rows, slot[rows]], out_m[rows, slot[rows]] = mean[rows], mult[rows]
    return out_s, out_m


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
    s, m = _real_root_rows(c[None], realness, cluster)
    return [(float(r), int(k)) for r, k in zip(s[0], m[0]) if k]


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
# branch solvers; each takes its cells' (n,) canonical parameters and returns
# fixed entry slots in that frame, the pole first: x (n, S, 3) and
# multiplicities (n, S), 0 for an empty slot
# ---------------------------------------------------------------------------

_SQRT3 = np.sqrt(3.0)
_ROT_PI6 = rotation_z(4.0 * np.pi / 3.0)


def _quad_rows(a, b, c, snap: float = _TOL_SNAP):
    """Roots of a x^2 + b x + c elementwise: roots (2, n), multiplicities (2, n), 0 for none.

    A discriminant within ``snap`` (relative) of zero gives a double root in
    the first slot, so that on-boundary parameters keep their coalesced
    solutions; ``snap=0.0`` asks for an exact zero.  A linear root is first.
    """
    lin = np.abs(a) <= 1e-300
    disc = b * b - 4.0 * a * c
    double = ~lin & (np.abs(disc) <= snap * (b * b + 4.0 * np.abs(a * c) + 1e-300))
    two = ~lin & ~double & ~(disc < 0.0)
    sq = np.sqrt(np.where(two, disc, 0.0))         # 0 at a double root: -b / 2a below
    roots = np.array([np.where(lin, -c / b, (-b - sq) / (2.0 * a)), (-b + sq) / (2.0 * a)])
    mult = np.array([np.where(lin, np.abs(b) > 1e-300, np.where(double, 2, two)), two])
    return roots, mult.astype(int)


def _st_slots(s, t, mult):
    """x (n, S + 1, 3) and multiplicities (n, S + 1) of the pole and the points (s, 1, t)
    / |(s, 1, t)|; per slot, ``s`` and ``t`` give an (n,) array or a scalar, ``mult`` an array."""
    x = np.zeros((len(mult[0]), len(mult) + 1, 3))
    m = np.ones(x.shape[:2], dtype=int)
    x[:, 0, 2] = x[:, 1:, 1] = 1.0
    for j, col in enumerate(zip(s, t, mult), 1):
        x[:, j, 0], x[:, j, 2], m[:, j] = col
    s, t = x[:, 1:, 0], x[:, 1:, 2]
    x[:, 1:] /= np.sqrt(1.0 + s * s + t * t)[..., None]
    return x, m


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


def _derivative(coeffs: np.ndarray) -> np.ndarray:
    """Derivative of each ascending-coefficient row, as `polyder` forms it."""
    return coeffs[..., 1:] * np.arange(1, coeffs.shape[-1])


def _disk_coeffs(rho, co, si, s):
    """K-free coefficients (c2, c0) of the t-quadratic c2 t^2 + K (s^2 - 1) t + c0 at fixed s."""
    c2 = rho * si + 2.0 - rho * co * s
    c0 = 0.5 * (rho * si - 1.0) * s * s + rho * co * s - 0.5 * (rho * si + 1.0)
    return c2, c0


def _background(rho, si):
    """x1 and x3 of the background points (+-x1, 0, x3) on the great circle x2 = 0."""
    rsi, den = rho * si, 5.0 - 3.0 * rho * si
    return np.sqrt(2.0 * (2.0 - rsi) / den), np.sqrt((1.0 - rsi) / den)


def _solve_axis(rho, chi, k):
    """rho = 0: three-fold symmetric family about the polar axis; a continuum at K = 0."""
    (t0, t1), (m0, m1) = _quad_rows(2.0, -k, -0.5)
    (u0, u1), (n0, n1) = _quad_rows(1.0, k, -1.0)
    live = k > _TOL_DISK
    return _st_slots([0.0, 0.0, _SQRT3, -_SQRT3, _SQRT3, -_SQRT3], [t0, t1, u0, u0, u1, u1],
                     [m * live for m in (m0, m1, n0, n0, n1, n1)])


def _solve_disk(rho, chi, k):
    """K = 0, canonical chi = -pi/2: meridian and equator roots plus the background."""
    (t0, t1), (m0, m1) = _quad_rows(2.0 - rho, 0.0, 0.5 * (rho - 1.0))
    s2 = (rho - 1.0) / (rho + 1.0)
    two = s2 > _TOL_SNAP
    double = ~two & (np.abs(rho - 1.0) <= _TOL_SNAP * (rho + 1.0))
    s = np.sqrt(np.where(two, s2, 0.0))
    x, mult = _st_slots([0.0, 0.0, s, -s], [t0, t1, 0.0, 0.0], [m0, m1, two + 2 * double, two])
    x1, x3 = _background(rho, -1.0)
    bg = np.zeros((rho.size, 2, 3))
    bg[:, 0, 0], bg[:, 1, 0], bg[:, :, 2] = x1, -x1, x3[:, None]
    return np.concatenate([x, bg], axis=1), np.column_stack([mult, np.ones((rho.size, 2), dtype=int)])


def _solve_plane(rho, chi, k):
    """chi = -pi/2 or -pi/6, K > 0: a meridian quadratic and a biquadratic in s.

    A -pi/6 cell is solved in the frame rotated by 2 pi/3, where it reads as
    -pi/2 at -rho: its meridian quadratic is the -pi/2 one at -rho, its
    biquadratic that one times -1 (which keeps the root order), and its
    entries rotate back by Rz(4 pi/3).  Only the rim rho = 2 differs.
    """
    pi6 = chi > -np.pi / 3
    sign = np.where(pi6, -1.0, 1.0)
    r = sign * rho
    rho2 = _scalar_pow(rho, 2)
    (t0, t1), (m0, m1) = _quad_rows(2.0 - r, -k, 0.5 * (r - 1.0))
    rim = np.abs(r - 2.0) <= _TOL_PLANE                 # on -pi/2 the meridian root is linear
    t0, m0, m1 = np.where(rim, (r - 1.0) / (2.0 * k), t0), np.where(rim, 1, m0), m1 * ~rim
    a = k * k * (r + 2.0)
    b = -2.0 * k * k * (r + 6.0) - 2.0 * rho2 * (r + 1.0)
    c = 3.0 * k * k * (6.0 - r) + 2.0 * rho2 * (r - 1.0)
    sig, ms = _quad_rows(sign * a, sign * b, sign * c)
    ms[sig <= _TOL_SNAP * (1.0 + np.abs(sig))] = 0
    s, t = np.sqrt(sig), k * (sig - 3.0) / (2.0 * r)
    rim = pi6 & (np.abs(rho - 2.0) <= _TOL_PLANE)
    if rim.any():
        # the -pi/6 rim: the biquadratic degenerates to s = +-sqrt 3 at t = 0, except
        # at K = 1, where the whole curve t = K (3 - s^2) / (2 rho) is critical and
        # only the meridian root off that curve stays isolated
        cont = rim & (np.abs(k - 1.0) <= _TOL_PLANE)
        s[0, rim], t[0, rim], ms[0, rim], ms[1, rim] = _SQRT3, 0.0, ~cont[rim], 0
        on_curve = cont & (np.abs(np.array([t0, t1]) - 3.0 * k / (2.0 * rho)) <= 1e-9)
        m0, m1 = m0 * ~on_curve[0], m1 * ~on_curve[1]
    x, mult = _st_slots([0.0, 0.0, s[0], -s[0], s[1], -s[1]], [t0, t1, t[0], t[0], t[1], t[1]],
                        [m0, m1, ms[0], ms[0], ms[1], ms[1]])
    x[pi6, 1:] = (_ROT_PI6 @ x[pi6, 1:, :, None])[..., 0]
    return x, mult


def _stationary(work: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Newton on W' = 0 from s, per row of ascending coefficients of W.

    A row stops where W'' vanishes or once its step falls below 1e-14 (1 + |s|).
    """
    d1 = _derivative(work)
    d2 = _derivative(d1)
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


def _slot_tags(*groups):
    return np.array(["pole"] + [tag for tag, count in groups for _ in range(count)], dtype=object)


#: branch tag of each entry slot of each solver
_GENERIC_SLOTS = _slot_tags(("walcher", 13), ("background", 1))
_AXIS_SLOTS = _slot_tags(("axis-meridian", 2), ("axis-offset", 4))
_DISK_SLOTS = _slot_tags(("disk-meridian", 2), ("disk-equator", 2), ("background", 2))
_PI2_SLOTS = _slot_tags(("pi2-meridian", 2), ("pi2-biquad", 4))
_PI6_SLOTS = _slot_tags(("pi6-meridian", 2), ("pi6-biquad", 4))
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
    deg6_lost = np.abs(coeffs[:, 6]) <= 1e-10 * np.abs(coeffs).max(axis=1)
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
    # s = 0 is a root of multiplicity lo
    lo, roots, real = _real_eigs(work, realness=1e-9, trim=1e-10)
    deg = (~np.isnan(roots)).sum(axis=1)

    # cells with no two roots within the pairing distance have single roots only
    s_root = roots.real.copy()
    m_root = real.astype(int)
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
    mult[:, 0], mult[:, 1] = 1, lo      # the pole; the s = 0 root, where t vanishes with s
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
        rs = r[rows, col]
        c2, c0 = _disk_coeffs(rho[rows, 0], co[rows, 0], si[rows, 0], rs)
        tq, mq = _quad_rows(c2, k[rows, 0] * (rs * rs - 1.0), c0)
        x[rows, 2 + 2 * col, 2], x[rows, 3 + 2 * col, 2] = tq
        mult[rows, 2 + 2 * col], mult[rows, 3 + 2 * col] = mq
    s, t = x[:, 1:14, 0], x[:, 1:14, 2]
    x[:, 1:14] /= np.sqrt(1.0 + s * s + t * t)[:, :, None]
    if deg6_lost.any():
        # degree dropped: the lost roots migrate to the x2 = 0 great circle
        rows = np.flatnonzero(deg6_lost)
        x[rows, 14, 0], x[rows, 14, 2] = _background(rho[rows, 0], si[rows, 0])
        mult[rows, 14] = 1
    return x, mult


def _branch_rows(params):
    """Canonical-frame map and raw entries of a block of parameter points (`_param_rows`).

    Returns (ops, continuum, cell, x, branch, mult) with the rows grouped by
    ascending cell, each cell's pole first.  Each solver family runs once, on
    all of its cells together.
    """
    canon, ops, _mirrored = canonicalize_arrays(*_param_rows(params).T)
    rho, chi, k = canon
    axis, flat = rho <= _TOL_CHI, k <= _TOL_DISK
    pi2, pi6 = np.abs(chi + np.pi / 2) <= _TOL_CHI, np.abs(chi + np.pi / 6) <= _TOL_CHI
    disk, plane = flat & ~axis, (pi2 | pi6) & ~(axis | flat)
    # the axisymmetric points: rho = K = 0, and rho = 2, K = 1 on chi = -pi/6
    continuum = (axis & flat) | (plane & pi6 & (np.abs(rho - 2.0) <= _TOL_PLANE)
                                 & (np.abs(k - 1.0) <= _TOL_PLANE))
    families = ((~(axis | flat | pi2 | pi6), _solve_generic, _GENERIC_SLOTS),
                (axis, _solve_axis, _AXIS_SLOTS),
                (disk, _solve_disk, _DISK_SLOTS),
                (plane & pi2, _solve_plane, _PI2_SLOTS),
                (plane & pi6, _solve_plane, _PI6_SLOTS))
    parts = []          # (cell, slot, x, branch, mult) of each solver family
    with np.errstate(divide="ignore", invalid="ignore"):    # empty slots may hold 0 / 0
        for mask, solve, tags in families:
            cells = np.flatnonzero(mask)
            if cells.size:
                x, mult = solve(rho[cells], chi[cells], k[cells])
                rows, slot = np.nonzero(mult)
                parts.append((cells[rows], slot, x[rows, slot], tags[slot], mult[rows, slot]))
    cell, slot, x, branch, mult = (np.concatenate(col) for col in zip(*parts))
    if len(parts) > 1:
        order = np.lexsort((slot, cell))
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

    Canonicalization runs once over all cells and each branch solver once
    over its cells; back-rotation, dedupe, residual check, polish,
    canonicalization of the representatives and ordering run once over all
    rows.  A cell whose residual stays above tolerance gets an error
    message naming its parameters and classes instead of rows.
    """
    params = list(params)
    n = len(params)
    rows = _param_rows(params)
    ops, continuum, cell, x, branch, mult = _branch_rows(rows)
    x = np.einsum("rji,rj->ri", ops[cell], x)
    x /= np.sqrt((x * x).sum(axis=1))[:, None]
    arrays = oriented_arrays(rows)
    b = _optim._coefficients(arrays)[0]             # one set per cell, indexed per row
    lam = _optim._value(b[..., cell], x.T)
    keep, mult = _optim.dedupe_rows(cell, x, lam, mult)
    cell, x, lam, mult, branch = cell[keep], x[keep], lam[keep], mult[keep], branch[keep]

    res = _optim._residual(b[..., cell], x.T, lam)
    rough = np.flatnonzero(res > _POLISH_TOL)
    if rough.size:
        a = arrays[cell[rough]]             # newton_refine takes the rough rows' tensors
        x[rough], lam[rough] = _optim.newton_refine(a, x[rough], lam[rough], iters=30)
        res[rough] = _optim._residual(b[..., cell[rough]], x[rough].T, lam[rough])
    errors = [None] * n
    for r in np.flatnonzero(res > _RESIDUAL_TOL)[::-1]:   # the first bad row of a cell wins
        i = cell[r]
        found = ", ".join(f"{b} lam={l:.6g}" for b, l in zip(branch[cell == i], lam[cell == i]))
        errors[i] = (f"eigenpair residual {res[r]:.2e} exceeds tolerance on branch {branch[r]} "
                     f"at {params[i]}; classes found: {found}")

    sign = np.where(_optim.canonical_flip(x), -1.0, 1.0)
    x *= sign[:, None]
    lam *= sign
    # a polish step may have pulled plane-adjacent duplicates together; the dedupe
    # is per cell, so the rows of failed cells, dropped here, change nothing
    keep, mult = _optim.dedupe_rows(cell, x, lam, mult)
    # by descending lam, then x1, x2; rounding keeps symmetry-equal classes
    # in the same order whatever their last-digit noise
    order = np.flatnonzero(keep & np.array([e is None for e in errors])[cell])
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
# stationary triples of the bilinear form for last-two-index symmetric tensors:
# the critical points of |A : yy|^2 on the sphere, from one chart solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CEigenTriple:
    """Stationary value with left vector x and right vector y.

    The variants (lam, x, -y), (-lam, -x, y), (-lam, -x, -y) are implied.
    """

    lam: float
    x: np.ndarray
    y: np.ndarray


#: the fixed generic rotation R of the chart y ~ R (u, v, 1)
_CHART_ROTATION = np.linalg.qr(np.array([[0.48, -0.61, 0.12], [0.73, 0.27, -0.55],
                                         [-0.21, 0.66, 0.83]]))[0]
_CHART_RADIUS = 1.5      # |u| of the determinant's interpolation points
_CROWD = 1e-2            # relative gap below which u roots form a crowd, and its realness
_RANK_ONE = 1e-10        # relative second singular value of a numerically rank-one unfolding
_NEAR = 0.1              # relative singular value of a nearly degenerate unfolding
_CEIGEN_GATE = 1e-10     # lam / |A| of the smallest triple kept


@cache
def _chart_grid(m: int):
    """The fixed part of `_chart_points` for degree m, read-only: the chart points w (3, nu, m + 2)
    at |v| = 1 and their rotations R w, the flat positions of the Sylvester bands of E1 and E2,
    and the powers _CHART_RADIUS^k that rescale the determinant's FFT."""
    nv, nu, side = m + 2, 2 * (m + 1) ** 2, 2 * m + 1
    u = _CHART_RADIUS * np.exp(2j * np.pi * np.arange(nu) / nu)
    w = np.stack(np.broadcast_arrays(u[:, None], np.exp(2j * np.pi * np.arange(nv) / nv), 1.0))
    rows = (side + 1) * np.arange(m + 1)[:, None]          # each band moves one place per row
    parts = (w, _CHART_ROTATION @ w.reshape(3, -1), rows + np.arange(m + 1),
             rows[:m] + side * (m + 1) + np.arange(m + 2), _CHART_RADIUS ** np.arange(nu))
    for v in parts:
        v.flags.writeable = False
    return parts


def _chart_points(g, m: int, realness: float = 1e-6, small: float = 1e-4) -> np.ndarray:
    """Real unit points y (k, 3) that may solve y || g(y), for a map g homogeneous of degree m.

    g takes complex columns (3, p) to (3, p).  In the chart y ~ R w, w = (u, v, 1),
    with G(w) = R^T g(R w), y || g(y) reads E1 = G1 - u G3 = 0 (degree m in v)
    and E2 = G2 - v G3 = 0 (degree m + 1, with the constant top coefficient
    -G3(0, 1, 0)).  Their coefficients in v come by FFT from m + 2 values on
    |v| = max(1, |u|).  Their (2m + 1)-square Sylvester determinant is a
    polynomial in u whose roots are the u of the solutions, so its degree is
    their number, count_bound(m + 1, 3) = m^2 + m + 1; it comes from one
    stacked `det` at 2 (m + 1)^2 points of |u| = _CHART_RADIUS (`_chart_grid`)
    and one FFT, and its higher coefficients, rounding only, are dropped.

    Each real u root (``realness``, as in `_real_eigs`) gives every real
    root v of E2(u, .) at which |E1| is at most ``small`` against the terms
    of E2, two classes can share a u, and the v with the smallest |E1| in
    any case, since a root far out in u is coarse.  Roots of a crowd, within
    _CROWD of each other, are coarse too: they enter when nearly real, with
    every nearly real v.  The points are candidates for a polish and a
    gate; m only sets the array sizes.
    """
    rot = _CHART_ROTATION
    w, rw, e1_at, e2_at, radius_pow = _chart_grid(m)
    nv, nu, unit = m + 2, w.shape[1], w[1, 0]

    def in_v(w, rw):    # coefficients in z = v / r, ascending: E1 (k, m + 1) and E2 (k, m + 2) at each u
        big = (rot.T @ g(rw)).reshape(w.shape)
        e = np.fft.fft(big[:2] - w[:2] * big[2], axis=2) / nv
        return e[0, :, :m + 1], e[1]

    e1, e2 = in_v(w, rw)
    syl = np.zeros((nu, (2 * m + 1) ** 2), dtype=complex)
    syl[:, e1_at], syl[:, e2_at] = e1[:, None], e2[:, None]
    res = np.fft.fft(np.linalg.det(syl.reshape(nu, 2 * m + 1, -1))).real / nu / radius_pow
    lo, roots, real = _real_eigs(res[None, :m * m + m + 2], realness, trim=1e-15)
    roots, real = roots[0], real[0]
    near = np.abs(roots.imag) <= _CROWD * (1.0 + np.abs(roots.real))
    gap = np.abs(roots[:, None] - roots) + np.diag(np.full(roots.size, np.inf))
    crowd = near & (gap[:, near] <= _CROWD * (1.0 + np.abs(roots[:, None]))).any(axis=1)
    take = real | crowd
    u = np.concatenate((np.zeros(min(lo[0], 1)), roots[take].real))
    crowd = np.concatenate((np.zeros(min(lo[0], 1), dtype=bool), crowd[take]))
    r = np.maximum(1.0, np.abs(u))          # v grows with u near the chart's horizon w3 = 0
    w = np.stack(np.broadcast_arrays(u[:, None], r[:, None] * unit, 1.0))
    e1, e2 = (c.real for c in in_v(w, rot @ w.reshape(3, -1)))
    lo, roots, real = _real_eigs(e2, realness)
    real |= crowd[:, None] & (np.abs(roots.imag) <= _CROWD * (1.0 + np.abs(roots.real)))
    z = np.column_stack((np.where(lo > 0, 0.0, np.nan), np.where(real, roots.real, np.nan)))
    with np.errstate(divide="ignore", invalid="ignore"):     # each row's polynomials at its z
        miss = np.abs(_polyval_rows(e1, z.T).T) / _polyval_rows(np.abs(e2), np.maximum(1.0, np.abs(z)).T).T
    miss[np.isnan(z)] = np.inf
    keep = np.isfinite(miss) & ((miss <= small) | (miss == miss.min(axis=1, keepdims=True)) | crowd[:, None])
    rows, col = np.nonzero(keep)
    w = np.stack((u[rows], r[rows] * z[rows, col], np.ones(rows.size)))
    return (rot @ w).T


def _piezo_parts(a: np.ndarray, y: np.ndarray):
    """(A_i y)_j (3, 3, n), c = A : yy (3, n) and c . A y (3, n) at the columns of y (3, n)."""
    ay = (a.reshape(9, 3) @ y).reshape(3, 3, -1)
    c = (ay * y).sum(1)
    return ay, c, (c[:, None] * ay).sum(0)


def _piezo_map(a: np.ndarray):
    """The map y -> grad q / 4 = (A : yy) . A y of q(y) = |A : yy|^2, and y -> (it, its Jacobian).

    The Jacobian at c = A : yy is M(c) + 2 sum_i (A_i y)(A_i y)^T, M(c) = sum_i c_i A_i.
    """
    def g_dg(y):
        ay, c, gy = _piezo_parts(a, y)
        t = ay.transpose(2, 0, 1)                       # (A_i y)_j per row
        return gy, (c.T @ a.reshape(3, 9)).reshape(-1, 3, 3) + 2.0 * (t.transpose(0, 2, 1) @ t)
    return (lambda y: _piezo_parts(a, y)[2]), g_dg


def _ceigen_candidates(s: np.ndarray) -> np.ndarray:
    """Candidate y (k, 3) for the triples of a piezo tensor s with max |s| in [1/2, 1).

    A 3x9 unfolding of rank one, A = x (x) Q, gives A : yy = (y.Qy) x, which
    vanishes on a conic, and the chart determinant identically: the triples
    are Q's eigenpairs.  Within _NEAR of rank one Q's eigenvectors seed the
    top classes next to the chart's points.  A null vector n of the 9x3
    unfolding, A n = 0, as in a two-term orthogonal tensor, is a base point
    A : nn = 0 of multiplicity nine among the chart's roots, which scatters
    the u roots next to it off the real axis: within _NEAR of one the chart
    takes every root within 0.1 of real and every v it gives.
    """
    _, sv, vt = np.linalg.svd(s.reshape(3, 9))
    q_vectors = np.linalg.eigh(vt[0].reshape(3, 3))[1].T
    if sv[1] <= _RANK_ONE * sv[0]:
        return q_vectors
    sn = np.linalg.svd(s.reshape(9, 3), compute_uv=False)
    y = _chart_points(_piezo_map(s)[0], 3, *((0.1, 1.0) if sn[2] <= _NEAR * sn[0] else ()))
    return np.concatenate((q_vectors, y)) if sv[1] <= _NEAR * sv[0] else y


def _piezo_input(t, starts: int) -> np.ndarray:
    """The component array of t, checked to be symmetric in its last two indices (1e-10 relative)."""
    a = as_array(t)
    if np.max(np.abs(a - np.transpose(a, (0, 2, 1)))) > 1e-10 * max(float(np.max(np.abs(a))), 1e-300):
        raise ValueError("tensor must be symmetric in its last two indices")
    if starts < 1:
        raise ValueError("starts must be at least 1")
    return a


def _ceigen_rows(s: np.ndarray):
    """`c_eigenpairs` of s, max |s| in [1/2, 1), as rows lam, x, y before its sort, flip and dedupe."""
    norm_s = float(np.sqrt(np.einsum("ijk,ijk->", s, s)))
    y = _optim._bordered_newton(_piezo_map(s), _ceigen_candidates(s), 16)[0]
    ay, c, _ = _piezo_parts(s, y.T)
    lam = np.sqrt((c * c).sum(0))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = c / lam
        res = np.abs((x[:, None] * ay).sum(0) - lam * y.T).max(0)    # A : yy = lam x by construction
    ok = (res <= 1e-8 * max(1.0, norm_s)) & (lam > _CEIGEN_GATE * norm_s)
    return lam[ok], x[:, ok].T, y[ok]


def c_eigenpairs(t, starts: int = 64) -> list[CEigenTriple]:
    """Every stationary triple of x . A[y (x) y] with lam > 0, from one chart solve.

    For lam > 0, (lam, x, y) is a triple exactly when y is a critical point
    of q(y) = |A : yy|^2 on the unit sphere, with lam = |A : yy| and
    x = A : yy / lam.  The candidates y are the `_chart_points` of the
    degree-3 map (A : yy) . A y, which is grad q / 4, or a closed form on a
    rank-one tensor (`_ceigen_candidates`).  Every candidate gets at most
    16 bordered Newton steps on the `_piezo_map` of s, the tensor scaled by
    a power of two to max |s| in [1/2, 1).  Rows are dropped whose residual
    max(|A : yy - lam x|, |x . A y - lam y|) on s exceeds 1e-8 max(1, |s|),
    or whose lam is at most _CEIGEN_GATE |s|: x = A : yy / lam carries the
    rounding of A : yy, about 1e-16 |s|, and next to a base point, where
    A : yy = 0, lam goes to 0.  The rest are deduplicated up to the sign of
    y.  Returns the triples by descending lam, at most count_bound(4, 3) = 13
    for a tensor with finitely many.

    ``starts`` is accepted and validated for compatibility but unused.
    """
    a = _piezo_input(t, starts)
    if not a.any():
        return []
    e = np.frexp(np.max(np.abs(a)))[1]
    s = np.ldexp(a, -e)
    lam, x, y = _ceigen_rows(s)
    order = np.argsort(-lam, kind="stable")
    lam, x, y = lam[order], x[order], y[order]
    y[_optim.canonical_flip(y)] *= -1.0
    norm_s = np.sqrt(np.einsum("ijk,ijk->", s, s))
    keep, _ = _optim.dedupe_rows(np.zeros(lam.size, dtype=int), y, lam / norm_s,
                                 np.ones(lam.size, dtype=int), tol=1e-6)
    return [CEigenTriple(lam=float(np.ldexp(l, e)), x=xi, y=yi)
            for l, xi, yi in zip(lam[keep], x[keep], y[keep])]


def _top_triple(a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """`c_eigenpairs(a)[0]` of a checked tensor: the first row of largest lam, which the sort puts
    first and the dedupe keeps, is the only one taken and flipped."""
    e = np.frexp(np.max(np.abs(a)))[1]
    lam, x, y = _ceigen_rows(np.ldexp(a, -e)) if a.any() else (np.empty(0),) * 3
    if lam.size == 0:
        raise RuntimeError("no stationary triple found")
    i = np.argmax(lam)
    return float(np.ldexp(lam[i], e)), x[i], -y[i] if _optim.canonical_flip(y[i:i + 1])[0] else y[i]


def best_rank_one(t, starts: int = 64) -> tuple[float, np.ndarray, np.ndarray]:
    """Best approximation lam x (x) y (x) y in the Frobenius norm."""
    return _top_triple(_piezo_input(t, starts))


def incremental_rank_one(t, max_terms: int = 13, starts: int = 64,
                         rel_tol: float = 1e-10):
    """Greedy deflation by successive best rank-one terms.

    Returns (terms, residuals): the extracted (lam, x, y) triples and the
    Frobenius norm of the remainder after each step (non-increasing).
    """
    a = _piezo_input(t, starts).copy()
    norm0 = float(np.sqrt(np.einsum("ijk,ijk->", a, a)))
    terms, residuals = [], []
    for _ in range(max_terms):
        if np.sqrt(np.einsum("ijk,ijk->", a, a)) <= rel_tol * max(norm0, 1e-300):
            break
        lam, x, y = _top_triple(a)
        terms.append((lam, x, y))
        a = a - lam * np.einsum("i,j,k->ijk", x, y, y)
        residuals.append(float(np.sqrt(np.einsum("ijk,ijk->", a, a))))
    return terms, residuals
