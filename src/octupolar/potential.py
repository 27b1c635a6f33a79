"""
The cubic potential of a third-rank tensor on the unit sphere, its reduced
three-parameter form, and the orientation machinery that brings a generic
traceless symmetric tensor into that form.

A traceless symmetric tensor whose potential has a critical point with
value +1 at the north pole and a zero at (1, 0, 0) is described by three
numbers (rho, chi, K):

    alpha0 = (rho/2) cos chi,  alpha2 = K,  beta3 = (rho sin chi - 1)/2,

with alpha1 = beta1 = beta2 = 0 and alpha3 = 1.  The pole is a maximum iff
0 <= rho <= 2.  Residual discrete symmetries confine the study to the
sector -pi/2 <= chi <= -pi/6, K >= 0: shifting chi by 2pi/3 is a rotation
by 2pi/3 about x3, flipping the sign of K is a rotation by pi, and
chi -> -chi - pi/3 is a mirror reflection (fixed point chi = -pi/6).
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import _optim
from .tensors import _SYM_SLOT, OctupolarTensor, as_array, symmetrize

__all__ = [
    "OrientedParams",
    "Orientation",
    "SphereGrid",
    "eval_potential",
    "gradient",
    "from_rho_chi_K",
    "oriented_arrays",
    "params_from_tensor",
    "orient",
    "sample_grid",
    "write_grid_csv",
    "apply_rotation",
    "rotation_z",
    "MIRROR",
    "canonicalize_params",
    "canonicalize_arrays",
]

_SECTOR_LO = -np.pi / 2
_SECTOR_HI = -np.pi / 6
#: canonical K at or below this is the disk K = 0
_TOL_DISK = 1e-11
#: rho below this is the axis; K down to minus this counts as K >= 0 in a sector
_TOL_CANON = 1e-12

#: Reflection across the plane x2 = -x1 tan(pi/6); maps the potential with
#: angle chi onto the one with angle -chi - pi/3 at the same rho and K.
MIRROR = np.array([
    [0.5, -np.sqrt(3.0) / 2.0, 0.0],
    [-np.sqrt(3.0) / 2.0, -0.5, 0.0],
    [0.0, 0.0, 1.0],
])
MIRROR.flags.writeable = False


def rotation_z(psi: float) -> np.ndarray:
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def apply_rotation(r: np.ndarray, t) -> np.ndarray:
    """Transform tensor components by an orthogonal matrix, index by index."""
    return np.einsum("ia,jb,kc,abc->ijk", r, r, r, as_array(t))


@dataclass(frozen=True)
class OrientedParams:
    """The (rho, chi, K) point describing an oriented traceless tensor."""

    rho: float
    chi: float
    bigk: float

    def __post_init__(self):
        if not (math.isfinite(self.rho) and math.isfinite(self.chi) and math.isfinite(self.bigk)):
            raise ValueError("parameters must be finite")
        if self.rho < -1e-12 or self.rho > 2.0 + 1e-9:
            raise ValueError(f"rho must lie in [0, 2], got {self.rho}")
        if abs(self.chi) > np.pi + 1e-9:
            raise ValueError(f"chi must lie in [-pi, pi], got {self.chi}")

    @property
    def in_sector(self) -> bool:
        return (_SECTOR_LO - 1e-12 <= self.chi <= _SECTOR_HI + 1e-12
                and self.bigk >= -1e-12)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.rho, self.chi, self.bigk)

    def __str__(self) -> str:
        return f"(rho, chi, K) = ({self.rho!r}, {self.chi!r}, {self.bigk!r})"


def from_rho_chi_K(p: OrientedParams) -> OctupolarTensor:
    """Oriented tensor with the given reduced parameters."""
    return OctupolarTensor(
        alpha0=0.5 * p.rho * np.cos(p.chi),
        alpha2=p.bigk,
        alpha3=1.0,
        beta3=0.5 * (p.rho * np.sin(p.chi) - 1.0))


def _param_rows(params) -> np.ndarray:
    """(N, 3) rows (rho, chi, K) of a sequence of OrientedParams; an (N, 3) array is returned as is."""
    if isinstance(params, np.ndarray):
        return params
    return np.array([p.as_tuple() for p in params], dtype=float).reshape(-1, 3)


def oriented_arrays(params) -> np.ndarray:
    """Component arrays (N, 3, 3, 3) of the oriented tensors of a parameter sequence or `_param_rows`."""
    rho, chi, k = np.array(_param_rows(params).T)     # contiguous columns, as numpy's SIMD paths take them
    beta3 = 0.5 * (rho * np.sin(chi) - 1.0)
    zero = np.zeros_like(k)
    # alpha0..alpha3, beta1..beta3, gamma1..gamma3 of from_rho_chi_K
    comps = np.stack([0.5 * rho * np.cos(chi), zero, k, np.ones_like(k), zero, zero, beta3,
                      zero, -k, -(1.0 + beta3)], axis=1)
    return comps[:, _SYM_SLOT]


def params_from_tensor(t, tol: float = 1e-9) -> OrientedParams:
    """Invert the oriented parametrization; rejects non-oriented input."""
    oc = t if isinstance(t, OctupolarTensor) else OctupolarTensor.from_array(as_array(t))
    if max(abs(oc.alpha1), abs(oc.beta1), abs(oc.beta2)) > tol or abs(oc.alpha3 - 1.0) > tol:
        raise ValueError("tensor is not in oriented form")
    u, w = 2.0 * oc.alpha0, 2.0 * oc.beta3 + 1.0
    rho = float(np.hypot(u, w))
    chi = float(np.arctan2(w, u)) if rho > 1e-12 else -np.pi / 2
    return OrientedParams(rho=rho, chi=chi, bigk=float(oc.alpha2))


def eval_potential(t, x):
    """Cubic form A_ijk x_i x_j x_k; x may be a single vector or (n, 3)."""
    a = as_array(t)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return float(np.einsum("ijk,i,j,k->", a, x, x, x))
    return np.einsum("ijk,ni,nj,nk->n", a, x, x, x)


def gradient(t, x):
    """Gradient of the cubic form, 3 S x^2 with S the symmetric part."""
    s = symmetrize(as_array(t))
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return 3.0 * np.einsum("ijk,j,k->i", s, x, x)
    return 3.0 * np.einsum("ijk,nj,nk->ni", s, x, x)


# rotation class m shifts chi by 2 pi m / 3 and flips K for odd m; x_canonical
# = op @ x with op from _SECTOR_OPS[m, mirrored]
_SHIFTS = 2.0 * np.pi * np.arange(6) / 3.0
_K_SIGNS = np.array([1.0, -1.0] * 3)
_SECTOR_OPS = np.array([[op, MIRROR @ op] for op in (rotation_z(m * np.pi / 3.0) for m in range(6))])


def canonicalize_arrays(rho, chi, bigk):
    """`canonicalize_params` over 1-D arrays of parameters.

    Returns ``(params, op, mirrored)``: the canonical (rho, chi, K) as a
    (3, n) array, the (n, 3, 3) maps and the (n,) mirror flags.  Of the six
    rotation classes of a point, the one with the smallest key
    (round(chi, 12), round(K, 12), mirrored) wins, the lowest class on a tie,
    and a point of the disk K = 0 then moves to chi = -pi/2 with no mirror.
    """
    rho, chi, bigk = (np.asarray(v, dtype=float) for v in (rho, chi, bigk))
    chi_m = (chi[:, None] - _SHIFTS + np.pi) % (2.0 * np.pi) - np.pi
    k_m = bigk[:, None] * _K_SIGNS
    inner = (_SECTOR_LO - 1e-9 <= chi_m) & (chi_m <= _SECTOR_HI + 1e-9)
    mirrored = (_SECTOR_HI + 1e-9 < chi_m) & (chi_m <= np.pi / 6 + 1e-9)
    admissible = (inner | mirrored) & (k_m >= -_TOL_CANON)
    chi_m = np.minimum(np.maximum(np.where(mirrored, -chi_m - np.pi / 3.0, chi_m), _SECTOR_LO),
                       _SECTOR_HI)
    k_m = np.where(k_m < 0.0, 0.0, k_m)
    best = np.lexsort((mirrored, np.round(k_m, 12),
                       np.where(admissible, np.round(chi_m, 12), np.inf)))[:, 0]
    pick = np.arange(rho.size), best
    params = np.array([rho, chi_m[pick], k_m[pick]])
    op = _SECTOR_OPS[best, mirrored[pick].astype(int)]
    mirrored = mirrored[pick]
    axis = rho < _TOL_CANON
    if not (admissible[pick] | axis).all():
        raise RuntimeError("sector reduction failed; parameters out of range")
    disk = ~axis & (params[2] <= _TOL_DISK)
    if disk.any():
        # on K = 0 the rotation by psi about x3 takes chi to chi - 2 psi: the disk point is
        # the one at chi = -pi/2, which x1 -> -x1 leaves fixed, so that folds away a mirror
        psi = 0.5 * (params[1, disk] + np.pi / 2)
        c, s, z = np.cos(psi), np.sin(psi), np.zeros_like(psi)
        rz = np.moveaxis(np.array([[c, -s, z], [s, c, z], [z, z, z + 1.0]]), 2, 0)
        rz[mirrored[disk], 0] *= -1.0
        op[disk] = rz @ op[disk]
        params[1, disk] = -np.pi / 2
        mirrored &= ~disk
    if axis.any():
        kabs = np.where(bigk >= 0.0, bigk, -bigk)
        params[:, axis] = [np.zeros_like(rho[axis]), np.full_like(rho[axis], -np.pi / 2), kabs[axis]]
        op[axis] = np.where(bigk[axis, None, None] >= 0.0, np.eye(3), rotation_z(np.pi))
        mirrored &= ~axis
    return params, op, mirrored


def canonicalize_params(rho: float, chi: float, bigk: float):
    """Map (rho, chi, K) into the canonical sector by the residual symmetries.

    Returns ``(params, op, mirrored)`` where ``op`` is the orthogonal matrix
    with ``T(params) = op * T(rho, chi, K)`` componentwise; critical points
    transform as ``x_canonical = op @ x``.  ``op`` is a proper rotation when
    ``mirrored`` is False and includes the fixed mirror plane otherwise.
    This is `canonicalize_arrays` on one point.

    On the disk K = 0 the zero at (1, 0, 0) fixes no frame: the rotation by
    psi about x3 takes (rho, chi, 0) to (rho, chi - 2 psi, 0).  So off the
    axis a canonical K of at most 1e-11 maps to chi = -pi/2, where the
    tensor is even in x1 and ``mirrored`` is False.  For 0 < K <= 1e-11
    ``op`` maps the tensor exactly only up to O(K).
    """
    params, op, mirrored = canonicalize_arrays([rho], [chi], [bigk])
    return OrientedParams(*params[:, 0].tolist()), op[0], bool(mirrored[0])


@dataclass(frozen=True)
class Orientation:
    """Result of bringing a traceless symmetric tensor to oriented form.

    ``scale * (rotation applied to the input)`` equals the oriented tensor
    of ``params`` when ``mirrored`` is False, and its image under the fixed
    mirror plane when ``mirrored`` is True.  The rotation is always proper;
    canonical sector parameters for a chiral tensor may need the mirror.
    """

    rotation: np.ndarray
    scale: float
    params: OrientedParams
    mirrored: bool = False
    continuum: bool = False

    def oriented_tensor(self) -> OctupolarTensor:
        return from_rho_chi_K(self.params)

    def apply(self, t) -> np.ndarray:
        """Oriented-frame components of ``t`` (modulo the mirror flag)."""
        return self.scale * apply_rotation(self.rotation, t)

    def undo(self) -> OctupolarTensor:
        """Reconstruct the original tensor from the stored parameters."""
        arr = self.oriented_tensor().array
        if self.mirrored:
            arr = apply_rotation(MIRROR, arr)
        arr = apply_rotation(self.rotation.T, arr) / self.scale
        return OctupolarTensor.from_array(arr)


def _rotation_to_pole(m: np.ndarray) -> np.ndarray:
    """Proper rotation carrying unit vector m to (0, 0, 1)."""
    z = np.array([0.0, 0.0, 1.0])
    c = float(np.dot(m, z))
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        return np.diag([1.0, -1.0, -1.0])
    axis = np.cross(m, z)
    axis /= np.linalg.norm(axis)
    ang = np.arccos(np.clip(c, -1.0, 1.0))
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(ang) * k + (1.0 - np.cos(ang)) * (k @ k)


def _orient_at(a: np.ndarray, m: np.ndarray, value: float):
    """Orientation candidate taking maximum direction m to the pole."""
    r0 = _rotation_to_pole(m)
    b = apply_rotation(r0, a) / value
    # equator restriction is A111 cos(3 theta) - A222 sin(3 theta); rotate a zero to theta = 0
    a111, a222 = b[0, 0, 0], b[1, 1, 1]
    if max(abs(a111), abs(a222)) > 1e-13:
        theta0 = (np.pi / 2 - np.arctan2(a222, a111)) / 3.0
    else:
        theta0 = 0.0
    rz = rotation_z(-theta0)
    c = apply_rotation(rz, b)
    p_raw = params_from_tensor(c, tol=1e-7)
    p, op, mirrored = canonicalize_params(p_raw.rho, p_raw.chi, p_raw.bigk)
    rot_op = (MIRROR @ op) if mirrored else op  # strip mirror: keep rotation proper
    return Orientation(rotation=rot_op @ rz @ r0, scale=1.0 / value,
                       params=p, mirrored=mirrored)


def orient(t) -> Orientation:
    """Rotate a global maximum of the potential to the north pole.

    Scales the tensor so the pole value is exactly +1, zeroes the potential
    at (1, 0, 0), and reduces the parameters to the canonical sector.  The
    critical points come from one chart solve of the tensor's own cubic form
    (`eigen._chart_points` of x -> A x^2), on the tensor scaled by a power of
    two to max |a| in [1/2, 1), plus the three eigenvectors of A_ikl A_jkl:
    they hold the axis of an axisymmetric tensor, whose circles of critical
    points hide its poles from the chart.  Each point is polished by at most
    50 bordered Newton steps, signed to a value of at least 0 and kept at
    residual at most 1e-9; the classes within 1e-9 (relative) of the
    largest value are oriented in turn.  When several global maxima tie,
    the candidate with lexicographically smallest (rho, chi, K) wins.  A
    tensor on the disk K = 0 orients to chi = -pi/2 with no mirror, one
    result for all its rotations and mirror images.  The degenerate
    axisymmetric class (rho = K = 0 after reduction) is flagged, not
    rejected.
    """
    from .eigen import _chart_points   # eigen imports this module
    a = as_array(t)
    peak = float(np.max(np.abs(a)))
    if peak < 1e-300:
        raise ValueError("cannot orient the zero tensor")
    OctupolarTensor.from_array(a)  # validates symmetry and tracelessness
    e = np.frexp(peak)[1]
    s = np.ldexp(a, -e)
    b, c = _optim._coefficients(s)
    cubic = _optim.cubic_map(b, c)
    seeds = np.concatenate((_chart_points(cubic[0], 2), np.linalg.eigh(np.einsum("ikl,jkl->ij", s, s))[1].T))
    x = _optim._bordered_newton(cubic, seeds, 50)[0]
    x *= np.where(_optim._value(b, x.T) < 0.0, -1.0, 1.0)[:, None]   # not np.sign: keep value-0 points
    lam = _optim._value(b, x.T)
    top = _optim._residual(b, x.T, lam) <= 1e-9
    top &= lam >= lam[top].max() * (1.0 - 1e-9)
    best = min((_orient_at(a, m, v) for m, v in zip(x[top], np.ldexp(lam[top], e))),
               key=lambda o: (round(o.params.rho, 9), round(o.params.chi, 9),
                              round(o.params.bigk, 9), o.mirrored))
    return replace(best, continuum=bool(best.params.rho <= 1e-8 and best.params.bigk <= 1e-8))


@dataclass(frozen=True)
class SphereGrid:
    """Regular (theta, phi) grid: x = (cos t cos p, sin t cos p, sin p)."""

    theta_steps: int
    phi_steps: int

    def __post_init__(self):
        if self.theta_steps < 2 or self.phi_steps < 2:
            raise ValueError("grid steps must be at least 2")

    def angles(self) -> tuple[np.ndarray, np.ndarray]:
        theta = 2.0 * np.pi * np.arange(self.theta_steps) / self.theta_steps
        phi = np.linspace(-np.pi / 2, np.pi / 2, self.phi_steps)
        return theta, phi


def sample_grid(t, grid: SphereGrid, mode: str = "sphere") -> np.ndarray:
    """Tabulate the potential over a grid; rows (theta, phi, x1, x2, x3, value).

    Modes: ``sphere`` walks the angular grid; ``north``/``south`` walk an
    (x1, x2) chart with x3 = +/- sqrt(1 - x1^2 - x2^2); ``contour`` walks an
    (x1, x3) chart of the hemisphere culminating at (0, 1, 0).  Chart modes
    skip grid nodes outside the unit disk.
    """
    a = as_array(t)
    if mode == "sphere":
        theta, phi = grid.angles()
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        tt, pp = tt.ravel(), pp.ravel()
        x = np.stack([np.cos(tt) * np.cos(pp), np.sin(tt) * np.cos(pp), np.sin(pp)], axis=1)
        vals = eval_potential(a, x)
        return np.column_stack([tt, pp, x, vals])
    if mode not in ("north", "south", "contour"):
        raise ValueError(f"unknown grid mode {mode!r}")
    u, v = np.meshgrid(np.linspace(-1.0, 1.0, grid.theta_steps),
                       np.linspace(-1.0, 1.0, grid.phi_steps), indexing="ij")
    r2 = (u * u + v * v).ravel()
    inside = r2 <= 1.0
    u, v, h = u.ravel()[inside], v.ravel()[inside], np.sqrt(1.0 - r2[inside])
    x = np.stack({"north": (u, v, h), "south": (u, v, -h), "contour": (u, h, v)}[mode], axis=1)
    return np.column_stack([np.arctan2(x[:, 1], x[:, 0]), np.arcsin(np.clip(x[:, 2], -1, 1)),
                            x, eval_potential(a, x)])


def write_grid_csv(rows: np.ndarray, stream) -> None:
    """Write grid rows as CSV with a mandatory header, 17 significant digits."""
    own = isinstance(stream, (str, bytes, os.PathLike))
    f = open(stream, "w", newline="\n") if own else stream
    try:
        f.write("theta,phi,x1,x2,x3,phi_value\n")
        for row in rows:
            f.write(",".join(f"{v:.17g}" for v in row) + "\n")
    finally:
        if own:
            f.close()


def grid_csv_text(rows: np.ndarray) -> str:
    buf = io.StringIO()
    write_grid_csv(rows, buf)
    return buf.getvalue()
