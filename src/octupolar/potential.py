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
import os
from dataclasses import dataclass

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
]

_SECTOR_LO = -np.pi / 2
_SECTOR_HI = -np.pi / 6

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
        if not (np.isfinite(self.rho) and np.isfinite(self.chi) and np.isfinite(self.bigk)):
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


def oriented_arrays(params) -> np.ndarray:
    """Component arrays (N, 3, 3, 3) of the oriented tensors of a parameter sequence."""
    rho = np.array([p.rho for p in params], dtype=float)
    chi = np.array([p.chi for p in params], dtype=float)
    k = np.array([p.bigk for p in params], dtype=float)
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
    return OrientedParams(rho=rho, chi=chi, bigk=oc.alpha2)


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


def _wrap_angle(x: float) -> float:
    return float((x + np.pi) % (2.0 * np.pi) - np.pi)


def canonicalize_params(rho: float, chi: float, bigk: float,
                        tol: float = 1e-12):
    """Map (rho, chi, K) into the canonical sector by the residual symmetries.

    Returns ``(params, op, mirrored)`` where ``op`` is the orthogonal matrix
    with ``T(params) = op * T(rho, chi, K)`` componentwise; critical points
    transform as ``x_canonical = op @ x``.  ``op`` is a proper rotation when
    ``mirrored`` is False and includes the fixed mirror plane otherwise.
    """
    if rho < tol:
        if bigk >= 0.0:
            return OrientedParams(0.0, -np.pi / 2, bigk), np.eye(3), False
        return OrientedParams(0.0, -np.pi / 2, -bigk), rotation_z(np.pi), False
    best = None
    for m in range(6):
        chi_m = _wrap_angle(chi - 2.0 * np.pi * m / 3.0)
        k_m = bigk if m % 2 == 0 else -bigk
        if k_m < -tol:
            continue
        k_m = max(k_m, 0.0)
        if _SECTOR_LO - 1e-9 <= chi_m <= _SECTOR_HI + 1e-9:
            mirrored = False
        elif _SECTOR_HI < chi_m <= np.pi / 6 + 1e-9:
            chi_m, mirrored = -chi_m - np.pi / 3.0, True
        else:
            continue
        cand = (min(max(chi_m, _SECTOR_LO), _SECTOR_HI), k_m, mirrored, m)
        key = (round(cand[0], 12), round(cand[1], 12), mirrored)
        if best is None or key < best[0]:
            best = (key, cand)
    if best is None:
        raise RuntimeError("sector reduction failed; parameters out of range")
    _, (c, k, mirrored, m) = best
    op = rotation_z(m * np.pi / 3.0)
    return OrientedParams(rho, c, k), (MIRROR @ op if mirrored else op), mirrored


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


def orient(t, samples: int = 4000) -> Orientation:
    """Rotate a global maximum of the potential to the north pole.

    Scales the tensor so the pole value is exactly +1, zeroes the potential
    at (1, 0, 0), and reduces the parameters to the canonical sector.  When
    several global maxima tie, the candidate with lexicographically
    smallest (rho, chi, K) wins.  The degenerate axisymmetric class
    (rho = K = 0 after reduction) is flagged, not rejected.
    """
    a = as_array(t)
    scale0 = float(np.max(np.abs(a)))
    if scale0 < 1e-300:
        raise ValueError("cannot orient the zero tensor")
    OctupolarTensor.from_array(a)  # validates symmetry and tracelessness
    classes, continuum = _optim.find_critical_classes(a, samples=samples)
    if not classes:
        raise RuntimeError("failed to locate any critical point")
    vmax = max(abs(l) for _, l in classes)
    for _attempt in range(4):
        maxima = [(x if l > 0 else -x, abs(l)) for x, l in classes
                  if abs(l) >= vmax * (1.0 - 1e-9)]
        cands = [_orient_at(a, m, v) for m, v in maxima]
        cands.sort(key=lambda o: (round(o.params.rho, 9), round(o.params.chi, 9),
                                  round(o.params.bigk, 9), o.mirrored))
        best = cands[0]
        # guard: the pole must be the global maximum of the oriented tensor
        from .eigen import solve_oriented
        sol = solve_oriented(best.params)
        worst = max((abs(pr.lam) for pr in sol.pairs), default=1.0)
        if worst <= 1.0 + 1e-7:
            continuum = continuum or sol.continuum or (
                best.params.rho <= 1e-8 and best.params.bigk <= 1e-8)
            return Orientation(rotation=best.rotation, scale=best.scale,
                               params=best.params, mirrored=best.mirrored,
                               continuum=continuum)
        classes, continuum = _optim.find_critical_classes(a, samples=4 * samples)
        vmax = max(abs(l) for _, l in classes)
    raise RuntimeError("orientation did not converge to a global maximum")


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
        vals = _optim.potential_batch(a, x)
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
                            x, _optim.potential_batch(a, x)])


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
