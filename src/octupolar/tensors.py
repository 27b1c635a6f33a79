"""
Representations and invariant decompositions of third-rank tensors in 3D.

Component storage is a C-ordered (3, 3, 3) float array, equivalent to a
flat 27-entry array with index i*9 + j*3 + k (the ``i9j3k`` layout used by
the JSON interchange format).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import numpy as np

__all__ = [
    "EPSILON",
    "KRONECKER",
    "T_SYMBOL",
    "LAYOUT",
    "Tensor3",
    "SymTensor3",
    "OctupolarTensor",
    "SymmetryDecomposition",
    "HarmonicDecomposition",
    "YoungDiagram",
    "symmetrize",
    "symmetry_decompose",
    "harmonic_decompose",
    "detrace_symmetric",
    "young_dimensions",
    "from_multipoles",
    "tetrahedral_tensor",
    "TETRAHEDRAL_VECTORS",
]

LAYOUT = "i9j3k"

#: Ricci alternator epsilon_ijk.
EPSILON = np.zeros((3, 3, 3))
for _p in permutations(range(3)):
    EPSILON[_p] = 1.0 if _p in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
EPSILON.flags.writeable = False

#: Kronecker delta_ij.
KRONECKER = np.eye(3)
KRONECKER.flags.writeable = False

#: t_ijk = 3 if i=j=k, 1 if exactly two indices coincide, 0 otherwise.
T_SYMBOL = np.fromfunction(
    lambda i, j, k: np.where(
        (i == j) & (j == k), 3.0,
        np.where((i == j) | (j == k) | (i == k), 1.0, 0.0)),
    (3, 3, 3))
T_SYMBOL.flags.writeable = False

#: Unit vectors from the centre of a regular tetrahedron to its vertices.
TETRAHEDRAL_VECTORS = np.array([
    [-1.0, -1.0, -1.0],
    [1.0, -1.0, 1.0],
    [-1.0, 1.0, 1.0],
    [1.0, 1.0, -1.0],
]) / np.sqrt(3.0)
TETRAHEDRAL_VECTORS.flags.writeable = False

#: Flat positions of the 27 entries under each of the six index permutations, one row each.
_PERMS = np.array([np.arange(27).reshape(3, 3, 3).transpose(p).ravel()
                   for p in permutations(range(3))])


def as_array(t) -> np.ndarray:
    """Return the (3,3,3) component array of any supported tensor object."""
    if isinstance(t, np.ndarray):
        a = np.asarray(t, dtype=float)
        if a.shape == (27,):
            a = a.reshape(3, 3, 3)
        if a.shape != (3, 3, 3):
            raise ValueError(f"expected 27 components, got shape {a.shape}")
        return a
    if hasattr(t, "array"):
        return t.array
    raise TypeError(f"cannot interpret {type(t).__name__} as a third-rank tensor")


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average of a (3,3,3) array over all six index permutations."""
    return (np.reshape(a, 27)[_PERMS].sum(0) / 6.0).reshape(3, 3, 3)   # rows summed in order


def _symmetric_array(t, tol: float = 1e-10) -> np.ndarray:
    """The components of t, which must be fully symmetric to tol max |a|."""
    if isinstance(t, (SymTensor3, OctupolarTensor)):
        return t.array                      # symmetric by construction
    a = as_array(t)
    if np.abs(a - symmetrize(a)).max() > tol * max(np.abs(a).max(), 1e-300):
        raise ValueError("components are not fully symmetric; "
                         "pass tensors.symmetrize(a) for the cubic form of any other tensor")
    return a


def _check_finite(a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError("tensor components must be finite")


@dataclass(frozen=True, eq=False)
class Tensor3:
    """A general third-rank tensor in a Cartesian frame.

    Parameters
    ----------
    components : array_like
        27 numbers, either flat (``i9j3k`` layout) or shaped (3, 3, 3).
    frame_label : str, optional
        Opaque identifier of the Cartesian frame the components refer to.
    """

    components: np.ndarray
    frame_label: str | None = None

    def __post_init__(self):
        a = as_array(self.components).copy()
        _check_finite(a)
        a.flags.writeable = False
        object.__setattr__(self, "components", a)

    @property
    def array(self) -> np.ndarray:
        return self.components

    @property
    def flat(self) -> np.ndarray:
        """Flat 27-entry view in the i*9 + j*3 + k layout."""
        return self.components.reshape(27)

    def to_json(self) -> dict:
        return {"components": self.flat.tolist(), "layout": LAYOUT}

    @classmethod
    def from_json(cls, obj: dict, frame_label: str | None = None) -> "Tensor3":
        layout = obj.get("layout", LAYOUT)
        if layout != LAYOUT:
            raise ValueError(f"unsupported layout {layout!r}")
        comps = np.asarray(obj["components"], dtype=float)
        if comps.shape != (27,):
            raise ValueError("'components' must hold exactly 27 numbers")
        return cls(comps, frame_label=frame_label)


#: The ten components of a symmetric tensor and one entry holding each.
_SYM_ENTRIES = (("alpha0", (0, 1, 2)), ("alpha1", (0, 0, 0)), ("alpha2", (1, 1, 1)),
                ("alpha3", (2, 2, 2)), ("beta1", (0, 1, 1)), ("beta2", (1, 2, 2)),
                ("beta3", (2, 0, 0)), ("gamma1", (0, 2, 2)), ("gamma2", (0, 0, 1)),
                ("gamma3", (1, 1, 2)))

#: Position in _SYM_ENTRIES of the component held by each of the 27 entries.
_SYM_SLOT = np.zeros((3, 3, 3), dtype=int)
for _slot, (_, _ijk) in enumerate(_SYM_ENTRIES):
    for _p in permutations(_ijk):
        _SYM_SLOT[_p] = _slot
_SYM_SLOT.flags.writeable = False


def _sym_from_array(a: np.ndarray) -> dict:
    return {name: a[ijk] for name, ijk in _SYM_ENTRIES}


def _sym_to_array(*components) -> np.ndarray:
    """(3, 3, 3) array from the ten components in _SYM_ENTRIES order."""
    return np.array(components, dtype=float)[_SYM_SLOT]


@dataclass(frozen=True)
class SymTensor3:
    """Fully symmetric third-rank tensor, 10 independent components.

    ``alpha0 = A_123``; ``alpha_i = A_iii``; ``beta1, beta2, beta3 =
    A_122, A_233, A_311``; ``gamma1, gamma2, gamma3 = A_133, A_112, A_223``.
    """

    alpha0: float
    alpha1: float
    alpha2: float
    alpha3: float
    beta1: float
    beta2: float
    beta3: float
    gamma1: float
    gamma2: float
    gamma3: float

    @property
    def array(self) -> np.ndarray:
        return _sym_to_array(self.alpha0, self.alpha1, self.alpha2, self.alpha3,
                             self.beta1, self.beta2, self.beta3,
                             self.gamma1, self.gamma2, self.gamma3)

    @classmethod
    def from_array(cls, a, tol: float = 1e-10) -> "SymTensor3":
        return cls(**_sym_from_array(_symmetric_array(a, tol)))

    def to_tensor3(self) -> Tensor3:
        return Tensor3(self.array)


@dataclass(frozen=True)
class OctupolarTensor:
    """Fully symmetric third-rank tensor with all partial traces zero.

    Seven independent components: ``alpha0 = A_123``, ``alpha_i = A_iii``,
    ``beta1, beta2, beta3 = A_122, A_233, A_311``. Tracelessness fixes the
    remaining diagonal-adjacent entries to ``A_133 = -(alpha1+beta1)``,
    ``A_211 = -(alpha2+beta2)`` and ``A_322 = -(alpha3+beta3)``.
    """

    alpha0: float = 0.0
    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    beta3: float = 0.0

    @property
    def array(self) -> np.ndarray:
        return _sym_to_array(
            self.alpha0, self.alpha1, self.alpha2, self.alpha3,
            self.beta1, self.beta2, self.beta3,
            -(self.alpha1 + self.beta1),
            -(self.alpha2 + self.beta2),
            -(self.alpha3 + self.beta3))

    def to_sym(self) -> SymTensor3:
        return SymTensor3.from_array(self.array)

    def to_tensor3(self) -> Tensor3:
        return Tensor3(self.array)

    @classmethod
    def from_array(cls, a, tol: float = 1e-10) -> "OctupolarTensor":
        a = _symmetric_array(a, tol)
        if np.max(np.abs(np.einsum("iik->k", a))) > tol * max(np.max(np.abs(a)), 1e-300):
            raise ValueError("partial traces do not vanish")
        return cls(alpha0=a[0, 1, 2], alpha1=a[0, 0, 0], alpha2=a[1, 1, 1],
                   alpha3=a[2, 2, 2], beta1=a[0, 1, 1], beta2=a[1, 2, 2],
                   beta3=a[2, 0, 0])

    def to_json(self) -> dict:
        return {"alpha0": self.alpha0,
                "alpha": [self.alpha1, self.alpha2, self.alpha3],
                "beta": [self.beta1, self.beta2, self.beta3]}

    @classmethod
    def from_json(cls, obj: dict) -> "OctupolarTensor":
        alpha = obj["alpha"]
        beta = obj["beta"]
        return cls(alpha0=float(obj["alpha0"]),
                   alpha1=float(alpha[0]), alpha2=float(alpha[1]), alpha3=float(alpha[2]),
                   beta1=float(beta[0]), beta2=float(beta[1]), beta3=float(beta[2]))


@dataclass(frozen=True)
class SymmetryDecomposition:
    """Split of a third-rank tensor into its permutation-symmetry parts.

    ``a1`` is fully symmetric, ``a21``/``a22`` carry the two mixed
    symmetries (``a21_ijk = a21_jik``, ``a22_ijk = a22_kji``) and ``a3`` is
    fully antisymmetric.  The four parts sum back to the input exactly.
    """

    a1: Tensor3
    a21: Tensor3
    a22: Tensor3
    a3: Tensor3

    def reassemble(self) -> np.ndarray:
        return self.a1.array + self.a21.array + self.a22.array + self.a3.array


def symmetry_decompose(t) -> SymmetryDecomposition:
    """Decompose a tensor into symmetric, mixed, and antisymmetric parts."""
    a = as_array(t)
    a_jki = np.transpose(a, (2, 0, 1))  # value A_jki at slot (i,j,k)
    a_kij = np.transpose(a, (1, 2, 0))
    a_jik = np.transpose(a, (1, 0, 2))
    a_kji = np.transpose(a, (2, 1, 0))
    a_ikj = np.transpose(a, (0, 2, 1))
    a1 = (a + a_jki + a_kij + a_jik + a_kji + a_ikj) / 6.0
    a21 = (a + a_jik - a_kji - a_kij) / 3.0
    a22 = (a - a_jik + a_kji - a_jki) / 3.0
    a3 = (a + a_jki + a_kij - a_jik - a_kji - a_ikj) / 6.0
    return SymmetryDecomposition(Tensor3(a1), Tensor3(a21), Tensor3(a22), Tensor3(a3))


@dataclass(frozen=True)
class HarmonicDecomposition:
    """Orthogonal irreducible decomposition into harmonic (deviatoric) parts.

    A general tensor splits into one scalar, three vectors, two symmetric
    traceless second-rank tensors, and one fully traceless symmetric
    third-rank remainder, each re-embedded as a third-rank tensor by a
    fixed isotropic map.  ``parts()`` returns the seven embeddings; their
    sum reconstructs the input exactly.
    """

    a_scalar: float
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: OctupolarTensor
    mean_vector: np.ndarray
    _embeddings: tuple = field(repr=False)

    def parts(self) -> tuple:
        """The seven third-rank embeddings (scalar, v1, v2, v3, d1, d2, d3)."""
        return self._embeddings

    def reassemble(self) -> np.ndarray:
        return sum(self._embeddings)


def harmonic_decompose(t) -> HarmonicDecomposition:
    """Decompose a tensor into scalar, vector, deviator, and octupolar parts."""
    a = as_array(t)
    eye = np.asarray(KRONECKER)
    eps = np.asarray(EPSILON)
    a_sc = np.einsum("ijk,ijk->", eps, a)
    v1 = np.einsum("ijj->i", a)
    v2 = np.einsum("jij->i", a)
    v3 = np.einsum("jji->i", a)
    d1 = 0.5 * (np.einsum("iml,mlj->ij", eps, a) + np.einsum("jml,mli->ij", eps, a)) \
        - a_sc / 3.0 * eye
    d2 = 0.5 * (np.einsum("iml,mlj->ij", a, eps) + np.einsum("jml,mli->ij", a, eps)) \
        - a_sc / 3.0 * eye

    e0 = a_sc / 6.0 * eps
    e11 = (4.0 * np.einsum("i,jk->ijk", v1, eye)
           - np.einsum("ik,j->ijk", eye, v1) - np.einsum("ij,k->ijk", eye, v1)) / 10.0
    e12 = (-np.einsum("i,jk->ijk", v2, eye)
           + 4.0 * np.einsum("ik,j->ijk", eye, v2) - np.einsum("ij,k->ijk", eye, v2)) / 10.0
    e13 = (-np.einsum("i,jk->ijk", v3, eye)
           - np.einsum("ik,j->ijk", eye, v3) + 4.0 * np.einsum("ij,k->ijk", eye, v3)) / 10.0
    e21 = (2.0 * np.einsum("ijl,lk->ijk", eps, d1) + np.einsum("il,ljk->ijk", d1, eps)) / 3.0
    # the second deviator embeds with the weights swapped relative to the first
    e22 = (np.einsum("ijl,lk->ijk", eps, d2) + 2.0 * np.einsum("il,ljk->ijk", d2, eps)) / 3.0

    vbar = (v1 + v2 + v3) / 3.0
    e3 = symmetrize(a) - (np.einsum("i,jk->ijk", vbar, eye)
                          + np.einsum("j,ik->ijk", vbar, eye)
                          + np.einsum("k,ij->ijk", vbar, eye)) / 5.0
    d3 = OctupolarTensor.from_array(e3, tol=1e-8)
    return HarmonicDecomposition(
        a_scalar=float(a_sc), v1=v1, v2=v2, v3=v3, d1=d1, d2=d2, d3=d3,
        mean_vector=vbar, _embeddings=(e0, e11, e12, e13, e21, e22, e3))


def detrace_symmetric(s: SymTensor3 | np.ndarray) -> tuple[OctupolarTensor, np.ndarray]:
    """Remove all traces from a fully symmetric tensor.

    Returns the harmonic (traceless) part and the partial-trace vector
    ``v_i = A_ijj``.  The input is recovered as
    ``irr_ijk + (v_i d_jk + v_j d_ik + v_k d_ij)/5``.
    """
    a = s.array if isinstance(s, SymTensor3) else as_array(s)
    v = np.einsum("ijj->i", a)
    eye = np.asarray(KRONECKER)
    irr = a - (np.einsum("i,jk->ijk", v, eye) + np.einsum("j,ik->ijk", v, eye)
               + np.einsum("k,ij->ijk", v, eye)) / 5.0
    return OctupolarTensor.from_array(irr, tol=1e-8), v


@dataclass(frozen=True)
class YoungDiagram:
    """Partition of r boxes into non-increasing rows."""

    row_lengths: tuple

    def __post_init__(self):
        rows = tuple(int(r) for r in self.row_lengths)
        if len(rows) == 0:
            raise ValueError("diagram must contain at least one row")
        if any(r <= 0 for r in rows):
            raise ValueError("row lengths must be positive")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError("row lengths must be non-increasing")
        object.__setattr__(self, "row_lengths", rows)

    @property
    def boxes(self) -> int:
        return sum(self.row_lengths)

    def hooks(self):
        """Hook length of every cell, as a list of rows."""
        rows = self.row_lengths
        ncols = rows[0]
        col_heights = [sum(1 for r in rows if r > c) for c in range(ncols)]
        return [[(rows[a] - b - 1) + (col_heights[b] - a - 1) + 1
                 for b in range(rows[a])] for a in range(len(rows))]


def young_dimensions(diagram: YoungDiagram, n: int) -> tuple[int, int]:
    """Dimensions attached to a Young diagram for tensors over an n-space.

    Returns ``(rep_dim, tensor_dim)``: the dimension of the corresponding
    permutation-group representation (hook length formula) and the number
    of independent components of a tensor with that index symmetry.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    hooks = diagram.hooks()
    r = diagram.boxes
    rep = Fraction(1)
    for row in hooks:
        for h in row:
            rep /= h
    for k in range(2, r + 1):
        rep *= k
    tens = Fraction(1)
    for a, row in enumerate(hooks):
        for b, h in enumerate(row):
            tens *= Fraction(n + (b + 1) - (a + 1), h)
    if rep.denominator != 1 or tens.denominator != 1:
        raise ValueError("hook products did not divide evenly; invalid diagram")
    return int(rep), int(tens)


def from_multipoles(a1, a2, a3, scale: float) -> OctupolarTensor:
    """Traceless symmetric tensor built from three unit vectors.

    The tensor is ``scale`` times the traceless symmetric part of
    ``a1 (x) a2 (x) a3``; on the unit sphere its cubic form is
    ``scale * [(a1.x)(a2.x)(a3.x) - ((a1.x)(a2.a3) + (a2.x)(a3.a1)
    + (a3.x)(a1.a2))/5]``.  Flipping the sign of an even number of the
    vectors leaves the tensor unchanged.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    vs = [np.asarray(v, dtype=float) for v in (a1, a2, a3)]
    for v in vs:
        if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise ValueError("multipole vectors must be unit 3-vectors")
    outer = np.einsum("i,j,k->ijk", vs[0], vs[1], vs[2])
    irr, _ = detrace_symmetric(symmetrize(outer))
    arr = scale * irr.array
    return OctupolarTensor.from_array(arr)


def tetrahedral_tensor(scale: float) -> OctupolarTensor:
    """Sum of cubes of the four tetrahedral unit vectors, times ``scale``.

    The associated cubic form is ``-(8*scale/sqrt(3)) x1 x2 x3``; only the
    fully off-diagonal component is nonzero.
    """
    a = np.zeros((3, 3, 3))
    for v in TETRAHEDRAL_VECTORS:
        a += np.einsum("i,j,k->ijk", v, v, v)
    return OctupolarTensor.from_array(scale * a)
