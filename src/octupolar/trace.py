"""
Critical-point analysis for the trace part of a fully symmetric tensor.

A fully symmetric tensor splits into a traceless part and a trace part
with cubic form A1 x1 x3^2 + A2 x2 x1^2 + A3 x3 x2^2.  Orienting (critical
point at the poles) forces A1 = 0; with A2 != 0 everything is governed by
the ratio mu = A3/A2.  The northern-hemisphere chart then carries three
mu-independent critical points p1-p3 and, for 0 < |mu| <= sqrt(2), a
symmetric pair p4/p5 running on the ellipse (3/4) x1^2 + (3/2) x2^2 = 1.

The module also hosts the constraint algebra for perturbing the
tetrahedral potential while keeping its four maxima in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TraceParams",
    "TraceCriticalPoint",
    "TraceReport",
    "SymFullPotentialParams",
    "trace_potential",
    "trace_critical_points",
    "trace_critical_values",
    "trace_classify",
    "tetra_constraints",
    "TETRA_MAXIMA",
    "POLE_GROUP_MATRICES",
]

_SQ23 = np.sqrt(2.0 / 3.0)

#: Vertices of the regular tetrahedron carrying the reference maxima.
TETRA_MAXIMA = np.array([
    [0.0, 0.0, 1.0],
    [0.0, 2.0 * np.sqrt(2.0) / 3.0, -1.0 / 3.0],
    [-np.sqrt(2.0 / 3.0), -np.sqrt(2.0) / 3.0, -1.0 / 3.0],
    [np.sqrt(2.0 / 3.0), -np.sqrt(2.0) / 3.0, -1.0 / 3.0],
])
TETRA_MAXIMA.flags.writeable = False

_H = np.sqrt(3.0) / 2.0
#: The six tetrahedral-group matrices fixing the north pole.
POLE_GROUP_MATRICES = tuple(np.array(m) for m in [
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    [[-0.5, _H, 0.0], [-_H, -0.5, 0.0], [0.0, 0.0, 1.0]],
    [[-0.5, -_H, 0.0], [_H, -0.5, 0.0], [0.0, 0.0, 1.0]],
    [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    [[0.5, -_H, 0.0], [-_H, -0.5, 0.0], [0.0, 0.0, 1.0]],
    [[0.5, _H, 0.0], [_H, -0.5, 0.0], [0.0, 0.0, 1.0]],
])


@dataclass(frozen=True)
class TraceParams:
    """Coefficients (a1, a2, a3) of the trace-type cubic form."""

    a1: float
    a2: float
    a3: float

    @property
    def mu(self) -> float:
        if self.a2 == 0.0:
            raise ValueError("mu is undefined for a2 = 0")
        return self.a3 / self.a2


@dataclass(frozen=True)
class TraceCriticalPoint:
    """Critical point in the northern-hemisphere chart (x1, x2)."""

    label: str
    x1: float
    x2: float
    value: float
    kind: str
    index: int
    multiplicity: int = 1

    @property
    def x3(self) -> float:
        return float(np.sqrt(max(0.0, 1.0 - self.x1 ** 2 - self.x2 ** 2)))


@dataclass(frozen=True)
class TraceReport:
    points: tuple
    continuum_meridian: bool = False
    equator_saddles: tuple = ()
    equator_extrema: tuple = ()

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def by_label(self) -> dict:
        return {p.label: p for p in self.points}

    def to_report(self) -> dict:
        return {
            "points": [{"label": p.label, "x1": p.x1, "x2": p.x2, "x3": p.x3,
                        "value": p.value, "kind": p.kind, "index": p.index,
                        "multiplicity": p.multiplicity} for p in self.points],
            "continuum_meridian": self.continuum_meridian,
            "equator_saddles": [list(q) for q in self.equator_saddles],
            "equator_extrema": [list(q) for q in self.equator_extrema],
        }


def trace_potential(p: TraceParams, x) -> float:
    x = np.asarray(x, dtype=float)
    return float(p.a1 * x[0] * x[2] ** 2 + p.a2 * x[1] * x[0] ** 2 + p.a3 * x[2] * x[1] ** 2)


def _require_oriented(p: TraceParams) -> None:
    scale = max(abs(p.a1), abs(p.a2), abs(p.a3), 1e-300)
    if abs(p.a1) > 1e-12 * scale:
        raise ValueError("oriented trace form requires a1 = 0")


def _trace_table(p: TraceParams) -> tuple[dict, dict]:
    """Each label's (x1, x2, value, kind, index, multiplicity), and the report's flags.

    The flags are the `TraceReport` fields beyond the points.  An extremum's
    value has the sign of a3 = mu a2, so it is a maximum exactly when a3 > 0:
    a negative a2 exchanges maxima and minima without touching the indices.
    p1 is degenerate; its index is the value forced by the sphere-total
    theorem, which is -1 for every mu != 0.  p2 and p3 are extrema where
    their chart-Hessian eigenvalues e1 = -4 sqrt3 mu and e2 (below) share a
    sign, that is where e2 mu < 0, and saddles otherwise.
    """
    _require_oriented(p)
    extremum = "maximum" if p.a3 > 0 else "minimum"
    if p.a2 == 0.0:         # the x2 = 0 meridian is critical, (+-1, 0) are degenerate saddles
        v = p.a3 * (2.0 / 3.0) / np.sqrt(3.0)
        return ({"p1": (0.0, 0.0, 0.0, "degenerate_saddle", 0, 1),
                 "p2": (0.0, -_SQ23, v, extremum, 1, 1), "p3": (0.0, _SQ23, v, extremum, 1, 1)},
                {"continuum_meridian": True, "equator_saddles": ((1.0, 0.0), (-1.0, 0.0))})
    mu = p.mu
    v = p.a2 * 2.0 * mu / (3.0 * np.sqrt(3.0))
    if mu == 0.0:           # the x1 = 0 meridian is critical, with four extrema on the equator
        c, s = _SQ23, np.sqrt(1.0 / 3.0)
        return ({"p1": (0.0, 0.0, 0.0, "degenerate_saddle", 0, 1),
                 "p2": (0.0, -_SQ23, v, "degenerate_saddle", 0, 1),
                 "p3": (0.0, _SQ23, v, "degenerate_saddle", 0, 1)},
                {"continuum_meridian": True, "equator_extrema": ((c, s), (-c, s), (c, -s), (-c, -s))})
    table = {"p1": (0.0, 0.0, 0.0, "degenerate_saddle", -1, 1)}
    for label, x2, e2 in (("p2", -_SQ23, -_SQ23 * (2.0 + np.sqrt(2.0) * mu)),
                          ("p3", _SQ23, _SQ23 * (2.0 - np.sqrt(2.0) * mu))):
        kind, index = (extremum, 1) if e2 * mu < 0 else ("saddle", -1)
        table[label] = (0.0, x2, v, kind, index, 1)
    if abs(mu) <= np.sqrt(2.0):     # p4/p5 on the ellipse; at |mu| = sqrt2 they meet p2 or p3
        xi = np.arcsin(np.sign(mu) * np.sqrt(2.0 / (4.0 - mu * mu)))
        x1, x2 = 2.0 / np.sqrt(3.0) * np.cos(xi), _SQ23 * np.sin(xi)
        v45 = p.a2 * np.sign(mu) * 4.0 / (3.0 * np.sqrt(3.0) * np.sqrt(4.0 - mu * mu))
        mult = 2 if abs(abs(mu) - np.sqrt(2.0)) <= 1e-12 else 1
        table["p4"] = (-x1, x2, v45, extremum, 1, mult)
        table["p5"] = (x1, x2, v45, extremum, 1, mult)
    return table, {}


def trace_classify(p: TraceParams) -> dict:
    """kind and topological index per label, matching the index table (`_trace_table`)."""
    return {label: row[3:5] for label, row in _trace_table(p)[0].items()}


def trace_critical_values(p: TraceParams) -> dict:
    """Potential value at each labelled critical point (scaled by a2)."""
    return {label: row[2] for label, row in _trace_table(p)[0].items()}


def trace_critical_points(p: TraceParams) -> TraceReport:
    """Critical points of the oriented trace form in the northern chart.

    For a2 = 0 the x2 = 0 meridian is critical as a whole and the two
    points (+-1, 0) on the equator are degenerate saddles; both features
    are flagged rather than enumerated.  For a2 != 0, mu = 0 leaves the
    x1 = 0 meridian critical, with the four equatorial extrema reported
    separately (they fall outside the p1-p5 labels).
    """
    table, flags = _trace_table(p)
    if not (p.a2 or p.a3):
        raise ValueError("zero trace form has no critical-point structure")
    points = tuple(TraceCriticalPoint(label, float(x1), float(x2), float(value), kind, index, mult)
                   for label, (x1, x2, value, kind, index, mult) in table.items())
    return TraceReport(points=points, **flags)


@dataclass(frozen=True)
class SymFullPotentialParams:
    """Full coefficient set of a symmetric cubic form, traceless plus trace."""

    alpha0: float = 0.0
    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    beta3: float = 0.0
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    hessian_eigs: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    def potential(self, x) -> float:
        x1, x2, x3 = np.asarray(x, dtype=float)
        traceless = (6.0 * self.alpha0 * x1 * x2 * x3
                     + self.alpha1 * x1 * (x1 ** 2 - 3.0 * x3 ** 2)
                     + self.alpha2 * x2 * (x2 ** 2 - 3.0 * x1 ** 2)
                     + self.alpha3 * x3 * (x3 ** 2 - 3.0 * x2 ** 2)
                     + 3.0 * (self.beta1 * x1 * (x2 ** 2 - x3 ** 2)
                              + self.beta2 * x2 * (x3 ** 2 - x1 ** 2)
                              + self.beta3 * x3 * (x1 ** 2 - x2 ** 2)))
        trace = self.a1 * x1 * x3 ** 2 + self.a2 * x2 * x1 ** 2 + self.a3 * x3 * x2 ** 2
        return float(traceless + trace)


def tetra_constraints(deltas: dict | None = None, mode: str = "nonperturbative") -> SymFullPotentialParams:
    """Coefficient sets that keep the four tetrahedral maxima critical.

    ``perturbative``: first-order perturbation of the reference tetrahedral
    form that preserves the orientation; free parameters ``dalpha2``,
    ``dalpha3``, ``dbeta3``.  ``oriented``: the exact analogue with free
    ``alpha2``, ``alpha3``, ``beta3``.  ``nonperturbative``: additionally
    forces the three southern maxima onto one level, leaving ``alpha2`` and
    ``alpha3`` free and pinning everything else; this mode also reports the
    chart-Hessian eigenvalues and potential values at the maxima.
    """
    free = {"perturbative": ("dalpha2", "dalpha3", "dbeta3"),
            "oriented": ("alpha2", "alpha3", "beta3"), "nonperturbative": ("alpha2", "alpha3")}
    if mode not in free:
        raise ValueError(f"unknown mode {mode!r}")
    d = dict(deltas or {})
    a2_, a3_, *rest = (d.pop(name, 0.0) for name in free[mode])
    if d:
        raise ValueError(f"unknown {mode} parameters {sorted(d)}")
    sq2 = np.sqrt(2.0)
    if mode != "nonperturbative":
        b3_ = rest[0]
        return SymFullPotentialParams(
            alpha2=a2_, alpha3=a3_, beta3=b3_,
            a1=0.0,
            a2=2.0 * a2_ + a3_ / sq2 + 3.0 * sq2 * b3_,
            a3=-sq2 * a2_ + 2.5 * a3_ + 3.0 * b3_)
    b3_ = -(2.0 * sq2 * a2_ + a3_) / 6.0
    eigs = {
        "p1": (-2.0 * (sq2 * a2_ + 2.0 * a3_), -2.0 * (sq2 * a2_ + 2.0 * a3_)),
        "p2-p4": (-6.0 * sq2 * a2_, -6.0 * (5.0 * sq2 * a2_ + 4.0 * a3_)),
    }
    vals = {"p1": a3_, "p2-p4": (8.0 * sq2 * a2_ + a3_) / 9.0}
    return SymFullPotentialParams(
        alpha2=a2_, alpha3=a3_, beta3=b3_,
        a1=0.0, a2=0.0, a3=2.0 * (a3_ - sq2 * a2_),
        hessian_eigs=eigs, values=vals)
