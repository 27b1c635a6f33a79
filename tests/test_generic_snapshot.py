"""Raw branch-solver entries against values recorded before the branches
became array code (tests/data/generic_entries.json).

For every cell the file holds a digest of the solver's raw entries: the
canonical-frame rows (x, branch, multiplicity), pole first, before
back-rotation and dedupe.  The digest covers the bytes of every x, so the
comparison is bit for bit.  The cells are the chi = -1 and chi = -0.7
40x40 scans, the separatrix K = K*(rho, chi) at four interior chi and on
the rim rho = 2 (their K* is recorded in the file), the degree-drop surface
K = kappa, the cusp line rho sin chi = -1, the rim rho = 2, and slices
1e-6...1e-4 from both symmetry planes.  Together they reach the double-root
pairing, the q ~ 0 two-t split, the s = 0 root, the rim deflation and the
degree-drop background row.  Behind them come the special families: both
exact planes on the 40x40 grid, K = 0 at rho = 1, rho = 2 and interior chi,
the plane rims 2 - rho in {0, 1e-12, 1e-10} (with the continuum point
(2, -pi/6, 1)) and the axis rho = 0; every special branch tag must show up.
Regenerate with

    PYTHONPATH=src python tests/test_generic_snapshot.py > tests/data/generic_entries.json
"""

import hashlib
import json
import os

import numpy as np

from octupolar import OrientedParams, eigen, separatrix
from octupolar.potential import canonicalize_params

DATA = os.path.join(os.path.dirname(__file__), "data", "generic_entries.json")
PI = np.pi
INTERIOR = (-PI / 2 + 0.02, -PI / 6 - 0.02)
SEPARATRIX_CHIS = (-1.4, -1.0, -0.7, -0.55)


def separatrix_cells() -> list:
    grid = (np.arange(40) + 0.5) * 2.0 / 40
    out = []
    for chi in SEPARATRIX_CHIS:
        out += [(float(r), chi, separatrix.k_star(float(r), chi).k) for r in grid]
    for chi in np.linspace(*INTERIOR, 20).tolist():
        try:
            out.append((2.0, chi, separatrix.k_star(2.0, chi).k))
        except RuntimeError:
            pass
    return out


def cells(separatrix_rows) -> list:
    """(rho, chi, K) of every recorded cell; ``separatrix_rows`` comes from the file."""
    grid = ((np.arange(40) + 0.5) * 2.0 / 40).tolist()
    out = [(r, chi, k) for chi in (-1.0, -0.7) for r in grid for k in grid]
    out += [tuple(c) for c in separatrix_rows]
    rng = np.random.default_rng(5)
    for _ in range(60):
        rho, chi = rng.uniform(0.05, 1.95), rng.uniform(*INTERIOR)
        out.append((rho, chi, separatrix.kappa_function(rho, chi)))
    for _ in range(60):
        rho = rng.uniform(1.02, 1.98)
        out.append((rho, -float(np.arcsin(1.0 / rho)), rng.uniform(0.02, 2.0)))
    out += [(2.0, rng.uniform(*INTERIOR), rng.uniform(0.02, 2.0)) for _ in range(60)]
    for _ in range(100):
        d = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e-4))))
        chi = -PI / 2 + d if rng.integers(2) else -PI / 6 - d
        out.append((rng.uniform(0.02, 1.98), chi, rng.uniform(0.0, 2.0)))
    # the special families: both exact planes, the disk K = 0, the rims and the axis
    out += [(r, chi, k) for chi in (-PI / 2, -PI / 6) for r in grid for k in grid]
    out += [(r, chi, 0.0) for chi in (-PI / 2, -1.2, -1.0, -0.7, -PI / 6)
            for r in grid + [1.0, 2.0]]
    out += [(2.0 - d, chi, k) for chi in (-PI / 2, -PI / 6) for d in (0.0, 1e-12, 1e-10)
            for k in (0.3, 1.0, 1.3)]
    out += [(0.0, chi, k) for chi in (-PI / 2, -1.0, -PI / 6) for k in grid]
    out.append((0.0, -PI / 2, 0.0))
    return [(float(r), float(c), float(k)) for r, c, k in out]


def raw_entries(params) -> list:
    """Per cell, the solver's canonical-frame entries (x, branch, multiplicity), pole first."""
    _ops, _continuum, cell, x, branch, mult = eigen._branch_rows(params)
    bounds = np.searchsorted(cell, np.arange(len(params) + 1))
    return [list(zip(x[lo:hi], branch[lo:hi], mult[lo:hi].tolist()))
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def digest(entries) -> str:
    h = hashlib.sha256()
    for x, branch, mult in entries:
        h.update(np.asarray(x, dtype=float).tobytes())
        h.update(f"{branch}:{int(mult)};".encode())
    return h.hexdigest()[:16]


def record() -> dict:
    rows = separatrix_cells()
    params = [OrientedParams(*c) for c in cells(rows)]
    return {"separatrix": rows, "digests": [digest(e) for e in raw_entries(params)]}


def _paths(params, entries) -> set:
    """Which generic-branch paths and special-branch tags the entries show."""
    hit = set()
    for p, rows in zip(params, entries):
        hit.update(b for _, b, _ in rows if b not in ("pole", "walcher", "background"))
        if p.bigk == 0.0 and any(b == "background" for _, b, _ in rows):
            hit.add("K=0 background")
        walcher = [(x, m) for x, b, m in rows if b == "walcher"]
        if any(m == 2 for _, m in walcher):
            hit.add("pair")
        if any(x[0] == 0.0 for x, _ in walcher):
            hit.add("s=0")
        s = np.array([x[0] / x[1] for x, _ in walcher])
        t = np.array([x[2] / x[1] for x, _ in walcher])
        same_s = np.abs(s[:, None] - s) <= 1e-9 * (1.0 + np.abs(s))
        if (same_s & (np.abs(t[:, None] - t) > 1e-6)).any():
            hit.add("two-t split")
        if any(b == "background" for _, b, _ in rows):
            hit.add("background")
        canon = canonicalize_params(*p.as_tuple())[0]
        if abs(canon.rho - 2.0) <= 1e-9:
            b, c = eigen.walcher_split(canon.rho, canon.chi)
            w = b * canon.bigk ** 2 + c
            s_plus = np.tan(canon.chi) + 1.0 / np.cos(canon.chi)
            if abs(np.polyval(w[::-1], s_plus)) <= 1e-10 * np.polyval(np.abs(w)[::-1], abs(s_plus)):
                hit.add("rim deflation")
    return hit


def test_generic_entries_match_recorded_output():
    with open(DATA) as f:
        recorded = json.load(f)
    params = [OrientedParams(*c) for c in cells(recorded["separatrix"])]
    entries = raw_entries(params)
    assert len(recorded["digests"]) == len(params)
    for p, want, got in zip(params, recorded["digests"], entries):
        assert digest(got) == want, (p, got)
    assert _paths(params, entries) == {
        "pair", "s=0", "two-t split", "background", "rim deflation", "K=0 background",
        "axis-meridian", "axis-offset", "disk-equator", "disk-meridian",
        "pi2-meridian", "pi2-biquad", "pi6-meridian", "pi6-biquad"}


def test_continuum_flags():
    """Only rho = K = 0 and (2, -pi/6, 1), within the rim tolerance, are continua."""
    cells = [(0.0, chi, k) for chi in (-PI / 2, -1.0, -PI / 6) for k in (0.0, 1e-12, 0.3)]
    cells += [(2.0 - d, chi, k) for chi in (-PI / 2, -1.0, -PI / 6) for d in (0.0, 1e-12, 1e-10)
              for k in (0.0, 0.3, 1.0, 1.3)]
    _ops, continuum, *_ = eigen._branch_rows([OrientedParams(*c) for c in cells])
    want = [(r == 0.0 and k <= 1e-12) or (c == -PI / 6 and k == 1.0 and 2.0 - r <= 1e-11)
            for r, c, k in cells]
    assert continuum.tolist() == want


if __name__ == "__main__":
    print(json.dumps(record()))
