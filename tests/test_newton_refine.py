"""The batched bordered Newton refinement and the class dedupe in `_optim`."""

import math
import tracemalloc
import warnings

import numpy as np

from octupolar import (OrientedParams, eigen, eval_potential, from_rho_chi_K, solve_oriented,
                       tetrahedral_tensor)
from octupolar import _optim
from octupolar._optim import (_bordered, _bordered_step, _coefficients, dedupe_classes,
                              dedupe_rows, fibonacci_sphere, newton_refine)

PI = np.pi


def residual_batch(a, x, lam):
    """max |A x^2 - lam x| per row, for one tensor (3, 3, 3) or one per row (n, 3, 3, 3)."""
    return np.max(np.abs(np.einsum("...ijk,...j,...k->...i", a, x, x) - lam[:, None] * x), axis=1)


def test_step_is_the_bordered_4x4_solve():
    rng = np.random.default_rng(3)
    for p in [OrientedParams(0.7, -1.1, 1.3), OrientedParams(1.9, -0.6, 0.2)]:
        a = from_rho_chi_K(p).array
        b, c = _coefficients(a)
        x = rng.normal(size=(3, 50))
        x /= np.sqrt((x * x).sum(0))
        x[:, :2] = [[0.0, 0.3], [0.0, 0.0], [1.0, -np.sqrt(0.91)]]   # at and near a pole
        lam = rng.normal(size=50)
        f = np.concatenate((_bordered(b, x, lam)[0][:3], rng.normal(size=(1, 50))))  # any right side
        dx, dlam = _bordered_step(c, x, lam, f)
        jac = np.zeros((50, 4, 4))
        jac[:, :3, :3] = 6.0 * np.einsum("ijk,kn->nij", a, x) - 3.0 * lam[:, None, None] * np.eye(3)
        jac[:, :3, 3] = -3.0 * x.T
        jac[:, 3, :3] = x.T
        step = np.linalg.solve(jac, -f.T[:, :, None])[:, :, 0]
        np.testing.assert_allclose(dx.T, step[:, :3], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(dlam, step[:, 3], rtol=1e-9, atol=1e-12)


def test_critical_rows_come_back_unchanged():
    for p in [OrientedParams(0.5, -1.2, 0.8), OrientedParams(1.4, -0.7, 2.5), OrientedParams(1.0, -PI / 2, 0.0)]:
        a = from_rho_chi_K(p).array
        x = np.array([q.x for q in solve_oriented(p).pairs])
        x, lam = newton_refine(a, x, eval_potential(a, x))
        assert np.max(residual_batch(a, x, lam)) <= 1e-14
        x2, lam2 = newton_refine(a, x, lam)
        assert np.max(np.abs(x2 - x)) <= 1e-14
        assert np.max(np.abs(lam2 - lam)) <= 1e-14
        assert np.max(np.abs(lam2 - eval_potential(a, x2))) <= 1e-14


def test_degenerate_tensors_stay_finite_without_warnings():
    th = np.linspace(0.0, 2.0 * PI, 13)
    equator = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    seeds = np.concatenate([fibonacci_sphere(2000), equator, [[0.0, 1.0, 0.0]]])
    # rho = K = 0: a circle of critical points; equator seeds meet a singular 2x2
    # (1, -pi/2, 0): a monkey saddle at (0, 1, 0)
    for p in [OrientedParams(0.0, -PI / 2, 0.0), OrientedParams(1.0, -PI / 2, 0.0)]:
        a = from_rho_chi_K(p).array
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, lam = newton_refine(a, seeds, eval_potential(a, seeds))
        assert x.shape == seeds.shape and lam.shape == (len(seeds),)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(lam))
        np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)
        assert np.median(residual_batch(a, x, lam)) <= 1e-12
    assert np.array_equal(x[-1], [0.0, 1.0, 0.0]) and lam[-1] == 0.0


def test_positional_iters_call():
    a = tetrahedral_tensor(1.0).array
    rng = np.random.default_rng(7)
    x0 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0) + 1e-4 * rng.normal(size=(3, 3))
    x0 /= np.linalg.norm(x0, axis=1)[:, None]
    x, lam = newton_refine(a, x0, eval_potential(a, x0), iters=30)
    assert x.shape == (3, 3) and lam.shape == (3,)
    assert np.max(residual_batch(a, x, lam)) <= 1e-14


def test_dedupe_classes_matches_pairwise_first_seen_merge():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(6, 3))
    base /= np.linalg.norm(base, axis=1)[:, None]
    points = []
    for i in rng.integers(0, 6, size=40):
        sign = rng.choice([1.0, -1.0])
        x = sign * (base[i] + rng.uniform(0, 2e-6) * rng.normal(size=3))
        points.append((x, sign * (0.1 * i + rng.uniform(0, 2e-6)), (f"b{len(points)}", int(i) + 1)))
    # (x, lam) ~ (-x, -lam); a point merges into the first earlier kept one closer than tol
    want = []
    for x, lam, (branch, mult) in points:
        for k, (px, pl, (pb, pm)) in enumerate(want):
            if min(max(np.linalg.norm(x - px), abs(lam - pl)),
                   max(np.linalg.norm(x + px), abs(lam + pl))) < 1e-6:
                want[k] = (px, pl, (pb, pm + mult))
                break
        else:
            want.append((x, lam, (branch, mult)))
    got = dedupe_classes(points, tol=1e-6)
    assert 6 < len(want) < 40
    assert [(id(x), lam, payload) for x, lam, payload in got] \
        == [(id(x), lam, payload) for x, lam, payload in want]
    assert dedupe_classes([], tol=1e-6) == []


def padded_dedupe_reference(cell, x, lam, mult, tol=1e-8):
    """`dedupe_rows` as all pairs of every cell, padded to the longest cell, in one tensor."""
    if cell.size == 0:
        return np.zeros(0, dtype=bool), mult
    first = np.concatenate(([True], cell[1:] != cell[:-1]))
    group = np.cumsum(first) - 1
    pos = np.arange(cell.size) - np.flatnonzero(first)[group]
    shape = (group[-1] + 1, pos.max() + 1)
    xp = np.full(shape + (3,), np.nan)
    lp = np.full(shape, np.nan)
    xp[group, pos], lp[group, pos] = x, lam
    diff, pair_sum = xp[:, :, None] - xp[:, None], xp[:, :, None] + xp[:, None]
    d_same = np.maximum(np.sqrt((diff * diff).sum(axis=-1)), np.abs(lp[:, :, None] - lp[:, None]))
    d_flip = np.maximum(np.sqrt((pair_sum * pair_sum).sum(axis=-1)),
                        np.abs(lp[:, :, None] + lp[:, None]))
    close = np.minimum(d_same, d_flip) < tol
    close &= np.tri(shape[1], k=-1, dtype=bool)
    if not close.any():
        return np.ones(cell.size, dtype=bool), mult
    kept = np.zeros(shape, dtype=bool)
    kept[group, pos] = True
    mp = np.zeros(shape, dtype=int)
    mp[group, pos] = mult
    for j in np.flatnonzero(close.any(axis=(0, 2))):
        hit = close[:, j, :j] & kept[:, :j]
        rows = np.flatnonzero(kept[:, j] & hit.any(axis=1))
        into = hit[rows].argmax(axis=1)
        kept[rows, j] = False
        mp[rows, into] += mp[rows, j]
    return kept[group, pos], mp[group, pos]


def _unit(v):
    return v / np.linalg.norm(v)


def random_dedupe_block(rng, tol):
    """Rows of a few cells built around a few classes each, in shuffled order within a cell.

    Each row is one of: an exact or near duplicate of a class, its antipode,
    its mirror image (x1 -> -x1) with equal lam, a class with |lam| < tol,
    a step of a chain whose neighbours are close but whose ends are not, a
    NaN lam, or a fresh random row.  Half the cells reuse the classes of the
    cell before, which rows must not merge across.
    """
    cells, xs, lams = [], [], []
    for c in np.sort(rng.choice(40, size=rng.integers(1, 10), replace=False)):
        if not cells or rng.random() < 0.5:
            base = [(_unit(rng.normal(size=3)), rng.normal()) for _ in range(rng.integers(1, 4))]
            base.append((_unit(rng.normal(size=3)), rng.uniform(-tol, tol)))
        rows = []
        for kind in rng.integers(0, 8, size=rng.integers(1, 10)):
            bx, bl = base[rng.integers(len(base))]
            eps = rng.uniform(0.0, 2.0 * tol)
            if kind == 0:
                rows.append((bx, bl))
            elif kind == 1:
                rows.append((bx + eps * _unit(rng.normal(size=3)), bl + rng.uniform(-eps, eps)))
            elif kind == 2:
                rows.append((-bx + eps * _unit(rng.normal(size=3)), -bl + rng.uniform(-eps, eps)))
            elif kind == 3:
                rows.append((bx * [-1.0, 1.0, 1.0], bl))
            elif kind == 4:
                step = 0.6 * tol * _unit(rng.normal(size=3))
                rows += [(bx + k * step, bl + 0.6 * tol * k) for k in range(3)]
            elif kind == 5:
                rows.append((bx, np.nan))
            elif kind == 6:
                rows.append((_unit(rng.normal(size=3)), rng.uniform(-tol, tol)))
            else:
                rows.append((_unit(rng.normal(size=3)), rng.normal()))
        for i in rng.permutation(len(rows)):
            cells.append(c)
            xs.append(rows[i][0])
            lams.append(rows[i][1])
    return np.array(cells), np.array(xs), np.array(lams), rng.integers(1, 4, size=len(cells))


def test_dedupe_rows_matches_the_padded_all_pairs_reference():
    rng = np.random.default_rng(14)
    merged = untouched = 0
    for _ in range(1500):
        tol = rng.choice([1e-8, 1e-6])
        cell, x, lam, mult = random_dedupe_block(rng, tol)
        keep, got = dedupe_rows(cell, x, lam, mult, tol)
        want_keep, want = padded_dedupe_reference(cell, x, lam, mult, tol)
        assert np.array_equal(keep, want_keep) and np.array_equal(got, want)
        merged += not keep.all()
        untouched += keep.all()
    assert merged > 500 and untouched > 100
    one = dedupe_rows(np.zeros(1, dtype=int), np.eye(3)[:1], np.array([0.5]), np.array([3]))
    assert one[0].tolist() == [True] and one[1].tolist() == [3]
    empty = dedupe_rows(np.zeros(0, dtype=int), np.zeros((0, 3)), np.zeros(0),
                        np.zeros(0, dtype=int))
    assert empty[0].shape == (0,) and empty[1].shape == (0,)


def first_block_dedupe_peak(monkeypatch, chi):
    """tracemalloc peak of the first `dedupe_rows` call that `solve_block` makes on the first
    128 cells of the 40x40 midpoint grid at chi (rho in (0, 2), K in (0, 2))."""
    mids = (np.arange(40) + 0.5) * 2.0 / 40
    params = [OrientedParams(float(r), chi, float(k)) for r in mids for k in mids]
    calls = []
    real = _optim.dedupe_rows

    def capture(*args):
        calls.append(args)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(_optim, "dedupe_rows", capture)
        eigen.solve_block(params[:128])
    tracemalloc.start()
    try:
        real(*calls[0])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_dedupe_working_set(monkeypatch):
    # an all-pairs comparison over whole padded cells needs about 600 kB on both slices; on the
    # chi = -pi/6 plane every cell has mirror pairs of equal lam, so each cell has a run to compare
    peak = first_block_dedupe_peak(monkeypatch, -1.0)
    assert peak <= 64e3, f"{peak / 1e3:.0f} kB"
    peak = first_block_dedupe_peak(monkeypatch, -PI / 6)
    assert peak <= 256e3, f"{peak / 1e3:.0f} kB"


def points_probe_params() -> list:
    """The 400 edge-band probe draws of the benchmark's `points` workload.

    Per stratum j of 100, one draw each next to the chi = -pi/2 and -pi/6 planes, the axis and
    the rim, log-uniform in distance from 1e-7, 1e-7, 1e-8, 1e-9 up to 0.02, each written as a
    random symmetry image of its canonical point.
    """
    rng = np.random.default_rng(2**32 - 1)
    out = []
    for j in range(100):
        for band, lo in (("pi2", 1e-7), ("pi6", 1e-7), ("axis", 1e-8), ("rim", 1e-9)):
            u = (j + float(rng.uniform())) / 100
            rho = float(rng.uniform(0.02, 1.98))
            chi = float(rng.uniform(-PI / 2 + 0.02, -PI / 6 - 0.02))
            k = float(rng.uniform(0.0, 3.0))
            d = math.exp(math.log(lo) + u * (math.log(0.02) - math.log(lo)))
            chi = {"pi2": -PI / 2 + d, "pi6": -PI / 6 - d}.get(band, chi)
            rho = {"axis": d, "rim": 2.0 - d}.get(band, rho)
            m = int(rng.integers(6))
            chi = -chi - PI / 3 if rng.integers(2) else chi
            chi = (chi + 2.0 * PI * m / 3.0 + PI) % (2.0 * PI) - PI
            out.append(OrientedParams(rho, chi, k if m % 2 == 0 else -k))
    return out


def test_per_row_polish_matches_single_tensor_calls(monkeypatch):
    # the rough rows that solve_block polishes in one call, one tensor per row: slices next to
    # chi = -0.55 have many, and so do the edge bands
    mids = (np.arange(40) + 0.5) * 2.0 / 40
    calls = []
    real = _optim.newton_refine

    def capture(a, x, lam, **kw):
        calls.append((a, x.copy(), lam.copy(), kw))
        return real(a, x, lam, **kw)

    monkeypatch.setattr(_optim, "newton_refine", capture)
    for chi in (-0.5565, -0.5522):
        list(eigen.solved_blocks([OrientedParams(float(r), chi, float(k))
                                  for r in mids for k in mids]))
    eigen.solve_block(points_probe_params())
    assert sum(len(c[1]) for c in calls) > 1000 and all(c[0].ndim == 4 for c in calls)
    for a, x, lam, kw in calls:
        xb, lb = real(a, x, lam, **kw)
        one = [real(a[r], x[r:r + 1], lam[r:r + 1], **kw) for r in range(len(x))]
        xs, ls = np.concatenate([o[0] for o in one]), np.concatenate([o[1] for o in one])
        assert np.max(np.abs(xb - xs)) <= 2e-15 and np.max(np.abs(lb - ls)) <= 2e-15
        gate = lambda xr, lr: residual_batch(a, xr, lr) > eigen._RESIDUAL_TOL
        assert np.array_equal(gate(xb, lb), gate(xs, ls))
