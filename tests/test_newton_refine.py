"""The batched bordered Newton refinement and the class dedupe in `_optim`."""

import warnings

import numpy as np

from octupolar import OrientedParams, from_rho_chi_K, solve_oriented, tetrahedral_tensor
from octupolar._optim import (_bordered, _bordered_step, _coefficients, dedupe_classes,
                              fibonacci_sphere, newton_refine, potential_batch, residual_batch)

PI = np.pi


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
        x, lam = newton_refine(a, x, potential_batch(a, x))
        assert np.max(residual_batch(a, x, lam)) <= 1e-14
        x2, lam2 = newton_refine(a, x, lam)
        assert np.max(np.abs(x2 - x)) <= 1e-14
        assert np.max(np.abs(lam2 - lam)) <= 1e-14
        assert np.max(np.abs(lam2 - potential_batch(a, x2))) <= 1e-14


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
            x, lam = newton_refine(a, seeds, potential_batch(a, seeds))
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
    x, lam = newton_refine(a, x0, potential_batch(a, x0), iters=30)
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
