import numpy as np
import pytest

from octupolar import (
    OrientedParams, classify, from_rho_chi_K, full_topology,
    oracle_critical_points, solve_oriented, tetrahedral_tensor,
)
from octupolar import _optim, eigen
from octupolar.tensors import symmetrize
from octupolar.separatrix import _k_star_rows, _kstar_or_raise, f_function, g_function
from octupolar.topology import _winding_index

rng = np.random.default_rng(5)
PI = np.pi


def hausdorff(a_pts, b_pts):
    d = 0.0
    for a in a_pts:
        d = max(d, min(np.linalg.norm(a - b) for b in b_pts))
    for b in b_pts:
        d = max(d, min(np.linalg.norm(b - a) for a in a_pts))
    return d


class TestClassify:
    def test_pole_is_maximum(self):
        p = OrientedParams(0.5, -PI / 3, 0.0)
        t = from_rho_chi_K(p)
        cp = classify(t, (np.array([0.0, 0.0, 1.0]), 1.0))
        assert cp.kind == "maximum"
        assert cp.index == 1

    def test_equatorial_degenerate_saddle(self):
        p = OrientedParams(1.0, -PI / 3, 0.0)
        sol = solve_oriented(p)
        t = from_rho_chi_K(p)
        eq = [q for q in sol.pairs if abs(q.x[2]) < 1e-9 and abs(q.lam) < 1e-9]
        found = [classify(t, q) for q in eq]
        assert any(cp.index == -2 for cp in found)
        worst = [cp for cp in found if cp.index == -2][0]
        assert worst.kind in ("degenerate_saddle", "monkey_saddle")

    def test_separatrix_vault_iota_zero(self):
        rho = 1.25
        p = OrientedParams(rho, -PI / 2, g_function(rho))
        rep = full_topology(p)
        assert sum(1 for q in rep.points if q.index == 0) == 2

    def test_non_critical_rejected(self):
        t = from_rho_chi_K(OrientedParams(0.5, -PI / 3, 0.0))
        with pytest.raises(ValueError):
            classify(t, (np.array([1.0, 0.0, 0.0]) / 1.0, 0.5))

    def test_non_symmetric_input_raises(self):
        # each tensor has the cubic form of s, but the coefficient kernel reads only the
        # components a_ijk with j <= k: the maximum would be rejected as not critical
        p = OrientedParams(1.2, -1.1, 0.9)
        s = from_rho_chi_K(p).array
        n = np.random.default_rng(3).normal(size=(3, 3, 3))
        m = n + n.transpose(0, 2, 1)                # symmetric in its last two indices only
        q = max(solve_oriented(p).pairs, key=lambda q: q.lam)
        for a in (s + n - symmetrize(n), s + m - symmetrize(m)):
            with pytest.raises(ValueError, match="not fully symmetric; pass tensors.symmetrize"):
                classify(a, q)
        got, want = classify(symmetrize(s + n - symmetrize(n)), q), classify(s, q)
        assert (got.kind, got.index) == (want.kind, want.index) == ("maximum", 1)
        np.testing.assert_allclose(got.hessian_eigs, want.hessian_eigs, rtol=1e-12)

    def test_winding_matches_hessian_sign(self):
        for _ in range(8):
            p = OrientedParams(rng.uniform(0.1, 1.9),
                               rng.uniform(-PI / 2 + 0.05, -PI / 6 - 0.05),
                               rng.uniform(0.1, 2.0))
            t = from_rho_chi_K(p)
            for q in solve_oriented(p).pairs:
                cp = classify(t, q)
                h1, h2 = cp.hessian_eigs
                if min(abs(h1), abs(h2)) > 1e-6 * max(abs(h1), abs(h2), 1.0):
                    expected = 1 if h1 * h2 > 0 else -1
                    assert _winding_index(_optim._coefficients(t.array)[1], q.x[None])[0] \
                        == expected == cp.index


def winding_reference(a, x, radius=1e-3, samples=720) -> int:
    """The winding number around one point x, sampled on the sphere in world coordinates."""
    u, v = (w[:, 0] for w in _optim.tangent_basis(x[:, None]))
    th = 2.0 * np.pi * np.arange(samples) / samples
    pts = (np.cos(radius) * x[None, :]
           + np.sin(radius) * (np.cos(th)[:, None] * u + np.sin(th)[:, None] * v))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    sgrad = _optim.surface_gradient(a, pts.T).T
    gu = sgrad @ u
    gv = sgrad @ v
    ang = np.unwrap(np.arctan2(gv, gu))
    closing = np.arctan2(gv[0], gu[0]) - ang[-1]
    closing = (closing + np.pi) % (2.0 * np.pi) - np.pi
    total = (ang[-1] - ang[0]) + closing
    return int(np.rint(total / (2.0 * np.pi)))


def test_batched_winding_matches_the_per_point_reference():
    # every class of the on-separatrix cells, where degenerate points sit: 20 interior slices, the
    # g and f curves on the two planes, monkey saddles, and the tetrahedral point
    rhos = [float(r) for r in (np.arange(40) + 0.5) * 2.0 / 40]
    cells = [(r, -PI / 2, g_function(r)) for r in rhos] + [(r, -PI / 6, f_function(r)) for r in rhos]
    for chi in np.linspace(-PI / 2 + 0.02, -PI / 6 - 0.02, 20):
        cells += [(r, chi, _kstar_or_raise(ks).k) for r, ks in zip(rhos, _k_star_rows(rhos, chi))]
    cells += [(1.0, -1.0, 0.0), (1.0, -PI / 2, 0.0), (0.0, -PI / 2, 1.0 / np.sqrt(2.0))]
    block = eigen.solve_block([OrientedParams(*c) for c in cells])
    block.raise_first_error()
    a = block.arrays[block.cell]
    got = _winding_index(_optim._coefficients(a)[1], block.x)
    want = [winding_reference(a[r], block.x[r]) for r in range(len(got))]
    assert got.tolist() == want
    assert len(want) > 5000 and {-2, 0, 1, -1} <= set(want)


class TestFullTopology:
    def test_tetrahedral(self):
        rep = full_topology(OrientedParams(0.0, -PI / 2, 1 / np.sqrt(2)))
        assert rep.total == 14
        assert rep.n_max == 4 and rep.n_min == 4 and rep.n_saddle == 6
        assert rep.index_sum == 2

    def test_above_g_class_counts(self):
        rep = full_topology(OrientedParams(1.5, -PI / 2, 1.0))
        assert rep.total == 14
        assert rep.n_max == 4 and rep.n_min == 4 and rep.n_saddle == 6

    def test_monkey_saddles(self):
        rep = full_topology(OrientedParams(1.0, -PI / 2, 0.0))
        assert rep.total == 8
        assert rep.n_max == 3 and rep.n_min == 3
        assert rep.counts.get("monkey_saddle", 0) == 2
        assert all(q.index == -2 for q in rep.points if q.kind == "monkey_saddle")

    def test_parity(self):
        rep = full_topology(OrientedParams(0.8, -1.1, 0.6))
        pts = [q.x for q in rep.points]
        lams = [q.lam for q in rep.points]
        for x, lam in zip(pts, lams):
            match = [i for i, (y, mu) in enumerate(zip(pts, lams))
                     if np.linalg.norm(x + y) < 1e-9 and abs(lam + mu) < 1e-9]
            assert len(match) == 1
        assert rep.n_max == rep.n_min

    def test_continuum_report(self):
        rep = full_topology(OrientedParams(0.0, -PI / 2, 0.0))
        assert rep.continuum
        assert rep.total == 2  # isolated poles only

    @pytest.mark.xfail(strict=True, raises=RuntimeError,
                       reason="near the -pi/6 rim the biquadratic's leading coefficient "
                              "K^2 (rho - 2) is tiny but outside the 1e-11 rim test; "
                              "the index sum reads -2 (ROADMAP item 1)")
    def test_pi6_plane_near_rim(self):
        rep = full_topology(OrientedParams(2.0 - 1e-9, -PI / 6, 1.3))
        assert rep.index_sum == 2

    @pytest.mark.xfail(strict=True, raises=RuntimeError,
                       reason="eigenpair residual 4.09e-09 on pi6-meridian: next to a near-double "
                              "root the first full polish step raises the residual 10.5-fold, "
                              "and newton_refine's step halving stalls")
    def test_pi6_band_meridian_polish(self):
        rep = full_topology(OrientedParams(0.5947366078799601, -0.5235988736265751,
                                           0.23879948048872432))
        assert rep.index_sum == 2


class TestOracle:
    def test_tetrahedral_agrees_with_solver(self):
        t = tetrahedral_tensor(-9.0 / 8.0)
        rep = oracle_critical_points(t, samples=100_000)
        assert rep.total == 14
        # compare against the oriented solver through the known coefficients
        from octupolar import orient
        from octupolar.potential import MIRROR
        o = orient(t)
        sol = solve_oriented(o.params)
        solver_pts = []
        for q in sol.pairs:
            solver_pts.append(q.x)
            solver_pts.append(-q.x)
        to_oriented = (MIRROR @ o.rotation) if o.mirrored else o.rotation
        oracle_pts = [to_oriented @ q.x for q in rep.points]
        assert hausdorff(solver_pts, oracle_pts) < 1e-6

    def test_random_sector_agreement(self):
        for _ in range(3):
            p = OrientedParams(rng.uniform(0.1, 1.9),
                               rng.uniform(-PI / 2 + 0.05, -PI / 6 - 0.05),
                               rng.uniform(0.1, 2.0))
            sol = solve_oriented(p)
            rep = oracle_critical_points(from_rho_chi_K(p), samples=50_000)
            solver_pts = [q.x for q in sol.pairs] + [-q.x for q in sol.pairs]
            oracle_pts = [q.x for q in rep.points]
            assert len(oracle_pts) == len(solver_pts)
            assert hausdorff(solver_pts, oracle_pts) < 1e-6

    def test_axisymmetric_continuum_flag(self):
        rep = oracle_critical_points(from_rho_chi_K(OrientedParams(0, -PI / 2, 0)),
                                     samples=20_000)
        assert rep.continuum
        lams = [q.lam for q in rep.points]
        assert any(abs(l - 1.0) < 1e-9 for l in lams)   # poles detected

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            oracle_critical_points(tetrahedral_tensor(1.0), samples=10)

    def test_non_symmetric_input_raises(self):
        # the Newton kernel reads only the j <= k components, so such input would be mis-solved
        for seed in range(20):
            a = np.random.default_rng(seed).normal(size=(3, 3, 3))
            with pytest.raises(ValueError, match="symmetrize"):
                oracle_critical_points(a, samples=2000)
        s = symmetrize(np.random.default_rng(5).normal(size=(3, 3, 3)))
        noise = 1e-12 * np.random.default_rng(6).normal(size=(3, 3, 3))
        for a in (s, s + noise):            # asymmetry below 1e-10 max |a| is rounding
            rep = oracle_critical_points(a, samples=2000)
            assert rep.total == 10 and rep.index_sum == 2
            for q in rep.points:
                grad = 3.0 * np.einsum("ijk,j,k->i", s, q.x, q.x)
                assert np.abs(grad - (grad @ q.x) * q.x).max() < 1e-9
