import numpy as np
import pytest

from octupolar import (
    OrientedParams, c_eigenpairs, best_rank_one, count_bound,
    eval_potential, from_rho_chi_K, incremental_rank_one, real_roots,
    solve_oriented, walcher_coefficients,
)
from octupolar._optim import fibonacci_sphere
from octupolar.separatrix import kappa_function
from test_ceigen_snapshot import PANEL, panel_tensor

rng = np.random.default_rng(99)
PI = np.pi


def residual(t, x, lam):
    a = t.array if hasattr(t, "array") else t
    return float(np.max(np.abs(np.einsum("ijk,jk->i", a, np.outer(x, x)) - lam * x)))


class TestWalcherCoefficients:
    def test_s0_vanishes_on_meridian_plane(self):
        w = walcher_coefficients(OrientedParams(1.2, -PI / 2, 0.8))
        assert abs(w.s_coeffs[0]) < 1e-14

    def test_s6_vanishes_on_background_surface(self):
        rho, chi = 1.2, -1.0
        w = walcher_coefficients(OrientedParams(rho, chi, kappa_function(rho, chi)))
        assert abs(w.s_coeffs[6]) < 1e-13 * np.max(np.abs(w.s_coeffs))

    def test_spurious_root_vanishing_at_rim(self):
        w = walcher_coefficients(OrientedParams(2.0, -1.1, 0.8))
        s_minus, s_plus = w.spurious_roots
        scale = np.max(np.abs(w.s_coeffs))
        assert abs(w(s_plus)) < 1e-12 * scale
        assert abs(w(s_minus)) > 1e-3 * scale

    def test_matches_elimination_construction(self):
        # clearing the quotient from the stationarity system reproduces the
        # stored coefficients up to one overall factor
        for _ in range(10):
            rho = rng.uniform(0.1, 2.0)
            chi = rng.uniform(-PI / 2 + 0.05, -PI / 6 - 0.05)
            k = rng.uniform(0.1, 2.5)
            w = walcher_coefficients(OrientedParams(rho, chi, k))
            co, si = np.cos(chi), np.sin(chi)
            s = rng.normal(size=8)
            c2 = rho * si + 2.0 - rho * co * s
            c1 = k * (s * s - 1.0)
            c0 = 0.5 * (rho * si - 1.0) * s * s + rho * co * s - 0.5 * (rho * si + 1.0)
            q = rho * (co * (s * s - 1.0) - 2.0 * s * si)
            r = k * s * (s * s - 3.0)
            lhs = 2.0 * (c2 * r * r + c1 * r * q + c0 * q * q)
            rhs = np.polyval(w.s_coeffs[::-1], s)
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


class TestRealRoots:
    def test_cubic(self):
        got = real_roots([0.0, -3.0, 0.0, 1.0])  # s^3 - 3 s
        assert [m for _, m in got] == [1, 1, 1]
        assert np.allclose([r for r, _ in got], [-np.sqrt(3), 0.0, np.sqrt(3)], atol=1e-12)

    def test_double_root(self):
        got = real_roots([1.0, -2.0, 1.0])  # (s - 1)^2
        assert len(got) == 1
        r, m = got[0]
        assert m == 2 and abs(r - 1.0) < 1e-6

    def test_cusp_polynomial_shape(self):
        # triple zero root plus the two roots of sqrt(rho^2-1) s^2 + s - 2 sqrt(rho^2-1)
        rho = 1.5
        u = np.sqrt(rho ** 2 - 1.0)
        pref = (8.0 / 3.0) * (rho ** 2 - 4.0)
        coeffs = np.array([0.0, 0.0, 0.0, -2.0 * u * pref, pref, u * pref])
        got = real_roots(coeffs)
        mults = sorted(m for _, m in got)
        assert mults == [1, 1, 3]
        zero = [r for r, m in got if m == 3][0]
        assert abs(zero) < 1e-12
        quad = sorted(r for r, m in got if m == 1)
        expect = sorted(np.roots([u, 1.0, -2.0 * u]))
        assert np.allclose(quad, expect, atol=1e-10)

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            real_roots([0.0, 0.0])

    def test_zero_root_merges_with_tiny_real(self):
        # s^2 (s - 5e-7): the trimmed double zero absorbs the nearby real root
        assert real_roots([0.0, 0.0, -5e-7, 1.0]) == [(5e-7 / 3, 3)]

    def test_negative_real_inside_zero_cluster(self):
        c = np.polynomial.polynomial.polyfromroots([0.0, 0.0, -4e-7, 1.0])
        (r0, m0), (r1, m1) = real_roots(c)
        assert (m0, m1) == (3, 1)
        assert r0 == pytest.approx(-4e-7 / 3, rel=1e-9)
        assert r1 == pytest.approx(1.0, rel=1e-12)

    def test_two_clusters_at_k_star_radius(self):
        # a conjugate pair at -2 and the zero cluster stay apart with cluster=1e-9
        c = np.polynomial.polynomial.polyfromroots([0.0, 0.0, 3e-10, -2.0, -2.0, 5.0])
        got = real_roots(c, cluster=1e-9)
        assert [m for _, m in got] == [2, 3, 1]
        assert [r for r, _ in got] == pytest.approx([-2.0, 1e-10, 5.0], rel=1e-9)
        # at the default radius the split near-double root at 2 merges too
        c = np.polynomial.polynomial.polyfromroots([0.0, 0.0, -3e-10, 2.0, 2.0])
        assert [m for _, m in real_roots(c, cluster=1e-9)] == [3, 1, 1]
        assert [m for _, m in real_roots(c)] == [3, 2]


class TestSolveOriented:
    def test_axis_case_counts_and_roots(self):
        k = 0.5
        sol = solve_oriented(OrientedParams(0.0, -PI / 2, k))
        assert len(sol.pairs) == 7
        assert sol.critical_point_total == 14
        ts = sorted(q.x[2] / abs(q.x[1]) for q in sol.pairs
                    if q.branch == "axis-meridian")
        expect = sorted([(k - np.sqrt(k * k + 4)) / 4, (k + np.sqrt(k * k + 4)) / 4])
        got_t = []
        for q in sol.pairs:
            if q.branch == "axis-meridian":
                got_t.append(q.x[2] / q.x[1])
        assert np.allclose(sorted(np.abs(got_t)), sorted(np.abs(expect)), atol=1e-10)
        off = [q for q in sol.pairs if q.branch == "axis-offset"]
        assert len(off) == 4
        for q in off:
            t = q.x[2] / q.x[1]
            assert abs(t * t + k * t * np.sign(1.0) - 1.0) < 1e-9 or \
                abs(t * t - k * t - 1.0) < 1e-9  # antipodal rep may flip the sign of t

    def test_tetrahedral_maxima(self):
        sol = solve_oriented(OrientedParams(0.0, -PI / 2, 1 / np.sqrt(2)))
        assert sol.critical_point_total == 14
        pts = []
        for q in sol.pairs:
            for lam, x in ((q.lam, q.x), (-q.lam, -q.x)):
                if abs(lam - 1.0) < 1e-9:
                    pts.append(x)
        assert len(pts) == 4
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.dot(pts[i], pts[j]) + 1.0 / 3.0) < 1e-8

    def test_disk_pi2_background(self):
        sol = solve_oriented(OrientedParams(1.0, -PI / 2, 0.0))
        assert sol.critical_point_total == 8
        bg = [q for q in sol.pairs if q.branch == "background"]
        assert len(bg) == 2
        for q in bg:
            assert abs(abs(q.x[0]) - np.sqrt(3) / 2) < 1e-12
            assert abs(q.x[2] - 0.5) < 1e-12
            assert abs(q.lam + 1.0) < 1e-12

    def test_every_pair_is_critical(self):
        for _ in range(30):
            p = OrientedParams(rng.uniform(0, 2), rng.uniform(-PI, PI), rng.uniform(-3, 3))
            sol = solve_oriented(p)
            t = from_rho_chi_K(p)
            for q in sol.pairs:
                assert residual(t, q.x, q.lam) <= 1e-9
                assert abs(eval_potential(t, q.x) - q.lam) <= 1e-9
                assert abs(np.linalg.norm(q.x) - 1.0) <= 1e-12

    def test_stored_count_range(self):
        for _ in range(40):
            p = OrientedParams(rng.uniform(0.02, 2), rng.uniform(-PI / 2, -PI / 6),
                               rng.uniform(0.02, 4))
            sol = solve_oriented(p)
            if sol.continuum:
                continue
            assert 4 <= len(sol.pairs) <= count_bound(3, 3)

    def test_large_k_completeness(self):
        for k in (10.0, 40.0):
            for _ in range(5):
                p = OrientedParams(rng.uniform(0.05, 1.95),
                                   rng.uniform(-PI / 2 + 0.02, -PI / 6 - 0.02), k)
                assert len(solve_oriented(p).pairs) == 7

    def test_kappa_crossing_continuous(self):
        rho, chi = 1.2, -1.0
        kap = kappa_function(rho, chi)
        counts = []
        lam_sets = []
        for k in (kap * (1 - 1e-4), kap, kap * (1 + 1e-4)):
            sol = solve_oriented(OrientedParams(rho, chi, k))
            counts.append(sol.critical_point_total)
            lam_sets.append(sorted(q.lam for q in sol.pairs))
        assert counts[0] == counts[1] == counts[2]
        for a, b in zip(lam_sets[0], lam_sets[2]):
            assert abs(a - b) < 1e-2

    def test_background_included_on_surface(self):
        rho, chi = 1.2, -1.0
        sol = solve_oriented(OrientedParams(rho, chi, kappa_function(rho, chi)))
        branches = [q.branch for q in sol.pairs]
        assert "background" in branches
        si = np.sin(chi)
        x1 = np.sqrt(2 * (2 - rho * si) / (5 - 3 * rho * si))
        x3 = np.sqrt((1 - rho * si) / (5 - 3 * rho * si))
        lam = -np.sqrt((1 - rho * si) ** 3 / (5 - 3 * rho * si))
        bg = [q for q in sol.pairs if q.branch == "background"][0]
        assert abs(abs(bg.x[0]) - x1) < 1e-10
        assert abs(bg.x[2] - x3) < 1e-10
        assert abs(bg.lam - lam) < 1e-10

    def test_continuum_points(self):
        sol = solve_oriented(OrientedParams(0.0, -PI / 2, 0.0))
        assert sol.continuum
        assert len(sol.pairs) == 1  # poles only
        sol2 = solve_oriented(OrientedParams(2.0, -PI / 6, 1.0))
        assert sol2.continuum
        lams = sorted(abs(q.lam) for q in sol2.pairs)
        assert any(abs(l - np.sqrt(5)) < 1e-9 for l in lams)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            solve_oriented(OrientedParams(2.3, -PI / 2, 0.0))

    def test_report_shape(self):
        rep = solve_oriented(OrientedParams(0.5, -PI / 3, 0.1)).to_report()
        assert set(rep) == {"params", "pairs", "critical_point_total", "continuum"}
        assert rep["params"]["rho"] == 0.5
        for entry in rep["pairs"]:
            assert set(entry) == {"lambda", "x", "branch", "multiplicity"}


class TestCountBound:
    def test_values(self):
        assert count_bound(3, 3) == 7
        assert count_bound(3, 2) == 3
        assert count_bound(4, 3) == 13

    def test_rejects_low_rank(self):
        with pytest.raises(ValueError):
            count_bound(2, 3)


def random_rotation():
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


class TestCurie:
    def test_rank_one_fixed_point(self):
        x0 = random_rotation()[:, 0]
        y0 = random_rotation()[:, 1]
        a = 2.0 * np.einsum("i,j,k->ijk", x0, y0, y0)
        triples = c_eigenpairs(a, starts=32)
        top = triples[0]
        assert abs(top.lam - 2.0) < 1e-10
        assert min(np.linalg.norm(top.x - x0), np.linalg.norm(top.x + x0)) < 1e-8

    def test_orthogonally_decomposable_two_terms(self):
        u, v = random_rotation(), random_rotation()
        a = 3.0 * np.einsum("i,j,k->ijk", u[:, 0], v[:, 0], v[:, 0]) \
            + 1.0 * np.einsum("i,j,k->ijk", u[:, 1], v[:, 1], v[:, 1])
        lam, x, y = best_rank_one(a)
        assert abs(lam - 3.0) < 1e-8
        assert min(np.linalg.norm(x - u[:, 0]), np.linalg.norm(x + u[:, 0])) < 1e-8
        assert min(np.linalg.norm(y - v[:, 0]), np.linalg.norm(y + v[:, 0])) < 1e-8

    def test_class_count_bounded(self):
        for k in range(5 + PANEL):
            a = rng.normal(size=(3, 3, 3)) if k < 5 else panel_tensor(k - 5)
            a = 0.5 * (a + np.transpose(a, (0, 2, 1)))
            triples = c_eigenpairs(a, starts=64)
            assert len(triples) <= count_bound(4, 3)
            norm_a = np.sqrt(np.einsum("ijk,ijk->", a, a))
            for t in triples:
                r1 = np.max(np.abs(np.einsum("ijk,j,k->i", a, t.y, t.y) - t.lam * t.x))
                r2 = np.max(np.abs(np.einsum("i,ijk,j->k", t.x, a, t.y) - t.lam * t.y))
                assert max(r1, r2) <= 1e-8 * max(1.0, norm_a)

    @pytest.mark.parametrize("i", range(PANEL))
    def test_best_rank_one_is_the_dense_maximum(self, i):
        # the best lam is the maximum over unit x, y of x . A[y (x) y], that is of |A : y (x) y|
        a = panel_tensor(i)
        y = fibonacci_sphere(20_000)
        dense = np.max(np.linalg.norm(np.einsum("ijk,nj,nk->ni", a, y, y), axis=1))
        assert best_rank_one(a)[0] >= (1.0 - 1e-9) * dense

    @pytest.mark.parametrize("i", [1, 11, 17, 21])
    def test_incremental_rank_one_completes_on_stalling_panel_tensors(self, i):
        terms, residuals = incremental_rank_one(panel_tensor(i))
        assert len(terms) == len(residuals) >= 1

    def test_symmetry_violation_rejected(self):
        with pytest.raises(ValueError):
            c_eigenpairs(rng.normal(size=(3, 3, 3)))

    def test_bad_starts_rejected(self):
        a = np.zeros((3, 3, 3))
        with pytest.raises(ValueError):
            c_eigenpairs(a, starts=0)

    def test_seeds_are_shared_and_read_only(self):
        # the oracle and c_eigenpairs reuse one seed array per size; c_eigenpairs
        # writes into its own copy, so repeated calls see the same seeds
        y = fibonacci_sphere(64)
        assert fibonacci_sphere(64) is y
        assert not y.flags.writeable
        a = panel_tensor(3)
        first, second = c_eigenpairs(a), c_eigenpairs(a)
        assert len(first) == len(second) > 0
        for u, v in zip(first, second):
            assert u.lam == v.lam and np.array_equal(u.x, v.x) and np.array_equal(u.y, v.y)


class TestRankOne:
    def test_three_term_recovery_in_order(self):
        u, v = random_rotation(), random_rotation()
        lams = (5.0, 2.0, 1.0)
        a = sum(l * np.einsum("i,j,k->ijk", u[:, i], v[:, i], v[:, i])
                for i, l in enumerate(lams))
        terms, residuals = incremental_rank_one(a, max_terms=5)
        assert len(terms) == 3
        for (lam, x, y), l0, i in zip(terms, lams, range(3)):
            assert abs(lam - l0) < 1e-8
            assert min(np.linalg.norm(x - u[:, i]), np.linalg.norm(x + u[:, i])) < 1e-8
            assert min(np.linalg.norm(y - v[:, i]), np.linalg.norm(y + v[:, i])) < 1e-8
        assert residuals[-1] < 1e-9

    def test_rank_one_single_step(self):
        x0, y0 = random_rotation()[:, 2], random_rotation()[:, 0]
        a = 1.3 * np.einsum("i,j,k->ijk", x0, y0, y0)
        terms, residuals = incremental_rank_one(a)
        assert len(terms) == 1
        assert residuals[0] < 1e-10

    def test_residuals_non_increasing(self):
        a = rng.normal(size=(3, 3, 3))
        a = 0.5 * (a + np.transpose(a, (0, 2, 1)))
        _, residuals = incremental_rank_one(a, max_terms=6)
        norm0 = np.sqrt(np.einsum("ijk,ijk->", a, a))
        seq = [norm0] + residuals
        for r0, r1 in zip(seq, seq[1:]):
            assert r1 <= r0 + 1e-12
