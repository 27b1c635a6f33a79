import numpy as np
import pytest

from octupolar import (
    OrientedParams, boundary_functions, cusp_location, full_topology,
    k_star, region_scan,
)
from octupolar.separatrix import (
    _bisect_transition, _kstar_tables, _near_pi2_candidate, f_function, g_function,
    h_function, kappa_function, scan_csv_lines, separatrix_csv_lines,
)
from octupolar._optim import _solve_stack
from octupolar.eigen import walcher_split

rng = np.random.default_rng(17)
PI = np.pi


class TestBoundaryFunctions:
    def test_g_zeros(self):
        assert g_function(0.0) == 0.0
        assert abs(g_function(1.0)) < 1e-15
        assert abs(g_function(2.0)) < 1e-15

    def test_g_midpoint(self):
        assert abs(g_function(1.5) - 1 / np.sqrt(2)) < 1e-15

    def test_kappa_vanishes_on_meridian_plane(self):
        for rho in (0.3, 1.0, 1.7):
            assert abs(kappa_function(rho, -PI / 2)) < 1e-15

    def test_h_endpoint(self):
        assert abs(h_function(2.0) - 1.0) < 1e-15
        assert h_function(0.8) is None

    def test_f_value(self):
        assert abs(f_function(1.0) - np.sqrt(4.0 / 21.0)) < 1e-15

    def test_bundle(self):
        be = boundary_functions(1.5, -1.0)
        assert be.g == g_function(1.5)
        assert be.f == f_function(1.5)
        assert be.kappa == kappa_function(1.5, -1.0)
        assert be.h == h_function(1.5)
        with pytest.raises(ValueError):
            boundary_functions(2.5, -1.0)


class TestKStar:
    def test_plane_continuity(self):
        for rho in (0.5, 1.5):
            ks = k_star(rho, -PI / 2 + 1e-7)
            assert abs(ks.k - g_function(rho)) < 1e-5

    def test_cusp_location_two_angles(self):
        for chi in (-PI / 3, -2 * PI / 5):
            rho_c, k_c = cusp_location(chi)
            rho_exact = -1.0 / np.sin(chi)
            k_exact = np.sqrt((rho_exact ** 2 - 1.0) / 3.0)
            assert abs(rho_c - rho_exact) < 1e-4
            assert abs(k_c - k_exact) < 1e-4

    def test_cusp_value_at_pi3(self):
        # chi = -pi/3 puts the cusp at rho = 2/sqrt(3) with K = 1/3
        ks = k_star(2.0 / np.sqrt(3.0), -PI / 3)
        assert abs(ks.k - 1.0 / 3.0) < 1e-6

    def test_branch_tags_flip_at_cusp(self):
        chi = -PI / 3
        rho_c = -1.0 / np.sin(chi)
        assert k_star(rho_c - 0.05, chi).branch == "left"
        assert k_star(rho_c + 0.05, chi).branch == "right"
        assert k_star(rho_c - 0.05, chi).s_star < 0 < k_star(rho_c + 0.05, chi).s_star

    def test_continuous_across_cusp(self):
        chi = -PI / 3
        rho_c = -1.0 / np.sin(chi)
        vals = [k_star(rho_c + d, chi).k for d in (-1e-4, 0.0, 1e-4)]
        assert abs(vals[0] - vals[1]) < 5e-3
        assert abs(vals[2] - vals[1]) < 5e-3

    def test_near_cusp_power_law(self):
        # the vault leaves its cusp with a two-thirds power of the offset;
        # check the constant term and the exponent on both branches
        chi = -PI / 3
        rho_c = -1.0 / np.sin(chi)
        k_c = np.sqrt((rho_c ** 2 - 1.0) / 3.0)
        assert abs(k_star(rho_c, chi).k - k_c) < 1e-6
        for sign in (1.0, -1.0):
            d1 = k_star(rho_c + sign * 1e-3, chi).k - k_c
            d2 = k_star(rho_c + sign * 1e-4, chi).k - k_c
            assert d1 > 0 and d2 > 0
            ratio = d1 / d2
            assert abs(ratio - 10.0 ** (2.0 / 3.0)) < 1.2  # 4.64 up to the next order

    def test_domain(self):
        with pytest.raises(ValueError):
            k_star(0.0, -PI / 3)
        with pytest.raises(ValueError):
            k_star(1.0, -PI / 2)

    def test_singular_step_fails_alone(self):
        # a stack with singular systems solves the others as np.linalg.solve does one at a time
        jac = rng.normal(size=(7, 2, 2))
        jac[[1, 4, 5], :, 0] = 0.0
        rhs = rng.normal(size=(7, 2))
        step, singular = _solve_stack(jac, rhs)
        assert singular.tolist() == [False, True, False, False, True, True, False]
        for j, r, got in zip(jac[~singular], rhs[~singular], step[~singular]):
            assert np.array_equal(got, np.linalg.solve(j, r))
        # the same helper serves the complex 4x4 bordered Newton
        jac = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        jac[3, 2] = 0.0
        rhs = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        step, singular = _solve_stack(jac, rhs)
        assert singular.tolist() == [False, False, False, True, False] and not step[3].any()
        for j, r, got in zip(jac[~singular], rhs[~singular], step[~singular]):
            assert np.array_equal(got, np.linalg.solve(j, r))

    @pytest.mark.parametrize("tier", [_near_pi2_candidate, _bisect_transition])
    def test_fallback_tier_rows_as_alone(self, tier):
        # a stack mixing rows the tier answers with rows it cannot, among them
        # rho = 2 at chi = -1, whose real-root count never drops: every row
        # gets what it gets alone, bit for bit
        cases = [(0.3, -PI / 2 + 1e-4), (1.5, -PI / 2 + 1e-4), (2.0, -1.0), (0.5, -1.0),
                 (1.0, -PI / 6 - 1e-5), (1.8, -PI / 2 + 1e-6), (2.0, -PI / 2 + 1e-4)]
        table = np.concatenate([_kstar_tables(np.array([rho]), chi)[0] for rho, chi in cases])
        got = tier(table)
        assert got.shape == (2, len(cases))
        assert np.isnan(got[0, 2]) and np.isnan(got).any() and np.isfinite(got).any()
        for i in range(len(cases)):
            assert np.array_equal(got[:, i], tier(table[i:i + 1])[:, 0], equal_nan=True)
        assert tier(table[:0]).shape == (2, 0)

    def test_cross_checked_consistency(self):
        # the double root satisfies both the polynomial and its derivative
        for _ in range(6):
            rho = rng.uniform(0.2, 1.9)
            chi = rng.uniform(-PI / 2 + 0.05, -PI / 6 - 0.05)
            ks = k_star(rho, chi)
            b, c = walcher_split(rho, chi)
            coeffs = b * ks.k ** 2 + c
            der = np.array([i * coeffs[i] for i in range(1, 7)])
            scale = np.polyval(np.abs(coeffs)[::-1], abs(ks.s_star)) + 1e-300
            dscale = np.polyval(np.abs(der)[::-1], abs(ks.s_star)) + 1e-300
            assert abs(np.polyval(coeffs[::-1], ks.s_star)) < 1e-8 * scale
            assert abs(np.polyval(der[::-1], ks.s_star)) < 1e-8 * dscale


class TestOnSeparatrixTopology:
    def test_interior_vault_twelve_points(self):
        for _ in range(10):
            rho = rng.uniform(0.2, 1.9)
            chi = rng.uniform(-PI / 2 + 0.05, -PI / 6 - 0.05)
            if rho > 1 and abs(chi + np.arcsin(1.0 / rho)) < 5e-2:
                continue  # cusp handled separately
            ks = k_star(rho, chi)
            if ks.k <= 1e-7:
                continue
            rep = full_topology(OrientedParams(rho, chi, ks.k))
            assert rep.total == 12
            assert sum(1 for q in rep.points if q.index == 0) == 2

    def test_cusp_ten_points_no_iota_zero(self):
        chi = -PI / 3
        rho_c = -1.0 / np.sin(chi)
        k_c = np.sqrt((rho_c ** 2 - 1.0) / 3.0)
        rep = full_topology(OrientedParams(rho_c, chi, k_c))
        assert rep.total == 10
        assert sum(1 for q in rep.points if q.index == 0) == 0

    def test_cusp_coefficient_degeneration(self):
        # along the cusp line the reduction polynomial loses its ends
        for rho in (1.2, 1.5, 1.9):
            chi = -np.arcsin(1.0 / rho)
            k = np.sqrt((rho ** 2 - 1.0) / 3.0)
            b, c = walcher_split(rho, chi)
            s = b * k ** 2 + c
            scale = np.max(np.abs(s))
            for i in (0, 1, 2, 6):
                assert abs(s[i]) < 1e-10 * scale
            # the remaining cubic matches the closed form
            pref = (8.0 / 3.0) * (rho ** 2 - 4.0)
            u = np.sqrt(rho ** 2 - 1.0)
            assert abs(s[5] - pref * u) < 1e-9 * scale
            assert abs(s[4] - pref) < 1e-9 * scale
            assert abs(s[3] + 2.0 * pref * u) < 1e-9 * scale

    def test_rim_suppression(self):
        # one root is spurious on the rim: 12 points where 14 would hold
        rep = full_topology(OrientedParams(2.0, -1.1, 1.5))
        assert rep.total == 12


class TestRegionScan:
    def test_meridian_plane_regions(self):
        samples = region_scan(-PI / 2, 10, 2.0, 10)
        assert len(samples) == 100
        for s in samples:
            expect = 14 if s.bigk > g_function(s.rho) else 10
            assert s.count == expect

    def test_pi6_plane_regions(self):
        samples = region_scan(-PI / 6, 8, 1.5, 8)
        for s in samples:
            expect = 14 if s.bigk > f_function(s.rho) else 10
            assert s.count == expect

    def test_on_separatrix_mode(self):
        samples = region_scan(-PI / 2, 8, 2.0, 2, on_separatrix=True)
        for s in samples:
            expect = 12 if 1.0 < s.rho < 2.0 else 10
            assert s.count == expect

    def test_csv_format(self):
        samples = region_scan(-PI / 2, 2, 1.0, 2)
        lines = list(scan_csv_lines(samples))
        assert lines[0] == "rho,chi,K,count"
        assert len(lines) == 5
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_separatrix_csv(self):
        lines = separatrix_csv_lines(-PI / 3, [0.5, 1.5])
        assert lines[0] == "rho,chi,k_star,s_star,branch"
        assert len(lines) == 3
        assert lines[1].split(",")[4] in ("left", "right", "cusp")

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            region_scan(-PI / 2, 1, 1.0, 4)
