import numpy as np
import pytest

from octupolar import (
    OctupolarTensor, OrientedParams, SphereGrid,
    eval_potential, from_rho_chi_K, gradient, orient, params_from_tensor,
    sample_grid, tetrahedral_tensor,
)
from octupolar.potential import (
    MIRROR, apply_rotation, grid_csv_text, rotation_z, write_grid_csv,
)

rng = np.random.default_rng(7)
PI = np.pi


def random_sector_params(pole_global=False):
    while True:
        p = OrientedParams(rng.uniform(0.05, 1.95),
                           rng.uniform(-PI / 2 + 0.05, -PI / 6 - 0.05),
                           rng.uniform(0.05, 2.0))
        if not pole_global:
            return p
        from octupolar import solve_oriented
        if max(abs(q.lam) for q in solve_oriented(p).pairs) <= 1.0 + 1e-9:
            return p


class TestEvalPotential:
    def test_oriented_normalization(self):
        for _ in range(10):
            p = random_sector_params()
            t = from_rho_chi_K(p)
            assert abs(eval_potential(t, [0, 0, 1]) - 1.0) < 1e-14
            assert abs(eval_potential(t, [1, 0, 0])) < 1e-14

    def test_tetrahedral_diagonal(self):
        t = tetrahedral_tensor(-9.0 / 8.0)
        x = np.ones(3) / np.sqrt(3)
        assert abs(eval_potential(t, x) - 1.0) < 1e-12

    def test_homogeneity(self):
        for _ in range(50):
            t = from_rho_chi_K(random_sector_params())
            x = rng.normal(size=3)
            c = rng.uniform(0.1, 4.0)
            v1 = eval_potential(t, c * x)
            v2 = c ** 3 * eval_potential(t, x)
            assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v2))


class TestGradient:
    def test_zero_at_origin(self):
        t = from_rho_chi_K(random_sector_params())
        assert np.max(np.abs(gradient(t, np.zeros(3)))) == 0.0

    def test_pole_eigendirection(self):
        t = from_rho_chi_K(OrientedParams(0.0, -PI / 2, 0.5))
        g = gradient(t, [0.0, 0.0, 1.0])
        assert np.allclose(g, [0, 0, 3], atol=1e-14)

    def test_finite_difference(self):
        h = 1e-5
        for _ in range(20):
            t = from_rho_chi_K(random_sector_params())
            x = rng.normal(size=3)
            g = gradient(t, x)
            fd = np.zeros(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd[i] = (eval_potential(t, x + e) - eval_potential(t, x - e)) / (2 * h)
            assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, np.max(np.abs(g)))

    def test_euler_identity(self):
        for _ in range(50):
            t = from_rho_chi_K(random_sector_params())
            x = rng.normal(size=3)
            lhs = float(np.dot(x, gradient(t, x)))
            rhs = 3.0 * eval_potential(t, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestParametrization:
    def test_axis_half(self):
        t = from_rho_chi_K(OrientedParams(0.0, 0.3, 0.5))
        assert t.alpha0 == 0.0
        assert t.alpha2 == 0.5
        assert t.beta3 == -0.5
        assert t.alpha3 == 1.0
        assert t.alpha1 == t.beta1 == t.beta2 == 0.0

    def test_tetrahedral_point(self):
        t = from_rho_chi_K(OrientedParams(0.0, -PI / 2, 1 / np.sqrt(2)))
        ref = OctupolarTensor(alpha2=1 / np.sqrt(2), alpha3=1.0, beta3=-0.5)
        assert np.allclose(t.array, ref.array, atol=1e-15)

    def test_rim_point(self):
        t = from_rho_chi_K(OrientedParams(2.0, -PI / 2, 0.0))
        assert abs(t.beta3 + 1.5) < 1e-15
        assert abs(t.alpha0) < 1e-15

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            OrientedParams(2.5, -PI / 2, 0.0)
        with pytest.raises(ValueError):
            OrientedParams(-0.1, -PI / 2, 0.0)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf, np.float64(np.nan)):
            for args in ((bad, -1.0, 0.5), (1.0, bad, 0.5), (1.0, -1.0, bad)):
                with pytest.raises(ValueError, match="parameters must be finite"):
                    OrientedParams(*args)
        p = OrientedParams(np.float64(1.0), np.array(-1.0), 2)
        assert p.as_tuple() == (1.0, -1.0, 2)

    def test_inverse_map(self):
        p = random_sector_params()
        q = params_from_tensor(from_rho_chi_K(p))
        assert abs(q.rho - p.rho) < 1e-12
        assert abs(q.chi - p.chi) < 1e-12
        assert abs(q.bigk - p.bigk) < 1e-12


class TestMirrorCovariance:
    def test_mirror_matches_parameter_map(self):
        for _ in range(20):
            rho = rng.uniform(0, 2)
            chi = rng.uniform(-PI, PI)
            k = rng.uniform(-2, 2)
            lhs = apply_rotation(MIRROR, from_rho_chi_K(OrientedParams(rho, chi, k)).array)
            chi2 = (-chi - PI / 3 + PI) % (2 * PI) - PI
            rhs = from_rho_chi_K(OrientedParams(rho, chi2, k)).array
            assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_fixed_point(self):
        p = OrientedParams(0.8, -PI / 6, 0.4)
        lhs = apply_rotation(MIRROR, from_rho_chi_K(p).array)
        assert np.allclose(lhs, from_rho_chi_K(p).array, atol=1e-13)

    def test_z_rotation_covariance(self):
        for m in (1, 2, 3):
            rho, chi, k = 0.9, -0.35, 0.7
            lhs = apply_rotation(rotation_z(m * PI / 3),
                                 from_rho_chi_K(OrientedParams(rho, chi, k)).array)
            chi2 = (chi - 2 * PI * m / 3 + PI) % (2 * PI) - PI
            rhs = from_rho_chi_K(OrientedParams(rho, chi2, (-1) ** m * k)).array
            assert np.max(np.abs(lhs - rhs)) < 1e-13


class TestOrient:
    def test_tetra_coefficients(self):
        t = OctupolarTensor(alpha2=1 / np.sqrt(2), alpha3=1.0, beta3=-0.5)
        o = orient(t)
        assert o.params.rho < 1e-8
        assert abs(o.params.bigk - 1 / np.sqrt(2)) < 1e-9

    def test_params_are_python_floats(self):
        o = orient(from_rho_chi_K(OrientedParams(0.6, -1.2, 0.35)))
        assert type(o.params.bigk) is float
        assert "np.float64" not in str(o.params)

    def test_idempotent(self):
        """An oriented tensor orients to itself; on the disk K = 0, whose chi
        a rotation about the pole moves, to its canonical chi = -pi/2."""
        for bigk, chi in ((0.0, -PI / 2), (0.2, -PI / 3)):
            t = from_rho_chi_K(OrientedParams(0.5, -PI / 3, bigk))
            o = orient(t)
            assert abs(o.params.rho - 0.5) < 1e-9
            assert abs(o.params.chi - chi) < 1e-9
            assert abs(o.params.bigk - bigk) < 1e-9
            assert not o.mirrored
            assert np.allclose(o.rotation @ o.rotation.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(o.rotation) - 1.0) < 1e-12
            assert np.max(np.abs(o.undo().array - t.array)) < 1e-9

    def test_sector_shift(self):
        for bigk, chi in ((0.0, -PI / 2), (0.2, -PI / 3)):
            # a shift by 2 pi/3 is a rotation by pi/3 about x3, which also flips K
            t = from_rho_chi_K(OrientedParams(0.5, -PI / 3 + 2 * PI / 3, -bigk))
            o = orient(t)
            assert abs(o.params.rho - 0.5) < 1e-9
            assert abs(o.params.chi - chi) < 1e-9
            assert abs(o.params.bigk - bigk) < 1e-9
            assert abs(np.linalg.det(o.rotation) - 1.0) < 1e-12
            assert np.max(np.abs(o.undo().array - t.array)) < 1e-9

    def test_random_rotations_recovered(self):
        for _ in range(6):
            p = random_sector_params(pole_global=True)
            base = from_rho_chi_K(p)
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            w, x, y, z = q
            r = np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
            scl = rng.uniform(0.2, 5.0)
            t = OctupolarTensor.from_array(scl * apply_rotation(r, base.array))
            o = orient(t)
            assert abs(o.params.rho - p.rho) < 1e-7
            assert abs(o.params.chi - p.chi) < 1e-7
            assert abs(o.params.bigk - p.bigk) < 1e-7
            assert np.max(np.abs(o.undo().array - t.array)) < 1e-9
            assert abs(np.linalg.det(o.rotation) - 1.0) < 1e-10

    def test_mirror_image_needs_mirror_flag(self):
        p = OrientedParams(0.5, -PI / 3, 0.2)
        t = from_rho_chi_K(p)
        tm = OctupolarTensor.from_array(apply_rotation(MIRROR, t.array))
        o = orient(tm)
        assert o.mirrored
        assert abs(o.params.rho - 0.5) < 1e-8
        assert abs(o.params.chi + PI / 3) < 1e-8
        assert abs(o.params.bigk - 0.2) < 1e-8
        assert np.max(np.abs(o.undo().array - tm.array)) < 1e-9

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            orient(OctupolarTensor())

    def test_continuum_flagged(self):
        o = orient(from_rho_chi_K(OrientedParams(0.0, -PI / 2, 0.0)))
        assert o.continuum
        o2 = orient(from_rho_chi_K(OrientedParams(2.0, -PI / 6, 1.0)))
        assert o2.continuum
        assert abs(o2.scale - 5 ** -0.5) < 1e-8

    def test_no_dense_search(self, monkeypatch):
        from octupolar import _optim

        def refuse(*args, **kwargs):
            raise AssertionError("orient must not run the dense search")

        monkeypatch.setattr(_optim, "find_critical_classes", refuse)
        p = OrientedParams(0.5, -PI / 3, 0.2)
        t = OctupolarTensor.from_array(2.5 * apply_rotation(rotation_z(0.4), from_rho_chi_K(p).array))
        o = orient(t)
        assert np.max(np.abs(np.array(o.params.as_tuple()) - p.as_tuple())) < 1e-9
        assert np.max(np.abs(o.undo().array - t.array)) < 1e-9

    def test_pole_not_global_reoriented_to_global_maximum(self):
        from octupolar import solve_oriented
        local = np.random.default_rng(71)
        seen = 0
        while seen < 12:
            p = OrientedParams(local.uniform(0.0, 2.0), local.uniform(-PI, PI), local.uniform(-2.0, 2.0))
            if max(abs(q.lam) for q in solve_oriented(p).pairs) <= 1.0 + 1e-9:
                continue
            seen += 1
            r = np.linalg.qr(local.normal(size=(3, 3)))[0]
            r *= np.sign(np.linalg.det(r))
            t = OctupolarTensor.from_array(local.uniform(0.2, 5.0)
                                           * apply_rotation(r, from_rho_chi_K(p).array))
            o = orient(t)
            assert max(abs(q.lam) for q in solve_oriented(o.params).pairs) <= 1.0 + 1e-9
            assert np.max(np.abs(o.undo().array - t.array)) < 1e-9 * np.max(np.abs(t.array))


class TestSampleGrid:
    def test_two_by_two(self):
        t = from_rho_chi_K(OrientedParams(0.5, -PI / 3, 0.0))
        rows = sample_grid(t, SphereGrid(2, 2))
        assert rows.shape == (4, 6)
        assert np.max(np.abs(np.linalg.norm(rows[:, 2:5], axis=1) - 1.0)) < 1e-12

    def test_pole_row(self):
        t = from_rho_chi_K(OrientedParams(0.5, -PI / 3, 0.0))
        rows = sample_grid(t, SphereGrid(4, 3))
        pole = rows[np.abs(rows[:, 4] - 1.0) < 1e-12]
        assert len(pole) > 0
        assert np.max(np.abs(pole[:, 5] - 1.0)) < 1e-12

    def test_inversion_antisymmetry(self):
        p = OrientedParams(0.7, -0.9, 0.6)
        t = from_rho_chi_K(p)
        rows = sample_grid(t, SphereGrid(8, 5))
        rows_neg = sample_grid(OctupolarTensor.from_array(-t.array), SphereGrid(8, 5))
        assert np.allclose(rows[:, 5], -rows_neg[:, 5], atol=1e-13)

    def test_row_count_and_header(self):
        t = from_rho_chi_K(OrientedParams(0.5, -PI / 3, 0.0))
        rows = sample_grid(t, SphereGrid(181, 91))
        assert rows.shape[0] == 16471
        text = grid_csv_text(rows[:3])
        lines = text.strip().split("\n")
        assert lines[0] == "theta,phi,x1,x2,x3,phi_value"
        assert len(lines) == 4

    def test_chart_modes_stay_on_sphere(self):
        t = from_rho_chi_K(OrientedParams(0.5, -PI / 3, 0.0))
        for mode in ("north", "south", "contour"):
            rows = sample_grid(t, SphereGrid(11, 11), mode=mode)
            assert rows.shape[0] > 0
            assert np.max(np.abs(np.linalg.norm(rows[:, 2:5], axis=1) - 1.0)) < 1e-12

    def test_chart_modes_match_node_loop(self):
        def reference(a, grid, mode):
            rows = []
            for u in np.linspace(-1.0, 1.0, grid.theta_steps):
                for v in np.linspace(-1.0, 1.0, grid.phi_steps):
                    r2 = u * u + v * v
                    if r2 > 1.0:
                        continue
                    h = np.sqrt(1.0 - r2)
                    x = {"north": [u, v, h], "south": [u, v, -h], "contour": [u, h, v]}[mode]
                    x = np.array(x)
                    rows.append((np.arctan2(x[1], x[0]), np.arcsin(np.clip(x[2], -1, 1)),
                                 *x, eval_potential(a, x)))
            return np.array(rows).reshape(-1, 6)

        tensors = [from_rho_chi_K(OrientedParams(0.5, -PI / 3, 0.0)), tetrahedral_tensor(1.0),
                   from_rho_chi_K(OrientedParams(1.7, -1.2, 0.9))]
        for t in tensors:
            for grid in (SphereGrid(11, 11), SphereGrid(7, 4), SphereGrid(2, 2)):
                for mode in ("north", "south", "contour"):
                    got = sample_grid(t, grid, mode=mode)
                    assert np.array_equal(got, reference(t.array, grid, mode)), (grid, mode)

    def test_write_grid_csv_to_path(self, tmp_path):
        t = from_rho_chi_K(OrientedParams(0.5, -PI / 3, 0.0))
        rows = sample_grid(t, SphereGrid(4, 3))
        out = tmp_path / "grid.csv"
        write_grid_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,phi,x1,x2,x3,phi_value"
        back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(back, rows)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            SphereGrid(1, 5)
