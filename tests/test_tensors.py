import numpy as np
import pytest

from octupolar import (
    OctupolarTensor, SymTensor3, Tensor3, YoungDiagram,
    detrace_symmetric, eval_potential, from_multipoles, harmonic_decompose,
    symmetry_decompose, tetrahedral_tensor, young_dimensions,
)
from octupolar.tensors import symmetrize

rng = np.random.default_rng(20240811)


def random_tensor():
    return rng.normal(size=(3, 3, 3))


class TestSymmetryDecompose:
    def test_fully_symmetric_input_passes_through(self):
        a = symmetrize(random_tensor())
        d = symmetry_decompose(a)
        assert np.allclose(d.a1.array, a, atol=1e-14)
        for part in (d.a21, d.a22, d.a3):
            assert np.max(np.abs(part.array)) < 1e-14

    def test_couple_stress_input_has_no_symmetric_part(self):
        a = random_tensor()
        a = 0.5 * (a - np.transpose(a, (1, 0, 2)))  # A_ijk = -A_jik
        d = symmetry_decompose(a)
        assert np.max(np.abs(d.a1.array)) < 1e-14
        assert np.allclose(d.a21.array + d.a22.array + d.a3.array, a, atol=1e-13)

    def test_channel_dimensions(self):
        # dimensions of freedom of each part: 10, 8, 8, 1
        basis = np.eye(27)
        mats = {k: [] for k in ("a1", "a21", "a22", "a3")}
        for col in basis:
            d = symmetry_decompose(col.reshape(3, 3, 3))
            for k in mats:
                mats[k].append(getattr(d, k).flat)
        dims = {k: np.linalg.matrix_rank(np.array(v), tol=1e-10) for k, v in mats.items()}
        assert dims == {"a1": 10, "a21": 8, "a22": 8, "a3": 1}

    def test_round_trip_1000(self):
        for _ in range(1000):
            a = random_tensor()
            d = symmetry_decompose(a)
            assert np.max(np.abs(d.reassemble() - a)) < 1e-12

    def test_mixed_symmetries(self):
        a = random_tensor()
        d = symmetry_decompose(a)
        a21, a22 = d.a21.array, d.a22.array
        assert np.allclose(a21, np.transpose(a21, (1, 0, 2)), atol=1e-13)
        assert np.allclose(a22, np.transpose(a22, (2, 1, 0)), atol=1e-13)
        a3 = d.a3.array
        assert np.allclose(a3, -np.transpose(a3, (1, 0, 2)), atol=1e-13)

    def test_piezo_symmetry_split(self):
        a = random_tensor()
        a = 0.5 * (a + np.transpose(a, (0, 2, 1)))  # A_ijk = A_ikj
        d = symmetry_decompose(a)
        assert np.max(np.abs(d.a3.array)) < 1e-13
        pair = d.a21.array + d.a22.array
        assert np.allclose(pair, np.transpose(pair, (0, 2, 1)), atol=1e-13)


class TestHarmonicDecompose:
    def test_reconstruction_1000(self):
        for _ in range(1000):
            a = random_tensor()
            h = harmonic_decompose(a)
            assert np.max(np.abs(h.reassemble() - a)) < 1e-12

    def test_last_two_index_symmetry(self):
        a = random_tensor()
        a = 0.5 * (a + np.transpose(a, (0, 2, 1)))
        h = harmonic_decompose(a)
        assert abs(h.a_scalar) < 1e-13
        assert np.allclose(h.v2, h.v3, atol=1e-13)
        assert np.max(np.abs(h.d2)) < 1e-12

    def test_fully_symmetric(self):
        a = symmetrize(random_tensor())
        h = harmonic_decompose(a)
        assert np.max(np.abs(h.d1)) < 1e-12
        assert np.max(np.abs(h.d2)) < 1e-12
        assert np.allclose(h.v1, h.v2, atol=1e-13)
        assert np.allclose(h.v1, h.v3, atol=1e-13)
        # reconstruction collapses to the detracer identity
        eye = np.eye(3)
        v = h.v1
        rebuilt = h.d3.array + (np.einsum("i,jk->ijk", v, eye)
                                + np.einsum("j,ik->ijk", v, eye)
                                + np.einsum("k,ij->ijk", v, eye)) / 5.0
        assert np.allclose(rebuilt, a, atol=1e-12)

    def test_octupolar_input_is_pure_d3(self):
        t = OctupolarTensor(alpha0=0.4, alpha1=-0.1, alpha2=0.7, alpha3=1.0,
                            beta1=0.2, beta2=-0.5, beta3=0.3)
        h = harmonic_decompose(t.array)
        parts = h.parts()
        for p in parts[:-1]:
            assert np.max(np.abs(p)) < 1e-12
        assert np.allclose(parts[-1], t.array, atol=1e-12)

    def test_deviators_symmetric_traceless(self):
        h = harmonic_decompose(random_tensor())
        for d in (h.d1, h.d2):
            assert np.allclose(d, d.T, atol=1e-13)
            assert abs(np.trace(d)) < 1e-13
        assert np.max(np.abs(np.einsum("iik->k", h.d3.array))) < 1e-12


class TestDetrace:
    def test_traceless_passthrough(self):
        t = OctupolarTensor(alpha0=0.3, alpha2=0.5, alpha3=1.0, beta3=-0.2)
        irr, v = detrace_symmetric(t.to_sym())
        assert np.max(np.abs(v)) < 1e-13
        assert np.allclose(irr.array, t.array, atol=1e-13)

    def test_pure_trace_part(self):
        eye = np.eye(3)
        v = np.array([1.0, 0.0, 0.0])
        a = (np.einsum("i,jk->ijk", v, eye) + np.einsum("j,ik->ijk", v, eye)
             + np.einsum("k,ij->ijk", v, eye)) / 5.0
        irr, vec = detrace_symmetric(SymTensor3.from_array(a))
        assert np.max(np.abs(irr.array)) < 1e-13
        assert np.allclose(vec, v, atol=1e-13)

    def test_partial_traces_vanish(self):
        for _ in range(25):
            a = symmetrize(random_tensor())
            irr, v = detrace_symmetric(SymTensor3.from_array(a))
            assert np.max(np.abs(np.einsum("iik->k", irr.array))) < 1e-12
            eye = np.eye(3)
            rebuilt = irr.array + (np.einsum("i,jk->ijk", v, eye)
                                   + np.einsum("j,ik->ijk", v, eye)
                                   + np.einsum("k,ij->ijk", v, eye)) / 5.0
            assert np.allclose(rebuilt, a, atol=1e-12)


class TestYoungDimensions:
    def test_row_three(self):
        assert young_dimensions(YoungDiagram((3,)), 3) == (1, 10)

    def test_column_three(self):
        assert young_dimensions(YoungDiagram((1, 1, 1)), 3) == (1, 1)

    def test_hook_shape(self):
        assert young_dimensions(YoungDiagram((2, 1)), 3) == (2, 8)

    def test_rejects_bad_diagrams(self):
        with pytest.raises(ValueError):
            YoungDiagram(())
        with pytest.raises(ValueError):
            YoungDiagram((1, 2))
        with pytest.raises(ValueError):
            YoungDiagram((2, 0))


class TestMultipoles:
    def test_aligned_triple(self):
        e3 = np.array([0.0, 0.0, 1.0])
        t = from_multipoles(e3, e3, e3, 2.5)
        for _ in range(20):
            x = rng.normal(size=3)
            expect = x[2] ** 3 - 1.5 * (x[0] ** 2 + x[1] ** 2) * x[2]
            assert abs(eval_potential(t, x) - expect) < 1e-12 * max(1, abs(expect))
        assert abs(eval_potential(t, e3) - 1.0) < 1e-13

    def test_orthogonal_triple(self):
        e = np.eye(3)
        t = from_multipoles(e[0], e[1], e[2], 3.0 * np.sqrt(3.0))
        x = np.ones(3) / np.sqrt(3.0)
        assert abs(eval_potential(t, x) - 1.0) < 1e-12
        for _ in range(20):
            y = rng.normal(size=3)
            assert abs(eval_potential(t, y) - 3 * np.sqrt(3) * y.prod()) < 1e-12 * max(1, abs(y.prod()))
        # 1 is the global maximum on the sphere
        from octupolar._optim import fibonacci_sphere
        pts = fibonacci_sphere(20000)
        assert np.max(eval_potential(t.array, pts)) <= 1.0 + 1e-9

    def test_even_sign_flips_identical(self):
        a1, a2, a3 = (v / np.linalg.norm(v) for v in rng.normal(size=(3, 3)))
        t = from_multipoles(a1, a2, a3, 1.7)
        t2 = from_multipoles(-a1, -a2, a3, 1.7)
        assert np.allclose(t.array, t2.array, atol=1e-14)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            from_multipoles([1, 0, 0], [0, 1.0 + 1e-6, 0], [0, 0, 1], 1.0)

    def test_invariant_count(self):
        # a triple of unit vectors plus the amplitude carries 3 pairwise
        # products and one scale: four independent isotropic invariants
        r = 3
        assert r * (r - 1) // 2 + 1 == 4


class TestTetrahedral:
    def test_reference_scale(self):
        t = tetrahedral_tensor(-9.0 / 8.0)
        for _ in range(20):
            x = rng.normal(size=3)
            assert abs(eval_potential(t, x) - 3 * np.sqrt(3) * x.prod()) < 1e-12 * max(1, abs(3 * x.prod()))

    def test_traceless_any_scale(self):
        for s in (-2.0, 0.7, 13.0):
            t = tetrahedral_tensor(s)
            assert np.max(np.abs(np.einsum("iik->k", t.array))) < 1e-12

    def test_zero_scale(self):
        assert np.max(np.abs(tetrahedral_tensor(0.0).array)) == 0.0


class TestPotentialSymmetricPart:
    def test_potential_sees_only_a1(self):
        for _ in range(10):
            a = random_tensor()
            d = symmetry_decompose(a)
            xs = rng.normal(size=(100, 3))
            va = eval_potential(a, xs)
            vs = eval_potential(d.a1.array, xs)
            assert np.max(np.abs(va - vs)) < 1e-12 * max(1.0, np.max(np.abs(va)))


class TestJson:
    def test_tensor3_round_trip(self):
        t = Tensor3(random_tensor(), frame_label="lab")
        obj = t.to_json()
        assert obj["layout"] == "i9j3k"
        assert len(obj["components"]) == 27
        t2 = Tensor3.from_json(obj)
        assert np.allclose(t.array, t2.array)

    def test_octupolar_round_trip(self):
        t = OctupolarTensor(alpha0=0.1, alpha1=0.2, alpha2=0.3, alpha3=0.4,
                            beta1=0.5, beta2=0.6, beta3=0.7)
        obj = t.to_json()
        assert set(obj) == {"alpha0", "alpha", "beta"}
        t2 = OctupolarTensor.from_json(obj)
        assert np.allclose(t.array, t2.array)

    def test_bad_layout_rejected(self):
        with pytest.raises(ValueError):
            Tensor3.from_json({"components": [0.0] * 27, "layout": "k3j9i"})

    def test_nonfinite_rejected(self):
        bad = np.zeros(27)
        bad[5] = np.nan
        with pytest.raises(ValueError):
            Tensor3(bad)
