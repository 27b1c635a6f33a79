"""The coefficient kernel in `_optim` against einsum references on full (3, 3, 3) arrays.

Every internal evaluation of a symmetric cubic form goes through the 10
coefficients of `_optim._coefficients`: the value A x^3, the residual
max |A x^2 - lam x|, the matrix A f_k in a frame, the tangent-Hessian
eigenvalues and the bordered system of its map x -> A x^2.  Each is
compared here with the einsum it replaced, for one tensor shared by all
rows and for one tensor per row, on traceless and traceful symmetric
tensors, at real and complex points.  The Jacobian of the piezo map
y -> (A : yy) . A y, the other map of the bordered Newton, is checked by
central differences.
"""

import numpy as np
import pytest

from octupolar._optim import (_bordered_system, _coefficients, _frame, _in_frame, _residual,
                              _value, cubic_map, tangent_basis, tangent_hessian)
from octupolar.eigen import _piezo_map
from octupolar.tensors import detrace_symmetric, symmetrize

ROWS = 40
RTOL = 1e-13


def tensors(kind, seed):
    """ROWS symmetric tensors (ROWS, 3, 3, 3): traceless, or with traces."""
    rng = np.random.default_rng(seed)
    out = [symmetrize(rng.normal(size=(3, 3, 3))) for _ in range(ROWS)]
    if kind == "traceless":
        out = [detrace_symmetric(s)[0].array for s in out]
    return np.array(out) * 10.0 ** rng.uniform(-3, 3, size=(ROWS, 1, 1, 1))


def points(field, seed):
    """ROWS points (ROWS, 3): unit real rows, or complex rows with x^T x = 1."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(ROWS, 3))
    if field == "complex":
        x = x + 1j * rng.normal(size=(ROWS, 3))
    return x / np.sqrt((x * x).sum(1))[:, None]


def layouts(a):
    """(per-row tensors (ROWS, 3, 3, 3), coefficients) for one shared tensor and one per row."""
    yield np.broadcast_to(a[0], a.shape), _coefficients(a[0])
    yield a, _coefficients(a)


def close(got, want, scale):
    assert np.all(np.abs(got - want) <= RTOL * scale), np.max(np.abs(got - want) / scale)


CASES = [(kind, field) for kind in ("traceless", "traceful") for field in ("real", "complex")]


@pytest.mark.parametrize("kind, field", CASES)
def test_value_and_residual(kind, field):
    a, x = tensors(kind, 1), points(field, 2)
    lam = np.random.default_rng(3).normal(size=ROWS) * np.abs(a).max(axis=(1, 2, 3))
    for rows, (b, _) in layouts(a):
        scale = np.abs(rows).max(axis=(1, 2, 3)) * (np.abs(x) ** 2).sum(1) ** 1.5
        close(_value(b, x.T), np.einsum("rijk,ri,rj,rk->r", rows, x, x, x), scale)
        res = np.abs(np.einsum("rijk,rj,rk->ri", rows, x, x) - lam[:, None] * x).max(1)
        close(_residual(b, x.T, lam), res, scale + np.abs(lam[:, None] * x).max(1))


@pytest.mark.parametrize("kind, field", CASES)
def test_matrix_in_a_frame(kind, field):
    # any three vectors per row, and the orthonormal frame (x, u, v) at a real unit x
    a = tensors(kind, 4)
    rng = np.random.default_rng(5)
    frames = [rng.normal(size=(3, 3, ROWS)), _frame(points("real", 6).T)]
    if field == "complex":
        frames[0] = frames[0] + 1j * rng.normal(size=(3, 3, ROWS))
    for frame in frames:
        f = frame.transpose(2, 0, 1)                    # (rows, a, i): f_a of each row
        for rows, (_, c) in layouts(a):
            scale = np.abs(rows).max(axis=(1, 2, 3)) * (np.abs(f) ** 2).sum(2).max(1) ** 1.5
            for k in range(3):
                want = np.einsum("rijl,rai,rbj,rl->abr", rows, f, f, f[:, k])
                close(_in_frame(c, frame, k), want, scale)


def test_frame_is_orthonormal_and_starts_at_x():
    x = points("real", 7)
    x[:2] = [[0.0, 0.0, 1.0], [0.0, 0.3, -np.sqrt(0.91)]]      # at and near a pole
    frame = _frame(x.T)
    np.testing.assert_array_equal(frame[0], x.T)
    np.testing.assert_array_equal(frame[1:], np.array(tangent_basis(x.T)))
    gram = np.einsum("aim,bim->mab", frame, frame)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(3), gram.shape), atol=1e-15)


@pytest.mark.parametrize("kind", ["traceless", "traceful"])
def test_tangent_hessian_eigenvalues(kind):
    a, x = tensors(kind, 8), points("real", 9)
    lam = np.random.default_rng(10).normal(size=ROWS) * np.abs(a).max(axis=(1, 2, 3))
    u, v = tangent_basis(x.T)
    basis = np.stack((u.T, v.T), axis=1)                # (rows, 2, 3)
    for rows, (_, c) in layouts(a):
        h = 6.0 * np.einsum("rijk,rk->rij", rows, x) - 3.0 * lam[:, None, None] * np.eye(3)
        want = np.linalg.eigvalsh(basis @ h @ basis.transpose(0, 2, 1))
        eigs, flat, degenerate = tangent_hessian(c, x, lam)
        close(eigs, want, np.abs(want).max(1, keepdims=True))
        assert not flat.any() and not degenerate.any()


@pytest.mark.parametrize("kind", ["traceless", "traceful"])
def test_tangent_hessian_flags(kind):
    # the lam that zeroes one tangent eigenvalue makes every row degenerate; the zero tensor is flat
    a, x = tensors(kind, 11), points("real", 12)
    u, v = tangent_basis(x.T)
    basis = np.stack((u.T, v.T), axis=1)
    for rows, (_, c) in layouts(a):
        hx = 6.0 * np.einsum("rijk,rk->rij", rows, x)
        mu = np.linalg.eigvalsh(basis @ hx @ basis.transpose(0, 2, 1))
        eigs, flat, degenerate = tangent_hessian(c, x, mu[:, 1] / 3.0)
        assert degenerate.all() and not flat.any()
        close(eigs, np.stack((mu[:, 0] - mu[:, 1], np.zeros(ROWS)), axis=1),
              np.abs(mu).max(1, keepdims=True))
    eigs, flat, degenerate = tangent_hessian(_coefficients(np.zeros((3, 3, 3)))[1], x, np.zeros(ROWS))
    assert flat.all() and degenerate.all() and not eigs.any()


@pytest.mark.parametrize("kind", ["traceless", "traceful"])
def test_complex_bordered_system(kind):
    a, x = tensors(kind, 13), points("complex", 14)
    rng = np.random.default_rng(15)
    lam = (rng.normal(size=ROWS) + 1j * rng.normal(size=ROWS)) * np.abs(a).max(axis=(1, 2, 3))
    x = x * (1.0 + 0.1 * rng.normal(size=(ROWS, 1)))         # off the constraint x^T x = 1
    for rows, (b, c) in layouts(a):
        m = np.einsum("rijk,rk->rij", rows, x)
        want_f = np.concatenate((np.einsum("rij,rj->ri", m, x) - lam[:, None] * x,
                                 0.5 * ((x * x).sum(1, keepdims=True) - 1.0)), axis=1)
        want_jac = np.zeros((ROWS, 4, 4), dtype=complex)
        want_jac[:, :3, :3] = 2.0 * m - lam[:, None, None] * np.eye(3)
        want_jac[:, :3, 3], want_jac[:, 3, :3] = -x, x
        f, jac = _bordered_system(cubic_map(b, c), x.T, lam)
        scale = (np.abs(rows).max(axis=(1, 2, 3)) * (np.abs(x) ** 2).sum(1)
                 + np.abs(lam)) * (1.0 + (np.abs(x) ** 2).sum(1))
        close(f, want_f, scale[:, None])
        close(jac, want_jac, scale[:, None, None])


@pytest.mark.parametrize("field", ["real", "complex"])
def test_piezo_map_jacobian(field):
    # central differences along each axis; the map is a polynomial, so they hold for complex y
    rng = np.random.default_rng(16)
    y, h = points(field, 17).T, 1e-5
    for _ in range(5):
        a = rng.normal(size=(3, 3, 3))
        g, g_dg = _piezo_map(a + a.transpose(0, 2, 1))
        gy, jac = g_dg(y)
        assert np.array_equal(gy, g(y))
        for k in range(3):
            dy = np.zeros((3, 1))
            dy[k] = h
            want = (g(y + dy) - g(y - dy)) / (2.0 * h)
            np.testing.assert_allclose(jac[:, :, k].T, want, rtol=0, atol=1e-7 * np.abs(jac).max())
