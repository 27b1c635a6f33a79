"""`c_eigenpairs` returns every stationary triple, checked against a dense
bordered Newton written here.

For lam > 0, (lam, x, y) is a triple exactly when y is a critical point of
q(y) = |A : yy|^2 on the unit sphere, with lam = |A : yy| and
x = A : yy / lam.  The reference runs Newton on (grad q / 4 - mu y,
(|y|^2 - 1) / 2) from a few thousand Fibonacci seeds and keeps one row per
class y ~ -y.  Over C such a tensor has count_bound(4, 3) = 13 classes
(Cartwright and Sturmfels 2013); the real ones are the critical points of
q on RP^2, so when none is degenerate and q has no zero their indices sum
to chi(RP^2) = 1.
"""

import numpy as np
import pytest

from octupolar import best_rank_one, c_eigenpairs, count_bound, incremental_rank_one
from octupolar._optim import fibonacci_sphere
from octupolar import eigen
from octupolar.eigen import _CEIGEN_GATE

from test_ceigen_snapshot import PANEL, panel_tensor
from test_orient_snapshot import random_rotation

RANDOM = 10


def random_piezo(k: int) -> np.ndarray:
    a = np.random.default_rng([22, k]).normal(size=(3, 3, 3))
    return 0.5 * (a + np.transpose(a, (0, 2, 1)))


def bordered(a, y, mu):
    """Residual (n, 4) and Jacobian (n, 4, 4) of the bordered system at rows y (n, 3)."""
    ay = np.einsum("ijk,nk->nij", a, y)
    c = np.einsum("nij,nj->ni", ay, y)
    f = np.concatenate([np.einsum("ni,nij->nj", c, ay) - mu[:, None] * y,
                        0.5 * ((y * y).sum(1) - 1.0)[:, None]], axis=1)
    jac = np.zeros((len(y), 4, 4))
    jac[:, :3, :3] = (np.einsum("ni,ijk->njk", c, a) + 2.0 * np.einsum("nij,nik->njk", ay, ay)
                      - mu[:, None, None] * np.eye(3))
    jac[:, :3, 3], jac[:, 3, :3] = -y, y
    return f, jac


def dense_classes(a, seeds: int = 2500, iters: int = 40):
    """(y, lam) of every class the dense Newton finds, by descending lam.

    Steps are capped at 0.5 in max norm.  The tensor is scaled to max |a| = 1
    first, so the 1e-13 residual and the 1e-6 lam cut are relative.
    """
    scale = np.max(np.abs(a))
    a = a / scale
    y = fibonacci_sphere(seeds).copy()
    mu = (np.einsum("ijk,nj,nk->ni", a, y, y) ** 2).sum(1)
    for _ in range(iters):
        f, jac = bordered(a, y, mu)
        ok = np.abs(np.linalg.det(jac)) > 1e-300
        step = np.zeros_like(f)
        step[ok] = np.linalg.solve(jac[ok], f[ok][..., None])[..., 0]
        step *= np.minimum(1.0, 0.5 / np.maximum(np.abs(step).max(1, keepdims=True), 1e-300))
        y -= step[:, :3]
        mu -= step[:, 3]
        y /= np.linalg.norm(y, axis=1)[:, None]
    f, _ = bordered(a, y, mu)
    lam = np.linalg.norm(np.einsum("ijk,nj,nk->ni", a, y, y), axis=1)
    ok = (np.abs(f).max(1) <= 1e-13) & (lam > 1e-6)
    out = []
    for i in np.argsort(-lam[ok]):
        yi, li = y[ok][i], lam[ok][i]
        if not any(min(np.linalg.norm(yi - yo), np.linalg.norm(yi + yo)) < 1e-5 for yo, _ in out):
            out.append((yi, li))
    return [(yi, li * scale) for yi, li in out]


def dense_top(a, samples: int = 20_000, polish: int = 32) -> float:
    """The largest |A : yy| on the sphere: the best of a Fibonacci grid, Newton-polished."""
    y = fibonacci_sphere(samples)
    lam = np.linalg.norm(np.einsum("ijk,nj,nk->ni", a, y, y), axis=1)
    scale = np.max(np.abs(a))
    s, y = a / scale, y[np.argsort(-lam)[:polish]].copy()
    mu = (np.einsum("ijk,nj,nk->ni", s, y, y) ** 2).sum(1)
    for _ in range(20):
        f, jac = bordered(s, y, mu)
        step = np.linalg.solve(jac, f[..., None])[..., 0]
        y -= step[:, :3]
        mu -= step[:, 3]
        y /= np.linalg.norm(y, axis=1)[:, None]
    polished = np.linalg.norm(np.einsum("ijk,nj,nk->ni", a, y, y), axis=1).max()
    return max(polished, lam.max())


def q_index(a, y) -> int:
    """+1 at a maximum or minimum of q on the sphere, -1 at a saddle: the sign of its tangent Hessian."""
    mu = np.array([(np.einsum("ijk,j,k->i", a, y, y) ** 2).sum()])
    h = bordered(a, y[None], mu)[1][0, :3, :3]
    u = np.cross(y, [0.3, 0.5, 0.81])
    u /= np.linalg.norm(u)
    basis = np.stack([u, np.cross(y, u)], axis=1)
    return int(np.sign(np.linalg.det(basis.T @ h @ basis)))


def same_class(t, y, lam) -> bool:
    return min(np.linalg.norm(t.y - y), np.linalg.norm(t.y + y)) <= 1e-6 \
        and abs(t.lam - lam) <= 1e-6 * max(1.0, lam)


INPUTS = [("panel", i) for i in range(PANEL)] + [("random", k) for k in range(RANDOM)]


def tensor(kind, i):
    return panel_tensor(i) if kind == "panel" else random_piezo(i)


@pytest.mark.parametrize("kind, i", INPUTS)
def test_every_class_of_the_dense_reference(kind, i):
    a = tensor(kind, i)
    got = c_eigenpairs(a)
    want = dense_classes(a)
    assert len(got) == len(want)
    for y, lam in want:
        assert sum(same_class(t, y, lam) for t in got) == 1, f"class lam={lam} found {len(got)}"
    assert [t.lam for t in got] == sorted((t.lam for t in got), reverse=True)


@pytest.mark.parametrize("kind, i", INPUTS)
def test_odd_count_bounded_and_index_sum_one(kind, i):
    a = tensor(kind, i)
    got = c_eigenpairs(a)
    assert len(got) % 2 == 1 and len(got) <= count_bound(4, 3)
    assert sum(q_index(a, t.y) for t in got) == 1


def test_panel_counts():
    counts = [len(c_eigenpairs(panel_tensor(i))) for i in range(PANEL)]
    assert sum(counts) == 202
    assert counts[18] == count_bound(4, 3)


@pytest.mark.parametrize("i", range(PANEL))
def test_deflated_tensors_keep_their_top(i):
    # a deflated tensor has a base point at the removed y (A':yy = 0), so its
    # class count can be even; only its top lam is checked
    a = panel_tensor(i)
    terms, _ = incremental_rank_one(a)
    for k, (lam, x, y) in enumerate(terms):
        top = dense_top(a)
        assert abs(lam - top) <= 1e-9 * top, f"term {k}"
        a = a - lam * np.einsum("i,j,k->ijk", x, y, y)


def rank_one_term(lam, x, y):
    return lam * np.einsum("i,j,k->ijk", x, y, y)


def orthogonal(lams, rng):
    u, v = random_rotation(rng), random_rotation(rng)
    return sum(rank_one_term(l, u[:, i], v[:, i]) for i, l in enumerate(lams))


THREE_TERM = ((5.0, 2.0, 1.0), (4.0, 1.0, 0.25), (1.0, 0.5, 0.1))


def check_top_and_gate(a):
    triples = c_eigenpairs(a)
    norm_a = np.sqrt(np.einsum("ijk,ijk->", a, a))
    assert all(t.lam > _CEIGEN_GATE * norm_a for t in triples)
    assert best_rank_one(a)[0] >= (1.0 - 1e-9) * dense_top(a)
    return triples


class TestDegenerate:
    def test_exact_rank_one(self):
        rng = np.random.default_rng([22, 1])
        for _ in range(5):
            x0, y0 = random_rotation(rng)[:, 0], random_rotation(rng)[:, 1]
            triples = check_top_and_gate(rank_one_term(2.0, x0, y0))
            assert len(triples) == 1
            assert abs(triples[0].lam - 2.0) < 1e-12
            assert min(np.linalg.norm(triples[0].y - y0), np.linalg.norm(triples[0].y + y0)) < 1e-12

    def test_rank_one_skips_the_chart(self, monkeypatch):
        # A = x (x) Q makes the chart determinant vanish identically
        def fail(*args, **kwargs):
            raise AssertionError("chart solve on a rank-one tensor")
        monkeypatch.setattr(eigen, "_chart_points", fail)
        x0, y0 = np.array([0.6, 0.0, 0.8]), np.array([0.0, 1.0, 0.0])
        q = np.diag([3.0, -1.0, 0.5])
        triples = c_eigenpairs(np.einsum("i,jk->ijk", x0, q))
        assert [t.lam for t in triples] == [3.0, 1.0, 0.5]
        assert np.array_equal(np.abs(triples[1].y), y0) and np.array_equal(triples[1].x, -x0)

    @pytest.mark.parametrize("eps", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4])
    def test_near_rank_one_band(self, eps):
        rng = np.random.default_rng([22, 2])
        for _ in range(5):
            b = rng.normal(size=(3, 3, 3))
            b = 0.5 * (b + np.transpose(b, (0, 2, 1)))
            a = rank_one_term(1.0, random_rotation(rng)[:, 0], random_rotation(rng)[:, 1]) + eps * b
            check_top_and_gate(a)

    def test_two_term_orthogonal(self):
        # A n = 0 for the third right vector n, a base point of multiplicity nine;
        # the triples are the two terms and two mixed saddles of equal lam
        for k in range(10):
            a = orthogonal((3.0, 1.0), np.random.default_rng([22, 3, k]))
            triples = check_top_and_gate(a)
            assert len(triples) == 4
            assert abs(triples[0].lam - 3.0) < 1e-12 and abs(triples[1].lam - 1.0) < 1e-12
            assert abs(triples[2].lam - triples[3].lam) < 1e-12

    def test_three_term_orthogonal(self):
        rng = np.random.default_rng([22, 4])
        for lams in ((5.0, 2.0, 1.0), (2.0, 1.9, 1.8), (4.0, 1.0, 0.25)):
            for _ in range(5):
                a = orthogonal(lams, rng)
                triples = check_top_and_gate(a)
                assert len(triples) == count_bound(4, 3)
                assert abs(triples[0].lam - lams[0]) < 1e-12

    # seeded draws of THREE_TERM on which one root-recovery rule of the chart
    # matters: a crowd of u roots within 1e-2 of each other, (0, 20) and
    # (2, 31); a u root so coarse that no v passes the |E1| test, (0, 404);
    # real u roots beyond |u| = 100, whose top coefficients the rounding in
    # the interpolated ones above degree 13 would trim, (1, 214) and (2, 213)
    @pytest.mark.parametrize("weights, k", [(0, 20), (2, 31), (0, 404), (1, 214), (2, 213)])
    def test_three_term_draws_of_each_recovery_rule(self, weights, k):
        a = orthogonal(THREE_TERM[weights], np.random.default_rng([22, weights, k]))
        got = c_eigenpairs(a)
        want = dense_classes(a)
        assert len(got) == len(want) == count_bound(4, 3)
        for y, lam in want:
            assert sum(same_class(t, y, lam) for t in got) == 1

    def test_zero_tensor_has_no_triple(self):
        assert c_eigenpairs(np.zeros((3, 3, 3))) == []
        with pytest.raises(RuntimeError):
            best_rank_one(np.zeros((3, 3, 3)))


@pytest.mark.parametrize("scale", [2.0 ** -700, 1e-12, 1e12, 2.0 ** 700])
def test_scale_equivariance(scale):
    for i in (3, 18):
        a = panel_tensor(i)
        base, scaled = c_eigenpairs(a), c_eigenpairs(scale * a)
        assert len(base) == len(scaled)
        for t, s in zip(base, scaled):
            assert abs(s.lam / scale - t.lam) <= 1e-12 * t.lam
            assert np.linalg.norm(s.x - t.x) <= 1e-10 and np.linalg.norm(s.y - t.y) <= 1e-10


def test_starts_is_unused():
    a = panel_tensor(5)
    first, second = c_eigenpairs(a, starts=1), c_eigenpairs(a, starts=500)
    assert len(first) == len(second)
    for u, v in zip(first, second):
        assert u.lam == v.lam and np.array_equal(u.x, v.x) and np.array_equal(u.y, v.y)
