"""The sliced dense search in `_optim.find_critical_classes`.

The oracle seeds, polishes and filters _FIRST seeds and then _SLICE at a
time, visiting the lattice in residue order so that each slice spans the
sphere; each key keeps its row of lowest lattice index, the row the
whole-array pipeline keeps.  These tests hold it to that pipeline (kept
below as the reference), to the tensor's scale, and to memory bounds.
"""

import time
import tracemalloc

import numpy as np
import pytest

from octupolar import OrientedParams, eval_potential, from_rho_chi_K, oracle_critical_points
from octupolar import _optim
from octupolar._optim import (_FIRST, _PRESTEPS, _SLICE, _axx, _coefficients, _first_of_each,
                              canonical_flip, dedupe_classes, fibonacci_sphere,
                              find_critical_classes, merge_degenerate, newton_refine,
                              surface_gradient)
from test_oracle_snapshot import panel_octupole

PI = np.pi


def whole_array_reference(a, samples):
    """The dense search on all seeds in one batch, on the same power-of-two scaled tensor."""
    e = np.frexp(np.max(np.abs(a)))[1]
    a = np.ldexp(a, -e)
    b, _ = _coefficients(a)
    x = fibonacci_sphere(samples).T.copy()
    step = np.where(np.arange(samples) < samples // 2, 0.1, -0.1)
    for _ in range(_PRESTEPS):
        x = x + step * surface_gradient(a, x)
        x /= np.sqrt((x * x).sum(0))
    x, lam = newton_refine(a, x.T, (x * _axx(b, x)).sum(0))
    ok = np.abs(_axx(b, x.T) - lam * x.T).max(0) <= _optim._CRITICAL_TOL
    x, lam = x[ok], lam[ok]
    flip = canonical_flip(x)
    x[flip] *= -1.0
    lam[flip] *= -1.0
    if x.shape[0] == 0:
        return [], False
    first = _first_of_each(np.round(x / 2e-7).astype(np.int64))
    x, lam = x[first], lam[first]
    continuum = x.shape[0] > 64
    if continuum:
        first = _first_of_each(np.round(x / 1e-2).astype(np.int64))
        x, lam = x[first], lam[first]
    points = dedupe_classes([(xi, li, (None, 1)) for xi, li in zip(x, lam)], tol=1e-6)
    if not continuum:
        points = merge_degenerate(a, points)
    xs = np.array([xi for xi, _, _ in points])
    sign = np.where(canonical_flip(xs), -1.0, 1.0)
    return [(s * xi, np.ldexp(s * li, e)) for s, (xi, li, _) in zip(sign, points)], continuum


@pytest.mark.parametrize("samples", [1000, _SLICE, _SLICE + 1, 3 * _SLICE + 5])
def test_slices_match_the_whole_array_search(samples):
    for i in (0, 3, 7):
        a = panel_octupole(i).array
        got, got_cont = find_critical_classes(a, samples)
        want, want_cont = whole_array_reference(a, samples)
        assert got_cont == want_cont
        assert len(got) == len(want)
        for (gx, gl), (wx, wl) in zip(got, want):
            np.testing.assert_allclose(gx, wx, rtol=0, atol=1e-12)
            assert abs(gl - wl) <= 1e-12
    a = from_rho_chi_K(OrientedParams(0.0, -PI / 2, 0.0)).array    # rho = K = 0: a circle of critical points
    assert find_critical_classes(a, samples)[1]


def test_lowest_index_row_wins_across_slices(monkeypatch):
    # every seed "converges" to one critical point, moved by 1e-14 per global seed index
    a = panel_octupole(3).array
    (x_star, _), *_ = find_critical_classes(a, 1000)[0]
    d = np.array([0.6, -0.8, 0.0])
    samples = _SLICE + 5
    assert len({tuple(np.round((x_star + 1e-14 * i * d) / 2e-7)) for i in (0, samples - 1)}) == 1
    calls = []

    def fake_newton(a, x, lam, iters=50):
        start = sum(calls)
        calls.append(len(x))
        rows = x_star + 1e-14 * np.arange(start, start + len(x))[:, None] * d
        return rows, eval_potential(a, rows)

    monkeypatch.setattr(_optim, "newton_refine", fake_newton)
    (x, lam), = find_critical_classes(a, samples)[0]
    assert calls == [_FIRST, _SLICE + 5 - _FIRST]
    np.testing.assert_array_equal(x, x_star)           # seed 0, not seed _FIRST of the second slice
    assert lam == eval_potential(a, x[None])[0]


def test_first_of_each_keeps_the_first_row_and_takes_no_rows():
    keys = np.array([[2, 0, 0], [1, 0, 0], [2, 0, 0], [1, 0, 0], [0, 5, 0]])
    assert _first_of_each(keys).tolist() == [4, 1, 0]
    assert _first_of_each(np.zeros((0, 3), dtype=np.int64)).size == 0


@pytest.mark.parametrize("c", [1e-8, 1e-6, 1e8])
def test_oracle_is_scale_free(c):
    a = panel_octupole(3).array
    want = oracle_critical_points(a, samples=1000)
    got = oracle_critical_points(c * a, samples=1000)
    assert got.counts == want.counts and got.total == want.total and not got.continuum
    for g, w in zip(got.points, want.points):
        assert (g.kind, g.index) == (w.kind, w.index)
        np.testing.assert_allclose(g.x, w.x, rtol=0, atol=1e-9)
        assert abs(g.lam - c * w.lam) <= 1e-9 * abs(c)


def test_zero_tensor_is_a_continuum():
    t0 = time.perf_counter()
    rep = oracle_critical_points(np.zeros((3, 3, 3)))
    assert time.perf_counter() - t0 < 1.0
    assert rep.continuum and rep.points == ()


def test_oracle_working_set():
    a = panel_octupole(0).array
    tracemalloc.start()
    try:
        oracle_critical_points(a, samples=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6, f"{peak / 1e6:.1f} MB"


@pytest.mark.parametrize("samples", [100_000, 1_000_000])
@pytest.mark.parametrize("i", [0, 3])
def test_a_stopping_search_allocates_nothing_of_size_samples(i, samples):
    # panel tensor 0 has five real classes and 3 seven; both stop after the first slice
    a = panel_octupole(i).array
    cached = fibonacci_sphere.cache_info().currsize
    tracemalloc.start()
    try:
        oracle_critical_points(a, samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6, f"{peak / 1e6:.1f} MB"
    assert fibonacci_sphere.cache_info().currsize == cached       # no lattice kept for this size
