"""The early stop of the dense search in `_optim.find_critical_classes`.

The search skips its remaining seed slices once its real classes, none of
them degenerate, and the verified non-real classes of `_nonreal_classes`
number count_bound(3, 3) = 7.  These tests hold it to the full sweep (the
bound set out of reach), count the slices it runs, check the non-real
count on the panel, and check that degenerate classes and continua never
stop it.
"""

import numpy as np
import pytest

from octupolar import OrientedParams, from_rho_chi_K, full_topology, k_star, oracle_critical_points
from octupolar import _optim
from octupolar._optim import _FIRST, _SLICE, _complete, _nonreal_classes, find_critical_classes
from octupolar.tensors import symmetrize
from test_oracle_snapshot import PANEL, panel_octupole
from test_orient_snapshot import image

PI = np.pi
SAMPLES = 100_000
SLICES = 1 + -(-(SAMPLES - _FIRST) // _SLICE)      # 14: one of _FIRST seeds, then 13 of _SLICE
FIVE_CLASS = (0, 14, 17, 18, 19, 22)               # panel tensors with 5 classes; the rest have 7


def outcome(a, samples):
    """The oracle's report on a, or the message of the error it raises."""
    try:
        return oracle_critical_points(a, samples=samples)
    except RuntimeError as e:
        return str(e)


def assert_same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.continuum == want.continuum
    assert got.total == want.total
    assert [q.kind for q in got.points] == [q.kind for q in want.points]
    for g, w in zip(got.points, want.points):
        np.testing.assert_allclose(g.x, w.x, rtol=0, atol=1e-12)
        assert abs(g.lam - w.lam) <= 1e-12


def count_slices(monkeypatch):
    calls = []
    survivors = _optim._slice_survivors

    def counted(*args):
        calls.append(1)
        return survivors(*args)

    monkeypatch.setattr(_optim, "_slice_survivors", counted)
    return calls


def full_sweep(monkeypatch):
    monkeypatch.setattr(_optim, "count_bound", lambda r, n: 10 ** 6)


def seeded_tensors():
    """30 points of the sector: 10 interior, then 4 draws in each of 5 edge bands."""
    rng = np.random.default_rng(18)
    out = []
    for i in range(30):
        r, c = rng.uniform(0.01, 1.99), rng.uniform(-PI / 2 + 0.02, -PI / 6 - 0.02)
        k = rng.uniform(0, 3)
        d = 10.0 ** rng.uniform(-7, -3)
        band = (i - 10) // 4 if i >= 10 else None
        r, c, k = {None: (r, c, k), 0: (r, -PI / 2 + d, k), 1: (r, -PI / 6 - d, k),
                   2: (d, c, k), 3: (2.0 - d, c, k), 4: (r, c, d)}[band]
        out.append(from_rho_chi_K(OrientedParams(r, c, k)).array)
    return out


@pytest.fixture(scope="module")
def panel_runs():
    """The oracle's report on each panel tensor at 100k samples, and the slices it ran."""
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        calls = count_slices(mp)
        for i in range(PANEL):
            calls.clear()
            runs.append((oracle_critical_points(panel_octupole(i), samples=SAMPLES), len(calls)))
    return runs


def test_stop_fires_within_three_slices_on_every_panel_tensor(panel_runs):
    for i, (rep, slices) in enumerate(panel_runs):
        assert rep.total == (10 if i in FIVE_CLASS else 14) and slices <= 3, (i, slices)


def test_nonreal_classes_of_the_panel():
    for i in range(PANEL):
        a = panel_octupole(i).array
        x, lam = _nonreal_classes(a)
        if i not in FIVE_CLASS:
            assert len(x) == 0, i
            continue
        assert len(x) == 2, i       # one conjugate pair, up to x ~ -x
        assert min(np.abs(x[1] - x[0].conj()).max(), np.abs(x[1] + x[0].conj()).max()) < 1e-12
        assert np.abs(x[0].imag).max() > 1e-2
        np.testing.assert_allclose(np.einsum("ijk,nj,nk->ni", a, x, x), lam[:, None] * x,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose((x * x).sum(1), 1.0, rtol=0, atol=1e-12)


def test_five_classes_complete_only_with_their_nonreal_pair():
    a = panel_octupole(FIVE_CLASS[0]).array
    five = [(x, lam, None) for x, lam in find_critical_classes(a, SAMPLES)[0]]
    assert len(five) == 5 and _complete(a, five) and not _complete(a, five[:4])
    assert not _complete(a, five, lambda: 0) and not _complete(a, five, lambda: 4)
    # a seven-class tensor has no non-real class to make up five real ones
    b = panel_octupole(3).array
    seven = [(x, lam, None) for x, lam in find_critical_classes(b, SAMPLES)[0]]
    assert len(seven) == 7 and not _complete(b, seven[:5])


def near_separatrix_tensors():
    """24 seeded (rho, chi) columns at K = K*(1 - d) and K*(1 + d), d from 1e-2 down to 1e-6."""
    rng = np.random.default_rng(20)
    out = []
    for j in range(24):
        r, c = rng.uniform(0.05, 1.95), rng.uniform(-PI / 2 + 0.05, -PI / 6 - 0.05)
        ks, d = k_star(r, c).k, 10.0 ** -(2 + j % 5)
        out += [from_rho_chi_K(OrientedParams(r, c, ks * (1 + side * d))).array
                for side in (-1, 1)]
    return out


def test_near_separatrix_stops_match_the_full_sweep(monkeypatch):
    samples = 3 * _SLICE
    tensors = near_separatrix_tensors()
    calls = count_slices(monkeypatch)
    stopped, slices = [], []
    for a in tensors:
        calls.clear()
        stopped.append(outcome(a, samples))
        slices.append(len(calls))
    assert all(s < 3 for s in slices), slices
    assert [rep.total for rep in stopped] == [10, 14] * 24     # the K*(1 - d) side has 5 classes
    full_sweep(monkeypatch)
    for a, got in zip(tensors, stopped):
        assert_same(got, outcome(a, samples))


def test_panel_matches_the_full_sweep(panel_runs, monkeypatch):
    full_sweep(monkeypatch)
    calls = count_slices(monkeypatch)
    for i, (rep, slices) in enumerate(panel_runs):
        if slices == SLICES:
            continue        # the stop never fired, so this run was the full sweep
        calls.clear()
        assert_same(rep, oracle_critical_points(panel_octupole(i), samples=SAMPLES))
        assert len(calls) == SLICES


def test_seeded_tensors_match_the_full_sweep(monkeypatch):
    samples = 3 * _SLICE
    tensors = seeded_tensors()
    calls = count_slices(monkeypatch)
    stopped, slices = [], []
    for a in tensors:
        calls.clear()
        stopped.append(outcome(a, samples))
        slices.append(len(calls))
    assert sum(s < 3 for s in slices) >= 15         # the stop fired on at least half of them
    last = 1 + len(range(_FIRST, samples, _SLICE))  # the slices of a search that never stops
    full_sweep(monkeypatch)
    for a, got, s in zip(tensors, stopped, slices):
        if s < last:
            assert_same(got, outcome(a, samples))


def test_random_tensors_stop_after_one_slice_and_match_the_full_sweep(monkeypatch):
    # symmetrized standard normal tensors (the Kostlan ensemble of ternary cubics)
    rng = np.random.default_rng(0)
    tensors = [symmetrize(rng.normal(size=(3, 3, 3))) for _ in range(10)]
    samples = 3 * _SLICE
    calls = count_slices(monkeypatch)
    stopped = []
    for a in tensors:
        calls.clear()
        stopped.append(outcome(a, samples))
        assert len(calls) == 1
    full_sweep(monkeypatch)
    for a, got in zip(tensors, stopped):
        assert_same(got, outcome(a, samples))


def test_degenerate_classes_never_stop_the_search(monkeypatch):
    b = panel_octupole(3).array
    seven = [(x, lam, None) for x, lam in find_critical_classes(b, SAMPLES)[0]]
    assert _complete(b, seven) and not _complete(b, seven[:6])
    # with the bound at the monkey saddle's 4 classes, only their degeneracy keeps the search going
    monkeypatch.setattr(_optim, "count_bound", lambda r, n: 4)
    calls = count_slices(monkeypatch)
    a = from_rho_chi_K(OrientedParams(1.0, -PI / 2, 0.0)).array
    rep = oracle_critical_points(a, samples=SAMPLES)
    assert len(calls) == SLICES
    assert rep.total == 8 and rep.counts["monkey_saddle"] == 2
    assert not _complete(a, [(q.x, q.lam, None) for q in rep.points[::2]])


@pytest.mark.parametrize("p", [(0.0, -PI / 2, 0.0), (2.0, -PI / 6, 1.0)])
def test_continua_are_still_reported(p):
    assert oracle_critical_points(from_rho_chi_K(OrientedParams(*p)), samples=SAMPLES).continuum


@pytest.mark.parametrize("p", [
    (1.9999826473030649, -0.9917324771688271, 2.4438107997534178),
    (1.999997823228584, -1.2298123400128267, 0.8108003217720701),
    (1.9998925480358711, -1.2436344161573527, 1.917126319378395),
    (1.9999996835264746, -0.6839879093057938, 0.8090127566195326),   # two degenerate saddle classes
])
def test_oracle_resolves_the_pair_next_to_the_rim(p):
    # the maximum and the saddle next to the pole are two roots, which merge_degenerate keeps apart
    p = OrientedParams(*p)
    rep, want = oracle_critical_points(from_rho_chi_K(p), samples=SAMPLES), full_topology(p)
    assert rep.total == want.total == 14 and rep.counts == want.counts


@pytest.mark.parametrize("p, seed", [
    ((2.0, -0.7563, 0.1), None), ((2.0, -0.7563, 0.1), 4),
    pytest.param((2.0, -0.7563, 0.1), 6, marks=pytest.mark.xfail(
        strict=True, reason="74 keys survive along the valley, so the 64-key rule reads a continuum")),
    ((2.0, -0.5463, 1.885), None), ((2.0, -0.5463, 1.885), 7),
])
def test_oracle_merges_the_rows_around_a_double_root(p, seed):
    # on the rim the pole is a double root: Newton leaves converged rows 1e-6 to 5e-6 apart along
    # its valley, which read as up to ten classes before merge_degenerate
    a = from_rho_chi_K(OrientedParams(*p)).array if seed is None else image(p, seed)
    rep, want = oracle_critical_points(a, samples=SAMPLES), full_topology(OrientedParams(*p))
    assert rep.total == want.total == 12 and rep.counts == want.counts


def test_more_than_seven_isolated_classes_raise(monkeypatch):
    monkeypatch.setattr(_optim, "merge_degenerate", lambda a, points: points)
    with pytest.raises(RuntimeError, match="10 isolated real classes exceed the bound"):
        oracle_critical_points(from_rho_chi_K(OrientedParams(2.0, -0.7563, 0.1)), samples=SAMPLES)
