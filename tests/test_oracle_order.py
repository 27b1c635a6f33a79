"""The order in which the dense search of `_optim.find_critical_classes` visits its seeds.

The `fibonacci_sphere` lattice runs from pole to pole.  The search visits it
in residue order modulo ceil(samples / _FIRST), in a first slice of _FIRST
seeds and then slices of _SLICE, so that every slice spans the sphere and
the class-bound stop fires after the first slice.
These tests check that every seed is visited once with the step its
lattice index gives it, that the first slice covers the sphere, how many
slices the panel and the seeded tensors run, that a search over all slices
keeps the rows of the lattice order, the validation of ``samples``, and the
DEBUG line of each call.
"""

import logging

import numpy as np
import pytest

from octupolar import oracle_critical_points
from octupolar import _optim
from octupolar._optim import _FIRST, _SLICE, fibonacci_sphere, find_critical_classes
from test_oracle_slices import whole_array_reference
from test_oracle_snapshot import PANEL, panel_octupole
from test_oracle_stop import (FIVE_CLASS, SAMPLES, SLICES, count_slices, full_sweep,
                              near_separatrix_tensors, outcome, seeded_tensors)

ORDER_SAMPLES = [1000, _SLICE, _SLICE + 1, 3 * _SLICE + 5, SAMPLES]


def slice_sizes(samples):
    """The rows of each slice: _FIRST, then _SLICE at a time."""
    return [min(_FIRST, samples)] + [min(_SLICE, samples - lo) for lo in range(_FIRST, samples, _SLICE)]


def visited_slices(monkeypatch, samples):
    """(seeds (3, n), lattice indices (n,)) of each slice of a search whose slices find nothing."""
    seen = []

    def record(a, b, x, index, samples):
        seen.append((x.copy(), index.copy()))
        return np.empty((0, 3)), np.empty(0), index[:0]

    monkeypatch.setattr(_optim, "_slice_survivors", record)
    find_critical_classes(panel_octupole(0).array, samples)
    return seen


@pytest.mark.parametrize("samples", ORDER_SAMPLES)
def test_every_lattice_index_is_visited_once(monkeypatch, samples):
    seen = visited_slices(monkeypatch, samples)
    assert [len(i) for _, i in seen] == slice_sizes(samples)
    x = np.concatenate([x for x, _ in seen], axis=1)
    index = np.concatenate([i for _, i in seen])
    assert np.array_equal(np.sort(index), np.arange(samples))
    np.testing.assert_array_equal(x, fibonacci_sphere(samples)[index].T)
    if samples <= _FIRST:
        assert np.array_equal(index, np.arange(samples))        # the lattice order, as before


@pytest.mark.parametrize("samples", ORDER_SAMPLES)
def test_step_sign_follows_the_lattice_index(monkeypatch, samples):
    # with a constant surface gradient e3 an ascending seed moves up in z and a descending one down
    seen, polished = [], []
    survivors = _optim._slice_survivors

    def record(a, b, x, index, samples):
        seen.append((x.copy(), index.copy()))
        return survivors(a, b, x, index, samples)

    def fake_newton(a, x, lam, iters=50):
        polished.append(x[:, 2].copy())
        return x, lam

    monkeypatch.setattr(_optim, "_slice_survivors", record)
    e3 = np.array([[0.0], [0.0], [1.0]])
    monkeypatch.setattr(_optim, "surface_gradient", lambda a, x: np.broadcast_to(e3, x.shape))
    monkeypatch.setattr(_optim, "newton_refine", fake_newton)
    find_critical_classes(panel_octupole(0).array, samples)
    assert len(seen) == len(polished) == len(slice_sizes(samples))
    for (x, index), z in zip(seen, polished):
        assert np.array_equal(z > x[2], index < samples // 2)
        assert not (z == x[2]).any()


def test_first_slice_covers_the_sphere(monkeypatch):
    (x, _), *_ = visited_slices(monkeypatch, SAMPLES)
    probe = fibonacci_sphere(20_000)
    nearest = np.concatenate([(p @ x).max(1) for p in np.array_split(probe, 40)])
    radius = np.sqrt(2.0 - 2.0 * nearest.min())       # the largest chord to a nearest seed
    assert radius <= 0.1, radius        # 1.91 when slice 0 was the polar cap z >= 0.836


def test_panel_and_near_separatrix_stop_after_one_slice(monkeypatch):
    calls = count_slices(monkeypatch)
    for a in [panel_octupole(i).array for i in range(PANEL)] + near_separatrix_tensors():
        calls.clear()
        rep = oracle_critical_points(a, samples=SAMPLES)
        assert len(calls) == 1 and rep.total in (10, 14)


def test_seeded_tensors_run_one_slice_or_all(monkeypatch):
    calls = count_slices(monkeypatch)
    slices = []
    for a in seeded_tensors():
        calls.clear()
        outcome(a, SAMPLES)
        slices.append(len(calls))
    assert set(slices) <= {1, SLICES}, slices


@pytest.mark.parametrize("which", ["panel 0", "panel 3", "seeded 25"])
def test_all_slices_keep_the_rows_of_the_lattice_order(monkeypatch, which):
    # seeded tensor 25 sits 3.3e-7 inside the rim and never stops; its degenerate saddle class
    # moves by 2.9e-9 unless each key keeps its row of lowest lattice index
    kind, i = which.split()
    a = (panel_octupole(int(i)).array if kind == "panel" else seeded_tensors()[int(i)])
    full_sweep(monkeypatch)
    got, got_cont = find_critical_classes(a, SAMPLES)
    want, want_cont = whole_array_reference(a, SAMPLES)
    assert got_cont == want_cont and len(got) == len(want)
    for (gx, gl), (wx, wl) in zip(got, want):
        np.testing.assert_array_equal(gx, wx)
        assert gl == wl


def test_samples_must_be_an_integer():
    a = panel_octupole(3)
    cached = fibonacci_sphere.cache_info().currsize
    with pytest.raises(TypeError, match="samples"):
        oracle_critical_points(a, samples=20000.0)
    assert fibonacci_sphere.cache_info().currsize == cached        # raised before any work
    want = oracle_critical_points(a, samples=20000)
    got = oracle_critical_points(a, samples=np.int64(20000))
    assert got.counts == want.counts and got.total == want.total
    for g, w in zip(got.points, want.points):
        np.testing.assert_array_equal(g.x, w.x)
    with pytest.raises(ValueError, match="1000"):
        oracle_critical_points(a, samples=np.int64(999))


@pytest.mark.parametrize("i", [FIVE_CLASS[0], 3])
def test_one_debug_line_per_call(caplog, i):
    a = panel_octupole(i)
    oracle_critical_points(a, samples=SAMPLES)
    assert not caplog.records                   # nothing at the default level
    with caplog.at_level(logging.DEBUG, logger="octupolar"):
        oracle_critical_points(a, samples=SAMPLES)
    (rec,) = caplog.records
    assert rec.name == "octupolar" and rec.levelno == logging.DEBUG
    msg = rec.getMessage()
    assert f"1 of {SLICES} slices" in msg and "stopped at the class bound: True" in msg
    if i in FIVE_CLASS:
        assert "5 real classes, verified non-real classes: 2" in msg
    else:
        assert "7 real classes, verified non-real classes: not searched" in msg
