"""The batched solve-and-classify engine against the one-point path and
against outputs recorded before the engine existed (tests/data)."""

import json
import os

import numpy as np
import pytest

from batch_cells import cells, summary
from octupolar import OrientedParams, classify, from_rho_chi_K, full_topology, solve_oriented
from octupolar import _optim, eigen
from octupolar.cli import main
from octupolar.eigen import BLOCK_CELLS, solve_oriented_batch
from octupolar.topology import critical_point_totals, full_topology_batch

DATA = os.path.join(os.path.dirname(__file__), "data")
PI = np.pi
CELLS = [OrientedParams(*c) for c in cells()]


@pytest.fixture(scope="module")
def batch_reports():
    return full_topology_batch(CELLS)


@pytest.mark.parametrize("name, chi, extra", [
    ("scan_chi_pi2.csv", "-1.5707963267948966", []),
    ("scan_chi_1.csv", "-1.0", []),
    ("scan_chi_pi6.csv", "-0.5235987755982988", []),
    ("scan_chi_1_on_separatrix.csv", "-1.0", ["--on-separatrix"]),
    ("scan_chi_0.6_on_separatrix.csv", "-0.6", ["--on-separatrix"]),
])
def test_scan_csv_matches_recorded_output(tmp_path, name, chi, extra):
    out = tmp_path / name
    code = main(["scan", f"--chi={chi}", "--rho-steps", "40", "--k-max", "2",
                 "--k-steps", "40", "--output", str(out), *extra])
    assert code == 0
    with open(os.path.join(DATA, name), "rb") as f:
        assert out.read_bytes() == f.read()


@pytest.mark.parametrize("name, chi", [
    ("separatrix_chi_1.csv", "-1.0"),                       # the rho = 2 row reaches the bisection
    ("separatrix_chi_pi2_near.csv", "-1.5706963267948966"),  # -pi/2 + 1e-4: the near-pi/2 tier
])
def test_separatrix_csv_matches_recorded_output(tmp_path, name, chi):
    out = tmp_path / name
    assert main(["separatrix", f"--chi={chi}", "--output", str(out)]) == 0
    with open(os.path.join(DATA, name), "rb") as f:
        assert out.read_bytes() == f.read()


def test_separatrix_failure_names_the_first_failing_rho(capsys):
    # the slice fails at its first rho without an admissible double root
    code = main(["separatrix", "--chi=-0.9", "--rho-min", "1.99999999", "--rho-max", "2",
                 "--rho-steps", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == ["numerical failure: no admissible double root at "
                                "rho=1.99999999, chi=-0.9"]


def test_cells_cover_every_branch_family():
    families = {q.branch.split("-")[0] for p in CELLS for q in solve_oriented(p).pairs}
    assert families == {"pole", "walcher", "background", "axis", "disk", "pi2", "pi6"}


def test_batch_matches_one_point_path(batch_reports):
    for p, rep in zip(CELLS, batch_reports, strict=True):
        one = full_topology(p)
        assert rep.params == p
        assert summary(rep, solve_oriented(p)) == summary(one, solve_oriented(p))
        assert [q.branch for q in rep.points] == [q.branch for q in one.points]
        assert [q.multiplicity_hint for q in rep.points] == \
            [q.multiplicity_hint for q in one.points]
        for a, b in zip(rep.points, one.points):
            assert np.allclose(a.x, b.x, rtol=0, atol=1e-12)
            assert abs(a.lam - b.lam) <= 1e-12


def test_batch_matches_recorded_topology(batch_reports):
    with open(os.path.join(DATA, "topology_cells.json")) as f:
        recorded = json.load(f)
    sols = solve_oriented_batch(CELLS)
    assert len(recorded) == len(CELLS)
    for row, p, rep, sol in zip(recorded, CELLS, batch_reports, sols):
        assert row.pop("params") == list(p.as_tuple())
        assert summary(rep, sol) == row, p


def test_report_points_carry_solver_branch(batch_reports):
    for p, rep, sol in zip(CELLS, batch_reports, solve_oriented_batch(CELLS)):
        assert [q.branch for q in rep.points[::2]] == [e.branch for e in sol.pairs]
        assert [q.multiplicity_hint for q in rep.points[::2]] == \
            [e.multiplicity_hint for e in sol.pairs]
        assert rep.points[1].x.tolist() == (-rep.points[0].x).tolist()


def test_empty_batch():
    assert full_topology_batch([]) == [] and solve_oriented_batch([]) == []


def test_classify_tuple_pair_has_no_branch():
    t = from_rho_chi_K(OrientedParams(0.5, -PI / 3, 0.0))
    cp = classify(t, (np.array([0.0, 0.0, 1.0]), 1.0))
    assert (cp.kind, cp.index, cp.branch, cp.multiplicity_hint) == ("maximum", 1, None, 1)
    assert cp.antipode().kind == "minimum" and cp.antipode().hessian_eigs == \
        (-cp.hessian_eigs[1], -cp.hessian_eigs[0])


def test_index_sum_error_names_the_cell():
    with pytest.raises(RuntimeError, match=r"index sum -2 != 2 at \(rho, chi, K\) = "
                                           r"\(1e-05, -1\.0, 1\.2\).*5 classes found: maximum"):
        full_topology(OrientedParams(1e-5, -1.0, 1.2))


def test_residual_error_names_the_cell(monkeypatch):
    # without the Newton polish the rough rows keep their residual
    monkeypatch.setattr(_optim, "newton_refine", lambda a, x, lam, **kw: (x, lam))
    with pytest.raises(RuntimeError, match=r"eigenpair residual .* at \(rho, chi, K\) = "
                                           r"\(0\.5, -0\.52359977.*\); classes found: pole"):
        solve_oriented(OrientedParams(0.5, -PI / 6 - 1e-6, 0.5))


def test_batch_raises_first_failing_cell():
    good = OrientedParams(1.2, -1.1, 0.9)
    bad = [OrientedParams(1e-5, -1.0, 1.2), OrientedParams(1e-5, -1.0, 1.3)]
    with pytest.raises(RuntimeError, match=r"\(1e-05, -1\.0, 1\.2\)"):
        full_topology_batch([good] * (BLOCK_CELLS + 3) + bad)


def test_scan_failure_names_the_cell(capsys):
    code = main(["scan", "--chi=-1.5707863", "--rho-steps", "4", "--k-max", "2",
                 "--k-steps", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert "numerical failure" in err and "(rho, chi, K) = (0.25, -1.5707863" in err


def _solved_rows(params):
    """Every row and cell field of `solved_blocks`, cells numbered across blocks."""
    cols, errors, start = [], [], 0
    for block in eigen.solved_blocks(params):
        cols.append((start + block.cell, block.x, block.lam, block.mult, block.branch,
                     block.continuum))
        errors += block.errors
        start += len(block.params)
    return [np.concatenate(c) for c in zip(*cols)], errors


def test_rows_do_not_depend_on_the_block_size(monkeypatch):
    mids = (np.arange(40) + 0.5) * 2.0 / 40
    params = CELLS + [OrientedParams(float(r), chi, float(k))
                      for chi in (-0.5565, -1.0, -PI / 6) for r in mids for k in mids]
    assert len(params) > 4 * BLOCK_CELLS     # several blocks at either size
    rows, errors = _solved_rows(params)
    totals = critical_point_totals(params)
    monkeypatch.setattr(eigen, "BLOCK_CELLS", 64)
    small_rows, small_errors = _solved_rows(params)
    assert small_errors == errors
    for got, want in zip(small_rows, rows, strict=True):      # bit for bit
        assert got.dtype == want.dtype and got.shape == want.shape
        if got.dtype == object:
            assert got.tolist() == want.tolist()
        else:
            assert got.tobytes() == want.tobytes()
    assert critical_point_totals(params) == totals
