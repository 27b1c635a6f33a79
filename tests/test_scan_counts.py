"""`region_scan`'s count-only path against the reports of `full_topology_batch`."""

import numpy as np
import pytest

from batch_cells import cells
from octupolar import OrientedParams, full_topology
from octupolar.eigen import BLOCK_CELLS
from octupolar.separatrix import region_scan
from octupolar.topology import critical_point_totals, full_topology_batch

PI = np.pi
INDEX_FAILURE = OrientedParams(1e-5, -1.0, 1.2)
# fails the residual check after polish, before classification
RESIDUAL_FAILURE = OrientedParams(1.6141250538145742, -1.57079503045626, 0.06825072733542803)


def _totals(params) -> list:
    return [-1 if rep.continuum else rep.total for rep in full_topology_batch(params)]


@pytest.mark.parametrize("chi, on_separatrix", [
    (-PI / 2, False), (-PI / 6, False), (-1.0, False), (-1.0, True), (-0.7, True)])
def test_scan_counts_match_reports(chi, on_separatrix):
    samples = region_scan(chi, 16, 2.0, 16, on_separatrix=on_separatrix)
    params = [OrientedParams(s.rho, s.chi, s.bigk) for s in samples]
    assert [s.count for s in samples] == _totals(params)


def test_totals_match_reports_on_every_branch():
    params = [OrientedParams(*c) for c in cells()]
    totals = critical_point_totals(params)
    assert totals == _totals(params)
    assert totals.count(-1) == 2          # (0, -pi/2, 0) and (2, -pi/6, 1)
    assert all(isinstance(n, int) for n in totals)


def _message(p: OrientedParams) -> str:
    with pytest.raises(RuntimeError) as exc:
        full_topology(p)
    return str(exc.value)


def test_scan_raises_first_failing_cell_with_full_topology_message():
    # rho = 1e-5 and 3e-5 at K = 0.6 and 1.8: only (1e-5, 0.6) fails
    cells = [(r, k) for r in (1e-5, 3e-5) for k in (0.6, 1.8)]
    failing = []
    for r, k in cells:
        try:
            full_topology(OrientedParams(r, -1.0, k))
        except RuntimeError:
            failing.append((r, k))
    assert failing[:1] == [(1e-5, 0.6)]
    with pytest.raises(RuntimeError) as exc:
        region_scan(-1.0, 2, 2.4, 2, rho_max=4e-5)
    assert str(exc.value) == _message(OrientedParams(1e-5, -1.0, 0.6))


@pytest.mark.parametrize("bad", [[RESIDUAL_FAILURE, INDEX_FAILURE], [INDEX_FAILURE, RESIDUAL_FAILURE]])
def test_totals_raise_the_first_failure_of_either_kind(bad):
    good = OrientedParams(1.2, -1.1, 0.9)
    with pytest.raises(RuntimeError) as exc:
        critical_point_totals([good] * (BLOCK_CELLS + 3) + bad)
    assert str(exc.value) == _message(bad[0])
    assert ("eigenpair residual" in str(exc.value)) == (bad[0] is RESIDUAL_FAILURE)
