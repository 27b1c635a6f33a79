"""`k_star` against values recorded before its polynomial helpers were shared
with `eigen` (tests/data/k_star_grid.csv).

The grid reaches every tier of `k_star`: validated candidates in the
interior, the near-pi/2 quadratic truncation (`_near_pi2_candidate`) and the
bisection on the real-root count (`_bisect_transition`) within 1e-3 of
chi = -pi/2 and next to chi = -pi/6, the rim deflation for rho >= 2 - 1e-9,
and points where no admissible double root exists (recorded as the error).
Both tests count the rows that enter each fallback tier and the rows it
answers, and pin those counts to the ones recorded with the grid: 88 rows
enter the near-pi/2 tier and it answers 44; 104 enter the bisection and it
answers 36.  Regenerate with

    PYTHONPATH=src python tests/test_k_star_snapshot.py > tests/data/k_star_grid.csv
"""

import os

import numpy as np
import pytest

from octupolar import separatrix

PI = np.pi
DATA = os.path.join(os.path.dirname(__file__), "data", "k_star_grid.csv")

RHOS = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.6, 1.0, 1.2, 1.5, 1.8] \
    + [2.0 - 10.0 ** -e for e in range(3, 11)] + [2.0]
CHIS = [-PI / 2 + 10.0 ** -e for e in range(9, 2, -1)] \
    + [-1.45, -1.3, -1.1, -0.9, -0.7, -0.6] \
    + [-PI / 6 - 10.0 ** -e for e in range(3, 10)]


def lines():
    yield "rho,chi,k,s_star,branch"
    for rho in RHOS:
        for chi in CHIS:
            try:
                ks = separatrix.k_star(rho, chi)
            except RuntimeError as exc:
                yield f"{rho:.17g},{chi:.17g},error,{exc}"
            else:
                yield f"{rho:.17g},{chi:.17g},{ks.k:.17g},{ks.s_star:.17g},{ks.branch}"


#: rows (entered, answered) per fallback tier over the grid
TIER_ROWS = {"_near_pi2_candidate": (88, 44), "_bisect_transition": (104, 36)}


def count_tier_rows(monkeypatch):
    """Wrap both fallback tiers; the returned dict counts [entered, answered] rows per tier."""
    rows = {name: [0, 0] for name in TIER_ROWS}
    for name in TIER_ROWS:
        def wrapper(table, name=name, fn=getattr(separatrix, name)):
            got = fn(table)
            rows[name][0] += len(table)
            rows[name][1] += int(np.isfinite(got[0]).sum())
            return got
        monkeypatch.setattr(separatrix, name, wrapper)
    return rows


def test_k_star_grid_matches_recorded_output(monkeypatch):
    tier_rows = count_tier_rows(monkeypatch)
    got = list(lines())
    with open(DATA) as f:
        assert "\n".join(got) + "\n" == f.read()
    # the grid keeps reaching both fallback tiers, the error and every branch
    rows = [ln.split(",") for ln in got[1:]]
    assert {name: tuple(n) for name, n in tier_rows.items()} == TIER_ROWS
    assert any(r[2] == "error" for r in rows)
    assert {r[4] for r in rows if r[2] != "error"} == {"left", "right", "cusp"}


@pytest.mark.parametrize("shuffled", [False, True])
def test_chi_columns_as_batches_match_recorded_output(monkeypatch, shuffled):
    # each chi column is one batch; a row's answer must not depend on which
    # rows share its batch, or in what order
    tier_rows = count_tier_rows(monkeypatch)
    order = np.random.default_rng(3).permutation(len(RHOS)) if shuffled else range(len(RHOS))
    got = {}
    for chi in CHIS:
        rhos = [RHOS[i] for i in order]
        for rho, ks in zip(rhos, separatrix._k_star_rows(rhos, chi)):
            if isinstance(ks, RuntimeError):
                got[rho, chi] = f"{rho:.17g},{chi:.17g},error,{ks}"
            else:
                got[rho, chi] = f"{rho:.17g},{chi:.17g},{ks.k:.17g},{ks.s_star:.17g},{ks.branch}"
    with open(DATA) as f:
        recorded = f.read().splitlines()
    assert recorded == ["rho,chi,k,s_star,branch"] + [got[rho, chi] for rho in RHOS for chi in CHIS]
    assert sum("error" in ln for ln in recorded) == 7
    assert {name: tuple(n) for name, n in tier_rows.items()} == TIER_ROWS


if __name__ == "__main__":
    for line in lines():
        print(line)
