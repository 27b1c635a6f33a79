"""`eigen`'s ascending-row polynomial kernels against numpy's, bit for bit.

`separatrix.k_star` evaluates and differentiates the reduction polynomial
with these kernels; its recorded grid (tests/data/k_star_grid.csv) stays
byte-identical only while they reproduce `np.polyval` and `polyder` to the
last bit, so the comparisons here use `==`, not a tolerance.
"""

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder

from octupolar.eigen import WalcherPoly, _derivative, _polyval_rows, _real_root_rows

rng = np.random.default_rng(7)


@pytest.mark.parametrize("width", [2, 5, 7])
def test_polyval_rows_is_np_polyval(width):
    rows = rng.normal(size=(50, width)) * 10.0 ** rng.integers(-6, 6, size=(50, 1))
    s = rng.normal(size=50) * 10.0 ** rng.integers(-8, 3, size=50)
    s[::2] = -np.abs(s[::2])
    got = _polyval_rows(rows, s)
    assert np.array_equal(got, [np.polyval(r[::-1], v) for r, v in zip(rows, s)])
    # a row padded with zero top coefficients evaluates as the unpadded row
    padded = np.hstack([rows, np.zeros((50, 2))])
    assert np.array_equal(_polyval_rows(padded, s), got)


@pytest.mark.parametrize("width", [3, 5, 7])
def test_derivative_is_polyder(width):
    rows = rng.normal(size=(20, width)) * 10.0 ** rng.integers(-6, 6, size=(20, 1))
    for r in rows:
        assert np.array_equal(_derivative(r), polyder(r))
        assert np.array_equal(_derivative(_derivative(r)), polyder(r, 2))
    # on a stack of rows it differentiates each row
    assert np.array_equal(_derivative(rows), [polyder(r) for r in rows])


def test_walcher_poly_call_is_np_polyval():
    w = WalcherPoly(s_coeffs=rng.normal(size=7) * 10.0 ** rng.integers(-6, 6, size=7),
                    spurious_roots=(0.0, 0.0))
    s = rng.normal(size=(4, 5)) * 10.0 ** rng.integers(-8, 3, size=(4, 5))
    want = np.polyval(w.s_coeffs[::-1], s)
    assert np.array_equal(w(s), want)
    assert w(s[0, 0]) == want[0, 0] and np.ndim(w(s[0, 0])) == 0
    assert np.array_equal(w(s[0]), want[0])


def reference_real_roots(coeffs, realness, cluster):
    """`real_roots` as the one-polynomial loop it was before it ran on stacked rows."""
    c = np.asarray(coeffs, dtype=float)
    c = c / np.max(np.abs(c))
    hi = c.size
    while hi > 1 and abs(c[hi - 1]) <= 1e-12:
        hi -= 1
    lo = 0
    while lo < hi - 1 and abs(c[lo]) <= 1e-12:
        lo += 1
    out = [(0.0, lo)] if lo > 0 else []
    poly = c[lo:hi]
    if poly.size > 1:
        out += [(float(r.real), 1) for r in np.roots(poly[::-1])
                if abs(r.imag) <= realness * (1.0 + abs(r.real))]
    out.sort(key=lambda rm: rm[0])
    merged = []
    for r, m in out:
        if merged and abs(r - merged[-1][0]) <= cluster * (1.0 + abs(r)):
            k = merged[-1][1]
            merged[-1][0] = (merged[-1][0] * k + r * m) / (k + m)
            merged[-1][1] = k + m
        else:
            merged.append([r, m])
    return [(r, m) for r, m in merged]


@pytest.mark.parametrize("cluster", [1e-9, 1e-6, 1e-2])
def test_real_root_rows_are_the_one_polynomial_loop(cluster):
    # stacked companions and the vectorized cluster merge give the loop's
    # roots, multiplicities and merged means bit for bit
    rows = rng.normal(size=(80, 7)) * 10.0 ** rng.integers(-6, 6, size=(80, 1))
    rows[::5, -2:] = 0.0                            # lower degrees
    rows[1::7, :2] = 0.0                            # roots at s = 0
    rows[2::9, -1] *= 1e-13                         # a top coefficient trimmed away
    for i in range(3, 80, 4):                       # close and repeated roots
        r = rng.normal(size=6)
        r[1] = r[0] * (1.0 + 10.0 ** rng.integers(-12, -1))
        r[2] = r[0]
        rows[i] = np.poly(r)[::-1]
    s, m = _real_root_rows(rows, realness=1e-8, cluster=cluster)
    merged = 0
    for row, si, mi in zip(rows, s, m):
        want = reference_real_roots(row, 1e-8, cluster)
        assert [(float(r), int(k)) for r, k in zip(si, mi) if k] == want
        assert not mi[len(want):].any()
        merged += any(k > 1 for _, k in want)
    assert merged > 0
