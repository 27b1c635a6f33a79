"""`eigen`'s ascending-row polynomial kernels against numpy's, bit for bit.

`separatrix.k_star` evaluates and differentiates the reduction polynomial
with these kernels; its recorded grid (tests/data/k_star_grid.csv) stays
byte-identical only while they reproduce `np.polyval` and `polyder` to the
last bit, so the comparisons here use `==`, not a tolerance.
"""

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder

from octupolar.eigen import _derivative, _polyval_rows

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
