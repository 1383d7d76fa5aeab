"""Property tests: the r = 2 step exponential against scipy's expm.

``engine._su2_expm`` exponentiates the traceless skew-Hermitian planes
B = [[i x, y + i w], [-y + i w, -i x]] given by real rows (x, y, w), as
cos(theta) I + sin(theta)/theta B with theta^2 = x^2 + y^2 + w^2 = -s,
here with the left factor E = I.  cos and sin(theta)/theta are real
polynomials in s where |s| <= 0.01 and the closed form through sqrt, cos
and sin where |s| > 0.01.  The error is measured normwise, relative to
|exp(B)| (1 + |B|).
"""

import numpy as np
import pytest
import scipy.linalg

from opcalc.stochastic_mc.engine import _SERIES_BOUND, _su2_expm, _su2_table

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RTOL = 1e-13
SETTINGS = hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)


def su2_expm(xyw):
    """exp(B) as (2, 2, P) planes for the real (3, P) rows (x, y, w)."""
    coef = np.empty((xyw.shape[1], 4))
    coef[:, 1:] = xyw.T
    return _su2_expm(coef, _su2_table(np.eye(2)), np.empty((2, 2, xyw.shape[1]), dtype=complex))


def planes(xyw):
    x, y, w = xyw
    return np.array([[1j * x, y + 1j * w], [-y + 1j * w, -1j * x]])


def rows(theta, polar, azimuth):
    """(x, y, w) of length theta in the direction (polar, azimuth)."""
    return theta * np.array([
        np.cos(polar),
        np.sin(polar) * np.cos(azimuth),
        np.sin(polar) * np.sin(azimuth),
    ])


def assert_matches_scipy(xyw):
    got = su2_expm(xyw[:, None])[:, :, 0]
    b = planes(xyw)
    expect = scipy.linalg.expm(b)
    err = np.linalg.norm(got - expect)
    assert err <= RTOL * (1 + np.linalg.norm(b)) * np.linalg.norm(expect), (xyw, err)


direction = dict(polar=st.floats(0.0, np.pi), azimuth=st.floats(0.0, 2 * np.pi))


@SETTINGS
@hypothesis.given(side=st.sampled_from([-1.0, 1.0]), decades=st.floats(0.0, 0.5), **direction)
def test_expm_2x2_traceless_across_the_polynomial_switch(side, decades, polar, azimuth):
    """theta^2 within half a decade of the switch, on either side of it.
    Stacked with a path on the other side, each path keeps its own value
    bitwise."""
    xyw = rows(np.sqrt(_SERIES_BOUND * 10.0 ** (side * decades)), polar, azimuth)
    assert_matches_scipy(xyw)
    other = xyw * 10.0 ** -side  # theta^2 moves by two decades, across the switch
    alone = su2_expm(xyw[:, None])[:, :, 0]
    stacked = su2_expm(np.stack([xyw, other], axis=-1))[:, :, 0]
    assert np.array_equal(alone, stacked)


@SETTINGS
@hypothesis.given(theta=st.floats(1e-9, 1e-1), **direction)
def test_expm_2x2_small_angles(theta, polar, azimuth):
    """The step sizes of the engine: the polynomial branch is accurate to
    the last digits where sin(theta)/theta by division would lose them."""
    assert_matches_scipy(rows(theta, polar, azimuth))


@SETTINGS
@hypothesis.given(theta=st.floats(0.0, 20.0), **direction)
def test_expm_2x2_large_norms(theta, polar, azimuth):
    assert_matches_scipy(rows(theta, polar, azimuth))


def test_expm_2x2_is_special_unitary():
    """det 1 and unitary to rounding for angles on both branches."""
    xyw = np.random.default_rng(0).normal(size=(3, 64)) * np.logspace(-6, 1, 64)
    m = np.moveaxis(su2_expm(xyw), -1, 0)
    assert np.abs(np.linalg.det(m) - 1.0).max() < 1e-14
    assert np.abs(m @ np.conj(m.swapaxes(1, 2)) - np.eye(2)).max() < 1e-14
