"""Property tests: the 2x2 exponential against scipy's expm.

``engine._expm_planes`` evaluates 2x2 plane stacks with the Cayley-Hamilton form
exp(mu I + B) = e^mu (cosh(Delta) I + sinh(Delta)/Delta B), B^2 = s I with
s = Delta^2.  cosh and sinh(Delta)/Delta are polynomials in s where |s| <= 1
and the closed form through sqrt, cosh and sinh where |s| > 1.  The error is
measured normwise, relative to |exp(m)| (1 + |m|).
"""

import numpy as np
import pytest
import scipy.linalg

from opcalc.stochastic_mc.engine import _expm_planes

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RTOL = 1e-13
SETTINGS = hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)


def polar(lo, hi):
    """Complex numbers with modulus in [lo, hi] and any phase."""
    return st.builds(
        lambda r, a: r * np.exp(1j * a),
        st.floats(lo, hi),
        st.floats(0.0, 2 * np.pi),
    )


def assert_matches_scipy(m):
    got = _expm_planes(m[:, :, None])[:, :, 0]
    expect = scipy.linalg.expm(m)
    err = np.linalg.norm(got - expect)
    assert err <= RTOL * (1 + np.linalg.norm(m)) * np.linalg.norm(expect), (m, err)


@SETTINGS
@hypothesis.given(
    mu=polar(0.0, 2.0),
    side=st.sampled_from([-1.0, 1.0]),
    decades=st.floats(1e-6, 0.5),
    phase=st.floats(0.0, 2 * np.pi),
    theta=st.floats(0.0, np.pi),
    phi=st.floats(0.0, 2 * np.pi),
)
def test_expm_2x2_across_the_series_switch(mu, side, decades, phase, theta, phi):
    """|Delta| within half a decade of 1e-4, where sinh(Delta)/Delta formed
    by division would lose digits."""
    delta = 1e-4 * 10.0 ** (side * decades) * np.exp(1j * phase)
    # B^2 = Delta^2 (cos^2 + sin^2) I for any angles
    b = delta * np.array(
        [[np.cos(theta), np.sin(theta) * np.exp(1j * phi)],
         [np.sin(theta) * np.exp(-1j * phi), -np.cos(theta)]]
    )
    assert_matches_scipy(mu * np.eye(2) + b)


@SETTINGS
@hypothesis.given(
    skew=st.booleans(),
    a=polar(0.0, 1.0),
    b=polar(0.0, 1.0),
    c=polar(0.0, 1.0),
    side=st.sampled_from([-1.0, 1.0]),
    decades=st.floats(0.0, 0.5),
)
def test_expm_2x2_traceless_across_the_polynomial_switch(skew, a, b, c, side, decades):
    """Skew-Hermitian and general traceless planes with |s| within half a
    decade of 1, on either side of the switch.  Stacked with a path on the
    other side, each path keeps its own value bitwise."""
    if skew:
        m = np.array([[1j * a.real, b], [-np.conj(b), -1j * a.real]])
    else:
        m = np.array([[a, b], [c, -a]])
    s = abs(m[0, 0] ** 2 + m[0, 1] * m[1, 0])
    hypothesis.assume(s > 1e-6)
    m = m * np.sqrt(10.0 ** (side * decades) / s)  # s scales with the square
    assert_matches_scipy(m)
    other = m * 10.0 ** -side  # |s| moves by two decades, across the switch
    alone = _expm_planes(m[:, :, None])[:, :, 0]
    stacked = _expm_planes(np.stack([m, other], axis=-1))[:, :, 0]
    assert np.array_equal(alone, stacked)


@SETTINGS
@hypothesis.given(
    mu=polar(0.0, 2.0),
    a=polar(0.0, 5.0),
    b=polar(0.1, 5.0),
    shape=st.sampled_from(["upper", "lower", "rank_one"]),
)
def test_expm_2x2_nilpotent_part(mu, a, b, shape):
    """Delta = 0 with non-zero off-diagonals: exp(m) = e^mu (I + B)."""
    if shape == "upper":
        n = np.array([[0.0, b], [0.0, 0.0]])
    elif shape == "lower":
        n = np.array([[0.0, 0.0], [b, 0.0]])
    else:  # a^2 + b c = 0
        n = np.array([[a, b], [-a * a / b, -a]])
    assert_matches_scipy(mu * np.eye(2) + n)


@SETTINGS
@hypothesis.given(
    entries=st.lists(polar(0.0, 1.0), min_size=4, max_size=4),
    norm=st.floats(0.0, 20.0),
)
def test_expm_2x2_large_norms(entries, norm):
    m = np.array(entries).reshape(2, 2)
    scale = np.linalg.norm(m, 2)
    hypothesis.assume(scale > 1e-12)
    assert_matches_scipy(m * (norm / scale))
