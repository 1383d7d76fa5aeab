from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from opcalc import clifford
from opcalc.grassmann import MultiVector


def random_antisym(rng, d):
    m = rng.standard_normal((d, d))
    return m - m.T


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_build_spinor_rep_relations_exact(d):
    rep = clifford.build_spinor_rep(d)
    eye = np.eye(rep.dim)
    for i, ci in enumerate(rep.gammas):
        assert np.trace(ci) == 0
        for j, cj in enumerate(rep.gammas):
            expect = -2.0 * eye if i == j else 0.0 * eye
            assert np.array_equal(ci @ cj + cj @ ci, expect)
    assert np.array_equal(rep.chirality @ rep.chirality, eye.astype(complex))


def test_build_spinor_rep_rejects_bad_d():
    with pytest.raises(ValueError):
        clifford.build_spinor_rep(3)
    with pytest.raises(ValueError):
        clifford.build_spinor_rep(12)


def test_clifford_quantize_cases():
    rep = clifford.build_spinor_rep(4)
    one = clifford.clifford_quantize(rep, MultiVector.one(4))
    assert np.array_equal(one, np.eye(4, dtype=complex))
    e1, e2 = MultiVector.generator(4, 1), MultiVector.generator(4, 2)
    c12 = clifford.clifford_quantize(rep, e1.wedge(e2))
    assert np.allclose(c12, rep.gammas[0] @ rep.gammas[1])
    c21 = clifford.clifford_quantize(rep, e2.wedge(e1))
    assert np.allclose(c21, -rep.gammas[0] @ rep.gammas[1])


def test_supertrace_basics():
    rep = clifford.build_spinor_rep(2)
    assert clifford.supertrace(rep, np.eye(2)) == 0
    assert clifford.supertrace(rep, rep.gammas[0]) == 0
    val = clifford.supertrace(rep, rep.gammas[0] @ rep.gammas[1])
    assert abs(val - (-2j)) < 1e-14


def test_supertrace_graded_cyclicity():
    rep = clifford.build_spinor_rep(4)
    rng = np.random.default_rng(0)
    gamma = rep.chirality

    def random_parity(sign):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        return 0.5 * (m + sign * gamma @ m @ gamma)

    for sign_m in (1, -1):
        for sign_n in (1, -1):
            m = random_parity(sign_m)
            n = random_parity(sign_n)
            lhs = clifford.supertrace(rep, m @ n)
            rhs = sign_n * clifford.supertrace(rep, n @ m)
            assert abs(lhs - rhs) < 1e-12


def test_t_of_and_alpha_of_canonical():
    rep = clifford.build_spinor_rep(4)
    a = np.zeros((4, 4))
    a[0, 1], a[1, 0] = 1.0, -1.0
    t = clifford.t_of(rep, a)
    assert np.allclose(t, 0.5 * rep.gammas[0] @ rep.gammas[1])
    form = clifford.alpha_of(a, 4)
    assert form.coefficient(0b0011) == 1.0
    zero = clifford.t_of(rep, np.zeros((4, 4)))
    assert np.array_equal(zero, np.zeros((4, 4), dtype=complex))
    with pytest.raises(ValueError):
        clifford.t_of(rep, np.eye(4))


def test_t_of_linear_and_bracket():
    rep = clifford.build_spinor_rep(6)
    rng = np.random.default_rng(1)
    a, b = random_antisym(rng, 6), random_antisym(rng, 6)
    lin = clifford.t_of(rep, a + b) - clifford.t_of(rep, a) - clifford.t_of(rep, b)
    assert np.abs(lin).max() < 1e-12
    # with c(e)^2 = -1 the spin map reverses brackets:
    # [T(A), T(B)] = T([B, A])
    ta, tb = clifford.t_of(rep, a), clifford.t_of(rep, b)
    comm = ta @ tb - tb @ ta
    assert np.abs(comm - clifford.t_of(rep, b @ a - a @ b)).max() < 1e-10


@pytest.mark.parametrize("d", [4, 6])
def test_patodi_vanishing_random_words(d):
    rep = clifford.build_spinor_rep(d)
    rng = np.random.default_rng(d)
    for _ in range(25):
        order = int(rng.integers(1, rep.l))
        word = clifford.PatodiWord(tuple(random_antisym(rng, d) for _ in range(order)))
        assert clifford.patodi_vanishing(rep, word) <= 1e-10
    assert clifford.patodi_vanishing(rep, clifford.PatodiWord(())) == 0.0
    with pytest.raises(ValueError):
        too_long = clifford.PatodiWord(tuple(random_antisym(rng, d) for _ in range(rep.l)))
        clifford.patodi_vanishing(rep, too_long)


def test_patodi_word_order_concatenates():
    rng = np.random.default_rng(2)
    w1 = clifford.PatodiWord((random_antisym(rng, 6),))
    w2 = clifford.PatodiWord(tuple(random_antisym(rng, 6) for _ in range(2)))
    combined = clifford.PatodiWord(w1.factors + w2.factors)
    assert combined.order == w1.order + w2.order


@pytest.mark.parametrize("d", [2, 4, 6])
def test_patodi_top_identity_random(d):
    rep = clifford.build_spinor_rep(d)
    rng = np.random.default_rng(10 + d)
    for _ in range(25):
        factors = tuple(random_antisym(rng, d) for _ in range(rep.l))
        lhs, rhs, residual = clifford.patodi_top_identity(rep, factors)
        assert residual <= 1e-10
    # zero factor kills both sides
    zeros = (np.zeros((d, d)),) * rep.l
    lhs, rhs, _ = clifford.patodi_top_identity(rep, zeros)
    assert lhs == 0 and rhs == 0
    with pytest.raises(ValueError):
        clifford.patodi_top_identity(rep, zeros[:-1] if rep.l > 1 else zeros * 2)


def test_patodi_calibration_instance():
    """The d=2 canonical instance pins Str((1/2) c1 c2) = -sqrt(-1)."""
    rep = clifford.build_spinor_rep(2)
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    lhs, rhs, residual = clifford.patodi_top_identity(rep, (a,))
    assert abs(rhs - (-1j)) < 1e-14
    assert residual < 1e-14


# --- characteristic series --------------------------------------------------


def block_omega(d, theta_form):
    zero = MultiVector.zero(d)
    rows = [[zero for _ in range(d)] for _ in range(d)]
    rows[0][1] = theta_form
    rows[1][0] = -1.0 * theta_form
    return rows


def test_a_hat_zero_curvature():
    d = 4
    zero = MultiVector.zero(d)
    omega = [[zero] * d for _ in range(d)]
    series = clifford.a_hat_series(omega, d)
    assert series.coeffs == {0: 1.0}


def test_a_hat_d2_trivial():
    series = clifford.a_hat_series(block_omega(2, MultiVector(2, {0b11: 0.9})), 2)
    assert series.coeffs == {0: 1.0}


def test_a_hat_d4_block_closed_form():
    """Mixed entry theta = a e12 + b e34 gives top coefficient a b / 12."""
    a, b = 0.8, -1.1
    theta = MultiVector(4, {0b0011: a, 0b1100: b})
    series = clifford.a_hat_series(block_omega(4, theta), 4)
    assert series.coefficient(0) == 1.0
    assert abs(series.coefficient(0b1111) - a * b / 12.0) < 1e-13


def test_a_hat_degrees_multiple_of_four():
    rng = np.random.default_rng(3)
    d = 6
    forms = {}
    zero = MultiVector.zero(d)
    omega = [[zero for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            coeffs = {
                (1 << a) | (1 << b): rng.standard_normal() * 0.3
                for a in range(d)
                for b in range(a + 1, d)
            }
            form = MultiVector(d, coeffs)
            omega[i][j] = form
            omega[j][i] = -1.0 * form
    series = clifford.a_hat_series(omega, d)
    assert series.coefficient(0) == 1.0
    assert all(deg % 4 == 0 for deg in series.degrees())


def test_a_hat_rejects_bad_input():
    d = 4
    zero = MultiVector.zero(d)
    omega = [[zero] * d for _ in range(d)]
    omega[0][1] = MultiVector(4, {0b0011: 1.0})  # not antisymmetric
    with pytest.raises(ValueError):
        clifford.a_hat_series(omega, d)
    # a row of the wrong length is reported at its first missing or extra column
    for ragged, at in (([[zero, zero]], (0, 1)), ([[zero, zero], [zero]], (1, 1))):
        assert clifford.curvature_defect(ragged) == (*at, "curvature matrix must be square")
        with pytest.raises(ValueError, match="square"):
            clifford.a_hat_series(ragged, d)


def test_x_over_sinh_coefficients_from_exact_bernoulli_numbers():
    """B_2k are exact Fractions; SciPy's float Bernoulli numbers agree to
    their own accuracy (~2e-12 relative at k <= 30)."""
    from scipy.special import bernoulli

    assert [clifford._bernoulli(m) for m in (0, 1, 2, 4, 12)] == [
        1, Fraction(-1, 2), Fraction(1, 6), Fraction(-1, 30), Fraction(-691, 2730)
    ]
    assert [clifford._x_over_sinh_coeff(k) for k in range(4)] == [
        1.0, -1.0 / 6.0, 7.0 / 360.0, -31.0 / 15120.0
    ]
    ref = bernoulli(60)
    for k in range(31):
        assert float(clifford._bernoulli(2 * k)) == pytest.approx(ref[2 * k], rel=1e-11, abs=0)
        want = (2.0 - 4.0**k) * ref[2 * k] / factorial(2 * k)
        assert clifford._x_over_sinh_coeff(k) == pytest.approx(want, rel=1e-11, abs=0)
