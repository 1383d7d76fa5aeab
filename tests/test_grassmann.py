import numpy as np
import pytest

from opcalc.grassmann import (
    DimensionMismatchError,
    MultiVector,
    berezin,
    exp_even,
    theta_hat_matrix,
)


def theta(n, j):
    return MultiVector.generator(n, j)


def test_wedge_basic_signs():
    t1, t2 = theta(2, 1), theta(2, 2)
    assert t1.wedge(t2).coefficient(0b11) == 1
    assert t2.wedge(t1).coefficient(0b11) == -1
    assert t1.wedge(t1).is_zero()


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        theta(2, 1).wedge(theta(3, 1))


def test_wedge_bilinear_and_associative():
    rng = np.random.default_rng(0)
    n = 4
    for _ in range(20):
        a, b, c = (
            MultiVector(n, {int(m): rng.standard_normal() for m in rng.integers(0, 16, 5)})
            for _ in range(3)
        )
        lhs = a.wedge(b.wedge(c))
        rhs = a.wedge(b).wedge(c)
        assert all(
            abs(lhs.coefficient(m) - rhs.coefficient(m)) < 1e-12 for m in range(16)
        )
        s = (a + b).wedge(c)
        t = a.wedge(c) + b.wedge(c)
        assert all(abs(s.coefficient(m) - t.coefficient(m)) < 1e-12 for m in range(16))


def test_berezin_extracts_top_coefficient():
    a = MultiVector(2, {0: 3.0, 0b01: 2.0, 0b11: 5.0})
    assert berezin(a) == 5.0
    assert berezin(MultiVector(2, {0: 3.0, 0b01: 2.0})) == 0.0


def test_berezin_linear():
    rng = np.random.default_rng(1)
    n = 3
    a = MultiVector(n, {int(m): rng.standard_normal() for m in range(8)})
    b = MultiVector(n, {int(m): rng.standard_normal() for m in range(8)})
    assert abs(berezin(a + b) - berezin(a) - berezin(b)) < 1e-14


def test_berezin_of_partition_monomials():
    """berezin(m_S ^ m_T) is the shuffle sign iff S, T partition {1..n}."""
    n = 4
    for s_mask in range(1 << n):
        t_mask = ((1 << n) - 1) ^ s_mask
        ms = MultiVector(n, {s_mask: 1.0})
        for other in range(1 << n):
            val = berezin(ms.wedge(MultiVector(n, {other: 1.0})))
            if other == t_mask:
                assert val in (1.0, -1.0)
            else:
                assert val == 0.0


def test_theta_hat_matrix_n1():
    m = theta_hat_matrix(1, 1)
    assert np.array_equal(m, np.array([[0, 0], [1, 0]], dtype=complex))


def test_theta_hat_nilpotent_and_anticommuting():
    n = 3
    mats = [theta_hat_matrix(j, n) for j in range(1, n + 1)]
    for i, mi in enumerate(mats):
        assert np.array_equal(mi @ mi, np.zeros_like(mi))
        for j, mj in enumerate(mats):
            if i != j:
                assert np.array_equal(mi @ mj + mj @ mi, np.zeros_like(mi))


def test_theta_hat_matches_wedge_action():
    rng = np.random.default_rng(2)
    n = 4
    for j in range(1, n + 1):
        mat = theta_hat_matrix(j, n)
        vec = rng.standard_normal(1 << n)
        mv = MultiVector.from_dense(n, vec.astype(complex))
        expect = theta(n, j).wedge(mv).dense()
        assert np.allclose(mat @ vec, expect, atol=1e-14)


def test_monomial_matrices_linearly_independent():
    n = 3
    dim = 1 << n
    cols = []
    for mask in range(dim):
        m = np.eye(dim, dtype=complex)
        for j in range(n, 0, -1):
            if mask & (1 << (j - 1)):
                m = theta_hat_matrix(j, n) @ m
        cols.append(m.ravel())
    rank = np.linalg.matrix_rank(np.array(cols).T)
    assert rank == dim


def test_exp_even_terminates_and_matches_series():
    n = 4
    nu = MultiVector(n, {0b0011: 0.7, 0b1100: -0.4})
    e = exp_even(nu)
    # 1 + nu + nu^2/2 with nu^2 = 2*0.7*(-0.4) e1234
    assert abs(e.coefficient(0) - 1.0) < 1e-14
    assert abs(e.coefficient(0b0011) - 0.7) < 1e-14
    assert abs(e.coefficient(0b1111) - (0.7 * -0.4)) < 1e-14


def test_exp_even_rejects_odd():
    with pytest.raises(ValueError):
        exp_even(MultiVector(2, {0b01: 1.0}))
