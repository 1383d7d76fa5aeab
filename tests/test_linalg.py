import numpy as np
import pytest

from opcalc import linalg


def random_hermitian_psd(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g @ g.conj().T) / dim


def test_expm_identity_and_diagonal():
    assert np.allclose(linalg.expm(np.zeros((3, 3))), np.eye(3))
    got = linalg.expm(np.diag([-1.0, -2.0]))
    assert np.allclose(got, np.diag([np.exp(-1), np.exp(-2)]), atol=1e-14)


def test_expm_inverse_identity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a *= 10.0 / max(np.linalg.norm(a, 2), 1.0)
        prod = linalg.expm(a) @ linalg.expm(-a)
        assert np.linalg.norm(prod - np.eye(5), 2) < 1e-10


def test_expm_rejects_bad_inputs():
    with pytest.raises(ValueError):
        linalg.expm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        linalg.expm(2e4 * np.eye(2))


def test_hermitian_validation():
    with pytest.raises(ValueError):
        linalg.hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        linalg.hermitian(np.diag([1.0, -0.5]), require_nonneg=True)


def test_herm_exp_matches_expm_and_contracts():
    rng = np.random.default_rng(1)
    h = linalg.hermitian(random_hermitian_psd(rng, 6), require_nonneg=True)
    for t in (0.0, 0.3, 1.7):
        a = linalg.herm_exp(h, t)
        b = linalg.expm(-t * h.matrix)
        assert np.linalg.norm(a - b, 2) <= 1e-10 * max(1.0, np.linalg.norm(b, 2))
        assert linalg.op_norm(a) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        linalg.herm_exp(h, -0.1)


def test_herm_exp_semigroup():
    rng = np.random.default_rng(2)
    h = linalg.hermitian(random_hermitian_psd(rng, 5), require_nonneg=True)
    lhs = linalg.herm_exp(h, 0.4) @ linalg.herm_exp(h, 0.9)
    rhs = linalg.herm_exp(h, 1.3)
    assert np.linalg.norm(lhs - rhs, 2) < 1e-10


def test_frac_power_inv_cases():
    h0 = linalg.hermitian(np.zeros((3, 3)), require_nonneg=True)
    assert np.allclose(linalg.frac_power_inv(h0, 0.7), np.eye(3))
    h3 = linalg.hermitian(np.diag([3.0]), require_nonneg=True)
    assert np.allclose(linalg.frac_power_inv(h3, 0.5), np.diag([0.5]))
    with pytest.raises(ValueError):
        linalg.frac_power_inv(h3, 1.2)


def test_frac_power_exponent_additivity():
    rng = np.random.default_rng(3)
    h = linalg.hermitian(random_hermitian_psd(rng, 4), require_nonneg=True)
    prod = linalg.frac_power_inv(h, 0.3) @ linalg.frac_power_inv(h, 0.7)
    direct = np.linalg.inv(h.matrix + np.eye(4))
    assert np.linalg.norm(prod - direct, 2) < 1e-11


def test_frac_power_monotone_in_exponent():
    lams = np.array([0.0, 0.5, 2.0, 10.0])
    vals_a = (lams + 1.0) ** (-0.3)
    vals_b = (lams + 1.0) ** (-0.6)
    assert np.all(vals_b <= vals_a + 1e-15)


def test_relative_bound_probe():
    rng = np.random.default_rng(4)
    h = linalg.hermitian(random_hermitian_psd(rng, 6, scale=4.0), require_nonneg=True)
    p = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    eps_prev = None
    for lam in (1.0, 10.0, 100.0):
        eps, c_eps, holds = linalg.relative_bound_probe(h, p, 0.5, lam, samples=64, seed=0)
        assert holds
        if eps_prev is not None:
            assert eps < eps_prev
        eps_prev = eps
    # P = identity holds with C_eps >= 1
    _, c_eps, holds = linalg.relative_bound_probe(h, np.eye(6), 0.5, 5.0)
    assert holds and c_eps >= 1.0


def test_op_norm_diagonal():
    assert linalg.op_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-12)


def test_op_norm_unitary_invariance():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    q1, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    q2, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    assert linalg.op_norm(q1 @ m @ q2) == pytest.approx(linalg.op_norm(m), rel=1e-10)


def test_op_norm_large_power_iteration_path():
    rng = np.random.default_rng(6)
    diag = np.zeros(1100)
    diag[:5] = [7.0, 3.0, 2.0, 1.0, 0.5]
    m = np.diag(diag)
    assert linalg.op_norm(m) == pytest.approx(7.0, rel=1e-9)
