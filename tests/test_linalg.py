import numpy as np
import pytest
import scipy.linalg

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


def test_expm_stack_matches_each_matrix_and_keeps_the_guards():
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    got = linalg.expm(stack)
    for m, e in zip(stack, got):
        assert np.linalg.norm(e - linalg.expm(m), 2) <= 1e-13 * np.linalg.norm(e, 2)
    # the guards hold per matrix: one bad matrix rejects the stack
    bad = stack.copy()
    bad[3, 1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        linalg.expm(bad)
    big = stack.copy()
    big[5] = 2e4 * np.eye(4)
    with pytest.raises(ValueError, match="exceeds expm limit"):
        linalg.expm(big)
    for shape in ((2, 3, 4), (2, 2, 3, 3)):
        with pytest.raises(ValueError):
            linalg.expm(np.zeros(shape))


def test_expm_splits_a_permuted_direct_sum_into_its_blocks():
    rng = np.random.default_rng(10)
    blocks = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for k in (1, 3, 5)]
    blocks[2][4] = 0.0  # an exact zero row keeps its block connected through its column
    dense = scipy.linalg.block_diag(*blocks)
    perm = rng.permutation(dense.shape[0])
    got = linalg.expm(dense[np.ix_(perm, perm)])
    want = scipy.linalg.block_diag(*(scipy.linalg.expm(b) for b in blocks))[np.ix_(perm, perm)]
    inside = scipy.linalg.block_diag(*(np.ones((k, k)) for k in (1, 3, 5)))[np.ix_(perm, perm)] != 0
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.all(got[~inside] == 0)


def test_expm_irreducible_matrices_and_stacks_go_to_the_kernel_whole():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    m[2, :] = 0.0  # a zero row still connects through its column: one component
    assert np.array_equal(linalg.expm(m), linalg._pade_expm(m[None])[0])
    stack = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    stack[:, 0, 1:] = stack[:, 1:, 0] = 0.0  # reducible matrices stay whole in a stack
    assert np.array_equal(linalg.expm(stack), linalg._pade_expm(stack))


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 17, 32, 64, 128])
def test_expm_matches_scipy(dim):
    """SciPy's expm (Al-Mohy & Higham 2009) as an independent reference, at
    1-norms that select every Pade degree and up to six squarings."""
    rng = np.random.default_rng(100 + dim)
    for norm in (1e-4, 1e-2, 0.2, 0.9, 2.0, 5.0, 20.0, 50.0):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m *= norm / np.abs(m).sum(axis=0).max()
        want = scipy.linalg.expm(m)
        assert np.linalg.norm(linalg.expm(m) - want) <= 1e-13 * np.linalg.norm(want)


def test_expm_of_a_matrix_is_the_same_alone_and_in_a_stack():
    """Degree and scaling come from each matrix's own 1-norm: a stack that
    mixes all five degrees and several scalings gives every matrix bitwise
    its result alone."""
    rng = np.random.default_rng(12)
    norms = (0.0, 1e-3, 0.1, 0.5, 1.5, 4.0, 11.0, 40.0, 0.1)
    stack = rng.standard_normal((9, 6, 6)) + 1j * rng.standard_normal((9, 6, 6))
    stack *= (np.array(norms) / np.abs(stack).sum(axis=-2).max(axis=-1))[:, None, None]
    got = linalg.expm(stack)
    for m, e in zip(stack, got):
        assert np.array_equal(e, linalg.expm(m))
    assert np.array_equal(got[0], np.eye(6))
    assert np.array_equal(linalg.expm(stack[::-1]), got[::-1])


def test_expm_norm_guard_decisions():
    """c H_4 has spectral norm 2c and screen sqrt(||.||_1 ||.||_inf) = 4c:
    at c = 4500 the screen exceeds the limit but the exact norm does not."""
    h4 = scipy.linalg.hadamard(4).astype(complex)
    stack = np.zeros((3, 4, 4), dtype=complex)
    stack[1] = 4500.0 * h4
    with np.errstate(over="ignore", invalid="ignore"):  # e^{9000} overflows
        linalg.expm(4500.0 * h4)
        linalg.expm(stack)
    with pytest.raises(ValueError, match=r"matrix norm 1\.100e\+04 exceeds"):
        linalg.expm(5500.0 * h4)
    stack[2] = 5500.0 * h4
    with pytest.raises(ValueError, match=r"matrix norm 1\.100e\+04 exceeds"):
        linalg.expm(stack)
    # above 512 rows the Frobenius norm decides: 600 diagonal entries of 450
    # give 450 sqrt(600) = 1.102e4, although the spectral norm is 450
    linalg.expm(-400.0 * np.eye(600))
    with pytest.raises(ValueError, match=r"matrix norm 1\.102e\+04 exceeds"):
        linalg.expm(-450.0 * np.eye(600))


def test_expm_norm_guard_takes_no_svd_when_the_screen_clears(monkeypatch):
    """The exact 2-norm, an SVD, runs only on matrices the screen flags."""
    calls = []
    norm = np.linalg.norm

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    linalg.expm(np.array([[0.1, 1.0], [-1.0, 0.2]]))
    assert calls == []
    with np.errstate(over="ignore", invalid="ignore"):  # e^{9000} overflows
        linalg.expm(4500.0 * scipy.linalg.hadamard(4))
    assert calls == [(1, 4, 4)]


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


def test_op_norm_power_iteration_reports_non_convergence():
    """Top singular values 1 and 1 - 1e-3: the power iteration still moves
    by more than 1e-12 after 500 iterations, 1.2e-4 below the norm."""
    diag = np.full(1100, 0.5)
    diag[:2] = [1.0, 1.0 - 1e-3]
    with pytest.raises(RuntimeError, match="did not converge in 500 iterations"):
        linalg.op_norm(np.diag(diag))
