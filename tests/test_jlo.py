import numpy as np
import pytest

from opcalc import clifford, jlo, linalg
from opcalc.grassmann import MultiVector
from opcalc.jlo import DGAElement
from opcalc.phi_core import OperatorFamily, phi_fermionic
from opcalc.stochastic_mc.localize import small_time_limit


@pytest.fixture(scope="module")
def rep4():
    return clifford.build_spinor_rep(4)


@pytest.fixture(scope="module")
def module4(rep4):
    rng = np.random.default_rng(0)
    return jlo.spinor_module(rep4, jlo.random_odd_dirac(rep4, rng))


def elem(d, prime=None, doubleprime=None):
    return DGAElement.of(prime, doubleprime, d)


# --- partitions --------------------------------------------------------------


def test_ordered_partitions_enumeration():
    assert jlo.ordered_partitions(2, 3) == (((1,), (2, 3)), ((1, 2), (3,)))
    assert jlo.ordered_partitions(3, 3) == (((1,), (2,), (3,)),)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ordered_partition_counts(n):
    from math import comb

    total = 0
    for m in range(1, n + 1):
        parts = jlo.ordered_partitions(m, n)
        assert len(parts) == comb(n - 1, m - 1)
        for p in parts:
            flat = [i for block in p for i in block]
            assert flat == list(range(1, n + 1))
            assert all(block for block in p)
        total += len(parts)
    assert total == 2 ** (n - 1)


def test_ordered_partitions_range_errors():
    with pytest.raises(ValueError):
        jlo.ordered_partitions(0, 3)
    with pytest.raises(ValueError):
        jlo.ordered_partitions(4, 3)


# --- module and block operators ----------------------------------------------


def test_module_validation(rep4):
    rng = np.random.default_rng(1)
    bad = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(ValueError):
        jlo.spinor_module(rep4, bad)  # not self-adjoint
    even = rep4.chirality  # commutes with the grading, so not odd
    with pytest.raises(ValueError):
        jlo.spinor_module(rep4, even)


def test_p_of_cases(module4, rep4):
    d = 4
    eta = MultiVector.generator(d, 3)
    # omega' = 0: P reduces to the quantized doubleprime part
    p = jlo.p_of(module4, elem(d, doubleprime=eta))
    assert np.allclose(p, rep4.gammas[2])
    # constant scalar prime: the graded commutator with the identity vanishes
    p2 = jlo.p_of(module4, elem(d, prime=MultiVector.scalar(d, 2.0), doubleprime=eta))
    assert np.allclose(p2, rep4.gammas[2])
    with pytest.raises(ValueError):
        mixed = MultiVector(d, {0b0001: 1.0, 0b0011: 1.0})
        jlo.p_of(module4, elem(d, prime=mixed))


def test_p_of_pair_clifford_defect(module4):
    d = 4
    e1, e2 = MultiVector.generator(d, 1), MultiVector.generator(d, 2)
    # disjoint generators: quantization is multiplicative, defect vanishes
    p12 = jlo.clifford_defect(module4.quantize, elem(d, prime=e1), elem(d, prime=e2))
    assert np.allclose(p12, 0.0)
    # repeated generator: c(e1 ^ e1) = 0 while c(e1)^2 = -1
    p11 = jlo.clifford_defect(module4.quantize, elem(d, prime=e1), elem(d, prime=e1))
    assert np.allclose(p11, -np.eye(4))


def test_p_of_block_lengths(module4):
    """Blocks of length >= 3 vanish, so their partitions are dropped, while
    the pair blocks (Clifford defect -1) and singletons survive."""
    d = 4
    e1 = MultiVector.generator(d, 1)
    for n, kept in ((3, [2, 2, 3]), (4, [2, 3, 3, 3, 4])):
        chain = (elem(d, prime=MultiVector.one(d)),) + (elem(d, prime=e1),) * n
        terms = jlo.partition_blocks(chain, (module4.dirac,), module4.quantize)
        assert [m for m, _ in terms] == kept
        for m, blocks in terms:
            assert len(blocks) == m and all(len(b) == 2 for b in blocks)


def test_partition_blocks_drop_vanishing_blocks(module4):
    """A partition with any vanishing block is dropped, not only one whose
    blocks all vanish; n = 0 is the single empty partition."""
    d = 4
    e1, e2 = MultiVector.generator(d, 1), MultiVector.generator(d, 2)
    terms = jlo.partition_blocks((elem(d),), (module4.dirac,), module4.quantize)
    assert terms == [(0, ())]
    # the pair (w1, w2) has w1' = 0, so its defect vanishes; w3 = 0 vanishes
    chain = (elem(d), elem(d, doubleprime=e1), elem(d, prime=e2), elem(d))
    assert jlo.partition_blocks(chain, (module4.dirac,), module4.quantize) == []
    chain = chain[:3]
    terms = jlo.partition_blocks(chain, (module4.dirac,), module4.quantize)
    assert [m for m, _ in terms] == [2]
    (_, (b1, b2)), = terms
    assert np.array_equal(b1[0] + b1[1], jlo.p_of(module4, chain[1]))
    assert np.array_equal(b2[0] + b2[1], jlo.p_of(module4, chain[2]))


# --- cocycle evaluation --------------------------------------------------------


def test_chern_eval_n0_mckean_singer(module4, rep4):
    """n = 0 with the unit chain gives the graded kernel dimension."""
    val = jlo.chern_eval(module4, (elem(4, prime=MultiVector.one(4)),), t=0.7)
    _, _, sig = jlo.mckean_singer(module4.grading, module4.dirac, [0.7])
    assert abs(val - sig) < 1e-9


def test_chern_eval_vanishing_chain(module4):
    d = 4
    chain = (
        elem(d, prime=MultiVector.generator(d, 1)),
        elem(d),  # omega_1 = 0: every block operator vanishes
    )
    assert jlo.chern_eval(module4, chain, 0.5) == 0


def test_chern_eval_multilinear(module4):
    d = 4
    rng = np.random.default_rng(2)
    e2 = MultiVector.generator(d, 2)
    e3 = MultiVector.generator(d, 3)
    base = elem(d, prime=MultiVector.generator(d, 1))

    def val(dp):
        return jlo.chern_eval(module4, (base, elem(d, doubleprime=dp)), 0.8)

    a, b = rng.standard_normal(), rng.standard_normal()
    lhs = val(a * e2 + b * e3)
    rhs = a * val(e2) + b * val(e3)
    assert abs(lhs - rhs) < 1e-10


def test_chern_eval_inherited_nilpotency(module4):
    """Repeated equal-form singleton blocks beyond n survive cancellation."""
    d = 4
    eta = elem(d, doubleprime=MultiVector.generator(d, 1))
    # the m = n term of the partition sum involves Phi with n equal blocks;
    # evaluating the full cocycle on a 5-chain exercises the lift at order 4
    chain = (elem(d, prime=MultiVector.one(d)),) + (eta,) * 4
    value = jlo.chern_eval(module4, chain, 0.5)
    assert np.isfinite(value.real) and np.isfinite(value.imag)


def test_chern_eval_parity_bookkeeping(module4):
    """Chains whose total prime degree is odd have vanishing supertrace."""
    d = 4
    chain = (elem(d, prime=MultiVector.generator(d, 1)),)
    assert abs(jlo.chern_eval(module4, chain, 0.6)) < 1e-12


# --- heat supertrace ----------------------------------------------------------


def test_mckean_singer_invertible_dirac(rep4):
    rng = np.random.default_rng(3)
    while True:
        dirac = jlo.random_odd_dirac(rep4, rng)
        if np.abs(np.linalg.eigvalsh(dirac)).min() > 1e-3:
            break
    module = jlo.spinor_module(rep4, dirac)
    values, spread, sig = jlo.mckean_singer(module.grading, module.dirac, np.linspace(0.1, 2.0, 7))
    assert sig == 0
    assert spread <= 1e-9
    assert np.abs(values).max() <= 1e-9


def test_mckean_singer_zero_dirac(rep4):
    module = jlo.spinor_module(rep4, np.zeros((4, 4)))
    values, spread, sig = jlo.mckean_singer(module.grading, module.dirac, [0.5, 1.0])
    assert sig == 0 and spread == 0 and np.all(values == 0)


def test_mckean_singer_engineered_signature():
    """Unbalanced grading with a tall full-rank block has signature p - q."""
    rng = np.random.default_rng(4)
    p, q = 3, 1
    b = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
    dirac = np.block([[np.zeros((p, p)), b], [b.conj().T, np.zeros((q, q))]])
    grading = np.diag([1.0] * p + [-1.0] * q).astype(complex)
    values, spread, sig = jlo.mckean_singer(grading, dirac, np.linspace(0.1, 2, 9))
    assert sig == p - q
    assert spread <= 1e-9
    assert np.abs(values - sig).max() <= 1e-9


# --- flat-torus small-time study ------------------------------------------------


def _dense_flat_model(d=2, truncation=2):
    """Dense assembly of the K = 2 flat-torus spin model.

    The dense model lives on (modes) x (spinors), modes-major, where every
    constant-coefficient operator is block-diagonal over the modes.
    """
    rep = clifford.build_spinor_rep(d)
    ks = range(-truncation, truncation + 1)
    modes = [(k1, k2) for k1 in ks for k2 in ks]
    dirac = sum(
        np.kron(np.diag([1j * k[j] for k in modes]), rep.gammas[j]) for j in range(d)
    )
    return rep, modes, dirac


def test_flat_model_dirac_square_is_laplacian():
    _, modes, dirac = _dense_flat_model()
    # D^2 is the flat Laplacian: |k|^2 on each mode
    laplacian = np.kron(np.diag([float(k1**2 + k2**2) for k1, k2 in modes]), np.eye(2))
    assert np.allclose(dirac @ dirac, laplacian, atol=1e-12)


def test_flat_localization_value_matches_dense_chern_structure():
    """The per-mode truncated value equals a dense assembly of the K = 2 model,
    for n = 1 and for an n = 2 chain whose pair block is nonzero."""
    d, truncation, t = 2, 2, 0.9
    rep, modes, dirac = _dense_flat_model(d, truncation)
    eye = np.eye(len(modes))
    e1 = MultiVector.generator(d, 1)
    e2 = MultiVector.generator(d, 2)
    h = linalg.hermitian(0.5 * dirac @ dirac, require_nonneg=True)
    grading = np.kron(eye, rep.chirality)

    def c(form):
        return np.kron(eye, clifford.clifford_quantize(rep, form))

    def phi_str(c0, *perturbations):
        phi = phi_fermionic(OperatorFamily(h, perturbations), t).value
        return np.trace(grading @ c0 @ phi)

    chain = (DGAElement.of(e1, None, d), DGAElement.of(None, e2, d))
    expect = (t / 2.0) ** 0 * (-2.0) * phi_str(c(e1), c(e2))
    res = small_time_limit(chain, t_sequence=(t,), truncation=truncation)
    assert abs(res.sweep[0][1] - expect) < 1e-9

    # w0' = e1e2, w1 = (e1, 0), w2 = (e1, e2): P(w) = D c(e1) + c(e1) D + c(w'')
    # for the singletons; the pair (12) gives -(c(e1^e1) - c(e1)^2) = -1
    e12 = e1.wedge(e2)
    chain = (DGAElement.of(e12, None, d), DGAElement.of(e1, None, d), DGAElement.of(e1, e2, d))
    p1 = dirac @ c(e1) + c(e1) @ dirac
    p2 = p1 + c(e2)
    p12 = -np.eye(len(dirac))
    assert np.allclose(p12, -(c(e1.wedge(e1)) - c(e1) @ c(e1)))
    pair_term = (-2.0) * phi_str(c(e12), p12)
    expect = (t / 2.0) ** 1 * (pair_term + 4.0 * phi_str(c(e12), p1, p2))
    res = small_time_limit(chain, t_sequence=(t,), truncation=truncation)
    assert abs(pair_term) > 1.0
    assert abs(res.sweep[0][1] - expect) < 1e-9 * abs(expect)


def test_small_time_limit_spec_chains():
    d = 2
    e1, e2 = MultiVector.generator(d, 1), MultiVector.generator(d, 2)
    chain0 = (DGAElement.of(e1.wedge(e2), None, d),)
    res0 = small_time_limit(chain0, t_sequence=(1.6, 0.8), truncation=5)
    vol = (2 * np.pi) ** 2
    assert abs(res0.target - vol / (2j * np.pi)) < 1e-12
    assert res0.relative_error < 0.02

    chain1 = (DGAElement.of(e1, None, d), DGAElement.of(None, e2, d))
    res1 = small_time_limit(chain1, t_sequence=(1.6, 0.8), truncation=5)
    assert abs(res1.target - (-4.0) / (2j * np.pi) * vol) < 1e-12
    assert res1.relative_error < 0.02


def test_small_time_limit_degree_unbalanced_chain():
    d = 2
    e1 = MultiVector.generator(d, 1)
    chain = (DGAElement.of(e1.wedge(MultiVector.generator(d, 2)), None, d),
             DGAElement.of(None, e1, d))
    res = small_time_limit(chain, t_sequence=(1.6, 0.8), truncation=4)
    assert res.target == 0
    assert abs(res.extrapolated) < 1e-6


def test_truncation_stability():
    d = 2
    e1, e2 = MultiVector.generator(d, 1), MultiVector.generator(d, 2)
    chain = (DGAElement.of(e1.wedge(e2), None, d),)
    v5 = small_time_limit(chain, t_sequence=(0.8,), truncation=5).sweep[0][1]
    v6 = small_time_limit(chain, t_sequence=(0.8,), truncation=6).sweep[0][1]
    assert abs(v5 - v6) < 1e-5 * max(1.0, abs(v6))
