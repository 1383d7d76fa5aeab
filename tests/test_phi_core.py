import tracemalloc
from math import factorial

import mpmath
import numpy as np
import pytest

from opcalc import linalg, phi_core
from opcalc.phi_core import OperatorFamily


def random_family(rng, dim, n, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = linalg.hermitian(g @ g.conj().T / dim, require_nonneg=True)
    ps = tuple(
        scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        / np.sqrt(dim)
        for _ in range(n)
    )
    return OperatorFamily(h, ps)


def scalar_family(lam, ps):
    h = linalg.hermitian(np.array([[lam]]), require_nonneg=True)
    return OperatorFamily(h, tuple(np.array([[p]], dtype=complex) for p in ps))


def norm_bound_check(family, t):
    """The simplex bound on ||Phi_t||, as (lhs, rhs, holds): rhs is
    prod_j ||P_j (H+1)^(-1/2)|| * simplex_constant * e^{nt} * t^{n/2}, every
    P_j taking the first-order exponent a_j = 1/2, and 1 at n = 0."""
    n = family.n
    lhs = np.linalg.norm(phi_core.phi_block(family.h.matrix, family.perturbations, t), 2)
    if n == 0:
        rhs = 1.0  # ||e^{-tH}|| <= 1 for H >= 0
    else:
        root = linalg.frac_power_inv(family.h, 0.5)
        const = np.prod([np.linalg.norm(p @ root, 2) for p in family.perturbations])
        rhs = const * phi_core.simplex_constant((0.5,) * n) * np.exp(n * t) * t ** (n / 2)
    return lhs, rhs, bool(lhs <= rhs * (1 + 1e-8) + 1e-300)


# --- lift structure ---------------------------------------------------------


def test_build_lift_n1_structure():
    lam = 0.9
    fam = scalar_family(lam, [2.0])
    lift = phi_core.build_lift(fam)
    expect_h = np.kron(np.eye(2), np.array([[lam]]))
    expect_p = np.kron(np.array([[0, 0], [1, 0]]), np.array([[2.0]]))
    assert np.allclose(lift.h_part, expect_h)
    assert np.allclose(lift.p_part, expect_p)


def test_build_lift_slot_pattern_one_block_per_row_and_column():
    rng = np.random.default_rng(0)
    fam = random_family(rng, 3, 3)
    lift = phi_core.build_lift(fam)
    blk = (1 << 3) * 3
    occupancy = np.zeros((3, 3), dtype=int)
    for q in range(3):
        for r in range(3):
            block = lift.p_part[q * blk : (q + 1) * blk, r * blk : (r + 1) * blk]
            occupancy[q, r] = int(np.any(block != 0))
    assert np.array_equal(occupancy.sum(axis=0), [1, 1, 1])
    assert np.array_equal(occupancy.sum(axis=1), [1, 1, 1])
    # top-right carries index n, bottom row carries index 1
    assert occupancy[0, 2] == 1 and occupancy[2, 1] == 1


@pytest.mark.parametrize("n, dim", [(4, 8), (3, 4)])
def test_lift_exponential_runs_one_chain_at_a_time(monkeypatch, n, dim):
    """P_lift only moves (slot q, mask S) to (slot q+1, S + {j}), so the
    lift's block wiring splits it into n 2^(n-1) chains of at most n+1
    blocks, and ``phi_fermionic`` exponentiates each chain on its own."""
    sizes = []
    pade_expm = linalg._pade_expm

    def counting_expm(m):
        sizes.append(m.shape[-1])
        return pade_expm(m)

    monkeypatch.setattr(linalg, "_pade_expm", counting_expm)
    fam = random_family(np.random.default_rng(20 + n), dim, n)
    got = phi_core.phi_fermionic(fam, 0.7).value
    assert len(sizes) == n * (1 << (n - 1))
    assert max(sizes) <= (n + 1) * dim
    assert sum(sizes) == n * (1 << n) * dim
    want = phi_core.phi_block(fam.h.matrix, fam.perturbations, 0.7)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("n, dim", [(1, 4), (2, 3), (3, 3), (4, 3)])
def test_fermionic_chains_match_the_dense_lift_exponential(n, dim):
    """The block storage and the chain assembly against the paper's dense
    lift: (-1)^n times the (slot n, full mask) x (slot n, empty mask) block
    of the Pade kernel's exponential of the whole -t (h_part + p_part)."""
    rng = np.random.default_rng(40 + n)
    for t in (0.3, 1.1):
        fam = random_family(rng, dim, n, scale=1.5)
        lift = phi_core.build_lift(fam)
        big = linalg._pade_expm((-t * (lift.h_part + lift.p_part))[None])[0]
        r0 = lift.block_index(n, (1 << n) - 1) * dim
        c0 = lift.block_index(n, 0) * dim
        want = (-1.0) ** n * big[r0 : r0 + dim, c0 : c0 + dim]
        got = phi_core.phi_fermionic(fam, t).value
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("n, dim", [(3, 16), (4, 8)])
def test_fermionic_peak_memory_is_below_half_a_lift_sized_array(n, dim):
    """P_lift is kept as its nonzero blocks and each chain is assembled and
    exponentiated on its own, so no lift-sized array is ever allocated: the
    traced peak is a few chain-sized arrays, 0.39 and 0.09 of one lift-sized
    array here, where a dense generator and its exponential read 2.34 and
    2.08."""
    family = random_family(np.random.default_rng(5), dim, n)
    lift_bytes = (n * (1 << n) * dim) ** 2 * 16
    tracemalloc.start()
    try:
        phi_core.phi_fermionic(family, 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * lift_bytes


def test_lifted_perturbation_nilpotent_exactly():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        fam = random_family(rng, 2, n)
        p = phi_core.build_lift(fam).p_part
        power = np.linalg.matrix_power(p, n + 1)
        assert np.array_equal(power, np.zeros_like(power))


def test_build_lift_budget_enforced():
    rng = np.random.default_rng(2)
    fam = random_family(rng, 48, 3)  # 3 * 8 * 48 = 1152 ok, 48*3*8... fine
    phi_core.build_lift(fam)
    big = random_family(rng, 200, 3)  # 3 * 8 * 200 = 4800 > 4096
    with pytest.raises(ValueError):
        phi_core.build_lift(big)


# --- evaluators -------------------------------------------------------------


def test_phi_fermionic_n0_is_semigroup():
    rng = np.random.default_rng(3)
    fam = random_family(rng, 4, 0)
    got = phi_core.phi_fermionic(fam, 0.8).value
    assert np.allclose(got, linalg.herm_exp(fam.h, 0.8), atol=1e-13)
    got = phi_core.phi_block(fam.h.matrix, (), 0.8)
    assert np.allclose(got, linalg.herm_exp(fam.h, 0.8), atol=1e-13)


def test_phi_zero_time_conventions():
    rng = np.random.default_rng(4)
    fam = random_family(rng, 3, 2)
    assert np.allclose(phi_core.phi_fermionic(fam, 0.0).value, 0.0)
    assert np.allclose(phi_core.phi_block(fam.h.matrix, fam.perturbations, 0.0), 0.0)
    fam0 = random_family(rng, 3, 0)
    assert np.allclose(phi_core.phi_fermionic(fam0, 0.0).value, np.eye(3))
    assert np.allclose(phi_core.phi_block(fam0.h.matrix, (), 0.0), np.eye(3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scalar_commuting_closed_form(n):
    lam, t = 0.7, 0.8
    ps = [0.5, -1.3, 2.0][:n]
    fam = scalar_family(lam, ps)
    exact = np.prod(ps) * t**n * np.exp(-lam * t) / factorial(n)
    for method, kwargs in (
        (phi_core.phi_fermionic, {}),
        (phi_core.phi_quadrature, {"nodes_per_dim": 16}),
    ):
        got = method(fam, t, **kwargs).value[0, 0]
        assert abs(got - exact) < 1e-10
    assert abs(phi_core.phi_block(fam.h.matrix, fam.perturbations, t)[0, 0] - exact) < 1e-10


def test_two_by_two_analytic_case():
    lam, t = 1.3, 0.6
    h = linalg.hermitian(np.diag([0.0, lam]), require_nonneg=True)
    p = np.array([[0, 1], [1, 0]], dtype=complex)
    fam = OperatorFamily(h, (p,))
    expect = (1 - np.exp(-lam * t)) / lam * p
    assert np.abs(phi_core.phi_fermionic(fam, t).value - expect).max() < 1e-10
    assert np.abs(phi_core.phi_block(h.matrix, (p,), t) - expect).max() < 1e-10


def test_phi_block_stack_matches_single_calls():
    """A stack of H's gives each member's Phi_t at n = 1 (closed form) and
    n = 2 (Van Loan); a single P broadcasts over the stack; an H with a
    negative eigenvalue anywhere in it is rejected."""
    rng = np.random.default_rng(7)
    fams = [random_family(rng, 3, 2) for _ in range(4)]
    hs = np.stack([f.h.matrix for f in fams])
    p1 = np.stack([f.perturbations[0] for f in fams])
    p2 = fams[0].perturbations[1]
    for perts in ((p1,), (p2,), (p1, p2)):
        got = phi_core.phi_block(hs, perts, 0.6)
        for i, f in enumerate(fams):
            members = tuple(np.broadcast_to(p, hs.shape)[i] for p in perts)
            single = phi_core.phi_fermionic(OperatorFamily(f.h, members), 0.6).value
            assert np.linalg.norm(got[i] - single) <= 1e-12 * np.linalg.norm(single)
    hs[2] -= (np.linalg.eigvalsh(hs[2])[0] + 0.5) * np.eye(3)  # lambda_min = -0.5
    for perts in ((p1,), (p1, p2)):
        with pytest.raises(ValueError, match="not nonnegative"):
            phi_core.phi_block(hs, perts, 0.6)


# --- phi_block at n = 1: the closed form against two references ---------------


def van_loan_n1(h, p, t):
    """Phi_t(P) for an (N, r, r) stack of H: e^{-t lo} times the top-right
    block of exp([[-t (H - lo), t P], [0, -t (H - lo)]]), lo = lambda_min(H)
    (Van Loan 1978)."""
    r = h.shape[-1]
    lo = np.linalg.eigvalsh(h)[:, 0, None, None]
    shifted = -t * (h - lo * np.eye(r))
    gen = np.zeros((len(h), 2 * r, 2 * r), dtype=complex)
    gen[:, :r, :r] = gen[:, r:, r:] = shifted
    gen[:, :r, r:] = t * p
    return linalg.expm(gen)[:, :r, r:] * np.exp(-t * lo)


def mpmath_n1(h, p, t):
    """The same block exponential of the unshifted generator, for each
    matrix of the stack, in 50-digit arithmetic."""
    r = h.shape[-1]
    out = np.empty(h.shape, dtype=complex)
    with mpmath.workdps(50):
        for k, (hk, pk) in enumerate(zip(h, np.broadcast_to(p, h.shape))):
            gen = mpmath.zeros(2 * r)
            for a in range(r):
                for b in range(r):
                    gen[a, b] = gen[r + a, r + b] = -t * mpmath.mpc(hk[a, b])
                    gen[a, r + b] = t * mpmath.mpc(pk[a, b])
            big = mpmath.expm(gen)
            out[k] = [[complex(big[a, r + b]) for b in range(r)] for a in range(r)]
    return out


def spectral_stack(rng, eigvals):
    """An (N, r, r) stack of Hermitian U diag(lambda) U*, U random unitary,
    one row of ``eigvals`` per matrix."""
    eigvals = np.atleast_2d(eigvals)
    g = rng.standard_normal(eigvals.shape + eigvals.shape[-1:])
    u, _ = np.linalg.qr(g + 1j * rng.standard_normal(g.shape))
    h = (u * eigvals[:, None, :]) @ np.conj(np.swapaxes(u, 1, 2))
    return 0.5 * (h + np.conj(np.swapaxes(h, 1, 2)))


N1_CASES = {
    # name: (the stack of H, built from an rng; t; relative bound)
    "exact_tie": (lambda rng: 0.7 * np.eye(4)[None], 0.9, 1e-14),
    "near_tie_1e-13": (lambda rng: spectral_stack(rng, [0.4, 0.4 + 1e-13, 1.1, 2.3]), 0.9, 1e-14),
    "near_tie_1e-9": (lambda rng: spectral_stack(rng, [0.4, 0.4 + 1e-9, 1.1, 2.3]), 0.9, 1e-14),
    "zero_eigenvalue": (lambda rng: spectral_stack(rng, [0.0, 0.5, 1.3, 2.0]), 1.3, 1e-14),
    "broadcast_stack": (
        lambda rng: spectral_stack(rng, np.linspace([0.0, 0.3, 0.8, 1.5], [1.0, 1.7, 2.2, 3.0], 5)),
        0.6,
        1e-14,
    ),
    # eigh's absolute eigenvalue error (~eps ||H||) is multiplied by t
    "stiff": (lambda rng: spectral_stack(rng, [0.0, 0.3, 50.0, 1e3]), 5.0, 1e-12),
}


@pytest.mark.parametrize("case", list(N1_CASES))
def test_phi_block_n1_closed_form_accuracy(case):
    """The n = 1 divided-difference closed form matches the Van Loan block
    exponential and a 50-digit one: ties, near ties, a zero eigenvalue, one
    P broadcast over a stack of H, and a stiff H."""
    make_h, t, bound = N1_CASES[case]
    rng = np.random.default_rng(11)
    h = make_h(rng)
    p = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    got = phi_core.phi_block(h, (p,), t)
    assert got.shape == h.shape
    ref = mpmath_n1(h, p, t)
    for other in (ref, van_loan_n1(h, p, t)):
        assert np.linalg.norm(got - other) <= bound * np.linalg.norm(ref)
    if case == "exact_tie":
        assert np.linalg.norm(got - t * np.exp(-0.7 * t) * p) <= 1e-14 * np.linalg.norm(got)


def test_phi_block_n1_at_time_zero_is_zero():
    rng = np.random.default_rng(12)
    h = spectral_stack(rng, [[0.0, 0.5, 1.3], [0.2, 0.2, 4.0]])
    p = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert not np.any(phi_core.phi_block(h, (p,), 0.0))


def test_quadrature_constant_integrand_product_order():
    """H = 0 gives the simplex volume times the ordered product P_1 P_2."""
    rng = np.random.default_rng(5)
    h = linalg.hermitian(np.zeros((3, 3)), require_nonneg=True)
    p1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    fam = OperatorFamily(h, (p1, p2))
    t = 0.9
    got = phi_core.phi_quadrature(fam, t, 12).value
    assert np.allclose(got, p1 @ p2 * t**2 / 2, atol=1e-10)
    assert not np.allclose(p1 @ p2, p2 @ p1)  # the order genuinely matters


def test_cross_method_agreement_random():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3):
        fam = random_family(rng, 6, n)
        t = 0.7
        f = phi_core.phi_fermionic(fam, t).value
        q = phi_core.phi_quadrature(fam, t, 32).value
        o = phi_core.phi_ode(fam, t, 2048).value
        scale = np.linalg.norm(f)
        assert np.linalg.norm(f - q) / scale < 1e-8
        assert np.linalg.norm(f - o) / scale < 1e-6


# --- eigenbasis evaluators against the dense propagator loops ---------------


def dense_ode_reference(family, t, steps):
    """Reference for phi_ode: the same midpoint rule with dense propagator
    matrices, multiplying e^{-hH}, e^{-hH/2} and P_k at every step."""
    n, dim = family.n, family.dim
    suffix_vals = None
    for k in range(n, 0, -1):
        nsteps = steps * 2 ** (k - 1)
        h = t / nsteps
        e_full = linalg.herm_exp(family.h, h)
        e_half = linalg.herm_exp(family.h, h / 2.0)
        p = family.perturbations[k - 1]
        vals = np.zeros((nsteps + 1, dim, dim), dtype=complex)
        if k == n:
            mids = dense_semigroup_stack(family.h, (np.arange(nsteps) + 0.5) * h)
        cur = np.zeros((dim, dim), dtype=complex)
        for i in range(nsteps):
            mid = mids[i] if k == n else suffix_vals[2 * i + 1]
            cur = e_full @ cur + h * (e_half @ (p @ mid))
            vals[i + 1] = cur
        suffix_vals = vals
    return suffix_vals[-1]


def dense_semigroup_stack(h, taus):
    """Stack of dense exp(-tau H)."""
    u = h.eigvecs
    weights = np.exp(-np.multiply.outer(taus, h.eigvals))
    return np.einsum("ab,nb,cb->nac", u, weights, u.conj())


def dense_quadrature_reference(family, t, nodes_per_dim):
    """Reference for phi_quadrature: the same nested Gauss-Legendre
    recursion on dense semigroup stacks."""
    n, dim = family.n, family.dim
    x0, w0 = np.polynomial.legendre.leggauss(nodes_per_dim)

    def level_values(j, uppers):
        if j == 0:
            return dense_semigroup_stack(family.h, uppers)
        half = uppers[:, None] / 2.0
        nodes = half * (x0[None, :] + 1.0)
        weights = half * w0[None, :]
        child_vals = level_values(j - 1, nodes.reshape(-1))
        child_vals = child_vals.reshape(len(uppers), nodes_per_dim, dim, dim)
        gaps = uppers[:, None] - nodes
        decay = dense_semigroup_stack(family.h, gaps.reshape(-1))
        decay = decay.reshape(len(uppers), nodes_per_dim, dim, dim)
        p = family.perturbations[j - 1]
        integrand = np.einsum("nqab,bc,nqcd->nqad", child_vals, p, decay)
        return np.einsum("nq,nqad->nad", weights, integrand)

    return level_values(n, np.array([t]))[0]


def rotated_family(rng, eigvals, n):
    """H with the given spectrum in a random eigenbasis, and n random
    non-Hermitian perturbations."""
    dim = len(eigvals)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    h = linalg.hermitian((q * np.asarray(eigvals, dtype=float)) @ q.conj().T, require_nonneg=True)
    return OperatorFamily(h, random_family(rng, dim, n).perturbations)


def eigenbasis_cases():
    rng = np.random.default_rng(16)
    cases = [pytest.param(random_family(rng, 4, n), 0.7, id=f"random_n{n}") for n in (1, 2, 3, 4)]
    cases += [
        pytest.param(rotated_family(rng, [0.0] * 4, 3), 0.9, id="h_zero"),
        pytest.param(rotated_family(rng, [0.3, 1.1, 1.1, 2.0], 2), 0.8, id="repeated_eigenvalue"),
        # at lambda = 1e3 the late midpoints e^{-(i+1/2) h lambda} underflow to 0
        pytest.param(rotated_family(rng, [0.0, 0.5, 300.0, 1e3], 2), 1.0, id="stiff"),
    ]
    # at lambda = 1e5 the top level's step decay, and with it the
    # propagator's diagonal and its powers, underflow to 0 as well
    cases += [
        pytest.param(rotated_family(rng, [0.0, 0.5, 300.0, 1e5], n), 1.0, id=f"stiff_n{n}")
        for n in (1, 3)
    ]
    return cases


@pytest.mark.parametrize("family,t", eigenbasis_cases())
def test_eigenbasis_evaluators_match_dense_loops(family, t):
    first, last = family.perturbations[0], family.perturbations[-1]
    if family.n > 1:
        assert not np.allclose(first @ last, last @ first)
    assert not np.allclose(first, first.conj().T)
    for steps in (64, 100, 128):
        got = phi_core.phi_ode(family, t, steps).value
        ref = dense_ode_reference(family, t, steps)
        assert np.all(np.isfinite(got))
        assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref)
    got = phi_core.phi_quadrature(family, t, 8).value
    ref = dense_quadrature_reference(family, t, 8)
    assert np.all(np.isfinite(got))
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def per_step_ode(family, t, steps, dtype=np.float64):
    """The step loop of the midpoint scheme, one Python iteration per step
    of every level, run in ``dtype`` from phi_ode's float64 eigenbasis."""
    n, dim = family.n, family.dim
    lam, u, ps = phi_core._to_eigenbasis(family)
    lam, t = lam.astype(dtype), dtype(t)
    cdtype = np.result_type(dtype, 1j)
    ps = [p.astype(cdtype) for p in ps]

    suffix = None  # odd-index values of level k+1, the midpoints of level k
    for k in range(n, 0, -1):
        nsteps = steps * 2 ** (k - 1)
        h = t / nsteps
        decay = np.exp(-h * lam)[:, None]
        p = (h * np.exp(-h / 2 * lam))[:, None] * ps[k - 1]
        if k == n:
            mids = np.exp(-np.multiply.outer((np.arange(nsteps) + dtype(0.5)) * h, lam))
            forcing = (p * mid for mid in mids)
        else:
            forcing = p @ suffix
            suffix = None  # read once; release before the next level's values
        kept = np.empty((nsteps // 2, dim, dim), dtype=cdtype) if k > 1 else None
        cur = np.zeros((dim, dim), dtype=cdtype)  # Phi_0 = 0 for n >= 1
        for i, term in enumerate(forcing):
            cur *= decay
            cur += term
            if kept is not None and i % 2 == 0:
                kept[i // 2] = cur
        suffix, kept = kept, None  # suffix holds the only reference
    return u @ cur.astype(complex) @ u.conj().T


# The long-double loop's products are numpy's own loops, not BLAS, and cost
# about steps 2^(n-1) dim^3: n = 4, dim 32 at 2048 steps alone takes about
# 6 s.  So dim 32 runs 2048 steps at n = 1 only.  2048 steps run at every n
# for dims 2 and 8; the float64 loop's worst drift, n = 4, dim 8, is one of
# them.  2047, whose every bit makes the powering take a product, runs on
# dim 2 at every n and on dim 32 at n = 1.
SCAN_CASES = [(n, dim, s) for n in (1, 2, 3, 4) for dim in (2, 8, 32) for s in (16, 17, 100)]
SCAN_CASES += [(n, dim, 2048) for n in (1, 2, 3, 4) for dim in (2, 8)] + [(1, 32, 2048)]
SCAN_CASES += [(n, 2, 2047) for n in (1, 2, 3, 4)] + [(1, 32, 2047)]


@pytest.mark.parametrize("n,dim,steps", SCAN_CASES)
def test_blocked_scan_matches_per_step_loop(n, dim, steps):
    """phi_ode's power of the one-step propagator against the per-step loop
    run in long double: only the rounding differs.  17, 100 and 2047 are
    odd or not powers of two, so the powering takes extra products."""
    assert np.finfo(np.longdouble).eps < 1e-18  # else the reference is plain float64
    family = random_family(np.random.default_rng(1000 * n + dim), dim, n)
    got = phi_core.phi_ode(family, 0.7, steps).value
    ref = per_step_ode(family, 0.7, steps, np.longdouble)
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


def test_ode_peak_memory_does_not_grow_with_steps():
    """phi_ode holds the propagator and its powers, whose size does not
    depend on the step count: 65536 steps peak within 1.5x of 64."""
    family = random_family(np.random.default_rng(17), 16, 3)
    peaks = []
    for steps in (64, 65536):
        tracemalloc.start()
        try:
            phi_core.phi_ode(family, 0.5, steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


@pytest.mark.parametrize(
    "n,steps,share", [(2, 2048, 0.15), (3, 1024, 0.4), (3, 1024, 0.15)]
)
def test_ode_peak_memory_never_holds_the_top_level(n, steps, share):
    """phi_ode never stores a per-step trajectory: its peak allocation stays
    below a share of one top-level trajectory of dense matrices (steps
    2^(n-1) matrices of dim x dim).  0.4 and 0.15 are the bounds the earlier
    level-by-level scan was held to; the propagator power keeps only its
    powers, far below either."""
    dim = 16
    family = random_family(np.random.default_rng(17), dim, n)
    trajectory_bytes = steps * 2 ** (n - 1) * dim * dim * 16
    tracemalloc.start()
    try:
        phi_core.phi_ode(family, 0.5, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < share * trajectory_bytes


def test_ode_second_order_convergence():
    rng = np.random.default_rng(7)
    fam = random_family(rng, 4, 2)
    t = 0.8
    ref = phi_core.phi_fermionic(fam, t).value
    e1 = np.linalg.norm(phi_core.phi_ode(fam, t, 64).value - ref)
    e2 = np.linalg.norm(phi_core.phi_ode(fam, t, 128).value - ref)
    assert 3.0 < e1 / e2 < 5.0


def test_ode_time_zero_suffix_conventions():
    rng = np.random.default_rng(8)
    fam = random_family(rng, 3, 1)
    with pytest.raises(ValueError):
        phi_core.phi_ode(fam, 0.0, 64)
    with pytest.raises(ValueError):
        phi_core.phi_ode(fam, 0.5, 8)


def test_adjoint_symmetry_reversed_family():
    """Phi_t(P_1,...,P_n)^* equals Phi_t(P_n,...,P_1) for Hermitian data."""
    rng = np.random.default_rng(9)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = linalg.hermitian(g @ g.conj().T / 5, require_nonneg=True)
    ps = []
    for _ in range(3):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        ps.append(0.5 * (m + m.conj().T))
    fam = OperatorFamily(h, tuple(ps))
    rev = OperatorFamily(h, tuple(ps[::-1]))
    a = phi_core.phi_fermionic(fam, 0.6).value
    b = phi_core.phi_fermionic(rev, 0.6).value
    assert np.linalg.norm(a.conj().T - b) < 1e-10


def test_continuity_at_zero_dominated_by_bound():
    rng = np.random.default_rng(10)
    fam = random_family(rng, 4, 2)
    prev = None
    for t in (0.2, 0.1, 0.05, 0.025):
        lhs, rhs, holds = norm_bound_check(fam, t)
        assert holds
        if prev is not None:
            assert lhs < prev
        prev = lhs
    assert prev < 0.1 * norm_bound_check(fam, 1.0)[0] + 1e-12


# --- simplex constant -------------------------------------------------------


def test_simplex_constant_examples():
    assert phi_core.simplex_constant([0.5]) == pytest.approx(2.0, abs=1e-12)
    for n in (1, 2, 3):
        assert phi_core.simplex_constant([1e-13] * n) == pytest.approx(
            1.0 / factorial(n), rel=1e-9
        )
    with pytest.raises(ValueError):
        phi_core.simplex_constant([1.2])


def test_simplex_constant_against_mc_oracle():
    for exps in ((0.5, 0.5), (0.3, 0.7), (0.4, 0.2, 0.6)):
        closed = phi_core.simplex_constant(exps)
        mc, se = phi_core.simplex_constant_mc(exps, samples=400000, seed=11)
        assert abs(mc - closed) <= 3.0 * se


# --- bounds and checks ------------------------------------------------------


def test_norm_bound_check_trivial_cases():
    rng = np.random.default_rng(12)
    h = linalg.hermitian(np.eye(3), require_nonneg=True)
    zero_fam = OperatorFamily(h, (np.zeros((3, 3)),))
    lhs, rhs, holds = norm_bound_check(zero_fam, 0.7)
    assert holds and lhs <= 1e-300 and rhs == 0.0
    fam = random_family(rng, 3, 2)
    lhs, rhs, holds = norm_bound_check(fam, 0.0)
    assert holds and lhs == 0.0
    fam6 = random_family(rng, 6, 2)
    assert norm_bound_check(fam6, 1.0)[2]


def test_nilpotency_check_contrast():
    rng = np.random.default_rng(13)
    fam = random_family(rng, 2, 2)
    vanish = phi_core.nilpotency_check(fam, 0.7, 3)
    assert vanish <= 1e-10
    nonzero = phi_core.nilpotency_check(fam, 0.7, 2)
    assert nonzero > 1e-6


def test_derivative_check_empty_family():
    """No perturbations: the identity reduces to d/dt e^{-tH} = -H e^{-tH}."""
    rng = np.random.default_rng(14)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = linalg.hermitian(g @ g.conj().T / 4, require_nonneg=True)
    fam = OperatorFamily(h)
    r1 = phi_core.derivative_check(fam, 0.5, 0.04)
    r2 = phi_core.derivative_check(fam, 0.5, 0.02)
    assert 3.0 < r1 / r2 < 5.0


def test_derivative_check_scalar_closed_form():
    lam, p, t = 1.1, 0.8, 0.5
    fam = scalar_family(lam, [p])
    # d/dt (p t e^{-lam t}) = p e^{-lam t} - lam p t e^{-lam t}
    res = phi_core.derivative_check(fam, t, 1e-3)
    assert res < 1e-5


def test_dyson_partial_sum_properties():
    rng = np.random.default_rng(15)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = linalg.hermitian(g @ g.conj().T / 4, require_nonneg=True)
    # P = 0: approx equals the unperturbed semigroup for every order
    zero = phi_core.dyson_partial_sum(h, np.zeros((4, 4)), 0.4, 3)
    assert np.allclose(zero.approx, zero.true_value, atol=1e-12)
    # generic: error decreases monotonically in the order at small t
    p = 0.6 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    errors = [phi_core.dyson_partial_sum(h, p, 0.4, order).error for order in (1, 2, 3, 4)]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert all(phi_core.dyson_partial_sum(h, p, 0.4, order).holds for order in (1, 3))


def test_dyson_scalar_exponential_series():
    p, t = 0.7, 0.5
    h = linalg.hermitian(np.zeros((1, 1)), require_nonneg=True)
    res = phi_core.dyson_partial_sum(h, np.array([[p]]), t, 6)
    series = sum((-p * t) ** k / factorial(k) for k in range(7))
    assert res.approx[0, 0] == pytest.approx(series, abs=1e-12)
    assert res.true_value[0, 0] == pytest.approx(np.exp(-p * t), abs=1e-12)
