"""The iterated semigroup integral

    Phi_t(P_1, ..., P_n) = int_{0<=s_1<=...<=s_n<=t}
        e^{-s_1 H} P_1 e^{-(s_2-s_1) H} P_2 ... P_n e^{-(t-s_n) H} ds

through :func:`phi_block`, the one route every consumer calls (in the
eigenbasis of H for n <= 1, where n = 1 is P~ times the first divided
difference of e^{-t lambda}; for n >= 2 one exponential of the (n+1) dim
block-bidiagonal generator, Van Loan 1978), and through the paper's three
independent evaluators, kept as its oracles: the
enlarged-space (Fermionic) lift whose single matrix exponential encodes
Phi_t, a nested quadrature and a midpoint ODE.  Also here: the simplex
norm-bound machinery and structural checks (nilpotency of the lifted
perturbation, the suffix derivative recursion, alternating partial sums of
the perturbed semigroup).

The nested quadrature and the midpoint ODE are built from the semigroup
alone, so both run in H's eigenbasis: each P_j is transformed once to
U* P_j U, every e^{-sH} is a row or column scaling by e^{-s lambda}, and the
result returns to the original basis once.  One level-1 step of the ODE
is a fixed block-triangular map of all its levels stacked, so the ODE is
the steps-th power of that one-step propagator, taken by binary powering:
its cost is logarithmic in the step count and its memory does not depend
on it.  It builds no generator and calls no ``expm``.  The lift is
exponentiated with no eigendecomposition, so it cross-checks the other two
through an independent route.  Its perturbation only moves (slot q, mask S)
to (slot q+1, S + {j}), so the generator is a permuted direct sum of
n 2^(n-1) decoupled chains of at most n+1 blocks.  The lift is kept as its
nonzero dim_H blocks (``build_lift``, theta_hat signs, slot wiring), and the
Fermionic integral reads one block of its exponential, which depends only
on the chain that holds it (the block-triangular exponential of Van Loan
1978).  So that one chain, found by walking the block wiring from
(slot n, empty mask), is assembled and exponentiated, and no lift-sized
array is ever formed.

Conventions fixed here:
  * lift layout is slot-major: row index ((j-1) * 2^n + S) * dim_H + h for
    slot j in 1..n, exterior-algebra bitmask S, and H-coordinate h; the
    block of (j, S) is (j-1) * 2^n + S;
  * the lifted perturbation places theta_hat(n-q+1) (x) P_{n-q+1} in slot-row
    q, slot-column q-1 (row 1 wraps to column n with theta_hat(n) (x) P_n);
  * Phi_t is (-1)^n times the block of exp(-t(H_lift + P_lift)) with rows at
    (slot n, full mask) and columns at (slot n, empty mask).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np

from . import linalg
from .grassmann import theta_hat_matrix
from .linalg import HermitianOperator, herm_exp


@dataclass(frozen=True)
class OperatorFamily:
    """Nonnegative Hermitian H with perturbations P_1..P_n."""

    h: HermitianOperator
    perturbations: tuple = ()

    def __post_init__(self):
        perts = tuple(np.asarray(p, dtype=complex) for p in self.perturbations)
        for p in perts:
            if p.shape != self.h.matrix.shape:
                raise ValueError("every perturbation must share H's dimension")
        object.__setattr__(self, "perturbations", perts)

    @property
    def n(self) -> int:
        return len(self.perturbations)

    @property
    def dim(self) -> int:
        return self.h.dim


@dataclass(frozen=True)
class FermionicLift:
    """Enlarged-space generator H_lift + P_lift in the slot-major layout,
    kept as its nonzero dim_H blocks.

    H_lift = I (x) H is stored once, as the dim_H matrix ``h``.  P_lift is
    ``p_blocks``, {(row block, column block): theta_hat sign times P_j}, one
    entry per nonzero theta_hat entry.  ``h_part`` and ``p_part`` assemble
    the dense matrices on demand.  The two share no nonzero entry: every
    theta_hat changes the exterior mask, so each diagonal block of P_lift is
    zero.
    """

    n: int
    dim_h: int
    h: np.ndarray
    p_blocks: dict

    @property
    def dim(self) -> int:
        return self.n * (1 << self.n) * self.dim_h

    @property
    def h_part(self) -> np.ndarray:
        return np.kron(np.eye(self.n << self.n), self.h)

    @property
    def p_part(self) -> np.ndarray:
        d = self.dim_h
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (r, c), block in self.p_blocks.items():
            out[r * d : (r + 1) * d, c * d : (c + 1) * d] = block
        return out

    def block_index(self, slot: int, mask: int) -> int:
        """Block of (slot in 1..n, exterior bitmask) in the layout."""
        return (slot - 1) * (1 << self.n) + mask


@dataclass(frozen=True)
class PhiResult:
    value: np.ndarray
    diagnostics: dict


def phi_block(h, perturbations, t: float) -> np.ndarray:
    """Phi^H_t(P_1, ..., P_n), t >= 0, for H and each P_j given as (..., r, r)
    arrays, one matrix or a stack; each P_j broadcasts to H's shape.

    One batched eigh H = U diag(lambda) U* checks every H >= 0 (to
    -1e-12 ||H||, the tolerance of ``linalg.hermitian``), and its basis
    evaluates n <= 1 in closed form.  For n = 0 the result is e^{-tH} by
    spectral calculus.  For n = 1 it is U (P~ (.) W) U*, P~ = U* P U, with W
    the first divided difference of e^{-t lambda} (Daleckii & Krein 1965):
    W_ab = e^{-t min(lambda_a, lambda_b)} (1 - e^{-t g}) / g, g =
    |lambda_a - lambda_b|, taken with ``expm1`` and equal to t where g = 0.
    For n >= 2 it is the top-right block of one stacked exponential of the
    (n+1) r block-bidiagonal matrix with -t (H - lo) on the diagonal and
    t P_j on the superdiagonal (Van Loan 1978), times e^{-t lo}, where
    lo = lambda_min(H) keeps |e^{-t(H - lo)}| <= 1.
    """
    h = np.asarray(h)
    r, n = h.shape[-1], len(perturbations)
    vals, vecs = np.linalg.eigh(h)
    if np.any(vals[..., 0] < -linalg.HERM_CONSTRUCTION_RTOL * np.abs(vals).max(axis=-1)):
        raise ValueError(f"operator is not nonnegative: min eigenvalue {vals.min():.3e}")
    if n == 0:
        return (vecs * np.exp(-t * vals)[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    if n == 1:
        vecs_h = np.conj(np.swapaxes(vecs, -1, -2))
        lam_a, lam_b = vals[..., :, None], vals[..., None, :]
        gap = np.abs(lam_a - lam_b)
        safe = np.where(gap == 0.0, 1.0, gap)
        diff = np.where(gap == 0.0, t, -np.expm1(-t * gap) / safe)
        weights = np.exp(-t * np.minimum(lam_a, lam_b)) * diff
        return vecs @ ((vecs_h @ perturbations[0] @ vecs) * weights) @ vecs_h
    lo = vals[..., 0, None, None]
    gen = np.zeros(h.shape[:-2] + (n + 1, r, n + 1, r), dtype=complex)
    for j in range(n + 1):
        gen[..., j, :, j, :] = -t * (h - lo * np.eye(r))
    for j, p in enumerate(perturbations):
        gen[..., j, :, j + 1, :] = t * p
    big = linalg.expm(gen.reshape(-1, (n + 1) * r, (n + 1) * r))
    return big[:, :r, n * r :].reshape(h.shape) * np.exp(-t * lo)


def build_lift(family: OperatorFamily) -> FermionicLift:
    """The enlarged-space generator for n >= 1: P_lift as its nonzero
    blocks, H_lift kept as H alone (:class:`FermionicLift`)."""
    n, dim_h = family.n, family.dim
    if n < 1:
        raise ValueError("lift requires at least one perturbation")
    dim = n * (1 << n) * dim_h
    if dim > linalg.DIMENSION_BUDGET:
        raise ValueError(
            f"lifted dimension {dim} exceeds budget {linalg.DIMENSION_BUDGET}"
        )
    p_blocks = {}
    size = 1 << n

    def place(row_slot: int, col_slot: int, index: int):
        theta = theta_hat_matrix(index, n)
        p = family.perturbations[index - 1]
        for a, b in zip(*np.nonzero(theta)):
            key = ((row_slot - 1) * size + int(a), (col_slot - 1) * size + int(b))
            p_blocks[key] = theta[a, b] * p

    place(1, n, n)
    for q in range(2, n + 1):
        place(q, q - 1, n - q + 1)
    return FermionicLift(n, dim_h, family.h.matrix, p_blocks)


def phi_fermionic(family: OperatorFamily, t: float) -> PhiResult:
    """Phi_t via the exponential of the enlarged-space generator, one
    ``linalg.expm`` call on the one decoupled chain that holds the block
    that is read.

    Each theta_hat adds one generator to the mask, so a block feeds at most
    one block, is fed by at most one, and nothing feeds (slot n, empty
    mask): the walk from it along ``p_blocks`` is that whole chain, n+1
    blocks ending at (slot n, full mask).  Its -t (H_lift + P_lift) is
    the principal submatrix of the dense generator on those blocks, in
    ascending order: its P_lift blocks scaled by -t, and -t H on each
    diagonal block.  The other chains do not reach the read block, so they
    are neither exponentiated nor norm-checked; the largest array is the
    one chain's, (n+1) dim_H rows."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    n, dim_h = family.n, family.dim
    if n == 0:
        return PhiResult(herm_exp(family.h, t), {"lift_dim": dim_h})
    lift = build_lift(family)
    row = lift.block_index(n, (1 << n) - 1)
    col = lift.block_index(n, 0)
    feeds = {c: r for r, c in lift.p_blocks}
    walk = [col]
    while walk[-1] in feeds:  # (slot n, empty) -> ... -> (slot n, full)
        walk.append(feeds[walk[-1]])
    at = {b: k * dim_h for k, b in enumerate(sorted(walk))}
    gen = np.zeros((len(walk) * dim_h,) * 2, dtype=complex)
    for c, r in zip(walk, walk[1:]):
        gen[at[r] : at[r] + dim_h, at[c] : at[c] + dim_h] = lift.p_blocks[r, c]
    np.multiply(gen, -t, out=gen)
    diag = -t * lift.h
    for k in at.values():
        gen[k : k + dim_h, k : k + dim_h] = diag
    big = linalg.expm(gen)
    value = (-1.0) ** n * big[at[row] : at[row] + dim_h, at[col] : at[col] + dim_h]
    return PhiResult(value, {"lift_dim": lift.dim})


def _to_eigenbasis(family: OperatorFamily):
    """(eigvals, eigvecs, [U* P_j U]) so that e^{-sH} acts as a diagonal."""
    u = family.h.eigvecs
    return family.h.eigvals, u, [u.conj().T @ p @ u for p in family.perturbations]


def phi_quadrature(family: OperatorFamily, t: float, nodes_per_dim: int = 32) -> PhiResult:
    """Nested Gauss-Legendre evaluation of the iterated integral.

    Integration order is int_0^t ds_n int_0^{s_n} ds_{n-1} ... via the
    recursion K_j(u) = int_0^u K_{j-1}(s) P_j e^{-(u-s) H} ds with
    K_0(u) = e^{-u H}.  The recursion runs in H's eigenbasis, where each
    e^{-sH} is the vector e^{-s lambda}: K_0(s) P_1 is a row scaling of
    U* P_1 U, every later K_{j-1}(s) P_j one batched product with U* P_j U,
    and e^{-(u-s)H} a column scaling.  Each level's weighted node sum is one
    ``np.einsum`` contraction over the node axis, whose accumulation order
    is numpy's (not pairwise summation).  The result returns to the original
    basis once, as U K_n(t) U*.  The integrand is smooth in finite
    dimension, so no endpoint singularities arise.  With no perturbation
    (n = 0) the integral is e^{-tH} itself.
    """
    if t <= 0:
        raise ValueError("quadrature requires t > 0")
    if nodes_per_dim < 4:
        raise ValueError("need at least 4 nodes per dimension")
    n, dim = family.n, family.dim
    if n == 0:
        return PhiResult(herm_exp(family.h, t), {"nodes_per_dim": nodes_per_dim, "total_nodes": 1})
    lam, u, ps = _to_eigenbasis(family)
    x0, w0 = np.polynomial.legendre.leggauss(nodes_per_dim)

    def level_values(j: int, uppers: np.ndarray) -> np.ndarray:
        """U* K_j U at each upper limit, shape (len(uppers), dim, dim); j >= 1."""
        # children: Gauss-Legendre nodes of [0, u] for every parent u
        half = uppers[:, None] / 2.0
        nodes = half * (x0[None, :] + 1.0)          # (N, q)
        weights = half * w0[None, :]                # (N, q)
        if j == 1:
            left = np.exp(-nodes[..., None] * lam)[..., :, None] * ps[0]
        else:
            left = level_values(j - 1, nodes.reshape(-1)) @ ps[j - 1]
            left = left.reshape(len(uppers), nodes_per_dim, dim, dim)
        decay = np.exp(-(uppers[:, None] - nodes)[..., None] * lam)  # u - s >= 0
        left *= decay[..., None, :]
        return np.einsum("nq,nqad->nad", weights, left)

    value = u @ level_values(n, np.array([t]))[0] @ u.conj().T
    return PhiResult(value, {"nodes_per_dim": nodes_per_dim, "total_nodes": nodes_per_dim**n})


def phi_ode(family: OperatorFamily, t: float, steps: int = 4096) -> PhiResult:
    """Integrate the coupled suffix system with exact semigroup propagators.

    Each suffix level k obeys Phi' = -H Phi + P_k Phi(suffix), stepped by
    the variation-of-constants midpoint rule
        Phi(s+h) = e^{-hH} Phi(s) + h e^{-(h/2)H} P_k Phi_{s+h/2}(suffix).
    Level k runs on step h_k = h / 2^(k-1), h = t / steps, so every
    midpoint suffix value is a grid point of the next level; the empty
    suffix, level n+1, is e^{-sH} exactly.  Second-order accurate in h.

    The system is integrated in H's eigenbasis: with P~_k = U* P_k U each
    propagator is the vector e^{-h_k lambda}.  One level-1 step is then a
    fixed linear map T of the stacked state (S_1, ..., S_n, S_{n+1}), block
    upper triangular with (n+1) dim rows, built from the bottom up: level
    n+1 alone steps by A_{n+1} = diag(e^{-h_{n+1} lambda}), and a step of
    levels k..n+1 is
        A_k = (I (+) A_{k+1}) U_k (I (+) A_{k+1}),
    where U_k is the identity except for level k's row block,
    [diag(e^{-h_k lambda}), h_k e^{-(h_k/2) lambda} (.) P~_k]: levels above
    k advance half a step to the midpoint, level k takes its step, and the
    levels above advance the other half.  T = A_1, and from the start
    (0, ..., 0, I) the end point of level 1 is the (1, n+1) block of
    T^steps, which binary powering reaches in about 2 log2(steps) products.
    Every diagonal block of A_k^m is e^{-m h_k lambda}, so each product's
    diagonal is written from ``exp`` rather than carried as rounded powers.
    """
    if t <= 0:
        raise ValueError("ode evaluation requires t > 0")
    if steps < 16:
        raise ValueError("need at least 16 steps")
    n, dim = family.n, family.dim
    if n == 0:
        return PhiResult(herm_exp(family.h, t), {"steps": steps})
    if t / (steps * 2 ** (n - 1)) < 1e-15 * t:
        raise ValueError("step underflow")
    lam, u, ps = _to_eigenbasis(family)

    def exact_diagonal(m, tau):
        """m with every diagonal entry set from e^{-tau lambda}."""
        np.fill_diagonal(m, np.tile(np.exp(-tau * lam), m.shape[-1] // dim))
        return m

    step = t / steps / 2**n  # level n+1's step
    a = np.diag(np.exp(-step * lam)).astype(complex)
    for k in range(n, 0, -1):
        step *= 2.0  # h_k
        p = (step * np.exp(-step / 2.0 * lam))[:, None] * ps[k - 1]
        below = a
        a = np.zeros((len(below) + dim,) * 2, dtype=complex)
        a[:dim, dim:] = p @ below[:dim]
        a[dim:, dim:] = below @ below
        exact_diagonal(a, step)
    # binary powering: row = level 1's rows of T^done, a = T^(2^j)
    row, done, power, rest = None, 0, 1, steps
    while True:
        if rest & 1:
            row = a[:dim].copy() if row is None else row @ a
            done += power
            exact_diagonal(row[:, :dim], done * step)
        rest >>= 1
        if not rest:
            break
        a = exact_diagonal(a @ a, 2 * power * step)
        power *= 2
    return PhiResult(u @ row[:, n * dim :] @ u.conj().T, {"steps": steps, "step_size": t / steps})


def simplex_constant(exponents) -> float:
    """Dirichlet closed form of the singular simplex integral

        int_{sigma_n} (s_2-s_1)^(-a_1) ... (1-s_n)^(-a_n) ds
            = prod_j Gamma(1-a_j) / Gamma(n+1 - sum_j a_j).

    Validated against the Monte Carlo oracle :func:`simplex_constant_mc` in
    the test suite and in acceptance criterion 4.
    """
    exps = tuple(exponents)
    for a in exps:
        if not 0.0 < a < 1.0:
            raise ValueError(f"exponent {a} outside (0,1)")
    n = len(exps)
    if n == 0:
        return 1.0
    log_val = sum(lgamma(1.0 - a) for a in exps) - lgamma(n + 1.0 - sum(exps))
    return float(np.exp(log_val))


def simplex_constant_mc(exponents, samples: int = 10**6, seed: int = 0, stream: int = 0):
    """Importance-sampling oracle for :func:`simplex_constant`: (estimate, stderr).

    The n+1 spacings g = (s_1, s_2-s_1, ..., 1-s_n) are drawn from
    Dirichlet(alpha), alpha = 1.5 (1 - a) with a = 0 on s_1, and weighted by
    the integrand over the density, prod Gamma(alpha) / Gamma(sum alpha) *
    prod g^(1 - alpha - a).  The variance is finite as alpha < 2 (1 - a), and
    alpha != 1 - a keeps the weight a check of the closed form.  The samples
    draw from Philox stream ``stream`` of ``seed`` (``engine._mc_mean``).
    """
    from .stochastic_mc.engine import _mc_mean  # its package imports this module

    a = np.concatenate([[0.0], np.asarray(tuple(exponents), dtype=float)])
    alpha = 1.5 * (1.0 - a)
    norm = np.exp(sum(lgamma(v) for v in alpha) - lgamma(alpha.sum()))

    def chunk(rng, count):
        return norm * np.prod(rng.dirichlet(alpha, count) ** (1.0 - alpha - a), axis=1)

    return _mc_mean(chunk, samples, seed, stream)


def nilpotency_check(family: OperatorFamily, t: float, l: int):
    """Norm of the l-fold repeated lifted-perturbation integral, by
    ``phi_quadrature`` with 4 nodes per dimension.

    Every product of l >= n+1 copies of the lifted perturbation repeats an
    exterior generator, so there the integrand vanishes identically and the
    returned norm measures only the floating-point residue of the assembled
    structure; smaller l give the genuinely nonzero contrast values.
    """
    if l < 1:
        raise ValueError("need at least one factor")
    lift = build_lift(family)
    lifted_family = OperatorFamily(
        linalg.hermitian(lift.h_part, require_nonneg=True),
        (lift.p_part,) * l,
    )
    res = phi_quadrature(lifted_family, t, 4)
    return np.linalg.norm(res.value, 2)


def derivative_check(family: OperatorFamily, t: float, h: float) -> float:
    """Residual of the suffix derivative identity at time t.

    Compares the central difference of Phi against
    -H Phi_t(P_1,...,P_n) + P_1 Phi_t(P_2,...,P_n); the second summand is
    P_1 e^{-tH} for n = 1 and absent for n = 0.  O(h^2) by construction.
    """
    if not t > h > 0:
        raise ValueError("need t > h > 0")
    hmat, perts = family.h.matrix, family.perturbations
    plus = phi_block(hmat, perts, t + h)
    minus = phi_block(hmat, perts, t - h)
    rhs = -hmat @ phi_block(hmat, perts, t)
    if family.n >= 1:
        rhs = rhs + perts[0] @ phi_block(hmat, perts[1:], t)
    return np.linalg.norm((plus - minus) / (2 * h) - rhs, 2)


@dataclass(frozen=True)
class DysonResult:
    approx: np.ndarray
    true_value: np.ndarray
    bound: float

    @property
    def error(self) -> float:
        return np.linalg.norm(self.approx - self.true_value, 2)

    @property
    def holds(self) -> bool:
        return self.error <= self.bound * (1 + 1e-8) + 1e-300


def dyson_partial_sum(
    h: HermitianOperator, p: np.ndarray, t: float, order: int, a: float = 0.5
) -> DysonResult:
    """Alternating partial sum of the perturbed semigroup expansion.

    approx = e^{-tH} + sum_{l=1}^{order} (-1)^l Phi_t(P,...,P) against
    expm(-t(H+P)), with the simplex-constant tail bound
    sum_{l>order} c^l S_l e^{lt} t^{l(1-a)}.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    p = np.asarray(p, dtype=complex)
    approx = sum((-1.0) ** l * phi_block(h.matrix, (p,) * l, t) for l in range(order + 1))
    true_value = linalg.expm(-t * (h.matrix + p))

    c = np.linalg.norm(p @ linalg.frac_power_inv(h, a), 2)
    bound = 0.0
    l = order + 1
    while l < order + 400:
        term = (
            c**l
            * simplex_constant((a,) * l)
            * np.exp(l * t)
            * t ** (l * (1.0 - a))
        )
        bound += term
        if term < 1e-18 * max(bound, 1e-300):
            break
        l += 1
    return DysonResult(approx, true_value, bound)
