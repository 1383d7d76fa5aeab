"""The iterated semigroup integral

    Phi_t(P_1, ..., P_n) = int_{0<=s_1<=...<=s_n<=t}
        e^{-s_1 H} P_1 e^{-(s_2-s_1) H} P_2 ... P_n e^{-(t-s_n) H} ds

through :func:`phi_block`, the one route every consumer calls (one exponential
of the (n+1) dim block-bidiagonal generator, Van Loan 1978), and through the
paper's three independent evaluators, kept as its oracles: the
enlarged-space (Fermionic) lift whose single matrix exponential encodes
Phi_t, a nested quadrature and a midpoint ODE.  Also here: the simplex
norm-bound machinery and structural checks (nilpotency of the lifted
perturbation, the suffix derivative recursion, alternating partial sums of
the perturbed semigroup).

The nested quadrature and the midpoint ODE are built from the semigroup
alone, so both run in H's eigenbasis: each P_j is transformed once to
U* P_j U, every e^{-sH} is a row or column scaling by e^{-s lambda}, and the
result returns to the original basis once.  The lift is exponentiated
with no eigendecomposition, so it cross-checks the other two through an
independent route.  Its perturbation only moves (slot q, mask S) to
(slot q+1, S + {j}), so the generator is a permuted direct sum of n 2^(n-1)
decoupled chains of at most n+1 blocks; ``linalg.expm`` finds them from the
zero pattern alone and exponentiates each separately.  The lift stays the
paper's assembled generator (``build_lift``, theta_hat signs, slot wiring)
and its exponential still knows nothing of which block is read.

Conventions fixed here:
  * lift layout is slot-major: row index ((j-1) * 2^n + S) * dim_H + h for
    slot j in 1..n, exterior-algebra bitmask S, and H-coordinate h;
  * the lifted perturbation places theta_hat(n-q+1) (x) P_{n-q+1} in slot-row
    q, slot-column q-1 (row 1 wraps to column n with theta_hat(n) (x) P_n);
  * Phi_t is (-1)^n times the block of exp(-t(H_lift + P_lift)) with rows at
    (slot n, full mask) and columns at (slot n, empty mask).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, lgamma

import numpy as np

from . import linalg
from .grassmann import theta_hat_matrix
from .linalg import HermitianOperator, herm_exp, op_norm


@dataclass(frozen=True)
class OperatorFamily:
    """Nonnegative Hermitian H with perturbations P_1..P_n and exponents a_j.

    The exponents enter only through norm bounds; they default to 1/2,
    matching the first-order-operator regime where P (H+1)^{-1/2} is
    order zero.
    """

    h: HermitianOperator
    perturbations: tuple = ()
    exponents: tuple = ()

    def __post_init__(self):
        perts = tuple(np.asarray(p, dtype=complex) for p in self.perturbations)
        for p in perts:
            if p.shape != self.h.matrix.shape:
                raise ValueError("every perturbation must share H's dimension")
        exps = tuple(self.exponents) if self.exponents else (0.5,) * len(perts)
        if len(exps) != len(perts):
            raise ValueError("need one exponent per perturbation")
        for a in exps:
            if not 0.0 < a < 1.0:
                raise ValueError(f"exponent {a} outside (0,1)")
        object.__setattr__(self, "perturbations", perts)
        object.__setattr__(self, "exponents", exps)

    @property
    def n(self) -> int:
        return len(self.perturbations)

    @property
    def dim(self) -> int:
        return self.h.dim


@dataclass(frozen=True)
class FermionicLift:
    """Enlarged-space generator H_lift + P_lift in the slot-major layout."""

    n: int
    dim_h: int
    h_part: np.ndarray
    p_part: np.ndarray

    @property
    def dim(self) -> int:
        return self.n * (1 << self.n) * self.dim_h

    @property
    def generator(self) -> np.ndarray:
        return self.h_part + self.p_part

    def block_index(self, slot: int, mask: int) -> int:
        """Row offset of (slot in 1..n, exterior bitmask) in the layout."""
        return ((slot - 1) * (1 << self.n) + mask) * self.dim_h


@dataclass(frozen=True)
class PhiResult:
    value: np.ndarray
    diagnostics: dict


def phi_block(h, perturbations, t: float) -> np.ndarray:
    """Phi^H_t(P_1, ..., P_n), t >= 0, for H and each P_j given as (..., r, r)
    arrays, one matrix or a stack; each P_j broadcasts to H's shape.

    One batched eigh checks every H >= 0 (to -1e-12 ||H||, the tolerance of
    ``linalg.hermitian``).  For n = 0 the result is e^{-tH} by spectral
    calculus.  For n >= 1 it is the top-right block of one stacked
    exponential of the (n+1) r block-bidiagonal matrix with -t (H - lo) on
    the diagonal and t P_j on the superdiagonal (Van Loan 1978), times
    e^{-t lo}, where lo = lambda_min(H) keeps |e^{-t(H - lo)}| <= 1.
    """
    h = np.asarray(h)
    r, n = h.shape[-1], len(perturbations)
    vals, vecs = np.linalg.eigh(h)
    if np.any(vals[..., 0] < -linalg.HERM_CONSTRUCTION_RTOL * np.abs(vals).max(axis=-1)):
        raise ValueError(f"operator is not nonnegative: min eigenvalue {vals.min():.3e}")
    if n == 0:
        return (vecs * np.exp(-t * vals)[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    lo = vals[..., 0, None, None]
    gen = np.zeros(h.shape[:-2] + (n + 1, r, n + 1, r), dtype=complex)
    for j in range(n + 1):
        gen[..., j, :, j, :] = -t * (h - lo * np.eye(r))
    for j, p in enumerate(perturbations):
        gen[..., j, :, j + 1, :] = t * p
    big = linalg.expm(gen.reshape(-1, (n + 1) * r, (n + 1) * r))
    return big[:, :r, n * r :].reshape(h.shape) * np.exp(-t * lo)


def build_lift(family: OperatorFamily) -> FermionicLift:
    """Assemble the enlarged-space generator for n >= 1."""
    n, dim_h = family.n, family.dim
    if n < 1:
        raise ValueError("lift requires at least one perturbation")
    dim = n * (1 << n) * dim_h
    if dim > linalg.DIMENSION_BUDGET:
        raise ValueError(
            f"lifted dimension {dim} exceeds budget {linalg.DIMENSION_BUDGET}"
        )
    lam = 1 << n
    h_part = np.kron(np.eye(n * lam), family.h.matrix)
    p_part = np.zeros((dim, dim), dtype=complex)
    blk = lam * dim_h

    def place(row_slot: int, col_slot: int, index: int):
        theta = theta_hat_matrix(index, n)
        block = np.kron(theta, family.perturbations[index - 1])
        r0 = (row_slot - 1) * blk
        c0 = (col_slot - 1) * blk
        p_part[r0 : r0 + blk, c0 : c0 + blk] = block

    place(1, n, n)
    for q in range(2, n + 1):
        place(q, q - 1, n - q + 1)
    return FermionicLift(n, dim_h, h_part, p_part)


def phi_fermionic(family: OperatorFamily, t: float) -> PhiResult:
    """Phi_t via the exponential of the enlarged-space generator (one
    ``linalg.expm`` call, which exponentiates each decoupled chain)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if family.n == 0:
        return PhiResult(herm_exp(family.h, t), {"lift_dim": family.dim})
    lift = build_lift(family)
    big = linalg.expm(-t * lift.generator)
    n, dim_h = family.n, family.dim
    r0 = lift.block_index(n, (1 << n) - 1)
    c0 = lift.block_index(n, 0)
    value = (-1.0) ** n * big[r0 : r0 + dim_h, c0 : c0 + dim_h]
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
    dimension, so no endpoint singularities arise.
    """
    if t <= 0:
        raise ValueError("quadrature requires t > 0")
    if family.n < 1:
        raise ValueError("quadrature requires n >= 1")
    if nodes_per_dim < 4:
        raise ValueError("need at least 4 nodes per dimension")
    n, dim = family.n, family.dim
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
    Level k runs on step h / 2^(k-1) so every midpoint suffix value is a
    grid point of the next level; the empty suffix is e^{-sH} exactly.
    Second-order accurate in the step size.

    The system is integrated in H's eigenbasis: with P~_k = U* P_k U each
    propagator is the vector e^{-h lambda}, so a step is a row scaling plus
    the level's forcing term.  At the top level (empty suffix) the midpoint
    values are the vectors e^{-(i+1/2) h lambda} and each forcing term is a
    column scaling of h e^{-(h/2) lambda} P~_n; below it, each is the
    product of h e^{-(h/2) lambda} P~_k with a kept suffix value.  A level
    k > 1 keeps only its odd-index grid values, the midpoints the level
    below reads; level 1 keeps only its end point, which returns to the
    original basis as U Phi~ U*.

    Each level's N steps run as a blocked scan (:func:`_midpoint_scan`):
      * within blocks: the steps split into nb blocks of an even length b
        near sqrt(N) (longer for large matrices, so that nb of them stay in
        cache).  Each of b iterations advances every block by one
        step from a zero start, and writes the even-step values into the
        kept array as they appear;
      * carry pass: one sequential pass over the nb block ends gives each
        block's carry-in, c_q = e^{-bh lambda} c_{q-1} + (end of block q-1),
        zero for the first block;
      * fix-up: each kept value then gains its block's carry, in place,
        kept[q, jj] += e^{-(2jj+1) h lambda} c_q, one block step at a time,
        with no full-trajectory temporary.  Level 1 keeps nothing; its end
        point is the last carry, stepped through the fewer than 2 nb steps
        left after the last full block;
      * the forcing terms are formed on the fly, one block step (nb terms)
        at a time, so a lower level holds its suffix and kept values
        (1.5 N matrices) but never all N forcing terms.
    Python iterations per level fall from N to about 2.5 sqrt(N) (2.5 b
    where the block count is held down).  The scan evaluates the per-step
    rule's recurrence exactly; only the order of summation differs, and
    every decay power is at most 1, so nothing is rescaled by an inverse
    power (which overflows on a stiff H).
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

    suffix = None  # odd-index values of level k+1, the midpoints of level k
    for k in range(n, 0, -1):
        nsteps = steps * 2 ** (k - 1)
        h = t / nsteps
        decay = np.exp(-h * lam)[:, None]
        p = (h * np.exp(-h / 2.0 * lam))[:, None] * ps[k - 1]
        if k == n:
            mids = np.exp(-np.multiply.outer((np.arange(nsteps) + 0.5) * h, lam))
            forcing = lambda sl, out: np.multiply(p, mids[sl, None, :], out=out)
        else:
            forcing = lambda sl, out: np.matmul(p, suffix[sl], out=out)
        kept = np.empty((nsteps // 2, dim, dim), dtype=complex) if k > 1 else None
        cur = _midpoint_scan(decay, forcing, nsteps, kept)
        suffix, kept = kept, None  # suffix holds the only reference
    return PhiResult(u @ cur @ u.conj().T, {"steps": steps, "step_size": t / steps})


# Upper bound on the bytes of one stack of nb block matrices in
# _midpoint_scan.  Past it there are fewer, longer blocks, so that the scan's
# two stacks (block values and terms) stay in cache.  On random dim-32
# families at 2048 steps (2-vCPU Xeon, 2 MB L2 per core) this put phi_ode
# 11-22 % below sqrt(N) blocks.
_SCAN_STACK_BYTES = 1 << 18


def _midpoint_scan(decay, forcing, nsteps: int, kept):
    """End value of cur_{i+1} = decay * cur_i + forcing_i, cur_0 = 0, over
    ``nsteps`` steps, by the blocked scan described in :func:`phi_ode`;
    with ``kept``, kept[i // 2] = cur_{i+1} for every even step index i.

    ``decay`` is a (dim, 1) row scaling with entries in [0, 1], and
    ``forcing(sl, out)`` writes the terms of the steps in slice ``sl`` into
    ``out``, a (len, dim, dim) buffer, and returns it.  nb is about
    sqrt(nsteps), or fewer where nb matrices would exceed
    ``_SCAN_STACK_BYTES``, and b is even, so a step's parity within its
    block is its global parity.  The nsteps - nb b < 2 nb steps after the
    last full block run one at a time from the last carry.
    """
    dim = decay.shape[0]
    sqrt_b = max(2, 2 * int(np.sqrt(nsteps) / 2))
    nb = min(nsteps // sqrt_b, max(1, _SCAN_STACK_BYTES // (16 * dim * dim)))
    b = 2 * (nsteps // (2 * nb))  # the longest even blocks of which nb fit
    full = nb * b
    blocks = None if kept is None else kept[: full // 2].reshape(nb, b // 2, dim, dim)
    local = np.zeros((nb, dim, dim), dtype=complex)
    term = np.empty_like(local)
    for j in range(b):
        local *= decay
        local += forcing(slice(j, full, b), term)
        if blocks is not None and j % 2 == 0:
            blocks[:, j // 2] = local
    # local[q] becomes block q's carry-in; cur ends as the carry out of the last block
    cur = np.zeros((dim, dim), dtype=complex)
    decay_b = decay**b
    for q in range(nb):
        cur, local[q] = decay_b * cur + local[q], cur
    if blocks is not None:
        for jj in range(b // 2):
            blocks[:, jj] += np.multiply(decay ** (2 * jj + 1), local, out=term)
    for i in range(full, nsteps):
        cur = decay * cur + forcing(slice(i, i + 1), term[:1])[0]
        if kept is not None and i % 2 == 0:
            kept[i // 2] = cur
    return cur


def simplex_constant(exponents) -> float:
    """Dirichlet closed form of the singular simplex integral

        int_{sigma_n} (s_2-s_1)^(-a_1) ... (1-s_n)^(-a_n) ds
            = prod_j Gamma(1-a_j) / Gamma(n+1 - sum_j a_j).

    Validated against the sorted-uniform Monte Carlo oracle
    (:func:`simplex_constant_mc`) in the test suite before use.
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


def simplex_constant_mc(exponents, samples: int = 10**6, seed: int = 0):
    """Monte Carlo oracle for :func:`simplex_constant`.

    Sorted uniforms are uniform on the ordered simplex (volume 1/n!), so the
    integral is E[f] / n!.  The spacings of sorted uniforms are exchangeable,
    so the integrand is averaged over cyclic assignments of the exponents to
    the n+1 spacings; this is a variance reduction of the same sampler, not
    a different estimator.  Returns (estimate, stderr).
    """
    exps = np.asarray(tuple(exponents), dtype=float)
    n = len(exps)
    if n == 0:
        return 1.0, 0.0
    # the path engine's moment merge; imported here because its package
    # imports this module
    from .stochastic_mc.engine import _chunk_moments, _merge_moments

    rng = np.random.default_rng(seed)
    parts = []
    chunk = 1 << 17
    done = 0
    exps_padded = np.concatenate([[0.0], exps])  # spacing s_1 carries no factor
    while done < samples:
        m = min(chunk, samples - done)
        s = np.sort(rng.random((m, n)), axis=1)
        # all n+1 spacings: s_1, s_2-s_1, ..., 1-s_n
        gaps = np.concatenate(
            [s[:, :1], np.diff(s, axis=1), 1.0 - s[:, -1:]], axis=1
        )
        f = np.zeros(m)
        for shift in range(n + 1):
            f += np.prod(gaps ** (-np.roll(exps_padded, shift)), axis=1)
        f /= n + 1
        parts.append(_chunk_moments(f))
        done += m
    _, mean, m2 = _merge_moments(parts)
    var = m2 / samples
    scale = 1.0 / factorial(n)
    return mean * scale, np.sqrt(var / samples) * scale


def perturbation_constant(family: OperatorFamily) -> float:
    """prod_j ||P_j (H+1)^(-a_j)||."""
    out = 1.0
    for p, a in zip(family.perturbations, family.exponents):
        out *= op_norm(p @ linalg.frac_power_inv(family.h, a))
    return out


def norm_bound_check(family: OperatorFamily, t: float):
    """Check ||Phi_t|| against the simplex bound.

    rhs = prod_j ||P_j (H+1)^(-a_j)|| * simplex_constant * e^{nt} * t^{n - sum a_j}.
    Returns (lhs, rhs, holds).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = family.n
    lhs = op_norm(phi_block(family.h.matrix, family.perturbations, t))
    power = n - sum(family.exponents)
    t_pow = 0.0 if (t == 0.0 and power > 0) else t**power
    rhs = (
        perturbation_constant(family)
        * simplex_constant(family.exponents)
        * np.exp(n * t)
        * t_pow
    )
    if n == 0:
        rhs = 1.0  # ||e^{-tH}|| <= 1 for H >= 0
    return lhs, rhs, bool(lhs <= rhs * (1 + 1e-8) + 1e-300)


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
    return op_norm(res.value)


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
    return op_norm((plus - minus) / (2 * h) - rhs)


@dataclass(frozen=True)
class DysonResult:
    approx: np.ndarray
    true_value: np.ndarray
    bound: float

    @property
    def error(self) -> float:
        return op_norm(self.approx - self.true_value)

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

    c = op_norm(p @ linalg.frac_power_inv(h, a))
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
