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
result returns to the original basis once.  The ODE never stores its top
level (the empty suffix): that level's value is one fixed matrix scaled
entrywise by a real decay recurrence, which the level below reads through
real lanes, one per block of its scan.  Nor does it store the midpoints of
its bottom level: level 1's end point is summed as level 2's scan produces
them, so only levels 3 <= k < n keep a per-step stack.  The lift is
exponentiated with no eigendecomposition, so it cross-checks the other two
through an independent route.  Its perturbation only moves (slot q, mask S)
to (slot q+1, S + {j}), so the generator is a permuted direct sum of
n 2^(n-1) decoupled chains of at most n+1 blocks.  The lift is kept as its
nonzero dim_H blocks (``build_lift``, theta_hat signs, slot wiring), the
chains are the weakly connected components of its block pattern, and each
chain's generator is assembled and exponentiated on its own, so no
lift-sized array is ever formed.  Every chain is exponentiated, not only
the one that holds the block that is read: the result is the exponential of
the paper's whole lift.

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
    ``linalg.expm`` call per decoupled chain.

    A chain's -t (H_lift + P_lift) is the principal submatrix of the dense
    generator on its blocks, in ascending order: its P_lift blocks scaled by
    -t, and -t H on each diagonal block.  Each chain's exponential is
    dropped once its read block, if it holds one, is copied, so the largest
    array is one chain's, (n+1) dim_H rows at most."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    n, dim_h = family.n, family.dim
    if n == 0:
        return PhiResult(herm_exp(family.h, t), {"lift_dim": dim_h})
    lift = build_lift(family)
    row = lift.block_index(n, (1 << n) - 1)
    col = lift.block_index(n, 0)
    diag = -t * lift.h
    pattern = np.zeros((n << n,) * 2, dtype=bool)
    pattern[tuple(zip(*lift.p_blocks))] = True
    value = None
    for chain in _weak_components(pattern):  # ascending blocks of each chain
        at = {int(b): k * dim_h for k, b in enumerate(chain)}
        gen = np.zeros((len(chain) * dim_h,) * 2, dtype=complex)
        for (r, c), block in lift.p_blocks.items():
            if r in at:  # then c is in the chain too
                gen[at[r] : at[r] + dim_h, at[c] : at[c] + dim_h] = block
        np.multiply(gen, -t, out=gen)
        for k in at.values():
            gen[k : k + dim_h, k : k + dim_h] = diag
        big = linalg.expm(gen)
        if row in at:  # the chain (slot n, empty) -> ... -> (slot n, full)
            value = (-1.0) ** n * big[at[row] : at[row] + dim_h, at[col] : at[col] + dim_h]
    return PhiResult(value, {"lift_dim": lift.dim})


def _weak_components(m: np.ndarray) -> list:
    """Index arrays of the weakly connected components of the nonzero
    pattern of a square matrix, each ascending, by smallest index."""
    adj = m != 0
    adj = adj | adj.T
    unseen = np.ones(len(m), dtype=bool)
    components = []
    while unseen.any():
        reach = np.zeros(len(m), dtype=bool)
        frontier = reach.copy()
        frontier[np.argmax(unseen)] = True
        while frontier.any():  # breadth-first: add the neighbours of the frontier
            reach |= frontier
            frontier = adj[frontier].any(axis=0) & ~reach
        unseen &= ~reach
        components.append(np.flatnonzero(reach))
    return components


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
    the level's forcing term, the product of p^_k = h e^{-(h/2) lambda} P~_k
    with the suffix value at the step's midpoint.

    The top level (k = n, empty suffix, N = steps 2^(n-1) steps of size h)
    is never stored.  Its midpoint values are the vectors
    e^{-(i+1/2) h lambda}, so each of its forcing terms is a column scaling
    of the fixed p^_n, and its value after m steps is p^_n (.) g_m, where g
    is the real dim x dim recurrence
        g_{m+1} = e^{-h lambda} (.) g_m + mu_m,   mu_m[c] = e^{-(m+1/2) h lambda_c},
    g_0 = 0: a row scaling plus one broadcast row.  For n = 1 the result is
    U (p^_1 (.) g_N) U*, with g_N one contraction of two decay tables
    (:func:`_decay_sum`).  For n >= 2, level n-1's forcing terms read g at
    the odd top indices through real lanes, one per block of its scan
    (:func:`_top_lanes`).  A lower level 2 <= k < n-1 reads the complex
    odd-index values that level k+1 keeps: every level 3 <= k < n keeps its
    odd-index grid values, the midpoints the level below reads
    (:class:`_OddValues`).  Level 1 is not scanned for n >= 3: its end point
    is sum_i D_1^(N_1-1-i) (.) (p^_1 @ S_i), S_i level 2's midpoint values,
    and is summed as level 2's scan produces them (:class:`_BottomSum`), so
    level 2 keeps nothing.  For n = 2 level 1 is scanned on the top level's
    lanes.  Level 1's end point returns to the original basis as U Phi~ U*.

    Each level k < n runs its N_k steps as a blocked scan
    (:func:`_midpoint_scan`):
      * within blocks: the steps split into nb blocks of an even length b
        near sqrt(N_k) (longer for large matrices, so that nb of them stay
        in cache).  Each of b iterations advances every block by one
        step from a zero start, and hands the even-step values to the
        level's sink as they appear: stored (levels k >= 3), or, at level
        2, multiplied by p^_1 and added into level 1's block sums, the same
        nb products per block step that a scan of level 1 would make;
      * carry pass: one sequential pass over the nb block ends gives each
        block's carry-in, c_q = e^{-bh lambda} c_{q-1} + (end of block q-1),
        zero for the first block;
      * fix-up: each stored value then gains its block's carry, in place,
        kept[q, jj] += e^{-(2jj+1) h lambda} c_q, one block step at a time,
        with no full-trajectory temporary.  At level 2 the carries enter
        level 1's block sums by linearity, one product per block, and one
        carry pass over those sums gives level 1's end point.  Each level's
        end point is then stepped through the fewer than 2 nb steps left
        after the last full block;
      * the forcing terms are formed on the fly, one block step (nb terms)
        at a time, so a level 3 <= k < n-1 holds its suffix and kept values
        (1.5 N_k matrices) but never all N_k forcing terms, level n-1 holds
        only its kept values, and level 2 holds at most its suffix.
    Python iterations per level fall from N_k to about 2.5 sqrt(N_k) (2.5 b
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

    def level(k: int):
        """(steps, step size, h e^{-(h/2) lambda} P~_k) of level k."""
        nsteps = steps * 2 ** (k - 1)
        h = t / nsteps
        return nsteps, h, (h * np.exp(-h / 2.0 * lam))[:, None] * ps[k - 1]

    top_steps, top_h, top = level(n)
    if n == 1:
        cur = top * _decay_sum(top_h, lam, 0, top_steps)
    suffix = None  # odd-index values of level k+1, the midpoints of level k
    for k in range(n - 1, 1 if n > 2 else 0, -1):
        nsteps, h, p = level(k)
        if k == n - 1:
            forcing = _top_lanes(top_h, lam, top, p, nsteps)
        else:
            forcing = lambda sl, out: np.matmul(p, suffix[sl], out=out)
        if k == 1:
            sink = None
        elif k == 2:
            _, h1, p1 = level(1)
            sink = _BottomSum(np.exp(-h1 * lam)[:, None], p1, nsteps)
        else:
            sink = _OddValues(nsteps, dim)
        cur = _midpoint_scan(np.exp(-h * lam)[:, None], forcing, nsteps, sink)
        if k > 2:
            suffix = sink.values
    if n > 2:
        cur = sink.end  # level 1's end point; level 2's own is not needed
    return PhiResult(u @ cur @ u.conj().T, {"steps": steps, "step_size": t / steps})


def _decay_sum(h: float, lam, start: int, count: int) -> np.ndarray:
    """Real (dim, dim) sum over l < count of
    e^{-(count-1-l) h lambda_a} e^{-(start+l+1/2) h lambda_c}: the top-level
    recurrence g <- e^{-h lambda} (.) g + mu_m of :func:`phi_ode` stepped from
    zero through m = start, ..., start + count - 1, as one contraction of
    two (count, dim) decay tables.  The row factors are powers of the
    rounded step decay e^{-h lambda}, as the per-step recurrence applies it;
    every power is at most 1.  The contraction is einsum's own loop, not a
    BLAS product: on a 2-vCPU host a threaded (32 x 2048) @ (2048 x 32)
    product at times took 50-150 ms per call, the einsum 0.7-0.9 ms."""
    l = np.arange(count)
    rows = np.exp(-h * lam) ** (count - 1 - l)[:, None]
    cols = np.exp(-np.multiply.outer((start + l + 0.5) * h, lam))
    return np.einsum("la,lc->ac", rows, cols)


def _top_lanes(h: float, lam, top, p, nsteps: int):
    """Forcing terms of level n-1 in :func:`phi_ode`, p @ (top (.) g_{2i+1})
    for its step i, as a ``forcing`` callable for :func:`_midpoint_scan`.

    ``h`` is the top level's step and g its real recurrence; ``top`` is
    p^_n, ``p`` is p^_{n-1} and ``nsteps`` the step count of level n-1.
    g is read through nb real lanes, one per block of level n-1's scan
    (the shared :func:`_scan_geometry`): at block step j lane q holds
    g_{2(qb+j)+1}, the midpoint that step needs, and after each read it
    advances two top-level steps.  The tail steps after the last full block
    continue the last lane.  Lane q starts at g_{2qb+1}: lane 0 at
    g_1 = mu_0, and lane q+1 = e^{-2bh lambda} (.) lane q + E_q, one carry
    pass, where E_q, the zero-start sum over top steps 2qb+1 ... 2qb+2b, is
    E_0 = _decay_sum(h, lam, 1, 2b) scaled by the columns
    e^{-2qbh lambda_c}.  Every power is at most 1, and the row powers are
    powers of the rounded step decay, as in the per-step recurrence.
    Calls must come in the scan's documented order; any other call raises
    RuntimeError.
    """
    dim = len(lam)
    nb, b = _scan_geometry(nsteps, dim)
    full = nb * b
    # mu_m for m = 0 ... 2 nsteps, one (1, dim) row each: the only top-level table
    mu = np.exp(-np.multiply.outer((np.arange(2 * nsteps + 1) + 0.5) * h, lam))[:, None, :]
    decay = np.exp(-h * lam)[:, None]
    lanes = np.empty((nb, dim, dim))
    lanes[0] = mu[0]
    e0 = _decay_sum(h, lam, 1, 2 * b)
    for q in range(nb - 1):
        lanes[q + 1] = decay ** (2 * b) * lanes[q] + e0 * np.exp(-(2 * q * b * h) * lam)
    scaled = np.empty((nb, dim, dim), dtype=complex)
    calls = 0

    def forcing(sl, out):
        nonlocal calls
        i = full + calls - b  # the tail step this call should ask for
        expected = slice(calls, full, b) if calls < b else slice(i, i + 1)
        if sl != expected or i >= nsteps:
            raise RuntimeError(f"lane read {sl} out of order: expected {expected}")
        calls += 1
        start, stop, step = sl.indices(nsteps)
        g = lanes[nb - len(out) :]  # all lanes, or the last one in the tail
        np.matmul(p, np.multiply(top, g, out=scaled[: len(out)]), out=out)
        for r in (1, 2):  # g_{2i+1} -> g_{2i+3} through mu_{2i+1}, mu_{2i+2}
            g *= decay
            g += mu[2 * start + r : 2 * stop - 1 + r : 2 * step]
        return out

    return forcing


# Upper bound on the bytes of one stack of nb block matrices in
# _midpoint_scan.  Past it there are fewer, longer blocks, so that the scan's
# two stacks (block values and terms) stay in cache.  On random dim-32
# families at 2048 steps (2-vCPU Xeon, 2 MB L2 per core) this put phi_ode
# 11-22 % below sqrt(N) blocks.
_SCAN_STACK_BYTES = 1 << 18


def _scan_geometry(nsteps: int, dim: int):
    """(nb, b) of :func:`_midpoint_scan` over ``nsteps`` >= 2 steps of
    (dim, dim) matrices: nb is about sqrt(nsteps), or fewer where nb
    matrices would exceed ``_SCAN_STACK_BYTES``, and b is the longest even
    block length of which nb fit."""
    sqrt_b = max(2, 2 * int(np.sqrt(nsteps) / 2))
    nb = min(nsteps // sqrt_b, max(1, _SCAN_STACK_BYTES // (16 * dim * dim)))
    return nb, 2 * (nsteps // (2 * nb))


def _midpoint_scan(decay, forcing, nsteps: int, sink):
    """End value of cur_{i+1} = decay * cur_i + forcing_i, cur_0 = 0, over
    ``nsteps`` steps, by the blocked scan described in :func:`phi_ode`;
    ``sink`` receives every odd-index value cur_{i+1}, i even.

    ``decay`` is a (dim, 1) row scaling with entries in [0, 1], and
    ``forcing(sl, out)`` writes the terms of the steps in slice ``sl`` into
    ``out``, a (len, dim, dim) buffer, and returns it.  The blocks are
    :func:`_scan_geometry`'s nb blocks of even length b, so a step's parity
    within its block is its global parity.  The call order is part of this
    contract: ``forcing`` is called with slice(j, nb b, b) for the block
    steps j = 0, ..., b - 1 in turn, then with slice(i, i + 1) for the
    nsteps - nb b < 2 nb tail steps i = nb b, ..., nsteps - 1 in turn, which
    run one at a time from the last carry.

    The sink sees the values as the scan produces them (:class:`_OddValues`
    stores them, :class:`_BottomSum` sums them): ``sink.block(jj, local)``
    after each even block step j = 2 jj, with local[q] block q's value from a
    zero start; then ``sink.carry(decay, carries)`` once, with carries[q]
    the value entering block q, which adds decay^(2jj+1) carries[q] to each
    of those; then ``sink.tail(i // 2, cur)`` after each even tail step i.
    """
    dim = decay.shape[0]
    nb, b = _scan_geometry(nsteps, dim)
    full = nb * b
    local = np.zeros((nb, dim, dim), dtype=complex)
    term = np.empty_like(local)
    for j in range(b):
        local *= decay
        local += forcing(slice(j, full, b), term)
        if sink is not None and j % 2 == 0:
            sink.block(j // 2, local)
    # local[q] becomes block q's carry-in; cur ends as the carry out of the last block
    cur = np.zeros((dim, dim), dtype=complex)
    decay_b = decay**b
    for q in range(nb):
        cur, local[q] = decay_b * cur + local[q], cur
    if sink is not None:
        sink.carry(decay, local)
    for i in range(full, nsteps):
        cur = decay * cur + forcing(slice(i, i + 1), term[:1])[0]
        if sink is not None and i % 2 == 0:
            sink.tail(i // 2, cur)
    return cur


class _OddValues:
    """Storing sink of :func:`_midpoint_scan`: ``values[i // 2]`` is the
    scan's cur_{i+1} for every even step i, the midpoints the level below
    reads.  A block's values are stored as the scan reaches them and gain
    their carry in place, one block step at a time."""

    def __init__(self, nsteps: int, dim: int):
        nb, b = _scan_geometry(nsteps, dim)
        self.values = np.empty(((nsteps + 1) // 2, dim, dim), dtype=complex)
        self._blocks = self.values[: nb * b // 2].reshape(nb, b // 2, dim, dim)

    def block(self, jj: int, local):
        self._blocks[:, jj] = local

    def carry(self, decay, carries):
        scaled = np.empty_like(carries)
        for jj in range(self._blocks.shape[1]):
            self._blocks[:, jj] += np.multiply(decay ** (2 * jj + 1), carries, out=scaled)

    def tail(self, jj: int, cur):
        self.values[jj] = cur


class _BottomSum:
    """Summing sink of :func:`_midpoint_scan` over level 2 of
    :func:`phi_ode`: the end point of level 1,

        sum_i D^(N-1-i) (.) (p @ S_i),

    with D = ``decay`` level 1's step decay, p = ``p`` its p^_1, N its step
    count and S_i level 2's value at its grid index 2i + 1, formed as level
    2's scan produces the S_i, none of which is stored.

    Level 1's steps split into the blocks of level 2's scan, halved: block
    q's zero-start sum runs the per-step recurrence acc <- D (.) acc + p @ S
    on the block-local values, one batched product per even block step.
    Level 2's carry c_q enters S_i of block step jj as D2^(2jj+1) (.) c_q,
    so it adds (p (.) M) @ c_q to block q's sum, with
    M[a, c] = sum_jj D_a^(b/2-1-jj) D2_c^(2jj+1).  One carry pass over the
    block sums, with D^(b/2), and the per-step recurrence over the tail
    values give ``end``.  Every weight is a power (at most 1) of a rounded
    step decay, as the per-step recurrence applies it."""

    def __init__(self, decay, p, nsteps: int):
        nb, b = _scan_geometry(nsteps, p.shape[0])
        self._decay, self._p, self._half = decay, p, b // 2
        self._acc = np.zeros((nb,) + p.shape, dtype=complex)
        self._term = np.empty_like(self._acc)
        self.end = None

    def block(self, jj: int, local):
        self._acc *= self._decay
        self._acc += np.matmul(self._p, local, out=self._term)

    def carry(self, decay, carries):
        l = np.arange(self._half)
        rows = self._decay[:, 0] ** (self._half - 1 - l)[:, None]
        cols = decay[:, 0] ** (2 * l + 1)[:, None]
        weights = np.einsum("la,lc->ac", rows, cols)
        self._acc += np.matmul(self._p * weights, carries, out=self._term)
        end = np.zeros_like(self._p)
        decay_half = self._decay**self._half
        for acc in self._acc:
            end = decay_half * end + acc
        self.end = end

    def tail(self, jj: int, cur):
        self.end = self._decay * self.end + self._p @ cur


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
