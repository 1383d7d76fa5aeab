"""Dense complex linear-algebra kernel.

Matrices are plain complex ``numpy.ndarray``s in row-major layout; the JSON
wire format for them lives in :mod:`opcalc.jsonio`.  Hermitian operators are
wrapped together with their eigendecomposition so spectral calculus
(semigroups, fractional powers) is a cheap reuse of one ``eigh``.

The general matrix exponential is delegated to SciPy's scaling-and-squaring
Pade implementation; every contract on top of it (norm guard, Hermitian
agreement, semigroup property) is tested in this package.  A reducible
matrix is exponentiated one weakly connected component of its nonzero
pattern at a time, the exact direct-sum identity, so the Fermionic lift
costs its decoupled chains rather than its full dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.csgraph import connected_components

HERM_CONSTRUCTION_RTOL = 1e-12
EXPM_NORM_LIMIT = 1e4
DIMENSION_BUDGET = 4096


def _as_square(m: np.ndarray, *, stack: bool = False) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix has non-finite entries")
    return m


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring, diagonal Pade approximant)
    of one matrix or of each matrix of an (N, s, s) stack.

    Norm guard: up to 512 rows each matrix's spectral norm must not exceed
    ``EXPM_NORM_LIMIT``.  It is computed (one SVD) only where the cheap
    upper bound sqrt(||m||_1 ||m||_inf) >= ||m||_2 exceeds the limit.  Above
    512 rows the Frobenius norm, also an upper bound, is compared instead.

    A 2-D matrix whose nonzero pattern has several weakly connected
    components is a permuted direct sum, so its exponential is the direct
    sum of the exponentials of the components' principal submatrices; each
    is computed separately and every entry outside them is exactly 0.  A
    single-component matrix and every stack go to SciPy whole.
    """
    m = _as_square(m, stack=True)
    _check_norm(m)
    if m.ndim == 2:
        count, labels = connected_components(m != 0, connection="weak")
        if count > 1:
            out = np.zeros_like(m)
            for idx in (np.flatnonzero(labels == k) for k in range(count)):
                block = np.ix_(idx, idx)
                out[block] = scipy.linalg.expm(m[block])
            return out
    return scipy.linalg.expm(m)


def _check_norm(m: np.ndarray) -> None:
    """ValueError if a matrix of ``m`` (one matrix or a stack) exceeds the
    expm norm limit; the message gives the largest exact norm."""
    if m.shape[-1] > 512:
        norm = np.max(np.linalg.norm(m, None, axis=(-2, -1)), initial=0.0)  # Frobenius
    else:
        stack = m if m.ndim == 3 else m[None]
        mags = np.abs(stack)
        screen = np.sqrt(
            mags.sum(axis=-2).max(axis=-1, initial=0.0)
            * mags.sum(axis=-1).max(axis=-1, initial=0.0)
        )
        # the margin covers rounding in the sums, so no matrix the exact
        # norm rejects passes the screen
        flagged = stack[screen > EXPM_NORM_LIMIT * (1.0 - 1e-10)]
        norm = np.max(np.linalg.norm(flagged, 2, axis=(-2, -1)), initial=0.0)
    if norm > EXPM_NORM_LIMIT:
        raise ValueError(f"matrix norm {norm:.3e} exceeds expm limit {EXPM_NORM_LIMIT:.0e}")


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix together with its spectral data.

    ``eigvals`` ascending, ``eigvecs`` unitary with columns the eigenvectors.
    """

    matrix: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply_function(self, f) -> np.ndarray:
        """U f(diag) U* for a scalar function f of the eigenvalues."""
        vals = f(self.eigvals)
        return (self.eigvecs * vals) @ self.eigvecs.conj().T


def hermitian(m: np.ndarray, *, require_nonneg: bool = False) -> HermitianOperator:
    """Validate and eigendecompose a Hermitian matrix.

    ``require_nonneg`` enforces the H >= 0 role: smallest eigenvalue must be
    >= -1e-12 * ||m||.
    """
    m = _as_square(m)
    scale = max(np.linalg.norm(m, 2), 1e-300)
    herm_defect = np.linalg.norm(m - m.conj().T, 2)
    if herm_defect > HERM_CONSTRUCTION_RTOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: ||M - M*|| = {herm_defect:.3e} "
            f"exceeds {HERM_CONSTRUCTION_RTOL:.0e} * ||M||"
        )
    sym = 0.5 * (m + m.conj().T)
    vals, vecs = np.linalg.eigh(sym)
    if require_nonneg and vals[0] < -HERM_CONSTRUCTION_RTOL * scale:
        raise ValueError(f"operator is not nonnegative: min eigenvalue {vals[0]:.3e}")
    recon = (vecs * vals) @ vecs.conj().T
    if np.linalg.norm(recon - sym, 2) > 1e-12 * max(scale, 1.0):
        raise ValueError("eigendecomposition failed reconstruction tolerance")
    return HermitianOperator(sym, vals, vecs)


def herm_exp(h: HermitianOperator, t: float) -> np.ndarray:
    """exp(-t H) by spectral calculus; requires t >= 0."""
    if t < 0:
        raise ValueError(f"herm_exp requires t >= 0, got {t}")
    return h.apply_function(lambda lam: np.exp(-t * lam))


def frac_power_inv(h: HermitianOperator, a: float) -> np.ndarray:
    """(H + 1)^(-a) for a in (0, 1), H >= 0."""
    if not 0.0 < a < 1.0:
        raise ValueError(f"exponent must lie in (0,1), got {a}")
    return h.apply_function(lambda lam: (lam + 1.0) ** (-a))


def relative_bound_probe(
    h: HermitianOperator,
    p: np.ndarray,
    a: float,
    lam: float,
    samples: int = 32,
    seed: int = 0,
):
    """Split constants epsilon(lambda), C_eps(lambda) of the relative bound.

    Uses the elementary integral-splitting estimate
        ||P f|| <= kappa * (int_0^lam s^(a-1) ds) ||f||
                 + kappa * (int_lam^inf s^(a-2) ds) (||H f|| + ||f||)
    with kappa = (sin(pi a)/a) * ||P (H+1)^(-a)||, then verifies
    ||P f|| <= eps ||H f|| + C_eps ||f|| on random unit vectors.

    Returns (eps, c_eps, holds).
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if not 0.0 < a < 1.0:
        raise ValueError(f"exponent must lie in (0,1), got {a}")
    p = np.asarray(p, dtype=complex)
    if p.shape != h.matrix.shape:
        raise ValueError("P must share H's shape")
    kappa = (np.sin(np.pi * a) / a) * op_norm(p @ frac_power_inv(h, a))
    tail = lam ** (a - 1.0) / (1.0 - a)   # int_lam^inf s^(a-2) ds
    head = lam**a / a                     # int_0^lam s^(a-1) ds
    eps = kappa * tail
    c_eps = kappa * (head + tail)

    rng = np.random.default_rng(seed)
    holds = True
    for _ in range(samples):
        f = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
        f /= np.linalg.norm(f)
        lhs = np.linalg.norm(p @ f)
        rhs = eps * np.linalg.norm(h.matrix @ f) + c_eps
        if lhs > rhs * (1 + 1e-12):
            holds = False
    return eps, c_eps, holds


def op_norm(m: np.ndarray) -> float:
    """Largest singular value; RuntimeError if the power iteration used
    above dimension 1024 has not converged in 500 iterations."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0.0
    if max(m.shape) <= 1024:
        return float(np.linalg.norm(m, 2))
    # power iteration on M*M with deterministic start for large matrices
    v = np.ones(m.shape[1], dtype=complex) / np.sqrt(m.shape[1])
    prev = 0.0
    for _ in range(500):
        w = m.conj().T @ (m @ v)
        cur = np.linalg.norm(w)
        if cur == 0.0:
            return 0.0
        v = w / cur
        if abs(cur - prev) <= 1e-12 * cur:
            return float(np.sqrt(cur))
        prev = cur
    raise RuntimeError("op_norm power iteration did not converge in 500 iterations")
