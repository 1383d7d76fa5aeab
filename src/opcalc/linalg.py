"""Dense complex linear-algebra kernel.

Matrices are plain complex ``numpy.ndarray``s in row-major layout; the JSON
wire format for them lives in :mod:`opcalc.jsonio`.  Hermitian operators are
wrapped together with their eigendecomposition so spectral calculus
(semigroups, fractional powers) is a cheap reuse of one ``eigh``.

The general matrix exponential is a numpy scaling-and-squaring Pade kernel
(Higham 2005, SIAM J. Matrix Anal. Appl. 26(4)): each matrix's degree and
scaling come from its own 1-norm, so its result does not depend on the
stack it arrives in.  Every contract on top of it (norm guard, Hermitian
agreement, semigroup property, agreement with SciPy's ``expm``) is tested in
this package.  A reducible matrix is exponentiated one weakly connected
component of its nonzero pattern at a time, the exact direct-sum identity,
so the Fermionic lift costs its decoupled chains rather than its full
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_CONSTRUCTION_RTOL = 1e-12
EXPM_NORM_LIMIT = 1e4
DIMENSION_BUDGET = 4096

# Higham (2005), Table 2.3: the [m/m] Pade approximant of degree m meets
# double-precision backward error for ||A||_1 <= theta_m.  _PADE_COEFFS[m]
# are its numerator coefficients b_0..b_m; the denominator is p_m(-A).
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0,
               13: 5.371920351148152e0}
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}


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
    single-component matrix and every stack go to the Pade kernel whole.
    """
    m = _as_square(m, stack=True)
    _check_norm(m)
    if m.ndim == 3:
        return _pade_expm(m)
    components = _weak_components(m)
    if len(components) == 1:
        return _pade_expm(m[None])[0]
    out = np.zeros_like(m)
    for idx in components:
        block = np.ix_(idx, idx)
        out[block] = _pade_expm(m[block][None])[0]
    return out


def _pade_expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of an (N, s, s) stack (Higham 2005, Algorithm 2.3).

    Matrix k takes the lowest degree m with ||A_k||_1 <= theta_m, else
    m = 13 after scaling by 2^-s_k into ||.||_1 <= theta_13.  Matrices that
    share (m, s) run together: their numerator U and denominator V, one
    batched solve (V - U) R = V + U and s squarings.  Every step acts on each
    matrix alone, so a matrix gives the same result alone as in any stack.
    """
    norms = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    degree = np.full(norms.shape, 13)
    for m in (9, 7, 5, 3):
        degree[norms <= _PADE_THETA[m]] = m
    scale = np.zeros(norms.shape, dtype=int)
    big = degree == 13
    scale[big] = np.maximum(0, np.ceil(np.log2(norms[big] / _PADE_THETA[13])))
    out = np.empty_like(a)
    for m, s in sorted(set(zip(degree.tolist(), scale.tolist()))):
        idx = np.flatnonzero((degree == m) & (scale == s))
        out[idx] = _pade_group(a[idx] * 2.0**-s, m, s)
    return out


def _pade_group(a: np.ndarray, m: int, s: int) -> np.ndarray:
    """The degree-m approximant of a stack, squared s times."""
    b = _PADE_COEFFS[m]
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    else:
        powers = [ident, a2]  # A^0, A^2, ..., A^(m-1)
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * j + 1] * p for j, p in enumerate(powers))
        v = sum(b[2 * j] * p for j, p in enumerate(powers))
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


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
        if not len(flagged):
            return
        norm = np.max(np.linalg.norm(flagged, 2, axis=(-2, -1)))
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
