"""Complex Clifford algebra of R^d (d even) in an irreducible graded spinor
representation, with supertraces, quantization of constant-coefficient forms,
the spin-representation map of antisymmetric matrices, filtration-vanishing
checks, and the characteristic power series of a 2-form-valued curvature
matrix.

Sign conventions: c(e)^2 = -1 (Riemannian), and the chirality sign sigma in
Gamma = sigma * (sqrt(-1))^l c_1 ... c_d is calibrated once per dimension so
that the top supertrace identity
    Str(T(A_1)...T(A_l)) e^1^...^e^d = (sqrt(-1))^(-l) alpha(A_1)^...^alpha(A_l)
holds on the canonical instance; the calibrated sign is then frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .grassmann import MultiVector, berezin, exp_even

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class SpinorRep:
    """Irreducible graded spinor representation of Cl(R^d), d even.

    ``gammas`` are the d unitary generators with c_i c_j + c_j c_i = -2 delta_ij,
    ``chirality`` the grading operator, ``sigma`` the calibrated chirality sign.
    """

    d: int
    gammas: tuple
    chirality: np.ndarray
    sigma: int

    @property
    def l(self) -> int:
        return self.d // 2

    @property
    def dim(self) -> int:
        return 1 << self.l

    def monomial(self, mask: int) -> np.ndarray:
        """c_{i_1} ... c_{i_k} for the sorted indices encoded by ``mask``."""
        out = np.eye(self.dim, dtype=complex)
        for i in range(self.d):
            if mask & (1 << i):
                out = out @ self.gammas[i]
        return out


def _hermitian_gammas(d: int) -> list:
    """Tensor-product Hermitian generators with {g_i, g_j} = 2 delta_ij."""
    l = d // 2
    gammas = []
    for k in range(l):
        pre = [_SIGMA_Z] * k
        post = [np.eye(2, dtype=complex)] * (l - k - 1)
        for mid in (_SIGMA_X, _SIGMA_Y):
            mats = pre + [mid] + post
            g = mats[0]
            for m in mats[1:]:
                g = np.kron(g, m)
            gammas.append(g)
    return gammas


@lru_cache(maxsize=None)
def build_spinor_rep(d: int) -> SpinorRep:
    """Standard representation with calibrated chirality sign."""
    if d % 2 or not 2 <= d <= 10:
        raise ValueError(f"need even d with 2 <= d <= 10, got {d}")
    l = d // 2
    cs = tuple(1j * g for g in _hermitian_gammas(d))
    prod = np.eye(1 << l, dtype=complex)
    for c in cs:
        prod = prod @ c
    base = (1j**l) * prod

    # calibrate sigma on the canonical word A^{12}, A^{34}, ..., A^{d-1,d}
    word = np.eye(1 << l, dtype=complex)
    for k in range(l):
        word = word @ (0.5 * cs[2 * k] @ cs[2 * k + 1])
    target = (1j) ** (-l)  # top coefficient of the alpha-wedge is 1
    sigma = 1 if abs(np.trace(base @ word) - target) < abs(
        np.trace(-base @ word) - target
    ) else -1
    chirality = sigma * base

    rep = SpinorRep(d, cs, chirality, sigma)
    _validate_rep(rep)
    return rep


def _validate_rep(rep: SpinorRep):
    eye = np.eye(rep.dim)
    for i, ci in enumerate(rep.gammas):
        if np.linalg.norm(ci @ ci.conj().T - eye) > 1e-13:
            raise AssertionError("generator is not unitary")
        if np.linalg.norm(rep.chirality @ ci + ci @ rep.chirality) > 1e-13:
            raise AssertionError("chirality does not anticommute with generators")
        for j, cj in enumerate(rep.gammas):
            acom = ci @ cj + cj @ ci
            expect = -2.0 * eye if i == j else 0.0 * eye
            if np.linalg.norm(acom - expect) > 1e-13:
                raise AssertionError("Clifford relations violated")
    if np.linalg.norm(rep.chirality @ rep.chirality - eye) > 1e-13:
        raise AssertionError("chirality does not square to the identity")


def clifford_quantize(rep: SpinorRep, form: MultiVector) -> np.ndarray:
    """Linear extension of e^{i_1}^...^e^{i_r} -> c_{i_1}...c_{i_r}."""
    if form.n != rep.d:
        raise ValueError(f"form lives over {form.n} generators, rep over {rep.d}")
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for mask, coeff in form.coeffs.items():
        out += coeff * rep.monomial(mask)
    return out


def supertrace(rep: SpinorRep, m: np.ndarray) -> complex:
    m = np.asarray(m, dtype=complex)
    if m.shape != (rep.dim, rep.dim):
        raise ValueError(f"expected shape {(rep.dim, rep.dim)}, got {m.shape}")
    return complex(np.trace(rep.chirality @ m))


def _check_antisymmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a + a.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not antisymmetric")
    return a


def t_of(rep: SpinorRep, a: np.ndarray) -> np.ndarray:
    """(1/4) sum_ij a_ij c_i c_j, the spin-representation image of a."""
    a = _check_antisymmetric(a)
    if a.shape != (rep.d, rep.d):
        raise ValueError(f"expected a {rep.d}x{rep.d} matrix")
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for i in range(rep.d):
        for j in range(i + 1, rep.d):
            if a[i, j] != 0.0:
                out += 0.5 * a[i, j] * (rep.gammas[i] @ rep.gammas[j])
    return out


def alpha_of(a: np.ndarray, d: int) -> MultiVector:
    """(1/2) sum_ij a_ij e^i ^ e^j as a multivector over d generators."""
    a = _check_antisymmetric(a)
    coeffs = {}
    for i in range(d):
        for j in range(i + 1, d):
            if a[i, j] != 0.0:
                coeffs[(1 << i) | (1 << j)] = a[i, j]
    return MultiVector(d, coeffs)


def patodi_vanishing(rep: SpinorRep, factors) -> float:
    """|Str(T(A_1)...T(A_k))| for a word of at most l-1 antisymmetric
    factors; vanishes identically."""
    factors = tuple(factors)
    if len(factors) > rep.l - 1:
        raise ValueError("word order exceeds l-1; use patodi_top_identity")
    prod = np.eye(rep.dim, dtype=complex)
    for a in factors:
        prod = prod @ t_of(rep, a)
    return abs(supertrace(rep, prod))


def patodi_top_identity(rep: SpinorRep, factors):
    """Supertrace of an order-l word against the wedge of its 2-forms.

    Returns (lhs, rhs, residual) where
    lhs = Str(T(A_1)...T(A_l)) and
    rhs = top coefficient of alpha(A_1)^...^alpha(A_l) divided by (sqrt(-1))^l.
    """
    factors = tuple(factors)
    if len(factors) != rep.l:
        raise ValueError(f"need exactly l = {rep.l} factors, got {len(factors)}")
    prod = np.eye(rep.dim, dtype=complex)
    wedge = MultiVector.one(rep.d)
    for a in factors:
        prod = prod @ t_of(rep, a)
        wedge = wedge.wedge(alpha_of(a, rep.d))
    lhs = supertrace(rep, prod)
    rhs = berezin(wedge) / (1j**rep.l)
    return lhs, rhs, abs(lhs - rhs)


def curvature_defect(entries):
    """The first entry (i, j, reason), row by row, at which the matrix
    ``entries`` of multivectors is not square, not antisymmetric or not made
    of degree-2 forms; None when it is a curvature matrix.  A row of the
    wrong length is reported at its first missing or extra column."""
    size = len(entries)
    for i, row in enumerate(entries):
        if len(row) != size:
            return i, min(len(row), size), "curvature matrix must be square"
    for i, row in enumerate(entries):
        for j, entry in enumerate(row):
            if not (entry + entries[j][i]).is_zero(1e-14):
                return i, j, "curvature matrix must be antisymmetric"
            if not entry.is_zero() and entry.degrees() != {2}:
                return i, j, "curvature entries must be degree-2 forms"
    return None


def a_hat_series(omega, d: int) -> MultiVector:
    """det^(1/2)((Omega/2) / sinh(Omega/2)) as a finite even power series.

    ``omega`` is a d x d antisymmetric matrix whose entries are degree-2
    multivectors over d generators.  The series is summed as
    exp((1/2) sum_k c_k tr((Omega/2)^(2k))), with c_k the x^(2k) coefficient
    of log(x / sinh x): det f(M) = exp(tr log f(M)) holds exactly because
    the even-form entries commute, and nilpotency stops the sum at
    k = d/4.  The degree-0 coefficient is always 1, and only degrees
    divisible by 4 occur.
    """
    entries = [[_as_form(e, d) for e in row] for row in omega]
    defect = curvature_defect(entries)
    if defect:
        raise ValueError(defect[2])
    half = [[e * 0.5 for e in row] for row in entries]
    half_sq = _form_matmul(half, half)
    power, log_tr = half_sq, MultiVector.zero(d)
    for k in range(1, d // 4 + 1):
        if k > 1:
            power = _form_matmul(power, half_sq)
        c = _log_x_over_sinh_coeff(k)
        log_tr = sum((power[i][i] * c for i in range(len(power))), log_tr)
    return exp_even(log_tr * 0.5)


def _form_matmul(a, b):
    """Product of two square matrices (lists of rows) of multivectors."""
    size = len(a)
    zero = MultiVector.zero(a[0][0].n)
    return [
        [sum((a[i][k].wedge(b[k][j]) for k in range(size)), zero) for j in range(size)]
        for i in range(size)
    ]


def _as_form(e, d: int) -> MultiVector:
    if isinstance(e, MultiVector):
        if e.n != d:
            raise ValueError("entry lives over the wrong generator count")
        return e
    if e == 0:
        return MultiVector.zero(d)
    raise TypeError("curvature entries must be MultiVector instances or 0")


@lru_cache(maxsize=None)
def _log_x_over_sinh_coeff(k: int) -> float:
    """Taylor coefficient of log(x/sinh(x)) at x^(2k), k >= 1, correctly
    rounded: -4^k B_{2k} / (2k (2k)!)."""
    return float(-(4**k) * _bernoulli(2 * k) / (2 * k * factorial(2 * k)))


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m exactly (B_1 = -1/2), from
    sum_{j=0}^{m} C(m+1, j) B_j = 0."""
    if m == 0:
        return Fraction(1)
    return -sum(comb(m + 1, j) * _bernoulli(j) for j in range(m)) / (m + 1)
