"""Exact arithmetic in the exterior algebra of C^n.

Basis monomials are indexed by bitmasks: bit (j-1) of the mask is set iff
generator theta_j is present, and the basis is ordered by the integer value
of the mask.  Coefficients are stored sparsely; dense 2^n x 2^n matrices are
produced only for left-multiplication operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DimensionMismatchError(ValueError):
    """Raised when two multivectors live over different generator counts."""


def _merge_sign(left_mask: int, right_mask: int) -> int:
    """Sign of sorting the concatenation theta_S theta_T into ascending order.

    Counts inversions between the two sorted index lists, i.e. pairs
    (i in S, j in T) with i > j.  Masks must be disjoint.
    """
    sign = 1
    t = right_mask
    while t:
        low = t & -t
        # generators of S strictly above this element of T
        above = left_mask & ~((low << 1) - 1)
        if bin(above).count("1") & 1:
            sign = -sign
        t ^= low
    return sign


def _popcount_below(mask: int, j: int) -> int:
    """Number of set bits of ``mask`` below generator index j (1-based)."""
    return bin(mask & ((1 << (j - 1)) - 1)).count("1")


@dataclass(frozen=True)
class MultiVector:
    """Element of the exterior algebra over n generators.

    ``coeffs`` maps bitmasks in [0, 2^n) to complex coefficients.  Instances
    are immutable; all operations return new values, so sharing across
    concurrent workers is safe.
    """

    n: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("generator count must be nonnegative")
        cleaned = {}
        for mask, c in self.coeffs.items():
            if not 0 <= mask < (1 << self.n):
                raise ValueError(f"bitmask {mask} out of range for n={self.n}")
            c = complex(c)
            if c != 0:
                cleaned[int(mask)] = c
        object.__setattr__(self, "coeffs", cleaned)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "MultiVector":
        return MultiVector(n, {})

    @staticmethod
    def scalar(n: int, value: complex) -> "MultiVector":
        return MultiVector(n, {0: value})

    @staticmethod
    def one(n: int) -> "MultiVector":
        return MultiVector.scalar(n, 1.0)

    @staticmethod
    def generator(n: int, j: int) -> "MultiVector":
        """theta_j, 1 <= j <= n."""
        if not 1 <= j <= n:
            raise ValueError(f"generator index {j} out of range 1..{n}")
        return MultiVector(n, {1 << (j - 1): 1.0})

    @staticmethod
    def monomial(n: int, indices, coeff: complex = 1.0) -> "MultiVector":
        """theta_{j_1}...theta_{j_k} for strictly increasing indices."""
        mask = 0
        prev = 0
        for j in indices:
            if not 1 <= j <= n or j <= prev:
                raise ValueError("indices must be strictly increasing in 1..n")
            mask |= 1 << (j - 1)
            prev = j
        return MultiVector(n, {mask: coeff})

    # -- linear structure --------------------------------------------------

    def _check(self, other: "MultiVector"):
        if self.n != other.n:
            raise DimensionMismatchError(
                f"generator counts differ: {self.n} vs {other.n}"
            )

    def __add__(self, other: "MultiVector") -> "MultiVector":
        self._check(other)
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            out[mask] = out.get(mask, 0.0) + c
        return MultiVector(self.n, out)

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "MultiVector":
        return MultiVector(self.n, {m: c * scalar for m, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "MultiVector":
        return self * -1.0

    # -- algebra -----------------------------------------------------------

    def wedge(self, other: "MultiVector") -> "MultiVector":
        """Graded-anticommutative product."""
        self._check(other)
        out: dict = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                if ma & mb:
                    continue
                sign = _merge_sign(ma, mb)
                key = ma | mb
                out[key] = out.get(key, 0.0) + sign * ca * cb
        return MultiVector(self.n, out)

    def __xor__(self, other: "MultiVector") -> "MultiVector":
        return self.wedge(other)

    def contract(self, j: int) -> "MultiVector":
        """Interior product with generator j: theta_S -> sign * theta_{S\\{j}}."""
        if not 1 <= j <= self.n:
            raise ValueError(f"generator index {j} out of range 1..{self.n}")
        bit = 1 << (j - 1)
        out = {}
        for mask, c in self.coeffs.items():
            if mask & bit:
                sign = -1 if _popcount_below(mask, j) & 1 else 1
                out[mask ^ bit] = out.get(mask ^ bit, 0.0) + sign * c
        return MultiVector(self.n, out)

    # -- inspection --------------------------------------------------------

    def coefficient(self, mask: int) -> complex:
        return self.coeffs.get(mask, 0.0 + 0.0j)

    def degrees(self) -> set:
        return {bin(m).count("1") for m in self.coeffs}

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.coeffs.values())

    def pure_degree(self) -> int:
        """Degree of a homogeneous multivector (0 for the zero element)."""
        degs = self.degrees()
        if len(degs) > 1:
            raise ValueError(f"multivector has mixed degrees {sorted(degs)}")
        return degs.pop() if degs else 0

    def dense(self) -> np.ndarray:
        """Coefficient vector over the full bitmask basis, mask-ascending."""
        out = np.zeros(1 << self.n, dtype=complex)
        for mask, c in self.coeffs.items():
            out[mask] = c
        return out

    @staticmethod
    def from_dense(n: int, vec: np.ndarray) -> "MultiVector":
        return MultiVector(n, {m: vec[m] for m in range(1 << n) if vec[m] != 0})


def berezin(a: MultiVector) -> complex:
    """Coefficient of the top monomial theta_1...theta_n."""
    return a.coefficient((1 << a.n) - 1)


def exp_even(a: MultiVector) -> MultiVector:
    """Exponential of an even multivector with nilpotent positive-degree part.

    Splits off the scalar part s and sums exp(s) * sum_k nu^k / k!, which
    terminates because nu has degree >= 2.
    """
    if any(d % 2 for d in a.degrees()):
        raise ValueError("exponential defined on the even subalgebra only")
    s = a.coefficient(0)
    nu = a - MultiVector.scalar(a.n, s)
    term = MultiVector.one(a.n)
    acc = MultiVector.one(a.n)
    for k in range(1, a.n // 2 + 1):
        term = term.wedge(nu) * (1.0 / k)
        if term.is_zero():
            break
        acc = acc + term
    return acc * np.exp(s)


def theta_hat_matrix(j: int, n: int) -> np.ndarray:
    """Matrix of beta -> theta_j beta in the mask-ascending basis."""
    if not 1 <= j <= n:
        raise ValueError(f"generator index {j} out of range 1..{n}")
    dim = 1 << n
    bit = 1 << (j - 1)
    out = np.zeros((dim, dim), dtype=complex)
    for mask in range(dim):
        if mask & bit:
            continue
        sign = -1.0 if _popcount_below(mask, j) & 1 else 1.0
        out[mask | bit, mask] = sign
    return out
