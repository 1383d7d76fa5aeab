"""Differential graded heat-semigroup cocycle evaluation on finite graded
modules, with ordered-partition combinatorics, heat-supertrace constancy
diagnostics, and the localization target of the flat-torus small-time study.

That study (``opcalc jlo``, ``stochastic_mc.localize.small_time_limit``)
evaluates the functional

    F(t) = (t/2)^(-n/2 + sum_j deg(w_j')/2)
           * Str( sum_m (-2)^m sum_I c(w_0') Phi^{D^2/2}_t(P(w_{I_1}), ...) )

exactly for the K-truncated flat-torus spin model, a batched mode sum with
the supertrace over the whole torus: (2 pi)^d times ``opcalc localize`` up
to truncation.  Only ``localize`` enforces the 1e-10 torus-tail guard.  The
t -> 0 limit is the localization target
    ((-1)^n 2^(2n) / (n! (2 pi sqrt(-1))^(d/2))) * vol * top(w_0'^w_1''^...^w_n'').
Plain cocycle evaluation (chern_eval, unit coefficients at t = 1 with the
rescaled module) is exposed separately; its small-t limit differs from the
localization target by 2^(2n), see the package notes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import factorial

import numpy as np

from .clifford import SpinorRep, clifford_quantize
from .grassmann import MultiVector, berezin
from .linalg import herm_exp, hermitian
from .phi_core import OperatorFamily, phi_fermionic

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class DGAElement:
    """Pair (prime, doubleprime) of constant-coefficient forms."""

    prime: MultiVector
    doubleprime: MultiVector

    def __post_init__(self):
        if self.prime.n != self.doubleprime.n:
            raise ValueError("both components must share the generator count")

    @property
    def d(self) -> int:
        return self.prime.n

    @staticmethod
    def of(prime: MultiVector | None, doubleprime: MultiVector | None, d: int):
        return DGAElement(
            prime if prime is not None else MultiVector.zero(d),
            doubleprime if doubleprime is not None else MultiVector.zero(d),
        )


@dataclass(frozen=True)
class FredholmModule:
    """Graded finite module: grading, odd self-adjoint D, Clifford map.

    ``rep`` supplies the quantization map for form arguments; modules used
    only for heat-supertrace diagnostics may carry an explicit unbalanced
    ``grading`` and no rep.  The differential of the constant-form model is
    identically zero.  ``scale_t`` composes multiplicatively with the time
    arguments of the rescaled family.
    """

    dirac: np.ndarray
    grading: np.ndarray
    rep: SpinorRep | None = None
    scale_t: float = 1.0

    def __post_init__(self):
        d = np.asarray(self.dirac, dtype=complex)
        g = np.asarray(self.grading, dtype=complex)
        scale = max(np.linalg.norm(d, 2), 1.0)
        if np.linalg.norm(d - d.conj().T, 2) > 1e-12 * scale:
            raise ValueError("D must be self-adjoint")
        if np.linalg.norm(g @ d + d @ g, 2) > 1e-12 * scale:
            raise ValueError("D must be odd for the grading")
        if np.linalg.norm(g @ g - np.eye(len(g)), 2) > 1e-12:
            raise ValueError("grading must square to the identity")
        object.__setattr__(self, "dirac", d)
        object.__setattr__(self, "grading", g)

    @property
    def dim(self) -> int:
        return self.dirac.shape[0]

    def quantize(self, form: MultiVector) -> np.ndarray:
        if self.rep is None:
            raise ValueError("module carries no Clifford map")
        return clifford_quantize(self.rep, form)

    def supertrace(self, m: np.ndarray) -> complex:
        return complex(np.trace(self.grading @ m))


def spinor_module(rep: SpinorRep, dirac: np.ndarray, scale_t: float = 1.0) -> FredholmModule:
    return FredholmModule(dirac, rep.chirality, rep, scale_t)


def random_odd_dirac(rep: SpinorRep, rng: np.random.Generator) -> np.ndarray:
    """Generic odd self-adjoint matrix for the rep's grading."""
    x = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal(
        (rep.dim, rep.dim)
    )
    h = 0.5 * (x + x.conj().T)
    g = rep.chirality
    return 0.5 * (h - g @ h @ g)


def ordered_partitions(m: int, n: int) -> tuple:
    """All partitions of {1..n} into m consecutive nonempty blocks.

    Returned as tuples of index tuples; there are C(n-1, m-1) of them.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    out = []

    def rec(start: int, blocks_left: int, acc: list):
        if blocks_left == 1:
            out.append(tuple(acc + [tuple(range(start, n + 1))]))
            return
        # block must leave at least blocks_left-1 elements for the rest
        for end in range(start, n - blocks_left + 2):
            rec(end + 1, blocks_left - 1, acc + [tuple(range(start, end + 1))])

    rec(1, m, [])
    return tuple(out)


def p_of(module: FredholmModule, omega: DGAElement) -> np.ndarray:
    """P(w) = [D, c(w')] - c(dw') + c(w'') with the graded commutator.

    The constant-form differential vanishes.  w' must have pure degree.
    """
    sign = -1.0 if omega.prime.pure_degree() % 2 else 1.0
    c_prime = module.quantize(omega.prime)
    commutator = module.dirac @ c_prime - sign * c_prime @ module.dirac
    return commutator + module.quantize(omega.doubleprime)


def clifford_defect(quantize, omega1: DGAElement, omega2: DGAElement) -> np.ndarray:
    """(-1)^deg(w1') (c(w1'^w2') - c(w1') c(w2')) for the quantization map c.

    The pair block of the partition sum; it does not involve D.
    """
    deg = omega1.prime.pure_degree()
    sign = -1.0 if deg % 2 else 1.0
    return sign * (
        quantize(omega1.prime.wedge(omega2.prime))
        - quantize(omega1.prime) @ quantize(omega2.prime)
    )


def p_of_pair(module: FredholmModule, omega1: DGAElement, omega2: DGAElement):
    """P(w1, w2): the Clifford defect of the module's quantization map."""
    return clifford_defect(module.quantize, omega1, omega2)


def p_of_block(module: FredholmModule, omegas) -> np.ndarray:
    omegas = tuple(omegas)
    if len(omegas) == 1:
        return p_of(module, omegas[0])
    if len(omegas) == 2:
        return p_of_pair(module, omegas[0], omegas[1])
    return np.zeros((module.dim, module.dim), dtype=complex)


def chern_eval(module: FredholmModule, chain, t: float) -> complex:
    """Cocycle value on (w_0, ..., w_n) for the rescaled module at time t.

    The rescaling carries sqrt(t) on D and t^(deg/2) on the Clifford map, so
    every block P picks up the t-power of its arguments and the semigroup
    becomes exp(-t D^2); partition sums carry (-1)^m and run in partition
    order.  n = 0 yields Str(c_t(w_0') exp(-t D^2)).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    t = t * module.scale_t
    chain = tuple(
        DGAElement(
            t ** (w.prime.pure_degree() / 2.0) * w.prime,
            t ** (w.doubleprime.pure_degree() / 2.0) * w.doubleprime,
        )
        for w in chain
    )
    n = len(chain) - 1
    c0 = module.quantize(chain[0].prime)
    h_t = hermitian(t * (module.dirac @ module.dirac), require_nonneg=True)
    if n == 0:
        return module.supertrace(c0 @ herm_exp(h_t, 1.0))

    module_t = replace(module, dirac=np.sqrt(t) * module.dirac)
    acc = np.zeros((module.dim, module.dim), dtype=complex)
    for m in range(1, n + 1):
        for partition in ordered_partitions(m, n):
            blocks = tuple(
                p_of_block(module_t, (chain[i] for i in block)) for block in partition
            )
            if all(np.all(b == 0) for b in blocks):
                continue
            fam = OperatorFamily(h_t, blocks)
            acc = acc + (-1.0) ** m * phi_fermionic(fam, 1.0).value
    return module.supertrace(c0 @ acc)


def mckean_singer_raw(grading: np.ndarray, dirac: np.ndarray, t_grid):
    """Supertrace of the heat semigroup over a time grid.

    Returns (values, spread, signature) where signature is the graded
    dimension of ker D computed from the eigendecomposition.
    """
    grading = np.asarray(grading, dtype=complex)
    dirac = np.asarray(dirac, dtype=complex)
    vals, vecs = np.linalg.eigh(dirac)
    graded_diag = np.real(np.einsum("ai,ab,bi->i", vecs.conj(), grading, vecs))
    t_grid = np.asarray(tuple(t_grid), dtype=float)
    if np.any(t_grid <= 0):
        raise ValueError("t grid must be positive")
    values = np.array(
        [np.sum(np.exp(-t * vals**2) * graded_diag) for t in t_grid]
    )
    spread = float(values.max() - values.min()) if len(values) else 0.0
    scale = max(np.abs(vals).max(), 1.0)
    kernel = np.abs(vals) <= 1e-10 * scale
    signature_val = float(np.sum(graded_diag[kernel]))
    signature = int(round(signature_val))
    if abs(signature_val - signature) > 1e-8:
        raise ArithmeticError("graded kernel dimension is not close to an integer")
    return values, spread, signature


def mckean_singer(module: FredholmModule, t_grid):
    return mckean_singer_raw(module.grading, module.dirac, t_grid)


def localization_target(chain, d: int, volume: float = 1.0) -> complex:
    """((-1)^n 2^(2n) / (n! (2 pi i)^(d/2))) * volume * top(w_0'^w_1''^...)."""
    chain = tuple(chain)
    n = len(chain) - 1
    top = chain[0].prime
    for w in chain[1:]:
        top = top.wedge(w.doubleprime)
    l = d // 2
    coeff = (-1.0) ** n * 2.0 ** (2 * n) / (factorial(n) * (TWO_PI * 1j) ** l)
    return coeff * volume * berezin(top)


def richardson(values, order: float = 1.0) -> complex:
    """Two-point Richardson step for a geometric (ratio-2) time sequence."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    factor = 2.0**order
    return (factor * values[-1] - values[-2]) / (factor - 1.0)
