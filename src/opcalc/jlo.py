"""Differential graded heat-semigroup cocycle evaluation on finite graded
modules, with ordered-partition combinatorics, heat-supertrace constancy
diagnostics, and the localization target of the flat-torus small-time study.

That study (``opcalc jlo``, ``stochastic_mc.localize.small_time_limit``)
evaluates the functional

    F(t) = (t/2)^(-n/2 + sum_j deg(w_j')/2)
           * Str( sum_m (-2)^m sum_I c(w_0') Phi^{D^2/2}_t(P(w_{I_1}), ...) )

exactly for the K-truncated flat-torus spin model, with the supertrace over
the whole torus: (2 pi)^d times ``opcalc localize`` up to truncation.  Only
``localize`` enforces the 1e-10 torus-tail guard.  The flat model's mode
Hamiltonians are scalar, |k|^2/2, so its kernels are the factorised moment
sum of ``stochastic_mc.model``, not a per-mode ``phi_block`` sum.
``partition_blocks`` is the one assembly of the partition sum, for
``chern_eval`` and the flat-torus models alike; it drops every partition with
a vanishing block.  Every Phi of ``chern_eval`` comes from
``phi_core.phi_block``, the one route: a closed form in the eigenbasis of
t D^2 for partitions of at most one block, one block-bidiagonal (Van Loan)
exponential for longer ones.  The
t -> 0 limit is the localization target
    ((-1)^n 2^(2n) / (n! (2 pi sqrt(-1))^(d/2))) * vol * top(w_0'^w_1''^...^w_n''),
which ``richardson`` approaches along the line through the last two grid
times.  Plain cocycle evaluation (chern_eval on the ``FredholmModule`` of a
spinor rep and an odd D, unit coefficients, rescaled by t) is exposed
separately; its small-t limit differs from the localization target by
2^(2n), see the package notes.  ``chern_eval``, ``p_of`` and
``FredholmModule`` are the finite-module oracle that the flat-torus
``partition_blocks`` route is checked against: no command, acceptance
criterion or benchmark job calls them, only the tests do.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .clifford import SpinorRep, clifford_quantize, supertrace
from .grassmann import MultiVector, berezin
from .phi_core import phi_block

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
    """Finite graded module of a spinor rep: the rep's chirality grading,
    an odd self-adjoint D and the rep's Clifford map.

    The rep's checks already make the grading square to one.  The
    differential of the constant-form model is identically zero.  Part of
    the finite-module test oracle (module docstring): only the tests use it.
    """

    rep: SpinorRep
    dirac: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dirac, dtype=complex)
        g = self.grading
        scale = max(np.linalg.norm(d, 2), 1.0)
        if np.linalg.norm(d - d.conj().T, 2) > 1e-12 * scale:
            raise ValueError("D must be self-adjoint")
        if np.linalg.norm(g @ d + d @ g, 2) > 1e-12 * scale:
            raise ValueError("D must be odd for the grading")
        object.__setattr__(self, "dirac", d)

    @property
    def grading(self) -> np.ndarray:
        return self.rep.chirality

    @property
    def dim(self) -> int:
        return self.dirac.shape[0]

    def quantize(self, form: MultiVector) -> np.ndarray:
        return clifford_quantize(self.rep, form)


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


def _graded_commutators(generators, quantize, omega: DGAElement) -> tuple:
    """([G_1, c(w')], ..., [G_k, c(w')], c(w'')) with the graded commutator.

    w' must have pure degree.
    """
    sign = -1.0 if omega.prime.pure_degree() % 2 else 1.0
    c_prime = quantize(omega.prime)
    return tuple(g @ c_prime - sign * c_prime @ g for g in generators) + (
        quantize(omega.doubleprime),
    )


def p_of(module: FredholmModule, omega: DGAElement) -> np.ndarray:
    """P(w) = [D, c(w')] - c(dw') + c(w'') with the graded commutator.

    The constant-form differential vanishes.  w' must have pure degree.
    Part of the finite-module test oracle (module docstring): only the
    tests call it.
    """
    commutator, zeroth = _graded_commutators((module.dirac,), module.quantize, omega)
    return commutator + zeroth


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


def partition_blocks(chain, generators, quantize) -> list:
    """The nonvanishing terms of the partition sum over (w_1, ..., w_n).

    [(m, (B_1, ..., B_m)), ...] over the ordered partitions of {1..n} into m
    consecutive blocks, in partition order; [(0, ())] for n = 0.  A block
    (S^1, ..., S^k, V) is the operator sum_i S^i X_i + V, where D = sum_i
    G_i X_i with odd ``generators`` G_i and even X_i commuting with every
    form (X = 1 on a finite module, the derivatives on a flat torus).  A
    singleton {j} gives P(w_j): S^i = [G_i, c(w_j')], V = c(w_j''); a pair
    gives the Clifford defect; longer blocks vanish.  Phi is multilinear, so
    a partition with any vanishing block is dropped.
    """
    n = len(chain) - 1
    table = {}
    for j in range(1, n + 1):
        table[(j,)] = _graded_commutators(generators, quantize, chain[j])
        if j < n:
            defect = clifford_defect(quantize, chain[j], chain[j + 1])
            table[(j, j + 1)] = (np.zeros_like(defect),) * len(generators) + (defect,)
    table = {key: b for key, b in table.items() if any(np.any(part) for part in b)}
    terms = [] if n else [(0, ())]
    for m in range(1, n + 1):
        for partition in ordered_partitions(m, n):
            blocks = tuple(table.get(indices) for indices in partition)
            if all(b is not None for b in blocks):
                terms.append((m, blocks))
    return terms


def chern_eval(module: FredholmModule, chain, t: float) -> complex:
    """Cocycle value on (w_0, ..., w_n) for the rescaled module at time t.

    The rescaling carries sqrt(t) on D and t^(deg/2) on the Clifford map, so
    every block P picks up the t-power of its arguments and the semigroup
    becomes exp(-t D^2); the terms of ``partition_blocks`` carry (-1)^m and
    run in partition order.  n = 0 yields Str(c_t(w_0') exp(-t D^2)).  Every
    Phi is one ``phi_block`` call; ``phi_block`` checks t D^2 >= 0.  The
    finite-module test oracle (module docstring) that the flat-torus route
    is checked against: only the tests call it.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    chain = tuple(
        DGAElement(
            t ** (w.prime.pure_degree() / 2.0) * w.prime,
            t ** (w.doubleprime.pure_degree() / 2.0) * w.doubleprime,
        )
        for w in chain
    )
    c0 = module.quantize(chain[0].prime)
    h_t = t * (module.dirac @ module.dirac)
    acc = np.zeros((module.dim, module.dim), dtype=complex)
    for m, blocks in partition_blocks(chain, (np.sqrt(t) * module.dirac,), module.quantize):
        perturbations = tuple(commutator + zeroth for commutator, zeroth in blocks)
        acc = acc + (-1.0) ** m * phi_block(h_t, perturbations, 1.0)
    return supertrace(module.rep, c0 @ acc)


def mckean_singer(grading: np.ndarray, dirac: np.ndarray, t_grid):
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


def richardson(times, values) -> complex:
    """The value at t = 0 of the line through the last two (time, value)
    points: (r v[-1] - v[-2]) / (r - 1) with r = t[-2] / t[-1], so any
    distinct pair of times serves; one point is its own limit."""
    if len(values) == 1:
        return values[0]
    r = times[-2] / times[-1]
    return (r * values[-1] - values[-2]) / (r - 1.0)
