"""Flat-torus bundle models with constant coefficients.

The torus is [0, 2pi)^d.  A model carries a metric connection nabla = d +
sum_j A_j dx^j (A_j constant skew-Hermitian), a constant Hermitian potential
W, and first-order perturbations P_j = sum_m S_j^m nabla_m + V_j.  Constant
coefficients make every operator a Fourier multiplier, so the mode blocks

    H_k = (1/2) sum_m (i k_m I + A_m)^* (i k_m I + A_m) + W
    P_{j,k} = sum_m S_j^m (i k_m I + A_m) + V_j

yield an exact spectral oracle for the semigroup integrals.  It evaluates
a chunk of modes at once: Phi^{H_k}_t(P_{1,k}, ..., P_{n,k}) is the top-right
block of the exponential of the (n+1) r block-bidiagonal matrix with -t H_k
on the diagonal and t P_{j,k} on the superdiagonal (Van Loan 1978); for
n = 0 it is e^{-t H_k}, from the batched eigh that checks H_k >= 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .. import linalg
from ..phi_core import phi_fermionic  # noqa: F401  (perfbench's tracer test patches it here)

TWO_PI = 2.0 * np.pi
MODE_CHUNK = 128  # modes per stacked exponential, bounding its work arrays


@dataclass(frozen=True)
class PerturbationSpec:
    """First-order symbol coefficients S^1..S^d and zeroth-order part V."""

    first_order: tuple  # d matrices, each r x r
    zeroth_order: np.ndarray

    def __post_init__(self):
        fo = tuple(np.asarray(s, dtype=complex) for s in self.first_order)
        zo = np.asarray(self.zeroth_order, dtype=complex)
        object.__setattr__(self, "first_order", fo)
        object.__setattr__(self, "zeroth_order", zo)

    @staticmethod
    def zeroth(v: np.ndarray, d: int) -> "PerturbationSpec":
        v = np.asarray(v, dtype=complex)
        zero = np.zeros_like(v)
        return PerturbationSpec((zero,) * d, v)


@dataclass(frozen=True)
class TorusModel:
    d: int
    r: int
    connection: tuple = ()   # d skew-Hermitian r x r matrices
    potential: np.ndarray = None
    perturbations: tuple = ()
    _window: int = field(default=8, repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        conn = tuple(np.asarray(a, dtype=complex) for a in self.connection)
        if not conn:
            conn = tuple(np.zeros((self.r, self.r), dtype=complex) for _ in range(self.d))
        if len(conn) != self.d:
            raise ValueError("need one connection coefficient per coordinate")
        for a in conn:
            if a.shape != (self.r, self.r):
                raise ValueError("connection coefficients must be r x r")
            if np.linalg.norm(a + a.conj().T, 2) > 1e-12 * max(1.0, np.linalg.norm(a, 2)):
                raise ValueError("connection coefficients must be skew-Hermitian")
        pot = self.potential
        pot = np.zeros((self.r, self.r), dtype=complex) if pot is None else np.asarray(pot, dtype=complex)
        if np.linalg.norm(pot - pot.conj().T, 2) > 1e-12 * max(1.0, np.linalg.norm(pot, 2)):
            raise ValueError("potential must be Hermitian")
        perts = tuple(self.perturbations)
        for p in perts:
            if not isinstance(p, PerturbationSpec):
                raise TypeError("perturbations must be PerturbationSpec instances")
            if len(p.first_order) != self.d:
                raise ValueError("need d first-order coefficients per perturbation")
        object.__setattr__(self, "connection", conn)
        object.__setattr__(self, "potential", pot)
        object.__setattr__(self, "perturbations", perts)
        self._assert_nonnegative()

    def _assert_nonnegative(self):
        """min eigenvalue of H_k over the check window must be >= -1e-10;
        H_k - W >= 0 for every k, so W >= 0 proves it for all modes."""
        if not self.r or np.linalg.eigvalsh(self.potential)[0] >= 0.0:
            return
        worst = min(
            np.linalg.eigvalsh(self.mode_blocks(ks)[0])[:, 0].min()
            for ks in _mode_chunks(self.d, self._window)
        )
        if worst < -1e-10:
            raise ValueError(f"mode Hamiltonians are not nonnegative: min eig {worst:.3e}")

    @property
    def n(self) -> int:
        return len(self.perturbations)

    def mode_blocks(self, modes) -> tuple:
        """H_k and (P_{1,k}, ..., P_{n,k}) for an (N, d) array of modes, each
        an (N, r, r) stack; the coefficients were validated at construction."""
        ks = np.asarray(modes, dtype=float)[:, :, None, None]
        factors = [1j * ks[:, m] * np.eye(self.r) + a for m, a in enumerate(self.connection)]
        h = sum(0.5 * np.conj(np.swapaxes(f, 1, 2)) @ f for f in factors) + self.potential
        return h, tuple(
            spec.zeroth_order + sum(s @ f for s, f in zip(spec.first_order, factors))
            for spec in self.perturbations
        )

    def with_perturbations(self, perts) -> "TorusModel":
        return TorusModel(self.d, self.r, self.connection, self.potential, tuple(perts))


def _mode_chunks(d: int, kmax: int):
    """The modes |k|_inf <= kmax in lexicographic order, as (N, d) float
    arrays of at most MODE_CHUNK rows."""
    modes = itertools.product(range(-kmax, kmax + 1), repeat=d)
    while chunk := list(itertools.islice(modes, MODE_CHUNK)):
        yield np.array(chunk, dtype=float)


def heat_kernel(d: int, t: float, x, y) -> float:
    """Wrapped Gaussian kernel of -Laplacian/2 on the torus, tail < 1e-14."""
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (d,) or y.shape != (d,):
        raise ValueError(f"points must be {d}-vectors")
    out = 1.0
    wmax = winding_cutoff(t)
    ws = np.arange(-wmax, wmax + 1)
    for m in range(d):
        delta = y[m] - x[m]
        out *= np.sum(np.exp(-((delta + TWO_PI * ws) ** 2) / (2.0 * t))) / np.sqrt(
            TWO_PI * t
        )
    return float(out)


def winding_cutoff(t: float) -> int:
    """Image count keeping the wrapped-Gaussian tail below 1e-14 * total."""
    return max(2, int(np.ceil((np.pi + np.sqrt(2.0 * t * 40.0)) / TWO_PI)) + 1)


def spectral_phi_kernel(model: TorusModel, t: float, x, y, truncation: int):
    """Exact Fourier oracle for the semigroup-integral kernel at (x, y).

    (2 pi)^-d sum_{|k|_inf <= K} e^{i k (x-y)} Phi^{H_k}_t(P_{1,k}, ..., P_{n,k}),
    rejecting truncations whose Gaussian tail estimate exceeds 1e-10.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    tail = _truncation_tail(model, t, truncation)
    if tail > 1e-10:
        raise ValueError(
            f"truncation K={truncation} has tail estimate {tail:.2e} > 1e-10"
        )
    return _truncated_kernel(model, t, x, y, truncation)


def _truncated_kernel(model: TorusModel, t: float, x, y, truncation: int):
    """The mode sum of ``spectral_phi_kernel`` without its tail check: the
    exact kernel of the model truncated to the modes |k|_inf <= K, one
    batched eigh and, for n >= 1, one stacked exponential per chunk of
    modes.  Every H_k is checked to be nonnegative."""
    delta = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r, n = model.r, model.n
    out = np.zeros((r, r), dtype=complex)
    for ks in _mode_chunks(model.d, truncation):
        h, perts = model.mode_blocks(ks)
        vals, vecs = np.linalg.eigh(h)
        # the tolerance of linalg.hermitian, -1e-12 ||H_k||
        if np.any(vals[:, 0] < -linalg.HERM_CONSTRUCTION_RTOL * np.abs(vals).max(axis=1)):
            raise ValueError(f"operator is not nonnegative: min eigenvalue {vals.min():.3e}")
        weights = np.exp(1j * (ks @ delta))
        if n == 0:  # e^{-t H_k} by spectral calculus, as linalg.herm_exp
            blocks = (vecs * np.exp(-t * vals)[:, None, :]) @ np.conj(np.swapaxes(vecs, 1, 2))
        else:
            # e^{-t lo}, lo = lambda_min(H_k), factors out: |e^{-t(H_k - lo)}| <= 1
            lo = vals[:, 0]
            gen = np.zeros((len(ks), n + 1, r, n + 1, r), dtype=complex)
            for j in range(n + 1):
                gen[:, j, :, j] = -t * (h - lo[:, None, None] * np.eye(r))
            for j, p in enumerate(perts):
                gen[:, j, :, j + 1] = t * p
            blocks = linalg.expm(gen.reshape(len(ks), (n + 1) * r, -1))[:, :r, n * r :]
            weights = weights * np.exp(-t * lo)
        out += np.einsum("m,mab->ab", weights, blocks)
    return out / TWO_PI**model.d


def _truncation_tail(model: TorusModel, t: float, truncation: int) -> float:
    """Crude rigorous bound on the discarded mode sum, per kernel entry."""
    amax = max((np.linalg.norm(a, 2) for a in model.connection), default=0.0)
    wmin = float(np.linalg.eigvalsh(model.potential)[0]) if model.r else 0.0
    p_consts = []
    for spec in model.perturbations:
        s_norm = sum(np.linalg.norm(s, 2) for s in spec.first_order)
        p_consts.append((s_norm, np.linalg.norm(spec.zeroth_order, 2) + s_norm * amax))
    n = model.n
    total = 0.0
    for q in range(truncation + 1, truncation + 200):
        lam = 0.5 * max(q - amax, 0.0) ** 2 + wmin
        shell = (2 * q + 1) ** model.d - (2 * q - 1) ** model.d
        prod = 1.0
        for s_norm, c0 in p_consts:
            prod *= s_norm * np.sqrt(model.d) * q + c0
        term = shell * prod * t**n / factorial(n) * np.exp(-t * lam)
        total += term
        if term < 1e-18 * max(total, 1e-300):
            break
    return total / TWO_PI**model.d


def _oracle_z(error, stderr, tail, scale):
    """Discrepancy between a Monte Carlo estimate and the spectral oracle,
    in standard errors.

    Only the part of ``error`` beyond the oracle's truncation-tail bound
    ``tail`` counts, and the standard error is floored at 1e-12 of the
    oracle's ``scale``, the rounding scale, so that an exact zero-variance
    estimate passes.
    """
    return np.maximum(np.subtract(error, tail), 0.0) / np.maximum(
        stderr, 1e-12 * max(scale, 1e-300)
    )
