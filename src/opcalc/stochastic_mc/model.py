"""Flat-torus bundle models with constant coefficients.

The torus is [0, 2pi)^d.  A model carries a metric connection nabla = d +
sum_j A_j dx^j (A_j constant skew-Hermitian), a constant Hermitian potential
W, and first-order perturbations P_j = sum_m S_j^m nabla_m + V_j.  Constant
coefficients make every operator a Fourier multiplier, so the mode blocks

    H_k = (1/2) sum_m (i k_m I + A_m)^* (i k_m I + A_m) + W
    P_{j,k} = sum_m S_j^m (i k_m I + A_m) + V_j

yield an exact spectral oracle for the semigroup integrals.  A model with
no connection and a scalar potential W = w I (every localization model) has
the scalar H_k = (|k|^2/2 + w) I, so Phi^{H_k}_t(P_{1,k}, ..., P_{n,k}) =
e^{-t(|k|^2/2 + w)} t^n/n! P_{1,k} ... P_{n,k}, and the mode sum factorises
into 1-D moment sums with no per-mode exponential.  Every other model
evaluates a chunk of modes at once: the (N, r, r) stacks of H_k and P_{j,k}
go to ``phi_core.phi_block``, the one route for
Phi^{H_k}_t(P_{1,k}, ..., P_{n,k}).  Its batched eigh checks every H_k >= 0
and, for n <= 1, evaluates every mode in closed form in H_k's eigenbasis;
n >= 2 takes one stacked Van Loan exponential per chunk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from ..phi_core import phi_block, phi_fermionic  # noqa: F401  (perfbench's tracer test patches phi_fermionic here)

TWO_PI = 2.0 * np.pi
MODE_CHUNK = 128  # modes per phi_block call, bounding its work arrays
CHECK_WINDOW = 8  # |k|_inf bound of the nonnegativity check when W is not >= 0


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
            for ks in _mode_chunks(self.d, CHECK_WINDOW)
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
    for m in range(d):
        out *= np.sum(_image_weights(y[m] - x[m], t)[1]) / np.sqrt(TWO_PI * t)
    return float(out)


def winding_cutoff(t: float) -> int:
    """Image count keeping the wrapped-Gaussian tail below 1e-14 * total."""
    return max(2, int(np.ceil((np.pi + np.sqrt(2.0 * t * 40.0)) / TWO_PI)) + 1)


def _image_weights(delta: float, t: float):
    """(ws, weights): the windings w in +-``winding_cutoff(t)`` and their
    unnormalised wrapped-Gaussian weights exp(-(delta + 2 pi w)^2 / 2t)."""
    wmax = winding_cutoff(t)
    ws = np.arange(-wmax, wmax + 1)
    return ws, np.exp(-((delta + TWO_PI * ws) ** 2) / (2.0 * t))


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
    exact kernel of the model truncated to the modes |k|_inf <= K.  Models
    with no connection and a scalar potential take the factorised moment
    sum, all others the per-mode ``phi_block`` sum."""
    delta = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    w = _scalar_potential(model)
    if w is not None:
        return _moment_sum(model, w, t, delta, truncation)
    return _mode_sum(model, t, delta, truncation)


def _scalar_potential(model: TorusModel):
    """w if the model has no connection and W = w I, else None.  Then every
    H_k is scalar, and construction has proved w >= -1e-10 at k = 0."""
    w = model.potential[0, 0].real if model.r else 0.0
    if any(np.any(a) for a in model.connection) or not np.array_equal(
        model.potential, w * np.eye(model.r)
    ):
        return None
    return w


def _moment_sum(model: TorusModel, w: float, t: float, delta, truncation: int):
    """(2 pi)^-d e^{-tw} t^n/n! sum_k e^{ik delta - t|k|^2/2} P_{1,k} ... P_{n,k}.

    Each P_{j,k} = V_j + sum_m i k_m S_j^m is affine in k, so the product is
    a polynomial in k: the factors are contracted one at a time into a table
    {(p_1, ..., p_d): coefficient of k_1^p_1 ... k_d^p_d}, at most C(n+d, d)
    entries.  The mode sum of each monomial is the product of the 1-D sums
    sigma_m(p) = sum_{|k| <= K} k^p e^{i k delta_m - t k^2/2}.
    """
    d, n = model.d, model.n
    table = {(0,) * d: np.eye(model.r, dtype=complex)}
    for spec in model.perturbations:
        grown = {}
        for p, c in table.items():
            grown[p] = grown.get(p, 0) + c @ spec.zeroth_order
            for m, s in enumerate(spec.first_order):
                if np.any(s):
                    q = p[:m] + (p[m] + 1,) + p[m + 1 :]
                    grown[q] = grown.get(q, 0) + 1j * (c @ s)
        table = grown
    ks = np.arange(-truncation, truncation + 1, dtype=float)
    gauss = np.exp(1j * np.outer(ks, delta) - 0.5 * t * ks[:, None] ** 2)  # (2K+1, d)
    sigma = (ks ** np.arange(n + 1)[:, None]) @ gauss  # (n+1, d)
    weights = sigma[np.array(list(table)), np.arange(d)].prod(axis=1)
    out = np.einsum("e,eab->ab", weights, np.array(list(table.values())))
    return out * (np.exp(-t * w) * t**n / factorial(n) / TWO_PI**d)


def _mode_sum(model: TorusModel, t: float, delta, truncation: int):
    """(2 pi)^-d sum_{|k|_inf <= K} e^{ik delta} Phi^{H_k}_t(P_{1,k}, ...),
    one ``phi_block`` call per chunk of modes, which checks every H_k >= 0
    (a closed form in H_k's eigenbasis for n <= 1, one stacked Van Loan
    exponential for n >= 2)."""
    out = np.zeros((model.r, model.r), dtype=complex)
    for ks in _mode_chunks(model.d, truncation):
        h, perts = model.mode_blocks(ks)
        out += np.einsum("m,mab->ab", np.exp(1j * (ks @ delta)), phi_block(h, perts, t))
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
