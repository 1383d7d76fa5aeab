"""Monte Carlo for the stochastic-area exponential of a 2-form curvature.

Standard Euclidean bridges Y on [0, 1] drive the Ito accumulator

    J = - sum_{ij} Omega_ij int_0^1 Y_j dY_i    (left-endpoint),

and exp(J) is averaged in the nilpotent even exterior algebra.  The exact
law gives E[exp(c J)] = det^{1/2}((c Omega)/sinh(c Omega)), so the mean
matches the characteristic power series evaluated at 2 Omega; J is linear
in Omega, so passing Omega/2 matches it at Omega.  Over d = 2 both reduce
to 1 plus a mean-zero top term.

The bridges stream from ``bridge._bridge_steps`` in the engine's chunk
schedule and Philox streams; the pair areas accumulate step by step into
one (n_pairs, P) array, one contiguous slice of pairs (i, j > i) per
coordinate i, so no path is stored.  The mean and the top
coefficient's error bar come from per-chunk centred moments merged in
chunk order (``engine._merge_moments``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..grassmann import MultiVector, _merge_sign
from .bridge import _bridge_steps
from .engine import _chunk_moments, _chunk_rng, _chunks, _merge_moments


@lru_cache(maxsize=None)
def _wedge_table(n: int) -> tuple:
    """All disjoint mask pairs (m1, m2, sign, m1|m2) for dense wedging."""
    out = []
    dim = 1 << n
    for m1 in range(dim):
        for m2 in range(dim):
            if m1 & m2:
                continue
            out.append((m1, m2, _merge_sign(m1, m2), m1 | m2))
    return tuple(out)


def wedge_dense_batch(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Batched wedge of dense coefficient arrays of shape (P, 2^n)."""
    out = np.zeros_like(a)
    nz_a = {m for m in range(a.shape[1]) if np.any(a[:, m])}
    nz_b = {m for m in range(b.shape[1]) if np.any(b[:, m])}
    for m1, m2, sign, m_out in _wedge_table(n):
        if m1 in nz_a and m2 in nz_b:
            out[:, m_out] += sign * a[:, m1] * b[:, m2]
    return out


def exp_dense_batch(j: np.ndarray, n: int) -> np.ndarray:
    """exp of batched even forms with zero scalar part (nilpotent)."""
    dim = 1 << n
    out = np.zeros_like(j)
    out[:, 0] = 1.0
    term = np.zeros_like(j)
    term[:, 0] = 1.0
    for k in range(1, n // 2 + 1):
        term = wedge_dense_batch(term, j, n) / k
        if not np.any(term):
            break
        out = out + term
    return out


@dataclass(frozen=True)
class LevyAreaResult:
    mean_form: MultiVector
    top_mean: complex
    top_stderr: float
    diagnostics: dict


def levy_area_estimate(
    omega,
    d: int,
    paths: int,
    steps: int,
    seed: int = 0,
) -> LevyAreaResult:
    """Average exp(J) over simulated bridges.

    ``omega`` is a d x d antisymmetric matrix of constant 2-forms over d
    generators.
    """
    if d % 2:
        raise ValueError("d must be even")
    entries = [[e if isinstance(e, MultiVector) else MultiVector.zero(d) for e in row] for row in omega]
    top_mask = (1 << d) - 1
    pair_forms = []  # over the pairs (i, j > i) in order
    for i in range(d):
        for j in range(i + 1, d):
            form = entries[i][j]
            diff = form + entries[j][i]
            if not diff.is_zero(1e-14):
                raise ValueError("curvature matrix must be antisymmetric")
            pair_forms.append((-1.0 * form).dense())

    if all(np.all(f == 0) for f in pair_forms) or paths == 0:
        one = MultiVector.one(d)
        return LevyAreaResult(one, one.coefficient(top_mask), 0.0, {"paths": paths})

    forms = np.array(pair_forms)
    # block i of the area rows, the pairs (i, j > i), is one slice
    blocks = [slice(i * d - i * (i + 1) // 2, (i + 1) * d - (i + 1) * (i + 2) // 2)
              for i in range(d - 1)]
    parts = []
    for idx, take in _chunks(paths):
        rng = _chunk_rng(seed, idx)
        # pair areas int Y_j dY_i - int Y_i dY_j with left endpoints
        area = np.zeros((len(forms), take))
        for pos, inc in _bridge_steps(rng, np.zeros(d), np.zeros((d, take)), 1.0, steps):
            for i, blk in enumerate(blocks):
                area[blk] += pos[i + 1:] * inc[i] - pos[i] * inc[i + 1:]
        # J = -sum_{i<j} Omega_ij (int Y_j dY_i - int Y_i dY_j)
        e_j = exp_dense_batch(area.T @ forms, d)
        parts.append(_chunk_moments(e_j.T))
    _, mean, m2 = _merge_moments(parts)
    top_mean = mean[top_mask]
    return LevyAreaResult(
        MultiVector.from_dense(d, mean),
        complex(top_mean),
        float(np.sqrt(m2[top_mask] / paths / paths)),
        {"paths": paths, "steps": steps, "seed": seed},
    )
