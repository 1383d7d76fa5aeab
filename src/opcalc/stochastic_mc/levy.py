"""Monte Carlo for the stochastic-area exponential of a 2-form curvature.

Standard Euclidean bridges Y on [0, 1] drive the Ito accumulator

    J = - sum_{ij} Omega_ij int_0^1 Y_j dY_i    (left-endpoint),

and exp(J) is averaged in the nilpotent even exterior algebra.  The exact
law gives E[exp(c J)] = det^{1/2}((c Omega)/sinh(c Omega)), so the mean
matches the characteristic power series evaluated at 2 Omega; J is linear
in Omega, so passing Omega/2 matches it at Omega.  Over d = 2 both reduce
to 1 plus a mean-zero top term.

The bridges stream from ``bridge._bridge_steps``, one chunk at a time
through the engine's chunk map, drawing from stream 0 of the three-word
Philox key (seed, chunk index, stream).  The pair areas
accumulate step by step, in place, so no path is stored.  Contracted with
the degree-2 coefficients of -Omega they give each path's 2-form
J = sum_{a<b} J_ab theta_a theta_b, and exp(J) has the Pfaffian minor
Pf(J_I) as its theta_I coefficient on every even mask I (odd ones vanish).
The table of 2^(d-1) minors, real when Omega is, fills in order of mask
size by expansion along the lowest generator i1 of I, Pf(I) = J_{i1 j1}
Pf(I - {i1, j1}) - J_{i1 j2} Pf(I - {i1, j2}) + ... over j1 < j2 < ... in
I, with Pf of the empty mask 1.  The engine's one reduction
``engine._mc_mean`` gives the table's mean and the top coefficient's error
bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from ..clifford import curvature_defect
from ..grassmann import MultiVector
from .bridge import _bridge_steps
from .engine import _check_counts, _mc_mean


@lru_cache(maxsize=None)
def _pfaffian_plan(d: int) -> tuple:
    """(masks, expansions): the even masks over d generators by size, then
    lexicographically (row 0 empty, rows 1..n_pairs the pairs (a, b > a) in
    the order of the pair areas, the last row the top mask); and for each
    mask I of four or more generators its row and the terms (np.add or
    np.subtract, row of {i1, j}, row of I - {i1, j}) expanding it."""
    sets = [c for k in range(0, d + 1, 2) for c in combinations(range(d), k)]
    masks = [sum(1 << i for i in c) for c in sets]
    row = {m: r for r, m in enumerate(masks)}
    expansions = []
    for r, (i1, *rest) in enumerate(sets[1:], 1):
        if len(rest) >= 3:
            pairs = [1 << i1 | 1 << j for j in rest]
            expansions.append((r, tuple(((np.add, np.subtract)[t % 2], row[p], row[masks[r] - p])
                                        for t, p in enumerate(pairs))))
    return tuple(masks), tuple(expansions)


def _pfaffian_table(j: np.ndarray, d: int) -> np.ndarray:
    """The (2^(d-1), P) minors, rows in ``_pfaffian_plan`` order, of the 2-forms
    whose (n_pairs, P) coefficients J_ab are ``j``, in ``j``'s dtype."""
    table = np.empty((1 << (d - 1), j.shape[1]), dtype=j.dtype)
    table[0] = 1.0
    table[1:1 + len(j)] = j
    buf = np.empty_like(table[0])
    for r, ((_, pair, minor), *rest) in _pfaffian_plan(d)[1]:
        np.multiply(table[pair], table[minor], out=table[r])
        for op, pair, minor in rest:
            op(table[r], np.multiply(table[pair], table[minor], out=buf), out=table[r])
    return table


def _pair_areas(rng, d: int, take: int, steps: int) -> np.ndarray:
    """The (n_pairs, take) areas int Y_j dY_i - int Y_i dY_j (left endpoints)
    of ``take`` standard bridges 0 -> 0 on [0, 1], pairs (i, j > i) in order."""
    area = np.zeros((d * (d - 1) // 2, take))
    left, right = np.empty((d - 1, take)), np.empty((d - 1, take))
    blocks = [slice(i * d - i * (i + 1) // 2, (i + 1) * d - (i + 1) * (i + 2) // 2)
              for i in range(d - 1)]  # coordinate i's pairs (i, j > i)
    for pos, inc in _bridge_steps(rng, np.zeros(d), np.zeros((d, take)), 1.0, steps):
        for i, blk in enumerate(blocks):
            a, b = left[:d - 1 - i], right[:d - 1 - i]
            np.multiply(pos[i + 1:], inc[i], out=a)
            np.multiply(pos[i], inc[i + 1:], out=b)
            a -= b
            area[blk] += a
    return area


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
    """Average exp(J) over simulated bridges, for ``omega`` a d x d
    antisymmetric matrix of constant 2-forms over d generators (entries
    that are not ``MultiVector`` count as zero)."""
    if d % 2:
        raise ValueError("d must be even")
    _check_counts(paths, steps)
    if len(omega) != d:
        raise ValueError(f"curvature matrix must be {d} x {d}")
    entries = [[e if isinstance(e, MultiVector) else MultiVector.zero(d) for e in row] for row in omega]
    defect = curvature_defect(entries)
    if defect:
        raise ValueError(defect[2])
    pairs = list(combinations(range(d), 2))
    # coef[q, p]: -Omega_p on the generator pair q, both over the pairs (i, j > i)
    coef = -np.array([[entries[i][j].coefficient(1 << a | 1 << b) for i, j in pairs]
                      for a, b in pairs])
    if not np.any(coef):
        return LevyAreaResult(MultiVector.one(d), 0j, 0.0, {"paths": paths})
    coef = coef if np.any(coef.imag) else coef.real

    def chunk(rng, take):
        # J_ab = -sum_{i<j} Omega_ij[ab] (int Y_j dY_i - int Y_i dY_j)
        return _pfaffian_table(coef @ _pair_areas(rng, d, take, steps), d)

    mean, stderr = _mc_mean(chunk, paths, seed)
    return LevyAreaResult(
        MultiVector(d, dict(zip(_pfaffian_plan(d)[0], mean))),
        complex(mean[-1]),
        float(stderr[-1]),
        {"paths": paths, "steps": steps, "seed": seed},
    )
