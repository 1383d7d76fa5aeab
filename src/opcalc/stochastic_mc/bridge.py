"""Exact Brownian bridge sampling on the torus.

A torus bridge from x to y is sampled in two stages: first a winding class
w per coordinate with probability proportional to exp(-(dy + 2 pi w)^2 / 2t),
then an exact Euclidean Gaussian bridge to the lifted endpoint y + 2 pi w.
Endpoints are pinned exactly: positions[0] == x and positions[-1] equals the
lift bitwise.

``_bridge_steps`` holds the one copy of the conditional-Gaussian recurrence.
It streams (position, increment) pairs step by step, so the path-functional
engine and the Levy-area estimator never store paths; ``sample_bridge_batch``
fills its position array from the same stepper.  A one-worker thread owned
by the stepper draws the next step's normal block while the caller works on
the current step; numpy releases the interpreter lock inside both the draw
and the caller's array arithmetic, so the two overlap.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .model import TWO_PI, _image_weights


def sample_winding(rng: np.random.Generator, d: int, x, y, t: float, n_paths: int):
    """Winding classes, one integer per coordinate per path."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.empty((n_paths, d), dtype=np.int64)
    u = rng.random((n_paths, d))
    for m in range(d):
        ws, weights = _image_weights(y[m] - x[m], t)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        out[:, m] = ws[np.searchsorted(cdf, u[:, m])]
    return out


def _bridge_steps(rng: np.random.Generator, x, z, t: float, steps: int):
    """Yield (position, increment) per step of Euclidean bridges from x to z.

    ``x`` is a d-vector and ``z`` the (d, P) per-path endpoints; both
    yielded arrays are C-contiguous (d, P), the position being the step's
    left endpoint, so every coordinate row is one contiguous (P,) plane.
    Sequential conditional sampling draws one (P, d) normal block per step
    except the last, which is deterministic: its increment lands exactly on
    ``z``.  Yielded arrays are read-only to the caller and are overwritten
    by the next step.

    Prefetch contract.  Block k + 1 is drawn from ``rng``, on the stepper's
    own worker thread, while the caller holds step k.  Exactly ``steps - 1``
    blocks are drawn, in step order, so every bridge and the generator's
    final state are those of drawing each block at its step.  The caller
    must not draw from ``rng`` while iterating.  A stepper closed before its
    last random step (k = steps - 2) has drawn one block ahead of the steps
    it yielded.
    """
    h = t / steps
    d, n_paths = z.shape
    cur, nxt, inc = (np.empty((d, n_paths)) for _ in range(3))
    cur[...] = np.asarray(x, dtype=float)[:, None]
    blocks = np.empty((2, n_paths, d))
    with ThreadPoolExecutor(max_workers=1) as pool:
        if steps > 1:
            draw = pool.submit(rng.standard_normal, out=blocks[0])
        for k in range(steps - 1):
            normals = draw.result()
            if k + 1 < steps - 1:
                draw = pool.submit(rng.standard_normal, out=blocks[(k + 1) % 2])
            tau = t - k * h
            std = np.sqrt(h * (tau - h) / tau)
            # nxt = cur + (z - cur) (h / tau) + std n, in this order
            np.subtract(z, cur, out=nxt)
            nxt *= h / tau
            nxt += cur
            np.multiply(normals.T, std, out=inc)
            nxt += inc
            np.subtract(nxt, cur, out=inc)
            yield cur, inc
            cur, nxt = nxt, cur
    np.subtract(z, cur, out=inc)
    yield cur, inc


def sample_bridge_batch(
    rng: np.random.Generator, d: int, x, y, t: float, steps: int, n_paths: int
):
    """Torus bridges; returns (windings, positions) with positions unwrapped.

    Draw order is fixed (windings first, then one Gaussian block per step),
    so a given generator state yields a reproducible batch.
    """
    if steps < 2:
        raise ValueError("need at least 2 steps")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    windings = sample_winding(rng, d, x, y, t, n_paths)
    z = y + TWO_PI * windings
    positions = np.empty((n_paths, steps + 1, d))
    for k, (pos, _) in enumerate(_bridge_steps(rng, x, z.T, t, steps)):
        positions[:, k] = pos.T
    positions[:, steps] = z
    return windings, positions

