"""Vectorized path-functional engine and the Feynman-Kac estimator.

Per-path randomness comes from counter-based Philox streams keyed by the
three words (seed, chunk index, stream) with a fixed chunk size
(``_chunk_rng``), so any path's draws are a deterministic function of
(seed, stream, path index) alone.  Every Monte Carlo estimate is reduced by
``_mc_mean``: the chunk map ``_map_chunks`` runs the caller's chunk function,
and the chunks' means and centred second moments are merged in chunk order
(``_merge_moments``), so every estimate is bitwise independent of the worker
count.  Its callers are the FK estimator (stream 0, or a localization
check's partition index), the moment probe (the grid time's index), the
Levy area (stream 0) and ``phi_core.simplex_constant_mc``.  The stepper
``_step_rows`` takes the lifted endpoints z and an increment stream, here
``bridge._bridge_steps``.

Path functionals.  The kernel estimate is p(t,x,y) E[I_n(t) G(t)], where G
is the dressed transport and I_m the iterated Ito integrals of the
G-dressed increments (left-endpoint evaluation, step k, h = t/steps):
    M_k       = expm(sum_j A_j dB^j_k)              (transport step)
    G_{k+1}   = G_k expm(-h W) M_k
    I_m(k+1)  = I_m(k) + I_{m-1}(k) G_k local_m(k) G_k^-1,  I_0 = I,
    local_m   = sum_j S_m^j dB^j_k + h V_m.
The engine steps the enlarged-space row Y_m = I_m G instead, the stochastic
form of the block-bidiagonal (Van Loan) transport that ``phi_block``
exponentiates for the oracle at n >= 2.  Multiplying the recurrence by
G_{k+1} on the right gives
    Y_0 = G,    Y_m <- (Y_m + Y_{m-1} local_m) E M_k,   E = expm(-h W),
taking m in descending order so that Y_{m-1} is still the left value.  No
G^-1 appears, and the estimate averages Y_n(t) as it is.  Expanding the
enlarged-space product formula term by term shows that the dressed form is
the one that matches the exact oracle; when the potential commutes with
everything (scalar W, or W = 0) it reduces to the familiar p E[Wf(t) I_n(t)
V(t)], with Wf the multiplicative functional of W and V the bare transport.
The engine returns G(t) and the top row Y_n(t) (``FunctionalState.row``);
``FunctionalState.iterated`` recovers I_n = Y_n G(t)^-1 for the one caller
that needs it, the moment probe.

Trace phase.  Each A_j splits as a_j I + A'_j with a_j = tr(A_j)/r and A'_j
traceless, so M_k = exp(sum_j a_j dB^j_k) M'_k with M'_k = expm(sum_j A'_j
dB^j_k).  The scalar factors commute with every factor above and the
increments telescope to z - x, so the loop steps with M'_k alone and every
Y_m is multiplied once, after the loop, by the per-path phase
exp(sum_j a_j (z_j - x_j)).

Step factor.  Each step multiplies the rows by one right factor E M'_k,
E = expm(-h W), built by ``_step_generator``.  For r = 2 the traceless
planes are projected once to exactly skew-Hermitian and kept as three real
coordinate rows (Im a00, Re a01, Im a01) of shape (3, d); a step's
generator is then B = [[i x, y + i w], [-y + i w, -i x]] = x i sigma_3 +
y i sigma_2 + w i sigma_1 with (x, y, w) = coords @ dB, and exp(B) =
cos(theta) I + (sin(theta)/theta) B, theta^2 = x^2 + y^2 + w^2.  Each
path's real coefficients (cos, sinc x, sinc y, sinc w) are contracted with
a table of E, E i sigma_3, E i sigma_2, E i sigma_1 built once per call,
so the step yields E M'_k directly, in real arithmetic (``_su2_expm``).
r >= 3 exponentiates the generator with the per-matrix Pade kernel
``linalg._pade_expm`` and multiplies by E.  Either way a path's factor does
not depend on the other paths of the stack.

Plane layout.  Inside the step loop every per-path stack (a row Y_m and
the step factors) is a C-contiguous (r, r, P) complex array: entry (i, j)
of all P paths is one contiguous plane, and the rows Y_0..Y_n are one
(n+1, r, r, P) stack.  A product is r broadcast multiply-adds of (..., r,
1, P) by (1, r, P) planes (``_plane_mul``); constant factors E and hV are
(r, r, 1) arrays.  A step adds Y_{m-1} local_m into Y_m for m = n..1, then
multiplies the whole stack by E M'_k in one product that broadcasts over
the row axis.  A linear combination sum_q C_q c_q of constant (r, r)
planes with per-path real rows c_q (the generators sum_j S^j dB^j and
sum_j A'_j dB^j, and the r = 2 factor) is one real matmul of the (P, q)
rows by an (r r, q, 2) real table of the planes, written through the float
view of the complex output (``_combine``).  The stack product writes into
a spare stack with a scratch stack, allocated once per call; the products
Y_{m-1} local_m borrow their planes.  ``FunctionalState`` exposes rows 0
and n of the final stack as (P, r, r) views.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import factorial

import numpy as np

from .. import linalg
from .bridge import _bridge_steps, sample_winding
from .model import TWO_PI, TorusModel, heat_kernel

CHUNK_SIZE = 16384


def _plane_mul(a: np.ndarray, b: np.ndarray, out, tmp) -> np.ndarray:
    """``a b`` for plane stacks of shape (..., r, r, P); returns ``out``.

    An r-term sum of broadcast products of contiguous (P,) planes; a factor
    of shape (r, r, 1) is constant over the paths, and leading axes
    broadcast.  ``tmp`` has the shape of ``out``; neither overlaps a or b.
    """
    np.multiply(a[..., :1, :], b[..., :1, :, :], out=out)
    for k in range(1, a.shape[-2]):
        np.multiply(a[..., k:k + 1, :], b[..., k:k + 1, :, :], out=tmp)
        out += tmp
    return out


# Taylor coefficients of cos(theta) = sum s^k / (2k)! and sin(theta)/theta =
# sum s^k / (2k+1)! in s = -theta^2, highest power first (Horner order).
# Five terms leave a truncation error below 0.01^5 / 10! < 2.8e-17 where
# |s| <= _SERIES_BOUND.
_SERIES_BOUND = 0.01
_EVEN_SERIES = np.array(
    [[[1.0 / factorial(2 * k)], [1.0 / factorial(2 * k + 1)]] for k in range(4, -1, -1)]
)
# I, i sigma_3, i sigma_2, i sigma_1: B = x i sigma_3 + y i sigma_2 + w i sigma_1
_SU2_BASIS = np.array(
    [np.eye(2), [[1j, 0], [0, -1j]], [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]]
)


def _real_table(planes: np.ndarray) -> np.ndarray:
    """The (r, r, q) complex coefficient planes as the C-contiguous real
    (r r, q, 2) table that ``_combine`` contracts."""
    r, _, q = planes.shape
    return np.ascontiguousarray(np.stack([planes.real, planes.imag], axis=-1).reshape(r * r, q, 2))


def _contract(rows: np.ndarray, table: np.ndarray, out) -> np.ndarray:
    """np.matmul(rows.T, table, out=out) for the real (q, P) rows of P
    paths and a real (K, q, c) table; returns ``out``, of shape (K, P, c).

    BLAS forms each entry the same way for every path of a stack of two or
    more, but picks another kernel, which rounds differently, for a lone
    path; one path is therefore contracted as a doubled row, so that a
    path's value never depends on the other paths of the stack.
    """
    if rows.shape[1] == 1:
        out[...] = np.matmul(np.repeat(rows, 2, axis=1).T, table)[:, :1]
    else:
        np.matmul(rows.T, table, out=out)
    return out


def _combine(table: np.ndarray, rows: np.ndarray, out) -> np.ndarray:
    """sum_q planes[:, :, q] rows[q] into the complex (r, r, P) planes
    ``out``, for the (r r, q, 2) ``_real_table`` of the planes: one real
    contraction written through the float view of ``out``; returns ``out``."""
    _contract(rows, table, out.view(float).reshape(table.shape[0], -1, 2))
    return out


def _su2_table(e: np.ndarray) -> np.ndarray:
    """The ``_real_table`` of E, E i sigma_3, E i sigma_2, E i sigma_1 for a
    2 x 2 factor E: contracted with the coefficients (cos, sinc x, sinc y,
    sinc w) it gives E exp(B) (``_su2_expm``)."""
    return _real_table(np.moveaxis(e @ _SU2_BASIS, 0, -1))


def _su2_expm(coef: np.ndarray, table: np.ndarray, out) -> np.ndarray:
    """E exp(B) for B = [[i x, y + i w], [-y + i w, -i x]], one per row of
    the real (P, 4) ``coef`` whose columns 1..3 hold (x, y, w); ``table``
    is ``_su2_table(E)``.  Returns the (2, 2, P) complex planes ``out``.

    B = x i sigma_3 + y i sigma_2 + w i sigma_1 and B^2 = s I with s =
    -(x^2 + y^2 + w^2), so E exp(B) = cos(theta) E + sinc(theta) E B,
    theta^2 = -s: the coefficient rows are contracted with the table, and
    no complex plane is formed.  Where |s| <= ``_SERIES_BOUND``, cos and
    sinc are the real Horner polynomials ``_EVEN_SERIES`` in s; other paths
    take sqrt, cos and sin.  The choice is made per path, so a path's value
    does not depend on the other paths of the stack.  ``coef`` is
    overwritten with the columns (cos, sinc x, sinc y, sinc w).
    """
    x, y, w = xyw = coef[:, 1:].T
    s = x * x
    s += y * y
    s += w * w
    np.negative(s, out=s)
    even = _EVEN_SERIES[0] * s  # rows: cos, sinc
    even += _EVEN_SERIES[1]
    for c in _EVEN_SERIES[2:]:
        even *= s
        even += c
    cos, sinc = even
    big = np.flatnonzero(s < -_SERIES_BOUND)
    if big.size:
        theta = np.sqrt(-s[big])
        cos[big] = np.cos(theta)
        sinc[big] = np.sin(theta) / theta
    for row in xyw:  # row by row: numpy would run the (P, 3) view 3 wide
        row *= sinc
    coef[:, 0] = cos
    return _combine(table, coef.T, out)


def _expm_planes(m: np.ndarray, out=None) -> np.ndarray:
    """Exponential of every path's matrix in a plane stack (r, r, P) by the
    per-matrix Pade kernel."""
    stack = np.moveaxis(linalg._pade_expm(np.ascontiguousarray(np.moveaxis(m, -1, 0))), 0, -1)
    if out is None:
        return stack
    out[...] = stack
    return out


@dataclass
class FunctionalState:
    """Per-path accumulators after a simulated horizon.

    ``full_transport`` is the dressed transport G(t) and ``row`` the
    enlarged-space row Y_n(t) = I_n(t) G(t) of the model's order n (G(t)
    itself for n = 0).  Each array is a (P, r, r) view of one row of the
    engine's (n+1, r, r, P) stack.  ``dressed`` is False when G(t) is the
    identity on every path (no connection, no potential), so that Y_n = I_n.
    """

    full_transport: np.ndarray  # (P, r, r)
    row: np.ndarray             # (P, r, r)
    dressed: bool

    def iterated(self) -> np.ndarray:
        """The G-dressed iterated integral I_n(t) = Y_n(t) G(t)^-1, (P, r, r)."""
        if not self.dressed:
            return self.row
        # I G = Y  <=>  G^T I^T = Y^T: one batched solve
        return np.linalg.solve(
            self.full_transport.swapaxes(1, 2), self.row.swapaxes(1, 2)
        ).swapaxes(1, 2)


def _chunk_rng(seed: int, chunk_index: int, stream: int = 0) -> np.random.Generator:
    """Philox keyed by the 64-bit words (seed, chunk_index), its 256-bit
    counter started at [0, 0, 0, stream]: draws advance the low word only,
    so streams never overlap, and stream 0 is the key's own generator."""
    return np.random.Generator(np.random.Philox(
        counter=np.array([0, 0, 0, stream], dtype=np.uint64),
        key=np.array([seed, chunk_index], dtype=np.uint64),
    ))


def _map_chunks(fn, paths: int, seed: int, stream: int = 0, workers: int = 1) -> list:
    """[fn(rng, count), ...] over the chunks of ``paths`` paths, in chunk
    order: full chunks of ``CHUNK_SIZE`` and one partial chunk last, chunk
    idx drawing from ``_chunk_rng(seed, idx, stream)``.  With ``workers`` > 1
    the chunks run on a thread pool; the list is the same."""
    def run(idx):
        return fn(_chunk_rng(seed, idx, stream), min(CHUNK_SIZE, paths - idx * CHUNK_SIZE))

    indices = range(-(-paths // CHUNK_SIZE))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, indices))
    return [run(idx) for idx in indices]


def _check_counts(paths: int, steps: int) -> None:
    """The guard of every Monte Carlo entry point: at least one path and one
    step, or ``ValueError``."""
    if paths < 1:
        raise ValueError("need at least one path")
    if steps < 1:
        raise ValueError("need at least one step")


def _abs2(x):
    """|x|^2 entrywise; a real x is squared as it is, since ``.imag`` of a
    real array allocates a zero array."""
    return x.real**2 + x.imag**2 if np.iscomplexobj(x) else x**2


def _chunk_moments(samples: np.ndarray):
    """(count, mean, centred second moment) over the last axis.

    The second moment sums |x - mean|^2, real and imaginary parts combined.
    """
    mean = samples.mean(axis=-1)
    dev = samples - mean[..., None]
    return samples.shape[-1], mean, _abs2(dev).sum(axis=-1)


def _merge_moments(parts):
    """Merge per-chunk (count, mean, centred second moment) triples in the
    given order (Chan, Golub & LeVeque); returns the triple of the union.

    Merging in fixed chunk order keeps the result bitwise independent of
    how chunks were scheduled, and no E[x^2] - mean^2 cancellation occurs.
    """
    count, mean, m2 = 0, 0.0, 0.0
    for n_b, mean_b, m2_b in parts:
        total = count + n_b
        delta = mean_b - mean
        mean = mean + delta * (n_b / total)
        m2 = m2 + m2_b + _abs2(delta) * (count * n_b / total)
        count = total
    return count, mean, m2


def _mc_mean(fn, paths: int, seed: int, stream: int = 0, workers: int = 1):
    """(mean, entrywise stderr) of the samples ``fn(rng, count)`` returns for
    each chunk of ``_map_chunks``, one per path on their last axis; each
    chunk's moments are taken on its worker and merged in chunk order."""
    def chunk(rng, count):
        return _chunk_moments(fn(rng, count))

    _, mean, m2 = _merge_moments(_map_chunks(chunk, paths, seed, stream, workers))
    return mean, np.sqrt(m2 / paths / paths)


def _planes(matrices) -> np.ndarray:
    """(k, r, r) matrices as a contiguous (r, r, k) plane stack."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(matrices, dtype=complex), 0, -1))


def _step_generator(model: TorusModel, h: float, n_paths: int):
    """Set-up of a step's right factor E M'_k, E = expm(-h W): (traces,
    step) with the (d,) scalar parts tr(A_j)/r and ``step(db)`` -> E M'_k
    for the (d, P) increments (module docstring).  ``step`` returns (r, r,
    P) planes that the next call overwrites, or the constant (r, r, 1) E
    when every traceless part vanishes; it is None when E M'_k is the
    identity."""
    r = model.r
    a_planes = _planes(model.connection)  # (r, r, d)
    traces = np.trace(a_planes) / r
    for i in range(r):
        a_planes[i, i] -= traces
    e_w = linalg.expm(-h * model.potential) if np.any(model.potential) else None
    if not np.any(a_planes):
        if e_w is None:
            return traces, None
        e_planes = e_w[..., None]
        return traces, lambda db: e_planes
    out = np.empty((r, r, n_paths), dtype=complex)
    if r != 2:
        table = _real_table(a_planes)
        e_planes = None if e_w is None else e_w[..., None]
        m_buf, tmp = np.empty_like(out), np.empty_like(out)

        def step(db):
            m = _expm_planes(_combine(table, db, tmp), m_buf)
            return m if e_planes is None else _plane_mul(e_planes, m, out, tmp)
        return traces, step
    # the exactly skew-Hermitian, traceless (A' - A'^*)/2 by its coordinate
    # rows (Im a00, Re a01, Im a01)
    a01 = 0.5 * (a_planes[0, 1] - np.conj(a_planes[1, 0]))
    coords = np.stack([0.5 * (a_planes[0, 0].imag - a_planes[1, 1].imag), a01.real, a01.imag])
    coords = coords.T[None]  # (1, d, 3): a table for ``_contract``
    table = _su2_table(np.eye(2) if e_w is None else e_w)
    coef = np.empty((n_paths, 4))

    def step(db):
        _contract(db, coords, coef[None, :, 1:])
        return _su2_expm(coef, table, out)
    return traces, step


def _step_rows(model: TorusModel, x, z, h: float, increments) -> FunctionalState:
    """Step the rows Y_0 = G, Y_m = I_m G (m = 1..n) as one (n+1, r, r, P)
    stack over ``increments``, one (d, P) array per step of length ``h`` of
    bridges from the d-vector ``x`` to the (d, P) endpoints ``z``; returns
    G(t) and Y_n(t).  Each increment is read during its own step only.
    """
    r, n = model.r, model.n
    n_paths = z.shape[1]
    traces, step = _step_generator(model, h, n_paths)
    s_tables = [_real_table(_planes(spec.first_order)) if np.any(spec.first_order) else None
                for spec in model.perturbations]
    hv = [h * spec.zeroth_order[..., None] if np.any(spec.zeroth_order) else None
          for spec in model.perturbations]
    # without a connection or a potential Y_0 = G stays the identity
    dressed = step is not None

    stack = np.zeros((n + 1, r, r, n_paths), dtype=complex)
    for i in range(r):
        stack[0, i, i] = 1.0
    # the stack product writes into ``spare`` with scratch ``tmp``; before
    # it, the products Y_{m-1} local_m borrow three of their planes
    if dressed:
        spare, tmp = np.empty((2,) + stack.shape, dtype=complex)
    else:
        spare, tmp = (), np.empty((3, r, r, n_paths), dtype=complex)

    for db in increments:
        for i in range(n, 0, -1):
            local_buf, prod, scratch = (*spare, *tmp)[:3]
            if s_tables[i - 1] is not None:
                local = _combine(s_tables[i - 1], db, local_buf)
                if hv[i - 1] is not None:
                    local += hv[i - 1]
            else:
                local = hv[i - 1]  # None: a zero increment
            if local is not None:
                if i == 1 and not dressed:  # Y_0 = I
                    stack[1] += local
                else:
                    stack[i] += _plane_mul(stack[i - 1], local, prod, scratch)
        if dressed:  # the right factor E M'_k of this step, on every row
            stack, spare = _plane_mul(stack, step(db), spare, tmp), stack

    if traces.any():
        stack *= np.exp(traces @ (z - x[:, None]))  # the per-path phase

    return FunctionalState(np.moveaxis(stack[0], -1, 0), np.moveaxis(stack[n], -1, 0),
                           dressed or bool(traces.any()))


def simulate_functionals(model: TorusModel, x, y, t: float, steps: int,
                         rng: np.random.Generator, n_paths: int) -> FunctionalState:
    """``_step_rows`` along a batch of torus bridges from x to y: the
    windings are drawn first, then the increments step by step from
    ``bridge._bridge_steps``; paths are never stored."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    windings = sample_winding(rng, model.d, x, y, t, n_paths)
    z = np.ascontiguousarray((y + TWO_PI * windings).T)  # (d, P)
    increments = (db for _, db in _bridge_steps(rng, x, z, t, steps))
    return _step_rows(model, x, z, t / steps, increments)


@dataclass(frozen=True)
class FkResult:
    estimate: np.ndarray
    stderr: np.ndarray
    diagnostics: dict


def fk_estimate(
    model: TorusModel,
    t: float,
    x,
    y,
    paths: int,
    steps: int,
    seed: int = 0,
    workers: int = 1,
    stream: int = 0,
) -> FkResult:
    """p(t,x,y) times the Monte Carlo mean of Y_n(t) = I_n(t) G(t).

    I_n is the iterated integral of the G-dressed increments and G the full
    multiplicative transport Wf(t) V(t); for commuting potentials this is
    the familiar p E[Wf(t) I_n(t) V(t)].  The engine steps Y_n itself, so
    the mean needs no final product.  The mean and its entrywise standard
    errors come from ``_mc_mean``, the paths drawing from Philox stream
    ``stream`` of ``seed``; each worker's bridge adds its own prefetch
    thread.
    """
    _check_counts(paths, steps)

    def chunk(rng, count):
        state = simulate_functionals(model, x, y, t, steps, rng, count)
        return np.moveaxis(state.row, 0, -1)  # the (r, r, P) planes

    mean, stderr = _mc_mean(chunk, paths, seed, stream, workers)
    p = heat_kernel(model.d, t, x, y)
    diagnostics = {"paths": paths, "steps": steps, "seed": seed, "heat_kernel": p,
                   "chunk_size": CHUNK_SIZE, "workers": workers}
    return FkResult(p * mean, p * stderr, diagnostics)


def apply_moment_pattern(model: TorusModel, nu) -> TorusModel:
    """Keep only the first-order (nu_j = 0) or zeroth-order (nu_j = 1) part."""
    nu = tuple(int(v) for v in nu)
    if len(nu) > model.n:
        raise ValueError("pattern longer than the perturbation list")
    specs = []
    for j, v in enumerate(nu):
        spec = model.perturbations[j]
        if v == 0:
            specs.append(
                type(spec)(spec.first_order, np.zeros_like(spec.zeroth_order))
            )
        elif v == 1:
            specs.append(
                type(spec)(
                    tuple(np.zeros_like(s) for s in spec.first_order),
                    spec.zeroth_order,
                )
            )
        else:
            raise ValueError("pattern entries must be 0 or 1")
    return model.with_perturbations(specs)


def _check_moment_pattern(model: TorusModel, nu) -> None:
    """Reject a pattern whose I_m on the probe's loops (y = x) does not grow
    like t^((m + |nu|)/2).

    A kept part that is zero makes I_m vanish identically.  For nu = (0,),
    I_1 = sum_j S^j (z_j - x_j) when the transport commutes with every S^j
    (no connection and no potential, say): it is fixed by the winding class
    and is 0 unless the bridge winds.  Otherwise the loop cancels its
    t^(1/2) term and the dressing leaves Ito and area terms of order t.
    """
    for j, (v, spec) in enumerate(zip(nu, model.perturbations)):
        if not np.any(spec.zeroth_order if v else spec.first_order):
            raise ValueError(f"pattern nu={tuple(nu)} keeps a vanishing part of perturbation {j}")
    if tuple(nu) == (0,):
        raise ValueError(
            "pattern nu=(0,) has no t^(1/2) growth on a loop: I_1 is fixed by the "
            "winding class, or of order t through the transport"
        )


def moment_scaling_probe(
    model: TorusModel,
    nu,
    b: float,
    t_grid,
    paths: int,
    steps: int,
    seed: int = 0,
):
    """Fit the growth exponent of E|I_m(t)|^b against t, on loops at x = 0.

    Returns (slope, diagnostics); the expected slope is (b/2) (m + |nu|)
    for pure patterns.  A pattern that cannot follow it on a loop (nu = (0,),
    or a vanishing kept part) raises ``ValueError`` (``_check_moment_pattern``).
    The pattern keeps m = len(nu) perturbations, so the engine's top row is
    Y_m.  On a dressed model each chunk recovers I_m = Y_m G(t)^-1 with one
    batched solve; otherwise Y_m = I_m.  Grid time ``t_grid[ti]`` draws from
    Philox stream ti of ``seed``; ``diagnostics`` carries each grid time's
    mean and its stderr (``_mc_mean``).
    """
    _check_counts(paths, steps)
    m = len(tuple(nu))
    probe_model = apply_moment_pattern(model, nu)
    _check_moment_pattern(probe_model, nu)
    x = np.zeros(model.d)
    means, stderrs = [], []
    for ti, t in enumerate(t_grid):
        def chunk(rng, count, t=float(t)):
            state = simulate_functionals(probe_model, x, x, t, steps, rng, count)
            return np.linalg.norm(state.iterated(), axis=(1, 2)) ** b

        mean, stderr = _mc_mean(chunk, paths, seed, stream=ti)
        means.append(float(mean))
        stderrs.append(float(stderr))
    logs_t = np.log(np.asarray(t_grid, dtype=float))
    logs_m = np.log(np.asarray(means))
    slope, intercept = np.polyfit(logs_t, logs_m, 1)
    return float(slope), {
        "means": means,
        "stderrs": stderrs,
        "t_grid": tuple(float(t) for t in t_grid),
        "intercept": float(intercept),
        "expected_slope": 0.5 * b * (m + sum(nu)),
    }
