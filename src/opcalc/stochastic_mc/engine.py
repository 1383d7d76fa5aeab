"""Vectorized path-functional engine and the Feynman-Kac estimator.

Per-path randomness comes from counter-based Philox streams keyed by
(seed, chunk index) with a fixed chunk size, so any path's stream is a
deterministic function of (seed, path index) alone.  Worker threads only
map chunks; per-chunk means and centred second moments are merged in chunk
order, making every estimate bitwise independent of the worker count.  The
chunk schedule (``_chunks``) and the moment merge (``_merge_moments``) are
the ones every Monte Carlo estimator here uses: the FK estimator, the
moment probe and the Levy area.  Bridge increments come step by step from
``bridge._bridge_steps``.

Path functionals.  The kernel estimate is p(t,x,y) E[I_n(t) G(t)], where G
is the dressed transport and I_m the iterated Ito integrals of the
G-dressed increments (left-endpoint evaluation, step k, h = t/steps):
    M_k       = expm(sum_j A_j dB^j_k)              (transport step)
    G_{k+1}   = G_k expm(-h W) M_k
    I_m(k+1)  = I_m(k) + I_{m-1}(k) G_k local_m(k) G_k^-1,  I_0 = I,
    local_m   = sum_j S_m^j dB^j_k + h V_m.
The engine steps the enlarged-space row Y_m = I_m G instead, the stochastic
form of the block-bidiagonal (Van Loan) transport that ``phi_block`` uses
for the oracle.  Multiplying the recurrence by G_{k+1} on the right gives
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

Step exponential.  For r = 2 the traceless planes are projected once to
exactly skew-Hermitian and kept as three real coordinate rows
(Im a00, Re a01, Im a01) of shape (3, d); a step's generator is then
[[i x, y + i w], [-y + i w, -i x]] with (x, y, w) = coords @ dB, and
its exponential is the SU(2) form cos(theta) I + (sin(theta)/theta) B,
theta^2 = x^2 + y^2 + w^2, in real arithmetic (``_su2_expm``).  r >= 3
uses the per-matrix Pade kernel ``linalg._pade_expm``.  Either way a path's
step does not depend on the other paths of the stack.

Plane layout.  Inside the step loop every per-path stack (the rows Y_m and
the step matrices) is a C-contiguous (r, r, P) array: entry (i, j) of all P
paths is one contiguous plane.  A product of two stacks is r broadcast
multiply-adds of (r, 1, P) by (1, r, P) planes (``_plane_mul``), and the
constant factors expm(-hW) and hV enter as (r, r, 1) arrays that broadcast
over the paths.  A step forms E M_k once (one product) and multiplies every
row by it.  The generator sum_j S^j dB^j is d broadcast multiply-adds of
(r, r, 1) coefficient planes by the contiguous (P,) rows of the (d, P)
increments (``_combine``).  Products write into buffers allocated once per
call.  ``FunctionalState`` exposes the final planes as (P, r, r) views.
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
# moment_scaling_probe keys chunk idx of grid time ti as stride * ti + idx
_PROBE_KEY_STRIDE = 10_000


def _plane_mul(a: np.ndarray, b: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """``a b`` for plane stacks of shape (r, r, P); returns ``out``.

    An r-term sum of broadcast products of contiguous (P,) planes; a factor
    of shape (r, r, 1) is constant over the paths.  ``out`` and ``tmp`` are
    (r, r, P) buffers that must not overlap ``a`` or ``b``.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    np.multiply(a[:, :1], b[:1], out=out)
    if tmp is None:
        tmp = np.empty_like(out)
    for k in range(1, a.shape[0]):
        np.multiply(a[:, k:k + 1], b[k:k + 1], out=tmp)
        out += tmp
    return out


# Taylor coefficients of cos(theta) = sum s^k / (2k)! and sin(theta)/theta =
# sum s^k / (2k+1)! in s = -theta^2, highest power first (Horner order).
# Ten terms leave a truncation error below 1/20! < 1e-18 for |s| <= 1.
_EVEN_SERIES = np.array(
    [[[1.0 / factorial(2 * k)], [1.0 / factorial(2 * k + 1)]] for k in range(9, -1, -1)]
)


def _su2_expm(xyw: np.ndarray, out=None) -> np.ndarray:
    """exp(B) for B = [[i x, y + i w], [-y + i w, -i x]], one per column of
    the real (3, P) rows (x, y, w); returns the (2, 2, P) complex planes.

    B^2 = s I with s = -(x^2 + y^2 + w^2), so exp(B) = cos(theta) I +
    sinc(theta) B, theta^2 = -s.  Where |s| <= 1, cos and sinc are the real
    Horner polynomials ``_EVEN_SERIES`` in s; paths with |s| > 1 take sqrt,
    cos and sin.  The choice is made per path, so a path's value does not
    depend on the other paths of the stack.  ``xyw`` is overwritten.
    """
    x, y, w = xyw
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
    big = np.flatnonzero(s < -1.0)
    if big.size:
        theta = np.sqrt(-s[big])
        cos[big] = np.cos(theta)
        sinc[big] = np.sin(theta) / theta
    xyw *= sinc
    if out is None:
        out = np.empty((2, 2, xyw.shape[1]), dtype=complex)
    re, im = out.real, out.imag
    re[0, 0] = cos
    re[1, 1] = cos
    im[0, 0] = x
    np.negative(x, out=im[1, 1])
    re[0, 1] = y
    np.negative(y, out=re[1, 0])
    im[0, 1] = w
    im[1, 0] = w
    return out


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
    itself for n = 0).  Each array is a (P, r, r) view of the engine's
    (r, r, P) planes.  ``dressed`` is False when G(t) is the identity on
    every path (no connection, no potential), so that Y_n = I_n.
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


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64))
    )


def _chunks(paths: int) -> list:
    """The chunk schedule [(chunk_index, path_count), ...] of ``paths`` paths:
    full chunks of ``CHUNK_SIZE`` and one partial chunk last."""
    return [
        (idx, min(CHUNK_SIZE, paths - start))
        for idx, start in enumerate(range(0, paths, CHUNK_SIZE))
    ]


def _chunk_moments(samples: np.ndarray):
    """(count, mean, centred second moment) over the last axis.

    The second moment sums |x - mean|^2, real and imaginary parts combined.
    """
    mean = samples.mean(axis=-1)
    dev = samples - mean[..., None]
    return samples.shape[-1], mean, (dev.real**2 + dev.imag**2).sum(axis=-1)


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
        m2 = m2 + m2_b + (delta.real**2 + delta.imag**2) * (count * n_b / total)
        count = total
    return count, mean, m2


def _planes(matrices) -> np.ndarray:
    """(k, r, r) matrices as a contiguous (r, r, k) plane stack."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(matrices, dtype=complex), 0, -1))


def _combine(coeffs: np.ndarray, db: np.ndarray, out, tmp) -> np.ndarray:
    """sum_j coeffs[:, :, j] db[j] into ``out``: d broadcast multiply-adds of
    the (r, r, 1) coefficient planes by the (P,) increment rows of ``db``."""
    np.multiply(coeffs[:, :, :1], db[0], out=out)
    for j in range(1, db.shape[0]):
        np.multiply(coeffs[:, :, j:j + 1], db[j], out=tmp)
        out += tmp
    return out


def _step_generator(model: TorusModel, n_paths: int):
    """Set-up of the step exponential: (traces, step) with the (d,) scalar
    parts tr(A_j)/r and ``step(db, out, tmp)`` -> M'_k for the (d, P)
    increments, or step = None when every traceless part vanishes (module
    docstring)."""
    r = model.r
    a_planes = _planes(model.connection)  # (r, r, d)
    traces = np.trace(a_planes) / r
    for i in range(r):
        a_planes[i, i] -= traces
    if not np.any(a_planes):
        return traces, None
    if r != 2:
        def step(db, out, tmp):
            return _expm_planes(_combine(a_planes, db, tmp, out), out)
        return traces, step
    # the exactly skew-Hermitian, traceless (A' - A'^*)/2 by its coordinate
    # rows (Im a00, Re a01, Im a01)
    a01 = 0.5 * (a_planes[0, 1] - np.conj(a_planes[1, 0]))
    coords = np.stack([0.5 * (a_planes[0, 0].imag - a_planes[1, 1].imag), a01.real, a01.imag])
    xyw = np.empty((3, n_paths))

    def step(db, out, tmp):
        return _su2_expm(np.matmul(coords, db, out=xyw), out)
    return traces, step


def simulate_functionals(
    model: TorusModel,
    x,
    y,
    t: float,
    steps: int,
    rng: np.random.Generator,
    n_paths: int,
) -> FunctionalState:
    """Run the per-step row updates Y_0 = G, Y_m = I_m G (m = 1..n) for a
    batch of bridges; returns G(t) and Y_n(t).

    Increments are generated step by step; paths are never stored.
    """
    d, r, n = model.d, model.r, model.n
    h = t / steps
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    windings = sample_winding(rng, d, x, y, t, n_paths)
    z = np.ascontiguousarray((y + TWO_PI * windings).T)  # (d, P)

    traces, transport_step = _step_generator(model, n_paths)
    has_potential = bool(np.any(model.potential))
    s_planes = [_planes(spec.first_order) if np.any(spec.first_order) else None
                for spec in model.perturbations]
    hv = [h * spec.zeroth_order[..., None] if np.any(spec.zeroth_order) else None
          for spec in model.perturbations]
    e_w = linalg.expm(-h * model.potential)[..., None] if has_potential else None
    # without a connection or a potential Y_0 = G stays the identity
    dressed = transport_step is not None or has_potential

    shape = (r, r, n_paths)
    rows = [np.zeros(shape, dtype=complex) for _ in range(n + 1)]
    for i in range(r):
        rows[0][i, i] = 1.0
    tmp, spare, prod, local_buf, m_buf, em_buf = (
        np.empty(shape, dtype=complex) for _ in range(6)
    )

    for _, db in _bridge_steps(rng, x, z, t, steps):
        # the right factor E M_k of this step (None when it is the identity)
        if transport_step is not None:
            em = transport_step(db, m_buf, tmp)
            if has_potential:
                em = _plane_mul(e_w, em, em_buf, tmp)
        else:
            em = e_w
        for i in range(n, 0, -1):
            if s_planes[i - 1] is not None:
                local = _combine(s_planes[i - 1], db, local_buf, tmp)
                if hv[i - 1] is not None:
                    local += hv[i - 1]
            else:
                local = hv[i - 1]  # None: a zero increment
            if local is not None:
                if i == 1 and not dressed:  # Y_0 = I
                    rows[1] += local
                else:
                    rows[i] += _plane_mul(rows[i - 1], local, prod, tmp)
            if em is not None:
                rows[i], spare = _plane_mul(rows[i], em, spare, tmp), rows[i]
        if em is not None:
            rows[0], spare = _plane_mul(rows[0], em, spare, tmp), rows[0]

    if traces.any():
        phase = np.exp(traces @ (z - x[:, None]))  # the per-path phase
        rows[0] *= phase
        if n:
            rows[n] *= phase

    return FunctionalState(
        np.moveaxis(rows[0], -1, 0),
        np.moveaxis(rows[n], -1, 0),
        dressed or bool(traces.any()),
    )


@dataclass(frozen=True)
class FkResult:
    estimate: np.ndarray
    stderr: np.ndarray
    diagnostics: dict


def _fk_chunk(model, x, y, t, steps, seed, chunk_index, chunk_paths):
    """``_chunk_moments`` of Y_n(t) = I_n(t) G(t) over one chunk."""
    rng = _chunk_rng(seed, chunk_index)
    state = simulate_functionals(model, x, y, t, steps, rng, chunk_paths)
    return _chunk_moments(np.moveaxis(state.row, 0, -1))  # over the (r, r, P) planes


def fk_estimate(
    model: TorusModel,
    t: float,
    x,
    y,
    paths: int,
    steps: int,
    seed: int = 0,
    workers: int = 1,
) -> FkResult:
    """p(t,x,y) times the Monte Carlo mean of Y_n(t) = I_n(t) G(t).

    I_n is the iterated integral of the G-dressed increments and G the full
    multiplicative transport Wf(t) V(t); for commuting potentials this is
    the familiar p E[Wf(t) I_n(t) V(t)].  The engine steps Y_n itself, so
    the mean needs no final product.  Entrywise standard errors come
    from the per-entry sample variance of real and imaginary parts
    combined, merged from per-chunk centred moments in chunk order
    (Chan, Golub & LeVeque), so no E[x^2] - mean^2 cancellation occurs.
    """
    if paths < 1:
        raise ValueError("need at least one path")

    def run(chunk):
        return _fk_chunk(model, x, y, t, steps, seed, *chunk)

    chunks = _chunks(paths)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, chunks))
    else:
        parts = [run(chunk) for chunk in chunks]
    _, mean, m2 = _merge_moments(parts)
    var = m2 / paths
    p = heat_kernel(model.d, t, x, y)
    return FkResult(
        p * mean,
        p * np.sqrt(var / paths),
        {
            "paths": paths,
            "steps": steps,
            "seed": seed,
            "heat_kernel": p,
            "chunk_size": CHUNK_SIZE,
            "workers": workers,
        },
    )


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
    batched solve; otherwise Y_m = I_m.
    """
    m = len(tuple(nu))
    probe_model = apply_moment_pattern(model, nu)
    _check_moment_pattern(probe_model, nu)
    x = np.zeros(model.d)
    chunks = _chunks(paths)
    if len(chunks) > _PROBE_KEY_STRIDE:
        raise ValueError(
            f"{len(chunks)} chunks per grid time exceed the {_PROBE_KEY_STRIDE} "
            "distinct stream keys of one time"
        )
    means = []
    for ti, t in enumerate(t_grid):
        total = 0.0
        for idx, take in chunks:
            rng = _chunk_rng(seed, _PROBE_KEY_STRIDE * ti + idx)
            state = simulate_functionals(probe_model, x, x, float(t), steps, rng, take)
            mats = state.iterated()
            total += float(
                np.sum(np.linalg.norm(mats, axis=(1, 2)) ** b)
            )
        means.append(total / paths)
    logs_t = np.log(np.asarray(t_grid, dtype=float))
    logs_m = np.log(np.asarray(means))
    slope, intercept = np.polyfit(logs_t, logs_m, 1)
    return float(slope), {
        "means": means,
        "t_grid": tuple(float(t) for t in t_grid),
        "intercept": float(intercept),
        "expected_slope": 0.5 * b * (m + sum(nu)),
    }
