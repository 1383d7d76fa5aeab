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

Path functionals, per step k with left-endpoint (Ito) evaluation:
    M_k       = expm(sum_j A_j dB^j_k)              (transport step)
    G_{k+1}   = G_k expm(-h W) M_k                  (dressed transport)
    dPsi_i(k) = G_k (sum_j S_i^j dB^j_k + V_i h) G_k^-1
    I_m      += I_{m-1} dPsi_m(k)   (m descending, so I_{m-1} is left value;
                                     I_1 += dPsi_1)
G^-1 is stepped alongside G (G^-1 <- M_k^* expm(h W) G^-1) only when
W != 0 and some perturbation is kept; without a potential G is unitary and
dPsi conjugates with its adjoint.

Trace phase.  Each A_j splits as a_j I + A'_j with a_j = tr(A_j)/r and A'_j
traceless, so M_k = exp(sum_j a_j dB^j_k) M'_k with M'_k = expm(sum_j A'_j
dB^j_k).  The scalar factors commute with every factor above and cancel in
G dPsi G^-1, and the increments telescope to z - x, so the loop steps with
M'_k alone and G(t) is multiplied once, after the loop, by the per-path
phase exp(sum_j a_j (z_j - x_j)).  For r = 2, M'_k is the Cayley-Hamilton
form evaluated as polynomials in Delta^2 (``_expm_2x2``); r >= 3 uses the
per-matrix Pade kernel ``linalg._pade_expm``.  Either way a path's step
does not depend on the other paths of the stack.

The increment conjugation uses the full dressed functional G rather than
the bare transport V (V_{k+1} = V_k M_k): expanding the enlarged-space
product formula term by term shows the extracted block is the iterated
integral of the G-dressed increments followed by one right factor G(t), so
the kernel estimate is p(t,x,y) E[I_n(t) G(t)].  When the potential
commutes with everything (scalar W, or W = 0) the dressing drops out and
this reduces to the familiar form p E[Wf(t) I_n(t) V(t)], with Wf the
multiplicative functional of W.

Plane layout.  Inside the step loop every per-path stack (G, G^-1, the
iterated integrals, the step matrices) is a C-contiguous (r, r, P) array:
entry (i, j) of all P paths is one contiguous plane.  A product of two
stacks is r broadcast multiply-adds of (r, 1, P) by (1, r, P) planes
(``_plane_mul``), and the constant factors expm(-hW), expm(hW) and hV
enter as (r, r, 1) arrays that broadcast over the paths.  The step
generators sum_j A'_j dB^j and sum_j S^j dB^j are d broadcast multiply-adds
each of (r, r, 1) coefficient planes by the (P,) rows of the (d, P)
increments (``_combine``).  Products write into buffers allocated once
per call.  ``FunctionalState`` exposes the final planes as (P, r, r) views.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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


# Taylor coefficients of cosh(z) = sum s^k / (2k)! and sinh(z)/z =
# sum s^k / (2k+1)! in s = z^2, highest power first (Horner order).  Ten
# terms leave a truncation error below 1/20! < 1e-18 for |s| <= 1.
_EVEN_SERIES = np.array(
    [[[1.0 / factorial(2 * k)], [1.0 / factorial(2 * k + 1)]] for k in range(9, -1, -1)]
)


def _expm_2x2(m: np.ndarray, out=None) -> np.ndarray:
    """Exponential of 2x2 planes (2, 2, P) by the Cayley-Hamilton form.

    With mu = tr(m)/2 and B = m - mu I one has B^2 = s I, s = b00^2 + b01 b10,
    so exp(m) = e^mu (cosh(Delta) I + sinhc(Delta) B) with Delta^2 = s.
    cosh and sinhc(z) = sinh(z)/z are even entire functions: where |s| <= 1
    they are the Horner polynomials ``_EVEN_SERIES`` in s, free of
    transcendental functions; paths with |s| > 1 take sqrt, cosh and sinh.
    The choice is made per path, so a path's value does not depend on the
    other paths of the stack.  e^mu is applied only if some trace is
    non-zero; the engine's step generators are exactly traceless.  ``out``
    must not overlap ``m``.
    """
    m = np.asarray(m, dtype=complex)
    mu = m[0, 0] + m[1, 1]
    scalar = bool(mu.any())
    if scalar:
        mu *= 0.5
        b00 = m[0, 0] - mu
    else:
        b00 = m[0, 0]
    s = b00 * b00
    s += m[0, 1] * m[1, 0]
    even = _EVEN_SERIES[0] * s  # rows: cosh, sinhc
    even += _EVEN_SERIES[1]
    for c in _EVEN_SERIES[2:]:
        even *= s
        even += c
    cosh, sinhc = even
    big = np.flatnonzero(s.real**2 + s.imag**2 > 1.0)
    if big.size:
        delta = np.sqrt(s[big])
        cosh[big] = np.cosh(delta)
        sinhc[big] = np.sinh(delta) / delta
    if scalar:
        even *= np.exp(mu)
    if out is None:
        out = np.empty_like(m)
    np.multiply(b00, sinhc, out=out[0, 0])
    np.subtract(cosh, out[0, 0], out=out[1, 1])
    out[0, 0] += cosh
    np.multiply(sinhc, m[0, 1], out=out[0, 1])
    np.multiply(sinhc, m[1, 0], out=out[1, 0])
    return out


def _expm_planes(m: np.ndarray, out=None) -> np.ndarray:
    """Exponential of every path's matrix in a plane stack (r, r, P)."""
    if m.shape[0] == 2:
        return _expm_2x2(m, out)
    stack = np.moveaxis(linalg._pade_expm(np.ascontiguousarray(np.moveaxis(m, -1, 0))), 0, -1)
    if out is None:
        return stack
    out[...] = stack
    return out


@dataclass
class FunctionalState:
    """Per-path accumulators after a simulated horizon.

    ``full_transport`` is the dressed transport G(t) and ``iterated`` the
    G-dressed iterated integrals I_m(t).  Each array is a (P, r, r) view of
    the engine's (r, r, P) planes.
    """

    full_transport: np.ndarray         # (P, r, r)
    iterated: dict = field(default_factory=dict)  # order -> (P, r, r)


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


def _adjoint(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every path's matrix in a plane stack."""
    return np.conjugate(a.transpose(1, 0, 2), out=out)


def simulate_functionals(
    model: TorusModel,
    x,
    y,
    t: float,
    steps: int,
    rng: np.random.Generator,
    n_paths: int,
    orders=None,
) -> FunctionalState:
    """Run the per-step functional updates for a batch of bridges.

    ``orders`` selects which iterated integrals to keep (default: only the
    full order n).  Increments are generated step by step; paths are never
    stored.
    """
    d, r, n = model.d, model.r, model.n
    if orders is None:
        orders = (n,) if n else ()
    max_order = max(orders) if orders else 0
    h = t / steps
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    windings = sample_winding(rng, d, x, y, t, n_paths)
    z = np.ascontiguousarray((y + TWO_PI * windings).T)  # (d, P)

    # A_j = (tr A_j / r) I + A'_j: the loop steps with A'_j, the scalar parts
    # enter as one phase per path after it (module docstring)
    a_planes = _planes(model.connection)  # (r, r, d)
    traces = np.trace(a_planes) / r  # (d,)
    for i in range(r):
        a_planes[i, i] -= traces
    if r == 2:
        a_planes[1, 1] = -a_planes[0, 0]  # exactly traceless step generators
    has_connection = bool(np.any(a_planes))
    has_potential = bool(np.any(model.potential))
    specs = model.perturbations[:max_order]
    s_planes = [_planes(spec.first_order) if np.any(spec.first_order) else None
                for spec in specs]
    hv = [h * spec.zeroth_order[..., None] if np.any(spec.zeroth_order) else None
          for spec in specs]
    if has_potential:
        e_w_minus = linalg.expm(-h * model.potential)[..., None]
        e_w_plus = linalg.expm(h * model.potential)[..., None]

    shape = (r, r, n_paths)
    g = np.zeros(shape, dtype=complex)
    for i in range(r):
        g[i, i] = 1.0
    dressed = has_connection or has_potential  # else G = 1 and dPsi = local
    # G^-1 is read only by the dPsi conjugation
    g_inv = g.copy() if has_potential and max_order else None
    iterated = {m: np.zeros(shape, dtype=complex) for m in range(1, max_order + 1)}
    tmp, spare, half, dpsi_buf, prod, local_buf, gen, m_buf, adj = (
        np.empty(shape, dtype=complex) for _ in range(9)
    )

    for _, db in _bridge_steps(rng, x, z, t, steps):
        if max_order:
            if dressed:  # without a potential G is unitary: G^-1 = G^*
                inv = g_inv if has_potential else _adjoint(g, adj)
            for i in range(max_order, 0, -1):
                if s_planes[i - 1] is not None:
                    local = _combine(s_planes[i - 1], db, local_buf, tmp)
                    if hv[i - 1] is not None:
                        local += hv[i - 1]
                elif hv[i - 1] is not None:
                    local = hv[i - 1]
                else:
                    continue  # zero increment
                if dressed:
                    dpsi = _plane_mul(_plane_mul(g, local, half, tmp), inv, dpsi_buf, tmp)
                else:
                    dpsi = local
                if i == 1:
                    iterated[1] += dpsi
                else:
                    iterated[i] += _plane_mul(iterated[i - 1], dpsi, prod, tmp)

        if has_potential:
            g, spare = _plane_mul(g, e_w_minus, spare, tmp), g
            if g_inv is not None:
                g_inv, spare = _plane_mul(e_w_plus, g_inv, spare, tmp), g_inv
        if has_connection:
            m_step = _expm_planes(_combine(a_planes, db, gen, tmp), m_buf)
            g, spare = _plane_mul(g, m_step, spare, tmp), g
            if g_inv is not None:
                g_inv, spare = _plane_mul(_adjoint(m_step, adj), g_inv, spare, tmp), g_inv

    if traces.any():
        g *= np.exp(traces @ (z - x[:, None]))  # the per-path phase

    def paths_first(a):
        return np.moveaxis(a, -1, 0)

    return FunctionalState(
        paths_first(g),
        {m: paths_first(iterated[m]) for m in orders},
    )


@dataclass(frozen=True)
class FkResult:
    estimate: np.ndarray
    stderr: np.ndarray
    diagnostics: dict


def _fk_chunk(model, x, y, t, steps, seed, chunk_index, chunk_paths):
    """``_chunk_moments`` of I_n(t) G(t) over one chunk."""
    rng = _chunk_rng(seed, chunk_index)
    state = simulate_functionals(model, x, y, t, steps, rng, chunk_paths)
    f = np.moveaxis(state.full_transport, 0, -1)  # (r, r, P) planes
    if model.n:
        f = _plane_mul(np.moveaxis(state.iterated[model.n], 0, -1), f)
    return _chunk_moments(f)


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
    """p(t,x,y) times the Monte Carlo mean of I_n(t) G(t).

    I_n is the iterated integral of the G-dressed increments and G the full
    multiplicative transport Wf(t) V(t); for commuting potentials this is
    the familiar p E[Wf(t) I_n(t) V(t)].  Entrywise standard errors come
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


def moment_scaling_probe(
    model: TorusModel,
    nu,
    b: float,
    t_grid,
    paths: int,
    steps: int,
    seed: int = 0,
    x=None,
):
    """Fit the growth exponent of E|I_m(t)|^b against t.

    Returns (slope, diagnostics); the expected slope is (b/2) (m + |nu|)
    for pure patterns.
    """
    m = len(tuple(nu))
    probe_model = apply_moment_pattern(model, nu)
    x = np.zeros(model.d) if x is None else np.asarray(x, dtype=float)
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
            state = simulate_functionals(
                probe_model, x, x, float(t), steps, rng, take, orders=(m,)
            )
            mats = state.iterated[m]
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
