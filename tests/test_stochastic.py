import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from opcalc import clifford, linalg
from opcalc.grassmann import MultiVector
from opcalc.jlo import DGAElement
from opcalc.stochastic_mc import (
    PerturbationSpec,
    TorusModel,
    fk_estimate,
    heat_kernel,
    levy_area_estimate,
    localization_check,
    localization_value,
    moment_scaling_probe,
    sample_bridge_batch,
    sample_winding,
    simulate_functionals,
    spectral_phi_kernel,
    spin_torus_model,
)
from opcalc.acceptance import _spec_chains, acceptance_fk_model, bridge_midpoint_chi2
from opcalc.phi_core import OperatorFamily, phi_fermionic
from opcalc.stochastic_mc import engine, model as model_module
from opcalc.stochastic_mc.bridge import _bridge_steps
from opcalc.stochastic_mc.engine import CHUNK_SIZE, _chunk_rng
from opcalc.stochastic_mc.localize import _partition_models
from opcalc.stochastic_mc.model import TWO_PI, _truncated_kernel


def skew(rng, r):
    m = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    return 0.5 * (m - m.conj().T)


def herm(rng, r, shift=0.0):
    m = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    return 0.5 * (m + m.conj().T) + shift * np.eye(r)


# --- model and spectral oracle -----------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError):
        TorusModel(2, 2, (np.eye(2), np.zeros((2, 2))))  # not skew-Hermitian
    with pytest.raises(ValueError):
        TorusModel(1, 2, potential=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        TorusModel(1, 1, potential=np.array([[-5.0]]))  # H not nonnegative


def test_mode_hamiltonian_structure():
    rng = np.random.default_rng(0)
    a = skew(rng, 2)
    w = herm(rng, 2, shift=2.0)
    model = TorusModel(1, 2, (a,), w)
    h = model.mode_blocks([(3,)])[0][0]
    m = 1j * 3 * np.eye(2) + a
    expect = 0.5 * m.conj().T @ m + w
    assert np.allclose(h, expect)
    vals = np.linalg.eigvalsh(h)
    assert vals[0] > -1e-12


def test_heat_kernel_properties():
    x = np.array([1.0])
    # symmetry
    y = np.array([2.2])
    assert heat_kernel(1, 0.4, x, y) == pytest.approx(heat_kernel(1, 0.4, y, x), rel=1e-14)
    # normalization via periodic Riemann sum (spectrally accurate)
    zs = np.linspace(0, TWO_PI, 400, endpoint=False)
    total = np.mean([heat_kernel(1, 0.4, x, np.array([z])) for z in zs]) * TWO_PI
    assert total == pytest.approx(1.0, abs=1e-12)
    # long-time limit is the uniform density
    assert heat_kernel(2, 60.0, np.zeros(2), np.ones(2)) == pytest.approx(
        (TWO_PI) ** (-2), rel=1e-12
    )
    with pytest.raises(ValueError):
        heat_kernel(1, -0.1, x, y)


def test_spectral_kernel_free_case_matches_heat_kernel():
    model = TorusModel(2, 1)
    x = np.array([0.3, 4.0])
    y = np.array([1.0, 0.2])
    t = 0.35
    kernel = spectral_phi_kernel(model, t, x, y, 14)
    assert kernel.shape == (1, 1)
    assert kernel[0, 0].real == pytest.approx(heat_kernel(2, t, x, y), rel=1e-12)
    assert abs(kernel[0, 0].imag) < 1e-14


def test_spectral_kernel_scalar_potential_factorizes():
    w = 0.7
    model = TorusModel(1, 2, potential=w * np.eye(2))
    x, y, t = np.array([0.4]), np.array([2.0]), 0.5
    kernel = spectral_phi_kernel(model, t, x, y, 14)
    expect = np.exp(-w * t) * heat_kernel(1, t, x, y) * np.eye(2)
    assert np.allclose(kernel, expect, atol=1e-13)


def test_spectral_kernel_hermiticity_reversed_order():
    rng = np.random.default_rng(1)
    # formally self-adjoint first-order perturbations: skew S parts, Hermitian V
    s1, s2 = skew(rng, 2), skew(rng, 2)
    v = herm(rng, 2)
    model = TorusModel(2, 2, potential=herm(rng, 2, shift=4.0),
                       perturbations=(PerturbationSpec((s1, s2), v),))
    x, y, t = np.array([0.1, 1.1]), np.array([2.0, 0.3]), 0.4
    k_xy = spectral_phi_kernel(model, t, x, y, 12)
    k_yx = spectral_phi_kernel(model, t, y, x, 12)
    assert np.allclose(k_xy, k_yx.conj().T, atol=1e-12)


def test_spectral_kernel_truncation_guard():
    rng = np.random.default_rng(2)
    pert = PerturbationSpec((np.eye(2), np.eye(2)), np.zeros((2, 2)))
    model = TorusModel(2, 2, perturbations=(pert,))
    with pytest.raises(ValueError):
        spectral_phi_kernel(model, 0.5, np.zeros(2), np.zeros(2), 3)


def per_mode_kernel(model, t, x, y, truncation):
    """Independent oracle for the stacked mode sum: (2 pi)^-d sum over
    |k|_inf <= K of e^{ik(x-y)} Phi^{H_k}_t(P_{1,k}, ...), one Fermionic-lift
    evaluation per mode, with H_k and P_{j,k} written out here."""
    eye = np.eye(model.r)
    out = np.zeros((model.r, model.r), dtype=complex)
    for k in itertools.product(range(-truncation, truncation + 1), repeat=model.d):
        factors = [1j * km * eye + a for km, a in zip(k, model.connection)]
        h = sum(0.5 * f.conj().T @ f for f in factors) + model.potential
        perts = tuple(
            spec.zeroth_order + sum(s @ f for s, f in zip(spec.first_order, factors))
            for spec in model.perturbations
        )
        family = OperatorFamily(linalg.hermitian(h, require_nonneg=True), perts)
        out += np.exp(1j * np.dot(k, np.subtract(x, y))) * phi_fermionic(family, t).value
    return out / TWO_PI**model.d


def _d4_chain():
    d = 4
    e = [MultiVector.generator(d, j) for j in range(1, d + 1)]
    w0 = e[0].wedge(e[1]) + 0.5 * e[2].wedge(e[3])
    return (DGAElement(w0, MultiVector.zero(d)), DGAElement(e[0] - 0.3 * e[3], e[1].wedge(e[2])))


def _oracle_cases():
    fk = acceptance_fk_model()
    yield "c9.n0", fk.with_perturbations(()), 0.5, 12
    yield "c9.n1", fk, 0.5, 12
    for c, chain in enumerate(_spec_chains()):
        for i, (_, m) in enumerate(_partition_models(chain)):
            yield f"chain{c}.partition{i}", m, 0.8, 6
    ((_, m),) = _partition_models(_d4_chain())
    yield "d4.n1", m, 1.0, 2
    # two noncommuting perturbations: the superdiagonal order matters
    rng = np.random.default_rng(3)
    perts = tuple(
        PerturbationSpec((0.4 * skew(rng, 2), 0.4 * skew(rng, 2)), herm(rng, 2))
        for _ in range(2)
    )
    yield "n2", TorusModel(2, 2, (skew(rng, 2), skew(rng, 2)), herm(rng, 2, shift=2.0), perts), 0.5, 8
    # t * spread(H_k) = 1500: e^{+750} overflows if the shift is not lambda_min
    wide = TorusModel(1, 2, (), np.diag([0.0, 1500.0]))
    yield "spread.n0", wide, 1.0, 8
    spec = PerturbationSpec((np.array([[0.2, 0.5], [-0.4, 0.1j]]),), np.array([[0.3, 1.0], [1.0, -0.2]]))
    yield "spread.n1", wide.with_perturbations((spec,)), 1.0, 8
    # n = 0 has no expm norm limit, as with linalg.herm_exp per mode
    yield "spread.n0.beyond_expm_limit", TorusModel(1, 2, (), np.diag([0.0, 3e4])), 1.0, 8


@pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda case: case[0])
def test_stacked_mode_sum_matches_per_mode_fermionic_oracle(case):
    _, model, t, truncation = case
    x = np.linspace(0.4, 2.1, model.d)
    y = np.linspace(5.6, 1.3, model.d)
    got = _truncated_kernel(model, t, x, y, truncation)
    expect = per_mode_kernel(model, t, x, y, truncation)
    assert np.abs(got - expect).max() <= 1e-11 * np.abs(expect).max()


def test_stacked_mode_sum_does_not_depend_on_the_chunk_size(monkeypatch):
    """Chunking only regroups the sum.  Off the diagonal the phases cancel
    the kernel to ~1e-3 of its summands, so rounding is measured against
    the diagonal kernel, where every phase is 1."""
    model = acceptance_fk_model()
    x, y = np.array([0.4, 2.1]), np.array([1.3, 5.6])
    scale = np.abs(spectral_phi_kernel(model, 0.5, x, x, 16)).max()
    whole = spectral_phi_kernel(model, 0.5, x, y, 16)
    monkeypatch.setattr(model_module, "MODE_CHUNK", 7)  # 33^2 = 1089 = 155 * 7 + 4 modes
    chunked = spectral_phi_kernel(model, 0.5, x, y, 16)
    assert np.abs(chunked - whole).max() <= 1e-14 * scale


def _scalar_models():
    """Models with no connection and W = w I, which take the moment sum."""
    for c, chain in enumerate(_spec_chains()):
        for i, (_, m) in enumerate(_partition_models(chain)):
            yield f"chain{c}.partition{i}.n{m.n}", m
    d = 2
    e1, e2 = MultiVector.generator(d, 1), MultiVector.generator(d, 2)
    zero = MultiVector.zero(d)
    # (1)(2) has n = 2; (12) has one perturbation with no first-order part
    chain = (DGAElement(e1.wedge(e2), zero), DGAElement(e1, zero), DGAElement(e1, e2))
    for i, (_, m) in enumerate(_partition_models(chain)):
        yield f"pair_chain.partition{i}.n{m.n}", m
    ((_, m),) = _partition_models(_d4_chain())
    yield "d4.n1", m
    rng = np.random.default_rng(4)
    perts = tuple(
        PerturbationSpec((skew(rng, 2) + herm(rng, 2), herm(rng, 2)), skew(rng, 2))
        for _ in range(2)
    )
    yield "w0.7.n2", TorusModel(2, 2, potential=0.7 * np.eye(2), perturbations=perts)


@pytest.mark.parametrize("case", list(_scalar_models()), ids=lambda case: case[0])
@pytest.mark.parametrize("off_diagonal", [False, True], ids=["x=y", "x!=y"])
def test_moment_sum_matches_the_per_mode_phi_block_sum(case, off_diagonal):
    """H_k = (|k|^2/2 + w) I makes the mode sum a sum of moments; the
    per-mode ``phi_block`` sum is its reference."""
    _, model = case
    x = np.linspace(0.4, 2.1, model.d)
    y = np.linspace(5.6, 1.3, model.d) if off_diagonal else x
    for t, truncation in ((0.8, 3), (0.3, 4)):
        got = _truncated_kernel(model, t, x, y, truncation)
        expect = model_module._mode_sum(model, t, x - y, truncation)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_only_models_with_scalar_mode_hamiltonians_skip_phi_block(monkeypatch):
    calls = []
    block = model_module.phi_block

    def counting_block(h, perts, t):
        calls.append(len(h))
        return block(h, perts, t)

    monkeypatch.setattr(model_module, "phi_block", counting_block)
    rng = np.random.default_rng(5)
    spec = PerturbationSpec((herm(rng, 2), herm(rng, 2)), herm(rng, 2))
    x, y = np.array([0.3, 1.2]), np.array([2.0, 0.1])
    models = {
        "flat": spin_torus_model(2, (spec,)),
        "scalar_w": TorusModel(2, 2, potential=0.4 * np.eye(2), perturbations=(spec,)),
        "connection": TorusModel(2, 2, (skew(rng, 2), np.zeros((2, 2))), perturbations=(spec,)),
        "diagonal_w": TorusModel(2, 2, potential=np.diag([0.4, 0.5]), perturbations=(spec,)),
    }
    counts = {}
    for name, model in models.items():
        calls.clear()
        _truncated_kernel(model, 0.5, x, y, 3)
        counts[name] = list(calls)
    assert counts == {"flat": [], "scalar_w": [], "connection": [49], "diagonal_w": [49]}


def test_negative_potential_checks_every_mode_hamiltonian():
    """W < 0 does not prove H_k >= 0, so construction scans the window
    |k| <= 8 and the kernel checks every mode of its truncation."""
    conn = (np.array([[0.5j]]),)
    # H_k = (k + 1/2)^2 / 2 - 0.1 >= 0.025
    model = TorusModel(1, 1, conn, np.array([[-0.1]]))
    x, y, t = np.array([0.3]), np.array([1.9]), 1.0
    ks = np.arange(-14, 15)
    expect = np.sum(np.exp(1j * ks * (x - y)) * np.exp(-t * ((ks + 0.5) ** 2 / 2 - 0.1)))
    assert spectral_phi_kernel(model, t, x, y, 14)[0, 0] == pytest.approx(
        expect / TWO_PI, rel=1e-13
    )
    # H_0 = 1/8 - 0.2 < 0
    with pytest.raises(ValueError, match="mode Hamiltonians are not nonnegative: min eig -7.500e-02"):
        TorusModel(1, 1, conn, np.array([[-0.2]]))
    # H_k = (k + 20.5)^2 / 2 - 0.2 is positive on the window but negative at k = -20, -21
    far = TorusModel(1, 1, (np.array([[20.5j]]),), np.array([[-0.2]]))
    with pytest.raises(ValueError, match="operator is not nonnegative: min eigenvalue -7.500e-02"):
        spectral_phi_kernel(far, 30.0, x, y, 21)


# --- bridge sampling -----------------------------------------------------------


def test_bridge_endpoints_pinned_exactly():
    rng = _chunk_rng(7, 0)
    x, y = np.array([0.8]), np.array([2.9])
    windings, positions = sample_bridge_batch(rng, 1, x, y, 0.7, 128, 1)
    path, lift = positions[0, :, 0], y[0] + TWO_PI * windings[0, 0]
    assert path[0] == x[0]
    assert path[-1] == lift
    assert np.mod(np.mod(path[-1], TWO_PI) - y[0], TWO_PI) < 1e-12
    assert np.diff(path).sum() == pytest.approx(lift - x[0], abs=1e-12)


def test_bridge_short_time_concentration():
    """As t -> 0 with x = y the maximal displacement collapses."""
    x = np.array([3.0])
    quantiles = []
    for t in (0.5, 0.05):
        rng = _chunk_rng(8, 0)
        _, pos = sample_bridge_batch(rng, 1, x, x, t, 64, 2000)
        disp = np.abs(pos[:, :, 0] - x[0]).max(axis=1)
        quantiles.append(np.quantile(disp, 0.95))
    assert quantiles[1] < 0.45 * quantiles[0]
    assert quantiles[1] < 3.0 * np.sqrt(0.05)


def test_bridge_midpoint_cylinder_law_chi2():
    chi2, critical, endpoints_exact = bridge_midpoint_chi2(1, 0.7, 60000, 32, seed=9)
    assert endpoints_exact
    assert chi2 <= critical


def test_bridge_steps_chain_to_the_endpoints_with_one_draw_block_per_inner_step():
    x = np.array([0.3, -1.2])
    z = np.array([[0.5, 2.0, -4.0], [1.0, 0.0, 7.5]])  # (d, P)
    steps = 5
    rng = _chunk_rng(12, 0)
    out = [(pos.copy(), inc.copy()) for pos, inc in _bridge_steps(rng, x, z, 1.3, steps)]
    assert len(out) == steps
    assert np.all(out[0][0] == x[:, None])
    assert np.allclose(out[-1][0] + out[-1][1], z, rtol=0.0, atol=1e-14)
    for (pos, inc), (nxt, _) in zip(out, out[1:]):
        assert np.allclose(pos + inc, nxt, rtol=0.0, atol=1e-14)
    twin = _chunk_rng(12, 0)
    for _ in range(steps - 1):
        twin.standard_normal((3, 2))
    assert rng.random() == twin.random()


def _bridge_steps_allocating(rng, x, z, t, steps):
    """The bridge recurrence as it was written before the row-major buffers:
    fresh arrays each step and F-ordered (d, P) views of the normals."""
    h = t / steps
    d, n_paths = z.shape
    cur = np.broadcast_to(np.asarray(x, dtype=float)[:, None], (d, n_paths))
    for k in range(steps):
        if k < steps - 1:
            tau = t - k * h
            mean = cur + (z - cur) * (h / tau)
            std = np.sqrt(h * (tau - h) / tau)
            nxt = mean + std * rng.standard_normal((n_paths, d)).T
        else:
            nxt = z
        yield cur, nxt - cur
        cur = nxt


@pytest.mark.parametrize("d", [1, 2, 4])
def test_bridge_steps_are_bitwise_the_allocating_recurrence(d):
    """Same draws, same operations in the same order: positions and
    increments equal bitwise, every yield C-contiguous, and the generator
    left in the same state."""
    x = np.linspace(-0.4, 1.1, d)
    z = np.random.default_rng(d).normal(size=(d, 37)) + 2.0
    rng, ref_rng = _chunk_rng(30, d), _chunk_rng(30, d)
    got = [(pos.copy(), inc.copy(), pos.flags.c_contiguous and inc.flags.c_contiguous)
           for pos, inc in _bridge_steps(rng, x, z, 0.9, 7)]
    ref = list(_bridge_steps_allocating(ref_rng, x, z, 0.9, 7))
    assert len(got) == len(ref) == 7
    for (pos, inc, contiguous), (ref_pos, ref_inc) in zip(got, ref):
        assert contiguous
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(inc, ref_inc)
    assert rng.random() == ref_rng.random()


def test_winding_distribution_matches_weights():
    rng = _chunk_rng(10, 0)
    x, y, t = np.array([0.0]), np.array([0.5]), 2.0
    from opcalc.stochastic_mc import sample_winding, winding_cutoff

    w = sample_winding(rng, 1, x, y, t, 200000)[:, 0]
    cut = winding_cutoff(t)
    ws = np.arange(-cut, cut + 1)
    weights = np.exp(-((0.5 + TWO_PI * ws) ** 2) / (2 * t))
    weights /= weights.sum()
    for val, prob in zip(ws, weights):
        if prob > 1e-4:
            frac = np.mean(w == val)
            assert abs(frac - prob) < 4 * np.sqrt(prob * (1 - prob) / 200000) + 1e-12


# --- path functionals -----------------------------------------------------------


def test_expm_planes_agrees_with_scipy():
    import scipy.linalg

    rng = np.random.default_rng(3)
    for r in (2, 3, 4):
        m = 0.3 * (rng.standard_normal((5, r, r)) + 1j * rng.standard_normal((5, r, r)))
        got = engine._expm_planes(np.moveaxis(m, 0, -1))
        for i in range(5):
            assert np.allclose(got[..., i], scipy.linalg.expm(m[i]), atol=1e-12)


def test_expm_planes_r3_is_the_same_alone_and_in_a_stack():
    """A path's r >= 3 step exponential does not depend on the other paths:
    norms that select different Pade degrees and scalings share one stack."""
    rng = np.random.default_rng(4)
    m = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    m *= np.array([1e-3, 0.1, 0.5, 1.5, 4.0, 30.0])[:, None, None]
    stacked = engine._expm_planes(np.moveaxis(m, 0, -1))
    for i in range(6):
        assert np.array_equal(stacked[..., i], engine._expm_planes(m[i][..., None])[..., 0])


def test_transport_identity_without_connection():
    model = TorusModel(2, 2)
    rng = _chunk_rng(11, 0)
    state = simulate_functionals(model, np.zeros(2), np.zeros(2), 0.5, 64, rng, 100)
    assert np.allclose(state.full_transport, np.eye(2))


def test_transport_commuting_closed_form():
    """All connection coefficients multiples of one skew matrix; W = 0, so
    the dressed transport G is the bare transport."""
    rng = np.random.default_rng(4)
    s = skew(rng, 2)
    kappa = (0.7, -0.3)
    model = TorusModel(2, 2, tuple(k * s for k in kappa))
    x, y, t = np.zeros(2), np.array([1.0, 2.0]), 0.4

    # reimplement the stepper coarsely and compare with exp(s . kappa . (B_t - B_0))
    rng1 = _chunk_rng(12, 0)
    state = simulate_functionals(model, x, y, t, 4096, rng1, 256)
    # reproduce the same increments to learn each path's endpoint lift
    rng2 = _chunk_rng(12, 0)
    windings, pos = sample_bridge_batch(rng2, 2, x, y, t, 4096, 256)
    lifts = pos[:, -1, :] - pos[:, 0, :]
    import scipy.linalg

    worst = 0.0
    for i in range(256):
        expect = scipy.linalg.expm(sum(k * lifts[i, j] * s for j, k in enumerate(kappa)))
        worst = max(worst, np.abs(state.full_transport[i] - expect).max())
    assert worst < 1e-8  # commuting exponentials compose exactly


def test_transport_unitarity_drift():
    rng0 = np.random.default_rng(5)
    model = TorusModel(2, 2, (skew(rng0, 2), skew(rng0, 2)))
    rng = _chunk_rng(13, 0)
    state = simulate_functionals(model, np.zeros(2), np.ones(2), 1.0, 4096, rng, 64)
    v = state.full_transport  # W = 0: G is the bare transport
    defect = np.abs(v @ np.conj(np.swapaxes(v, 1, 2)) - np.eye(2)).max()
    assert defect < 1e-8


def test_w_functional_scalar_exact():
    w = 0.9
    model = TorusModel(1, 2, potential=w * np.eye(2))
    rng = _chunk_rng(14, 0)
    state = simulate_functionals(model, np.zeros(1), np.zeros(1), 0.7, 32, rng, 16)
    # A = 0: G is the multiplicative functional of W
    assert np.allclose(state.full_transport, np.exp(-w * 0.7) * np.eye(2), atol=1e-12)


def first_two_orders(model, x, y, t, steps, seed, paths):
    """The states of the order-1 truncation of ``model`` and of ``model``
    itself on the same paths: the windings and bridge draws do not depend on
    the model, so fresh copies of one chunk stream drive both."""
    return tuple(
        simulate_functionals(m, x, y, t, steps, _chunk_rng(seed, 0), paths)
        for m in (model.with_perturbations(model.perturbations[:1]), model)
    )


def test_psi_deterministic_zeroth_order():
    """A = 0, S = 0: Psi(t) = V t exactly, I_n = V^n t^n / n!  up to O(1/steps)."""
    rng0 = np.random.default_rng(6)
    v1 = herm(rng0, 2)
    v2 = herm(rng0, 2)
    model = TorusModel(
        1,
        2,
        perturbations=(
            PerturbationSpec.zeroth(v1, 1),
            PerturbationSpec.zeroth(v2, 1),
        ),
    )
    t, steps = 0.8, 512
    s1, s2 = first_two_orders(model, np.zeros(1), np.zeros(1), t, steps, 15, 8)
    assert np.allclose(s1.iterated(), v1 * t, atol=1e-12)
    # left-endpoint Riemann sum of int_0^t s ds = t^2/2 with error t^2/(2 steps)
    expect = v1 @ v2 * t**2 / 2
    err = np.abs(s2.iterated() - expect).max()
    assert err < 2.5 * np.abs(v1 @ v2).max() * t**2 / (2 * steps)


def test_psi_gaussian_law_first_order():
    """V = 0, S^j = s_j I, A = 0: Psi(t) is Gaussian with the bridge variance."""
    s_coeffs = (0.8, -0.5)
    model = TorusModel(
        2,
        1,
        perturbations=(
            PerturbationSpec(
                tuple(np.array([[c]], dtype=complex) for c in s_coeffs),
                np.zeros((1, 1)),
            ),
        ),
    )
    t, steps, paths = 0.6, 16, 200000
    rng = _chunk_rng(16, 0)
    x = np.zeros(2)
    state = simulate_functionals(model, x, x, t, steps, rng, paths)
    vals = state.iterated()[:, 0, 0].real
    # B_t - B_0 = 2 pi w with the winding class w, so Psi = sum_j s_j 2 pi w_j
    assert abs(vals.mean()) < 0.02
    # variance: sum_j s_j^2 * Var(2 pi w_j); compare against the empirical winding law
    rng2 = _chunk_rng(16, 0)
    from opcalc.stochastic_mc import sample_winding

    w = sample_winding(rng2, 2, x, x, t, paths)
    expect_var = sum(
        c**2 * np.var(TWO_PI * w[:, j]) for j, c in enumerate(s_coeffs)
    )
    assert vals.var() == pytest.approx(expect_var, rel=0.05, abs=1e-4)


def test_iterated_ito_quadratic_variation_identity():
    """Scalar case: 2 I_2 = Psi^2 - [Psi, Psi] with [Psi,Psi] = sum dPsi^2."""
    model = TorusModel(
        1,
        1,
        perturbations=(
            PerturbationSpec((np.array([[1.0]], dtype=complex),), np.zeros((1, 1))),
            PerturbationSpec((np.array([[1.0]], dtype=complex),), np.zeros((1, 1))),
        ),
    )
    t, steps, paths = 0.5, 256, 4096
    x = np.zeros(1)
    s1, s2 = first_two_orders(model, x, x, t, steps, 17, paths)
    psi = s1.iterated()[:, 0, 0]
    i2 = s2.iterated()[:, 0, 0]
    # reconstruct the quadratic variation from the same increments
    rng2 = _chunk_rng(17, 0)
    _, pos = sample_bridge_batch(rng2, 1, x, x, t, steps, paths)
    inc = np.diff(pos[:, :, 0], axis=1)
    qv = np.sum(inc**2, axis=1)
    assert np.abs(2 * i2 - (psi**2 - qv)).max() < 1e-10


def test_generic_plane_code_reproduces_the_2x2_fast_path():
    """An r = 2 model embedded block-diagonally in r = 3, with a decoupled
    third component, runs the series exponential and the generic plane
    products; its top-left block must reproduce the 2x2 closed-form run."""
    rng0 = np.random.default_rng(18)
    a = (0.5 * skew(rng0, 2), 0.5 * skew(rng0, 2))
    w = herm(rng0, 2, shift=2.2)
    perts = tuple(
        PerturbationSpec((0.4 * skew(rng0, 2), 0.4 * skew(rng0, 2)), herm(rng0, 2))
        for _ in range(2)
    )
    model2 = TorusModel(2, 2, a, w, perts)

    def embed(m, corner=0.0):
        out = np.zeros((3, 3), dtype=complex)
        out[:2, :2] = m
        out[2, 2] = corner
        return out

    model3 = TorusModel(
        2,
        3,
        tuple(embed(c) for c in a),
        embed(w, 0.7),
        tuple(
            PerturbationSpec(tuple(embed(s) for s in p.first_order), embed(p.zeroth_order))
            for p in perts
        ),
    )
    x, y, t = np.array([0.3, 1.9]), np.array([2.2, 0.4]), 0.6
    states2, states3 = (first_two_orders(m, x, y, t, 32, 18, 64) for m in (model2, model3))
    for s2, s3 in zip(states2, states3):  # orders 1 and 2
        assert np.abs(s2.full_transport - s3.full_transport[:, :2, :2]).max() < 1e-12
        assert np.abs(s2.row - s3.row[:, :2, :2]).max() < 1e-12
        assert np.abs(s3.full_transport[:, 2, 2] - np.exp(-0.7 * t)).max() < 1e-12


def test_engine_matches_a_per_step_expm_reference_stepper():
    """tr A_j != 0, a non-commuting potential and two perturbations: stepping
    every path with scipy's expm of the full generators and the G-conjugated
    increments, on the same bridge draws, reproduces G, the rows
    Y_m = I_m G, and the I_m that the state recovers from them."""
    rng0 = np.random.default_rng(21)
    a = (0.6 * skew(rng0, 2) + 0.5j * np.eye(2), 0.6 * skew(rng0, 2) - 0.3j * np.eye(2))
    w = herm(rng0, 2, shift=2.2)
    perts = tuple(
        PerturbationSpec((0.4 * skew(rng0, 2), 0.4 * skew(rng0, 2)), herm(rng0, 2))
        for _ in range(2)
    )
    model = TorusModel(2, 2, a, w, perts)
    x, y, t, steps, paths = np.array([0.3, 1.9]), np.array([2.2, 0.4]), 0.6, 24, 12
    s1, s2 = first_two_orders(model, x, y, t, steps, 21, paths)

    rng = _chunk_rng(21, 0)
    z = (y + TWO_PI * sample_winding(rng, 2, x, y, t, paths)).T
    h = t / steps
    e_w = scipy.linalg.expm(-h * w)
    g = np.repeat(np.eye(2, dtype=complex)[None], paths, axis=0)
    i1, i2 = np.zeros_like(g), np.zeros_like(g)
    for _, db in _bridge_steps(rng, x, z, t, steps):
        for p in range(paths):
            g_inv = np.linalg.inv(g[p])
            dpsi1, dpsi2 = (
                g[p] @ (sum(s * db[j, p] for j, s in enumerate(spec.first_order))
                        + h * spec.zeroth_order) @ g_inv
                for spec in perts
            )
            i2[p] += i1[p] @ dpsi2
            i1[p] += dpsi1
            m = scipy.linalg.expm(sum(aj * db[j, p] for j, aj in enumerate(a)))
            g[p] = g[p] @ e_w @ m
    for got, expect in (
        (s1.full_transport, g),
        (s2.full_transport, g),
        (s1.row, i1 @ g),
        (s2.row, i2 @ g),
        (s1.iterated(), i1),
        (s2.iterated(), i2),
    ):
        assert np.abs(got - expect).max() < 1e-12


def test_simulate_reproducible_streams():
    model = TorusModel(1, 2, (skew(np.random.default_rng(0), 2),))
    a = simulate_functionals(model, np.zeros(1), np.ones(1), 0.5, 64, _chunk_rng(1, 0), 32)
    b = simulate_functionals(model, np.zeros(1), np.ones(1), 0.5, 64, _chunk_rng(1, 0), 32)
    assert np.array_equal(a.full_transport, b.full_transport)


@pytest.mark.parametrize("n, per_step", [(0, 2), (1, 4)])
def test_step_loop_plane_products(monkeypatch, n, per_step):
    """On the criterion-9 model (A and W both non-zero) a step makes one
    plane product for the right factor E M_k and one per row Y_m for it,
    plus one for each Y_{m-1} local_m; nothing else is multiplied."""
    model = acceptance_fk_model()
    if n == 0:
        model = model.with_perturbations(())
    calls = []
    inner = engine._plane_mul

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(engine, "_plane_mul", counted)
    steps = 16
    simulate_functionals(model, np.array([0.4, 2.1]), np.array([1.3, 5.6]), 0.5, steps,
                         _chunk_rng(0, 0), 8)
    assert len(calls) == per_step * steps


# --- Feynman-Kac ---------------------------------------------------------------


def test_fk_free_case_zero_variance():
    model = TorusModel(2, 2)
    x, y, t = np.array([0.2, 0.4]), np.array([1.0, 5.5]), 0.45
    res = fk_estimate(model, t, x, y, paths=1000, steps=16, seed=0)
    assert np.allclose(res.estimate, heat_kernel(2, t, x, y) * np.eye(2), atol=1e-14)
    assert np.all(res.stderr < 1e-14)


def test_fk_n0_with_connection_matches_oracle():
    rng = np.random.default_rng(7)
    a = skew(rng, 2)
    w = herm(rng, 2, shift=2.2)
    model = TorusModel(1, 2, (a,), w)
    x, y, t = np.array([0.3]), np.array([1.1]), 0.5
    oracle = spectral_phi_kernel(model, t, x, y, 14)
    res = fk_estimate(model, t, x, y, paths=20000, steps=512, seed=3)
    z = np.abs(res.estimate - oracle) / np.maximum(res.stderr, 1e-300)
    assert z.max() < 4.0


def test_fk_n1_matches_oracle():
    rng = np.random.default_rng(8)
    a1, a2 = 0.5 * skew(rng, 2), 0.5 * skew(rng, 2)
    w = herm(rng, 2, shift=2.2)
    pert = PerturbationSpec((0.4 * skew(rng, 2), 0.4 * skew(rng, 2)), herm(rng, 2))
    model = TorusModel(2, 2, (a1, a2), w, (pert,))
    x, y, t = np.array([0.2, 5.0]), np.array([1.5, 0.7]), 0.5
    oracle = spectral_phi_kernel(model, t, x, y, 14)
    res = fk_estimate(model, t, x, y, paths=30000, steps=256, seed=4)
    z = np.abs(res.estimate - oracle) / np.maximum(res.stderr, 1e-300)
    assert z.max() < 4.0


def test_fk_worker_count_bitwise_identical():
    model = TorusModel(1, 2, (skew(np.random.default_rng(9), 2),))
    x, y = np.array([0.1]), np.array([2.0])
    res1 = fk_estimate(model, 0.4, x, y, paths=40000, steps=32, seed=5, workers=1)
    res4 = fk_estimate(model, 0.4, x, y, paths=40000, steps=32, seed=5, workers=4)
    assert np.array_equal(res1.estimate, res4.estimate)
    assert np.array_equal(res1.stderr, res4.stderr)


def test_fk_stderr_stable_for_large_mean_and_tiny_spread():
    """Mean ~0.47 with spread ~3e-11: E[x^2] - mean^2 cancels to 0 there,
    the chunk-merged centred moments keep the two-pass sample variance."""
    one = np.ones((1, 1), dtype=complex)
    eps = 1e-10
    # I_2 = sum_k (k h) (h + eps dB_k): a Riemann sum plus eps int s dB_s
    model = TorusModel(
        1, 1, perturbations=(PerturbationSpec.zeroth(one, 1), PerturbationSpec((eps * one,), one))
    )
    x, t, steps, seed = np.array([0.5]), 1.0, 16, 3
    paths = 2 * CHUNK_SIZE + 1000
    res = fk_estimate(model, t, x, x, paths, steps, seed=seed)
    f = []
    for idx, start in enumerate(range(0, paths, CHUNK_SIZE)):
        take = min(CHUNK_SIZE, paths - start)
        state = simulate_functionals(model, x, x, t, steps, _chunk_rng(seed, idx), take)
        f.append(state.iterated()[:, 0, 0])
    f = np.concatenate(f)
    p = heat_kernel(1, t, x, x)
    assert np.std(f) < 1e-10 * abs(f.mean())
    two_pass = p * np.sqrt((np.var(f.real) + np.var(f.imag)) / paths)
    naive = p * np.sqrt(max(np.mean(np.abs(f) ** 2) - abs(f.mean()) ** 2, 0.0) / paths)
    assert abs(naive - two_pass) > 0.5 * two_pass  # the old formula's digits are gone
    assert res.stderr[0, 0] == pytest.approx(two_pass, rel=1e-6, abs=0.0)
    assert res.estimate[0, 0] == pytest.approx(p * f.mean(), rel=1e-14, abs=0.0)


def test_fk_stderr_scaling_with_paths():
    """stderr ~ paths^(-1/2): regression slope within 0.05 of -0.5."""
    rng = np.random.default_rng(10)
    model = TorusModel(1, 2, (skew(rng, 2),), herm(rng, 2, shift=2.2))
    x, y = np.array([0.3]), np.array([1.4])
    path_counts = (2000, 8000, 32000)
    errs = []
    for i, paths in enumerate(path_counts):
        res = fk_estimate(model, 0.4, x, y, paths=paths, steps=32, seed=100 + i)
        errs.append(np.linalg.norm(res.stderr))
    slope = np.polyfit(np.log(path_counts), np.log(errs), 1)[0]
    assert abs(slope + 0.5) < 0.05


# --- moment scaling, levy area, localization -------------------------------------


def test_moment_probe_single_first_order():
    """One first-order factor after a zeroth-order one, on a model with a
    connection and a potential that commute with neither coefficient: the
    probe recovers I_2 = Y_2 G^-1 and E|I_2|^2 grows like t^3."""
    a = 0.8 * np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    w = np.array([[0.6, 0.2], [0.2, 0.3]], dtype=complex)
    s = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    v = np.array([[0.5, 0.3], [0.3, -0.4]], dtype=complex)
    zero = np.zeros((2, 2))
    model = TorusModel(
        1, 2, (a,), w, (PerturbationSpec((zero,), v), PerturbationSpec((s,), zero))
    )
    slope, diag = moment_scaling_probe(
        model, (1, 0), b=2.0, t_grid=(0.05, 0.1, 0.2), paths=8000, steps=128, seed=0
    )
    assert diag["expected_slope"] == 3.0
    assert abs(slope - 3.0) < 0.15


@pytest.mark.parametrize("dressed", [False, True])
def test_moment_probe_rejects_patterns_without_the_power_law(monkeypatch, dressed):
    """nu = (0,) on a loop: I_1 = S (z - x) is fixed by the winding class
    (0 unless the bridge winds, so a fitted slope reads rounding noise of
    ~1e-34), and with a non-commuting connection its leading term is of
    order t.  A pattern keeping a zero part vanishes identically.  Neither
    simulates."""
    s = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    connection = (np.array([[0.0, 0.5], [-0.5, 0.0]], dtype=complex),) if dressed else ()
    model = TorusModel(
        1, 2, connection, perturbations=(PerturbationSpec((s,), np.zeros((2, 2))),) * 2
    )

    def no_draws(*args, **kwargs):
        raise AssertionError("paths were simulated")

    monkeypatch.setattr(engine, "simulate_functionals", no_draws)
    with pytest.raises(ValueError, match=r"nu=\(0,\)"):
        moment_scaling_probe(model, (0,), 2.0, (0.1, 0.2), paths=100, steps=4)
    with pytest.raises(ValueError, match=r"nu=\(0, 1\) keeps a vanishing part of perturbation 1"):
        moment_scaling_probe(model, (0, 1), 2.0, (0.1, 0.2), paths=100, steps=4)
    with pytest.raises(AssertionError, match="simulated"):
        moment_scaling_probe(model, (0, 0), 2.0, (0.1, 0.2), paths=100, steps=4)


def test_moment_probe_rejects_colliding_chunk_keys(monkeypatch):
    """Chunk idx of grid time ti is keyed 10_000 ti + idx, so more than
    10_000 chunks per time would share streams across times."""
    one = np.array([[1.0]], dtype=complex)
    model = TorusModel(1, 1, perturbations=(PerturbationSpec.zeroth(one, 1),))

    def no_draws(*args, **kwargs):
        raise AssertionError("paths were simulated")

    monkeypatch.setattr(engine, "CHUNK_SIZE", 1)
    monkeypatch.setattr(engine, "simulate_functionals", no_draws)
    with pytest.raises(ValueError, match="10000 distinct stream keys"):
        moment_scaling_probe(model, (1,), 2.0, (0.1, 0.2), paths=10_001, steps=4)
    with pytest.raises(AssertionError, match="simulated"):  # 10_000 keys fit
        moment_scaling_probe(model, (1,), 2.0, (0.1, 0.2), paths=10_000, steps=4)


def test_levy_streamed_areas_match_stored_paths(monkeypatch):
    """Two full chunks plus a partial one: the step-by-step pair areas equal
    the ones rebuilt from stored positions of the same draws, and the merged
    error bar equals the two-pass standard deviation of the top term."""
    chunk, paths, steps, seed, theta = 300, 750, 16, 6, 0.9
    monkeypatch.setattr(engine, "CHUNK_SIZE", chunk)
    d = 2
    e12 = MultiVector(d, {0b11: theta})
    zero = MultiVector.zero(d)
    res = levy_area_estimate([[zero, e12], [-1.0 * e12, zero]], d, paths, steps, seed=seed)

    h = 1.0 / steps
    tops = []
    for idx, start in enumerate(range(0, paths, chunk)):
        take = min(chunk, paths - start)
        rng = _chunk_rng(seed, idx)
        pos = np.zeros((take, steps + 1, d))  # the bridge 0 -> 0 on [0, 1]
        for k in range(steps - 1):
            tau = 1.0 - k * h
            pos[:, k + 1] = pos[:, k] * (1.0 - h / tau) + np.sqrt(
                h * (tau - h) / tau
            ) * rng.standard_normal((take, d))
        inc = np.diff(pos, axis=1)
        left = pos[:, :-1]
        area = np.einsum("pk,pk->p", left[..., 1], inc[..., 0]) - np.einsum(
            "pk,pk->p", left[..., 0], inc[..., 1]
        )
        tops.append(-theta * area)  # exp(J) = 1 + J at d = 2
    top = np.concatenate(tops)
    assert res.mean_form.coefficient(0) == 1.0
    assert abs(res.top_mean - top.mean()) <= 1e-13
    assert res.top_stderr == pytest.approx(np.std(top) / np.sqrt(paths), rel=1e-10, abs=0.0)


def test_levy_zero_curvature_exact_one():
    d = 2
    zero = MultiVector.zero(d)
    res = levy_area_estimate([[zero, zero], [zero, zero]], d, paths=100, steps=16, seed=0)
    assert res.mean_form.coefficient(0) == 1.0
    assert res.top_mean == 0.0


def test_levy_d2_top_term_small():
    d = 2
    e12 = MultiVector(d, {0b11: 0.9})
    zero = MultiVector.zero(d)
    res = levy_area_estimate([[zero, e12], [-1.0 * e12, zero]], d, paths=30000, steps=256, seed=1)
    assert abs(res.mean_form.coefficient(0) - 1.0) < 1e-12
    assert abs(res.top_mean) < max(0.01, 4 * res.top_stderr)


def test_levy_cumulant_scales_linearly():
    """Doubling the curvature doubles the degree-2 coefficient spread."""
    d = 2
    e12 = MultiVector(d, {0b11: 1.0})
    zero = MultiVector.zero(d)

    def run(scale, seed):
        om = [[zero, scale * e12], [-scale * e12, zero]]
        return levy_area_estimate(om, d, paths=20000, steps=128, seed=seed)

    r1, r2 = run(1.0, 2), run(2.0, 2)
    # identical driving noise: the top coefficients are exactly proportional
    assert r2.top_mean == pytest.approx(2.0 * r1.top_mean, rel=1e-10, abs=1e-14)


def test_levy_d4_matches_doubled_series_identity():
    """E[exp(J)] equals the characteristic series at 2 Omega (exact law)."""
    d = 4
    a, b = 0.8, -1.1
    theta = MultiVector(4, {0b0011: a, 0b1100: b})
    zero = MultiVector.zero(4)
    om = [[zero, theta, zero, zero], [-1.0 * theta, zero, zero, zero],
          [zero, zero, zero, zero], [zero, zero, zero, zero]]
    om2 = [[2.0 * e for e in row] for row in om]
    res = levy_area_estimate(om, d, paths=60000, steps=256, seed=3)
    top = (1 << d) - 1
    oracle = clifford.a_hat_series(om2, d).coefficient(top)
    assert abs(res.top_mean - oracle) < max(4 * res.top_stderr, 0.01 * abs(oracle) + 0.002)
    # J is linear in Omega: Omega/2 recovers the series at Omega itself
    om_half = [[0.5 * e for e in row] for row in om]
    res_half = levy_area_estimate(om_half, d, paths=60000, steps=256, seed=3)
    oracle_half = clifford.a_hat_series(om, d).coefficient(top)
    assert abs(res_half.top_mean - oracle_half) < max(
        4 * res_half.top_stderr, 0.01 * abs(oracle_half) + 0.002
    )


def test_localization_values_flat_spec_chains():
    d = 2
    e1, e2 = MultiVector.generator(d, 1), MultiVector.generator(d, 2)
    zero = MultiVector.zero(d)
    chain0 = (DGAElement(e1.wedge(e2), zero),)
    res0 = localization_check(chain0, t_sequence=(0.8, 0.4), truncation=14)
    assert abs(res0.target - 1.0 / (2j * np.pi)) < 1e-14
    assert res0.relative_error < 1e-6

    chain1 = (DGAElement(e1, zero), DGAElement(zero, e2))
    res1 = localization_check(chain1, t_sequence=(0.8, 0.4), truncation=14)
    assert abs(res1.target - (-4.0) / (2j * np.pi)) < 1e-14
    assert res1.relative_error < 1e-6


def test_localization_degree_unbalanced_chain_vanishes():
    d = 2
    e1 = MultiVector.generator(d, 1)
    zero = MultiVector.zero(d)
    chain = (DGAElement(e1, zero), DGAElement(zero, e1))
    res = localization_check(chain, t_sequence=(0.8, 0.4), truncation=10)
    assert res.target == 0
    assert abs(res.extrapolated) < 1e-8


def test_localization_mc_cross_check():
    d = 2
    e1, e2 = MultiVector.generator(d, 1), MultiVector.generator(d, 2)
    zero = MultiVector.zero(d)
    chain = (DGAElement(e1, zero), DGAElement(zero, e2))
    res = localization_check(
        chain, t_sequence=(0.8, 0.4), truncation=14, mc_paths=20000, mc_steps=128, seed=0
    )
    assert res.mc_check is not None
    assert res.mc_check["z"] < 4.0


def test_d4_localization_mc_check():
    """The Monte Carlo check at d = 4 runs the r = 4 spinor model through the
    engine's generic plane code.  w1' has degree 3, so its first-order
    symbols [c(e_m), c(w1')] have degree 2 and enter the supertrace.  On a
    flat n = 1 model a path's first-order integral is S^m times its winding
    displacement, and at t = 8 the bridges wind often, so the estimate has
    variance.  The gate is the CLI's z <= 3; the standard error is the crude
    propagation of ``_mc_check``, and over seeds 0-199 the largest z was 1.7.

    On the diagonal the first-order terms have mean 0, so the partition
    model's path estimate is also checked entry by entry off the diagonal,
    where they do not, against its moment-sum kernel: z <= 4 for the largest
    of the 16 entries (the largest over seeds 0-199 was 3.2)."""
    d = 4
    e = [MultiVector.generator(d, j) for j in range(1, d + 1)]
    w1 = e[0].wedge(e[1]).wedge(e[2]) - 0.3 * e[1].wedge(e[2]).wedge(e[3])
    chain = (
        DGAElement(e[0].wedge(e[1]) + 0.5 * e[2].wedge(e[3]), MultiVector.zero(d)),
        DGAElement(w1, e[2].wedge(e[3])),
    )
    res = localization_check(
        chain, t_sequence=(8.0, 4.0), truncation=4, mc_paths=4096, mc_steps=32, seed=0
    )
    mc = res.mc_check
    assert res.target != 0 and mc["deterministic"] == res.sweep[0][1]
    assert mc["stderr"] > 1e-3 * abs(mc["deterministic"])
    assert mc["z"] <= 3.0

    ((_, model),) = _partition_models(chain)
    x, y = np.array([0.3, 1.1, 2.0, 0.7]), np.array([1.0, 0.4, 2.9, 0.2])
    oracle = spectral_phi_kernel(model, 8.0, x, y, 4)
    est = fk_estimate(model, 8.0, x, y, paths=4096, steps=32, seed=0)
    z = model_module._oracle_z(
        np.abs(est.estimate - oracle), est.stderr,
        model_module._truncation_tail(model, 8.0, 4), np.abs(oracle).max(),
    )
    assert z.max() <= 4.0


def test_localization_check_builds_each_partition_model_once(monkeypatch):
    """The partition models do not depend on t: a two-time check with the
    Monte Carlo cross-check builds each surviving partition's model once."""
    d = 2
    e1, e2 = MultiVector.generator(d, 1), MultiVector.generator(d, 2)
    zero = MultiVector.zero(d)
    chain = (DGAElement(e1.wedge(e2), zero), DGAElement(e1, zero), DGAElement(zero, e2))
    built = []
    init = TorusModel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TorusModel, "__init__", counting_init)
    localization_check(chain, t_sequence=(0.8, 0.4), truncation=14, mc_paths=64, mc_steps=8)
    # of the partitions (12) and (1)(2), (12) is dropped: w1'^w2' = 0 and
    # c(w1') c(w2') = 0, so its Clifford defect vanishes
    assert len(built) == 1


def _count_mode_sums(monkeypatch):
    calls = []
    kernel = model_module._truncated_kernel

    def counting_kernel(model, *args):
        calls.append(model)
        return kernel(model, *args)

    monkeypatch.setattr(model_module, "_truncated_kernel", counting_kernel)
    return calls


def test_localization_sums_modes_once_per_surviving_partition_and_time(monkeypatch):
    """On w0' = e1e2, w1'' = e1, w2' = e1, w3'' = e2 only (1)(2)(3) survives:
    (123) is too long and both pairs have a zero Clifford defect.  The Monte
    Carlo check reuses the sweep's value at its time instead of summing the
    modes again."""
    d = 2
    e1, e2 = MultiVector.generator(d, 1), MultiVector.generator(d, 2)
    zero = MultiVector.zero(d)
    chain = (DGAElement(e1.wedge(e2), zero), DGAElement(zero, e1),
             DGAElement(e1, zero), DGAElement(zero, e2))
    calls = _count_mode_sums(monkeypatch)
    res = localization_check(chain, t_sequence=(0.8, 0.4), truncation=14)
    assert len(calls) == 2 and all(model.n == 3 for model in calls)
    calls.clear()
    res_mc = localization_check(
        chain, t_sequence=(0.8, 0.4), truncation=14, mc_paths=64, mc_steps=8
    )
    assert len(calls) == 2
    assert res_mc.sweep == res.sweep
    assert res_mc.mc_check["deterministic"] == res.sweep[0][1]


def test_zero_target_verdicts_use_the_cauchy_schwarz_scale():
    """A d = 4 chain with target 0: the value is rounding noise of order
    1e-17 of the partition terms, so the relative error and the Monte Carlo
    z-score are measured against the Cauchy-Schwarz bound of those terms,
    not against |target| = 0 or the noise itself."""
    d = 4
    e = [MultiVector.generator(d, j) for j in range(1, d + 1)]
    chain = (
        DGAElement(e[0].wedge(e[1]) + 0.5 * e[2].wedge(e[3]), MultiVector.zero(d)),
        DGAElement(e[0] - 0.3 * e[3], e[1]),
    )
    res = localization_check(
        chain, t_sequence=(8.0, 4.0), truncation=4, mc_paths=1024, mc_steps=16
    )
    assert res.target == 0
    for _, value, bound in res.sweep:
        assert bound > 0 and abs(value) < 1e-12 * bound
    assert res.relative_error < 1e-10
    assert res.mc_check["z"] <= 3.0


def test_spin_torus_model_is_flat_laplacian():
    model = spin_torus_model(2)
    assert model.r == 2
    h = model.mode_blocks([(2, -1)])[0][0]
    assert np.allclose(h, 2.5 * np.eye(2))
