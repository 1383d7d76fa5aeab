"""Acceptance criteria, shared by ``tests/test_acceptance.py`` and the CLI
``selftest`` subcommand.

Every criterion returns a :class:`CriterionResult` with the measured
quantities, the pinned tolerance, and a verdict.  Seeds are fixed; the
reproducibility criterion compares canonical digests of repeated runs with
different worker counts.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from math import factorial

import numpy as np

from . import clifford, jlo, linalg, phi_core
from .grassmann import MultiVector
from .jlo import DGAElement
from .jsonio import _json_default
from .stochastic_mc import (
    PerturbationSpec,
    TorusModel,
    fk_estimate,
    heat_kernel,
    levy_area_estimate,
    moment_scaling_probe,
    sample_bridge_batch,
    small_time_limit,
    spectral_phi_kernel,
)
from .stochastic_mc.engine import _chunk_rng


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] criterion {self.number:2d}: {self.title}"


def _random_nonneg_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return linalg.hermitian(scale * (g @ g.conj().T) / dim, require_nonneg=True)


def _random_matrix(rng, dim, scale=1.0):
    return scale * (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ) / np.sqrt(dim)


def _random_family(rng, dim, n) -> phi_core.OperatorFamily:
    return phi_core.OperatorFamily(
        _random_nonneg_hermitian(rng, dim),
        tuple(_random_matrix(rng, dim) for _ in range(n)),
    )


# --- criterion 1 -----------------------------------------------------------


def pairwise_relative_deviation(values: dict) -> dict:
    """Frobenius distance of every pair of named matrices, relative to the
    largest norm among them, keyed "a-b" in the order of ``values``."""
    names = list(values)
    scale = max(max(np.linalg.norm(v) for v in values.values()), 1e-300)
    return {
        f"{a}-{b}": float(np.linalg.norm(values[a] - values[b]) / scale)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    }


def criterion_1(seed: int = 0) -> CriterionResult:
    """Four-way agreement of phi_block and its three oracles on 20 seeded families."""
    start = time.time()
    rng = np.random.default_rng(seed)
    t_cycle = (0.1, 0.5, 1.0)
    worst = 0.0
    for i in range(20):
        dim = int(rng.integers(2, 9))
        n = int(rng.integers(1, 4))
        fam = _random_family(rng, dim, n)
        t = t_cycle[i % 3]
        devs = pairwise_relative_deviation({
            "block": phi_core.phi_block(fam.h.matrix, fam.perturbations, t),
            "fermionic": phi_core.phi_fermionic(fam, t).value,
            "quadrature": phi_core.phi_quadrature(fam, t, 32).value,
            "ode": phi_core.phi_ode(fam, t, 4096).value,
        })
        worst = max(worst, *devs.values())
    elapsed = time.time() - start
    passed = worst <= 1e-6 and elapsed <= 60.0
    return CriterionResult(
        1,
        "cross-evaluator agreement <= 1e-6 within 60 s",
        passed,
        {"max_pairwise_relative_deviation": worst, "tolerance": 1e-6},
        elapsed,
    )


# --- criterion 2 -----------------------------------------------------------


def criterion_2(seed: int = 0) -> CriterionResult:
    start = time.time()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (1, 2, 3):
        lam = float(rng.uniform(0.2, 2.0))
        ps = [float(rng.uniform(-2, 2)) for _ in range(n)]
        t = float(rng.uniform(0.2, 1.0))
        fam = phi_core.OperatorFamily(
            linalg.hermitian(np.array([[lam]]), require_nonneg=True),
            tuple(np.array([[p]], dtype=complex) for p in ps),
        )
        exact = np.prod(ps) * t**n * np.exp(-lam * t) / factorial(n)
        got = phi_core.phi_fermionic(fam, t).value[0, 0]
        worst = max(worst, abs(got - exact))
    lam, t = 1.3, 0.6
    fam2 = phi_core.OperatorFamily(
        linalg.hermitian(np.diag([0.0, lam]), require_nonneg=True),
        (np.array([[0, 1], [1, 0]], dtype=complex),),
    )
    expect = (1 - np.exp(-lam * t)) / lam * np.array([[0, 1], [1, 0]])
    worst = max(
        worst, np.abs(phi_core.phi_fermionic(fam2, t).value - expect).max()
    )
    passed = worst <= 1e-10
    return CriterionResult(
        2,
        "closed-form exactness (scalar and 2x2) <= 1e-10",
        passed,
        {"max_abs_error": worst, "tolerance": 1e-10},
        time.time() - start,
    )


# --- criterion 3 -----------------------------------------------------------


def criterion_3(seed: int = 0) -> CriterionResult:
    start = time.time()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n, dim in ((1, 4), (2, 3), (3, 2)):
        fam = _random_family(rng, dim, n)
        lift_p_norm = linalg.op_norm(phi_core.build_lift(fam).p_part)
        t = 0.7
        scale = max(1.0, (lift_p_norm * t) ** (n + 1))
        value = phi_core.nilpotency_check(fam, t, n + 1)
        worst = max(worst, value / scale)
    passed = worst <= 1e-10
    return CriterionResult(
        3,
        "lifted repeated-perturbation integral vanishes at order n+1",
        passed,
        {"max_scaled_norm": worst, "tolerance": 1e-10},
        time.time() - start,
    )


# --- criterion 4 -----------------------------------------------------------


def criterion_4(seed: int = 0) -> CriterionResult:
    start = time.time()
    rng = np.random.default_rng(seed)
    bound_ok = True
    worst_margin = 0.0
    for i in range(20):
        dim = int(rng.integers(2, 5))
        h = _random_nonneg_hermitian(rng, dim)
        p = _random_matrix(rng, dim, scale=0.8)
        t = float(rng.uniform(0.1, 0.5))
        order = int(rng.integers(2, 6))
        a = (0.3, 0.5, 0.7)[i % 3]
        res = phi_core.dyson_partial_sum(h, p, t, order, a)
        bound_ok = bound_ok and res.holds
        worst_margin = max(worst_margin, res.error / max(res.bound, 1e-300))
    mc_ok = True
    mc_worst_z = 0.0
    tuples = [
        (0.3,), (0.5,), (0.7,),
        (0.3, 0.5), (0.5, 0.5), (0.7, 0.3),
        (0.3, 0.5, 0.7), (0.5, 0.5, 0.5), (0.7, 0.7, 0.7),
    ]
    for idx, exps in enumerate(tuples):
        closed = phi_core.simplex_constant(exps)
        # frozen per-tuple streams; for exponents >= 1/2 the integrand has
        # infinite variance, so the empirical 3-SE verdict is only meaningful
        # for the released seeds
        mc, se = phi_core.simplex_constant_mc(
            exps, samples=10**6, seed=3000 * (idx + 1) + seed
        )
        z = abs(mc - closed) / max(se, 1e-300)
        mc_worst_z = max(mc_worst_z, z)
        mc_ok = mc_ok and z <= 3.0
    passed = bound_ok and mc_ok
    return CriterionResult(
        4,
        "alternating-sum tail bound holds; simplex constant matches MC (3 SE)",
        passed,
        {
            "worst_error_over_bound": worst_margin,
            "worst_mc_z": mc_worst_z,
            "samples": 10**6,
        },
        time.time() - start,
    )


# --- criterion 5 -----------------------------------------------------------


def criterion_5(seed: int = 0) -> CriterionResult:
    start = time.time()
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(1, 3))
        fam = _random_family(rng, dim, n)
        t, h = 0.6, 0.04
        r1 = phi_core.derivative_check(fam, t, h)
        r2 = phi_core.derivative_check(fam, t, h / 2)
        ratios.append(r1 / r2)
    ratios = np.array(ratios)
    passed = bool(np.all((ratios >= 3.5) & (ratios <= 4.5)))
    return CriterionResult(
        5,
        "derivative-recursion residual is O(h^2) (halving ratio in [3.5, 4.5])",
        passed,
        {"ratios": [float(v) for v in ratios]},
        time.time() - start,
    )


# --- criterion 6 -----------------------------------------------------------


def _random_antisym(rng, d):
    m = rng.standard_normal((d, d))
    return m - m.T


def patodi_residuals(rep, rng, words: int):
    """Worst filtration-vanishing supertrace and worst top-identity residual
    over ``words`` random words of antisymmetric matrices each; all the
    vanishing words are drawn from ``rng`` before the top-identity factors.
    Returns (worst_vanishing, worst_top_residual)."""
    d, l = rep.d, rep.l
    worst_vanish = 0.0
    for _ in range(words):
        if l >= 2:
            order = int(rng.integers(1, l))
            word = clifford.PatodiWord(tuple(_random_antisym(rng, d) for _ in range(order)))
        else:
            word = clifford.PatodiWord(())
        worst_vanish = max(worst_vanish, clifford.patodi_vanishing(rep, word))
    worst_top = 0.0
    for _ in range(words):
        factors = tuple(_random_antisym(rng, d) for _ in range(l))
        _, _, res = clifford.patodi_top_identity(rep, factors)
        worst_top = max(worst_top, res)
    return worst_vanish, worst_top


def criterion_6(seed: int = 0) -> CriterionResult:
    start = time.time()
    rng = np.random.default_rng(seed)
    worst_vanish = 0.0
    worst_top = 0.0
    for d in (2, 4, 6):
        vanish, top = patodi_residuals(clifford.build_spinor_rep(d), rng, 50)
        worst_vanish = max(worst_vanish, vanish)
        worst_top = max(worst_top, top)
    passed = worst_vanish <= 1e-10 and worst_top <= 1e-10
    return CriterionResult(
        6,
        "filtration vanishing and top supertrace identity (d in {2,4,6})",
        passed,
        {"worst_vanishing": worst_vanish, "worst_top_residual": worst_top},
        time.time() - start,
    )


# --- criterion 7 -----------------------------------------------------------


def criterion_7(seed: int = 0) -> CriterionResult:
    start = time.time()
    rng = np.random.default_rng(seed)
    t_grid = np.linspace(0.1, 2.0, 9)
    worst_spread = 0.0
    all_match = True
    rep = clifford.build_spinor_rep(4)
    for i in range(10):
        if i % 2 == 0:
            dirac = jlo.random_odd_dirac(rep, rng)
            vals, spread, sig = jlo.mckean_singer(rep.chirality, dirac, t_grid)
        else:
            # unbalanced toy grading with an engineered nonzero kernel signature
            p, q = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            if p == q:
                p += 1
            b = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
            dirac = np.block(
                [[np.zeros((p, p)), b], [b.conj().T, np.zeros((q, q))]]
            )
            grading = np.diag([1.0] * p + [-1.0] * q).astype(complex)
            vals, spread, sig = jlo.mckean_singer(grading, dirac, t_grid)
        worst_spread = max(worst_spread, spread)
        all_match = all_match and bool(np.abs(vals - sig).max() <= 1e-9)
    passed = worst_spread <= 1e-9 and all_match
    return CriterionResult(
        7,
        "heat supertrace constant and equal to the graded kernel signature",
        passed,
        {"worst_spread": worst_spread},
        time.time() - start,
    )


# --- criterion 8 -----------------------------------------------------------


def _spec_chains():
    d = 2
    e1 = MultiVector.generator(d, 1)
    e2 = MultiVector.generator(d, 2)
    zero = MultiVector.zero(d)
    chain0 = (DGAElement(e1.wedge(e2), zero),)
    chain1 = (DGAElement(e1, zero), DGAElement(zero, e2))
    return chain0, chain1


def criterion_8(seed: int = 0) -> CriterionResult:
    start = time.time()
    chain0, chain1 = _spec_chains()
    res0 = small_time_limit(chain0, t_sequence=(1.6, 0.8), truncation=6)
    res1 = small_time_limit(chain1, t_sequence=(1.6, 0.8), truncation=6)
    elapsed = time.time() - start
    passed = (
        res0.relative_error <= 0.02 and res1.relative_error <= 0.02 and elapsed <= 120
    )
    return CriterionResult(
        8,
        "graded-cocycle small-time limit hits the localization target (2%)",
        passed,
        {
            "n0_relative_error": res0.relative_error,
            "n1_relative_error": res1.relative_error,
            "n0_value": res0.extrapolated,
            "n0_target": res0.target,
            "n1_value": res1.extrapolated,
            "n1_target": res1.target,
        },
        elapsed,
    )


# --- criterion 9 -----------------------------------------------------------


def acceptance_fk_model() -> TorusModel:
    """Frozen d=2, r=2 configuration for the path-estimator criteria.

    Couplings exercise every term (noncommuting connection, non-scalar
    potential, mixed first/zeroth-order perturbation) at norms where the
    step-discretization bias stays below the Monte Carlo error of the
    acceptance runs.
    """
    a1 = np.array([[0.2j, 0.12 + 0.08j], [-0.12 + 0.08j, -0.16j]])
    a2 = np.array([[-0.08j, 0.16 - 0.04j], [-0.16 - 0.04j, 0.12j]])
    w = np.array([[0.5, 0.08 - 0.08j], [0.08 + 0.08j, 0.33]])
    s1 = np.array([[0.22, 0.08j], [-0.08j, -0.15]])
    s2 = np.array([[0.08, 0.15], [0.15, 0.19]])
    v = np.array([[0.3, 0.11 + 0.04j], [0.11 - 0.04j, -0.22]])
    pert = PerturbationSpec((s1, s2), v)
    return TorusModel(2, 2, (a1, a2), w, (pert,))


def criterion_9(seed: int = 0, workers: int = 2) -> CriterionResult:
    start = time.time()
    model = acceptance_fk_model()
    x = np.array([0.4, 2.1])
    y = np.array([1.3, 5.6])
    t = 0.5
    detail = {}
    passed = True
    for label, m in (("n0", model.with_perturbations(())), ("n1", model)):
        oracle = spectral_phi_kernel(m, t, x, y, 16)
        res = fk_estimate(m, t, x, y, paths=10**5, steps=512, seed=seed, workers=workers)
        err = np.abs(res.estimate - oracle)
        z = err / np.maximum(res.stderr, 1e-300)
        scale = linalg.op_norm(oracle)
        big = np.abs(oracle) > 0.05 * scale
        rel_ok = bool(np.all(err[big] <= 0.02 * np.abs(oracle)[big]))
        detail[f"{label}_max_z"] = float(z.max())
        detail[f"{label}_rel_ok"] = rel_ok
        passed = passed and bool(np.all(z <= 3.0)) and rel_ok
    elapsed = time.time() - start
    passed = passed and elapsed <= 300
    return CriterionResult(
        9,
        "path estimator matches the spectral oracle (3 SE and 2% relative)",
        passed,
        detail,
        elapsed,
    )


# --- criterion 10 ----------------------------------------------------------


def criterion_10(seed: int = 0) -> CriterionResult:
    start = time.time()
    s1 = np.array([[0.8, 0.0], [0.0, 0.6]], dtype=complex)
    s2 = np.array([[0.5, 0.2], [0.2, 0.7]], dtype=complex)
    v = np.array([[0.9, 0.1], [0.1, 0.7]], dtype=complex)
    perts = (
        PerturbationSpec((s1, s2), v),
        PerturbationSpec((0.7 * s2, 0.9 * s1), 0.8 * v),
    )
    model = TorusModel(2, 2, perturbations=perts)
    t_grid = (0.05, 0.1, 0.2, 0.4)
    detail = {}
    passed = True
    # not nu = (0,): on this model I_1 = S (z - x) is fixed by the winding
    # class, so its moments have no power of t to fit (the probe rejects it)
    for nu in ((0, 1), (1,), (0, 0), (1, 1)):
        slope, diag = moment_scaling_probe(
            model, nu, b=2.0, t_grid=t_grid, paths=20000, steps=256, seed=seed
        )
        expected = diag["expected_slope"]
        detail[f"nu={nu}"] = {"slope": slope, "expected": expected}
        passed = passed and abs(slope - expected) <= 0.15
    return CriterionResult(
        10,
        "iterated-integral moment exponents match (b/2)(m+|nu|) within 0.15",
        passed,
        detail,
        time.time() - start,
    )


# --- criterion 11 ----------------------------------------------------------


def criterion_11(seed: int = 0) -> CriterionResult:
    start = time.time()
    d = 2
    theta = 0.9
    e12 = MultiVector(d, {0b11: theta})
    zero = MultiVector.zero(d)
    omega = [[zero, e12], [-1.0 * e12, zero]]
    res = levy_area_estimate(omega, d, paths=10**5, steps=512, seed=seed)
    oracle = clifford.a_hat_series(omega, d)
    top_mask = (1 << d) - 1
    diff = abs(res.top_mean - oracle.coefficient(top_mask))
    tol = 0.01 * max(1.0, abs(oracle.coefficient(top_mask)))
    zero_case = levy_area_estimate(
        [[zero, zero], [zero, zero]], d, paths=10, steps=8, seed=seed
    )
    exact_one = (
        zero_case.mean_form.coefficient(0) == 1.0
        and zero_case.mean_form.coefficient(top_mask) == 0.0
    )
    passed = diff <= tol and exact_one
    return CriterionResult(
        11,
        "stochastic-area exponential matches the curvature series (1%)",
        passed,
        {"top_difference": diff, "tolerance": tol, "zero_case_exact": exact_one},
        time.time() - start,
    )


# --- criterion 12 ----------------------------------------------------------


def bridge_midpoint_chi2(d: int, t: float, samples: int, bins: int, seed: int = 0):
    """Chi-squared test of two-step torus bridges from (0.8, ...) to
    (2.9, ...): the first coordinate of the wrapped midpoint against its
    product-of-kernels marginal, plus exact endpoint pinning.

    Draws from ``_chunk_rng(seed, 0)``; returns (chi2, 1% critical value,
    endpoints_exact).
    """
    import scipy.stats  # ~0.2 s to import; only this check needs it

    x = np.full(d, 0.8)
    y = np.full(d, 2.9)
    windings, positions = sample_bridge_batch(_chunk_rng(seed, 0), d, x, y, t, 2, samples)
    endpoints_exact = bool(
        np.all(positions[:, 0] == x)
        and np.all(positions[:, -1] == y + 2 * np.pi * windings)
    )
    mid = np.mod(positions[:, 1, 0], 2 * np.pi)
    edges = np.linspace(0, 2 * np.pi, bins + 1)
    counts, _ = np.histogram(mid, bins=edges)
    # the other coordinates integrate out of the first one's marginal
    x1, y1, s = x[:1], y[:1], t / 2.0
    probs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        grid = np.linspace(lo, hi, 9)
        dens = [
            heat_kernel(1, s, x1, np.array([z])) * heat_kernel(1, t - s, np.array([z]), y1)
            for z in grid
        ]
        probs.append(np.trapezoid(dens, grid))
    probs = np.asarray(probs) / np.sum(probs)  # normalizes out p(t, x1, y1)
    expected = probs * samples
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return chi2, float(scipy.stats.chi2.ppf(0.99, bins - 1)), endpoints_exact


def criterion_12(seed: int = 0) -> CriterionResult:
    start = time.time()
    chi2, crit, endpoints_exact = bridge_midpoint_chi2(1, 0.7, 10**5, 40, seed)
    passed = chi2 <= crit and endpoints_exact
    return CriterionResult(
        12,
        "bridge midpoint law passes chi-squared at 1%; endpoints pinned exactly",
        passed,
        {"chi2": chi2, "critical": crit, "endpoints_exact": endpoints_exact},
        time.time() - start,
    )


# --- criterion 13 ----------------------------------------------------------


def _reproducibility_payload(seed: int, workers: int) -> dict:
    model = acceptance_fk_model()
    x = np.array([0.4, 2.1])
    y = np.array([1.3, 5.6])
    res = fk_estimate(model, 0.5, x, y, paths=2 * 16384 + 100, steps=64, seed=seed, workers=workers)
    d = 2
    e12 = MultiVector(d, {0b11: 0.9})
    zero = MultiVector.zero(d)
    levy = levy_area_estimate([[zero, e12], [-1.0 * e12, zero]], d, paths=20000, steps=64, seed=seed)
    return {
        "fk_estimate": [[repr(v) for v in row] for row in res.estimate],
        "fk_stderr": [[repr(v) for v in row] for row in res.stderr],
        "levy_top": repr(levy.top_mean),
    }


def digest_of(payload: dict) -> str:
    """SHA-256 of the canonical JSON of ``payload``, encoded as reports are."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=_json_default).encode()
    ).hexdigest()


def criterion_13(seed: int = 0) -> CriterionResult:
    start = time.time()
    digests = {
        workers: digest_of(_reproducibility_payload(seed, workers))
        for workers in (1, 4)
    }
    rerun = digest_of(_reproducibility_payload(seed, 1))
    passed = digests[1] == digests[4] == rerun
    return CriterionResult(
        13,
        "seeded reruns are bitwise identical on 1 and 4 workers",
        passed,
        {"digests": digests, "rerun": rerun},
        time.time() - start,
    )


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
    13: criterion_13,
}


def run_criteria(numbers=None, seed: int = 0):
    numbers = sorted(CRITERIA) if numbers is None else sorted(numbers)
    results = []
    for num in numbers:
        if num not in CRITERIA:
            raise ValueError(f"unknown criterion {num}")
        results.append(CRITERIA[num](seed=seed))
    return results
