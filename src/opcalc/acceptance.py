"""Acceptance criteria, shared by ``tests/test_acceptance.py`` and the CLI
``selftest`` subcommand.

Every criterion is a body ``criterion_N(seed) -> (passed, details)``
registered once by :func:`_criterion`, which times it and returns a
:class:`CriterionResult` with the measured quantities, the pinned tolerance,
and a verdict.  Seeds are fixed; the reproducibility criterion compares
canonical digests of repeated runs with different worker counts.  The
Feynman-Kac and Levy-area criteria decide by the same comparisons as
``opcalc fk`` and ``opcalc levy-area``: :func:`fk_against_oracle` and
:func:`levy_against_series`.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from math import factorial

import numpy as np

from . import clifford, jlo, linalg, phi_core
from .grassmann import MultiVector
from .jlo import DGAElement
from .jsonio import digest_of
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
from .stochastic_mc.model import _oracle_z, _truncation_tail


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


CRITERIA = {}


def _criterion(number: int, title: str, seconds: float | None = None):
    """Register ``body(seed) -> (passed, details)`` as criterion ``number``,
    timed, and failed if it takes longer than ``seconds``."""

    def register(body):
        @functools.wraps(body)
        def run(seed: int = 0) -> CriterionResult:
            start = time.time()
            passed, details = body(seed)
            elapsed = time.time() - start
            ok = bool(passed and (seconds is None or elapsed <= seconds))
            return CriterionResult(number, title, ok, details, elapsed)

        CRITERIA[number] = run
        return run

    return register


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


@_criterion(1, "cross-evaluator agreement <= 1e-6 within 60 s", seconds=60.0)
def criterion_1(seed: int = 0):
    """Four-way agreement of phi_block and its three oracles on 20 seeded families."""
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
    return worst <= 1e-6, {"max_pairwise_relative_deviation": worst, "tolerance": 1e-6}


# --- criterion 2 -----------------------------------------------------------


@_criterion(2, "closed-form exactness (scalar and 2x2) <= 1e-10")
def criterion_2(seed: int = 0):
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
    return worst <= 1e-10, {"max_abs_error": worst, "tolerance": 1e-10}


# --- criterion 3 -----------------------------------------------------------


@_criterion(3, "lifted repeated-perturbation integral vanishes at order n+1")
def criterion_3(seed: int = 0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n, dim in ((1, 4), (2, 3), (3, 2)):
        fam = _random_family(rng, dim, n)
        lift_p_norm = np.linalg.norm(phi_core.build_lift(fam).p_part, 2)
        t = 0.7
        scale = max(1.0, (lift_p_norm * t) ** (n + 1))
        value = phi_core.nilpotency_check(fam, t, n + 1)
        worst = max(worst, value / scale)
    return worst <= 1e-10, {"max_scaled_norm": worst, "tolerance": 1e-10}


# --- criterion 4 -----------------------------------------------------------


SIMPLEX_TUPLES = ((0.3,), (0.5,), (0.7,), (0.3, 0.5), (0.5, 0.5), (0.7, 0.3),
                  (0.3, 0.5, 0.7), (0.5, 0.5, 0.5), (0.7, 0.7, 0.7))


def simplex_mc_worst_z(seed: int, samples: int) -> float:
    """Criterion 4's Monte Carlo statistic: the largest |MC - closed| / SE of
    the simplex constant over ``SIMPLEX_TUPLES``, tuple idx drawing from
    Philox stream idx of ``seed``."""
    worst = 0.0
    for idx, exps in enumerate(SIMPLEX_TUPLES):
        mc, se = phi_core.simplex_constant_mc(exps, samples, seed, stream=idx)
        worst = max(worst, abs(mc - phi_core.simplex_constant(exps)) / max(se, 1e-300))
    return worst


@_criterion(4, "alternating-sum tail bound holds; simplex constant matches MC (3 SE)")
def criterion_4(seed: int = 0):
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
    mc_worst_z = simplex_mc_worst_z(seed, 10**6)
    return bound_ok and mc_worst_z <= 3.0, {
        "worst_error_over_bound": worst_margin,
        "worst_mc_z": mc_worst_z,
        "samples": 10**6,
    }


# --- criterion 5 -----------------------------------------------------------


@_criterion(5, "derivative-recursion residual is O(h^2) (halving ratio in [3.5, 4.5])")
def criterion_5(seed: int = 0):
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
    passed = np.all((ratios >= 3.5) & (ratios <= 4.5))
    return passed, {"ratios": [float(v) for v in ratios]}


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
        order = int(rng.integers(1, l)) if l >= 2 else 0
        word = [_random_antisym(rng, d) for _ in range(order)]
        worst_vanish = max(worst_vanish, clifford.patodi_vanishing(rep, word))
    worst_top = 0.0
    for _ in range(words):
        factors = tuple(_random_antisym(rng, d) for _ in range(l))
        _, _, res = clifford.patodi_top_identity(rep, factors)
        worst_top = max(worst_top, res)
    return worst_vanish, worst_top


@_criterion(6, "filtration vanishing and top supertrace identity (d in {2,4,6})")
def criterion_6(seed: int = 0):
    rng = np.random.default_rng(seed)
    worst_vanish = 0.0
    worst_top = 0.0
    for d in (2, 4, 6):
        vanish, top = patodi_residuals(clifford.build_spinor_rep(d), rng, 50)
        worst_vanish = max(worst_vanish, vanish)
        worst_top = max(worst_top, top)
    passed = worst_vanish <= 1e-10 and worst_top <= 1e-10
    return passed, {"worst_vanishing": worst_vanish, "worst_top_residual": worst_top}


# --- criterion 7 -----------------------------------------------------------


@_criterion(7, "heat supertrace constant and equal to the graded kernel signature")
def criterion_7(seed: int = 0):
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
    return worst_spread <= 1e-9 and all_match, {"worst_spread": worst_spread}


# --- criterion 8 -----------------------------------------------------------


def _spec_chains():
    d = 2
    e1 = MultiVector.generator(d, 1)
    e2 = MultiVector.generator(d, 2)
    zero = MultiVector.zero(d)
    chain0 = (DGAElement(e1.wedge(e2), zero),)
    chain1 = (DGAElement(e1, zero), DGAElement(zero, e2))
    return chain0, chain1


@_criterion(8, "graded-cocycle small-time limit hits the localization target (2%)",
            seconds=120.0)
def criterion_8(seed: int = 0):
    chain0, chain1 = _spec_chains()
    res0 = small_time_limit(chain0, t_sequence=(1.6, 0.8), truncation=6)
    res1 = small_time_limit(chain1, t_sequence=(1.6, 0.8), truncation=6)
    passed = res0.relative_error <= 0.02 and res1.relative_error <= 0.02
    return passed, {
        "n0_relative_error": res0.relative_error,
        "n1_relative_error": res1.relative_error,
        "n0_value": res0.extrapolated,
        "n0_target": res0.target,
        "n1_value": res1.extrapolated,
        "n1_target": res1.target,
    }


# --- criterion 9 -----------------------------------------------------------


def acceptance_fk_model() -> TorusModel:
    """Frozen d=2, r=2 configuration for the path-estimator criteria.

    Couplings exercise every term (noncommuting connection, non-scalar
    potential, mixed first/zeroth-order perturbation).  The left-point
    step bias is not below the Monte Carlo error: at 512 steps it is
    0.5-1.9 standard errors of a 10^5-path run, enough to fail criterion 9
    at some seeds, until the coupled two-level estimator of ROADMAP item 2
    removes it.
    """
    a1 = np.array([[0.2j, 0.12 + 0.08j], [-0.12 + 0.08j, -0.16j]])
    a2 = np.array([[-0.08j, 0.16 - 0.04j], [-0.16 - 0.04j, 0.12j]])
    w = np.array([[0.5, 0.08 - 0.08j], [0.08 + 0.08j, 0.33]])
    s1 = np.array([[0.22, 0.08j], [-0.08j, -0.15]])
    s2 = np.array([[0.08, 0.15], [0.15, 0.19]])
    v = np.array([[0.3, 0.11 + 0.04j], [0.11 - 0.04j, -0.22]])
    pert = PerturbationSpec((s1, s2), v)
    return TorusModel(2, 2, (a1, a2), w, (pert,))


# criterion 9's time and end points, also run by criterion 13
FK_T, FK_X, FK_Y = 0.5, np.array([0.4, 2.1]), np.array([1.3, 5.6])


def fk_against_oracle(model, t, x, y, paths, steps, seed, workers, truncation):
    """The path estimate of the kernel at (x, y) against the spectral oracle:
    (estimate, oracle, z-scores by ``model._oracle_z``)."""
    oracle = spectral_phi_kernel(model, t, x, y, truncation)
    res = fk_estimate(model, t, x, y, paths, steps, seed=seed, workers=workers)
    tail = _truncation_tail(model, t, truncation)
    z = _oracle_z(np.abs(res.estimate - oracle), res.stderr, tail, float(np.abs(oracle).max()))
    return res, oracle, z


@_criterion(9, "path estimator matches the spectral oracle (3 SE and 2% relative)",
            seconds=300.0)
def criterion_9(seed: int = 0):
    model = acceptance_fk_model()
    detail = {}
    passed = True
    for label, m in (("n0", model.with_perturbations(())), ("n1", model)):
        res, oracle, z = fk_against_oracle(m, FK_T, FK_X, FK_Y, 10**5, 512, seed, 2, 16)
        err = np.abs(res.estimate - oracle)
        big = np.abs(oracle) > 0.05 * np.linalg.norm(oracle, 2)
        rel_ok = bool(np.all(err[big] <= 0.02 * np.abs(oracle)[big]))
        detail[f"{label}_max_z"] = float(z.max())
        detail[f"{label}_rel_ok"] = rel_ok
        passed = passed and np.all(z <= 3.0) and rel_ok
    return passed, detail


# --- criterion 10 ----------------------------------------------------------


def moment_slopes(seed: int, paths: int, steps: int) -> dict:
    """Criterion 10's probes at ``paths`` x ``steps``: {nu: (slope, expected
    slope)} of E|I_m(t)|^2 over its t grid, for its model and patterns."""
    s1 = np.array([[0.8, 0.0], [0.0, 0.6]], dtype=complex)
    s2 = np.array([[0.5, 0.2], [0.2, 0.7]], dtype=complex)
    v = np.array([[0.9, 0.1], [0.1, 0.7]], dtype=complex)
    perts = (
        PerturbationSpec((s1, s2), v),
        PerturbationSpec((0.7 * s2, 0.9 * s1), 0.8 * v),
    )
    model = TorusModel(2, 2, perturbations=perts)
    slopes = {}
    # not nu = (0,): on this model I_1 = S (z - x) is fixed by the winding
    # class, so its moments have no power of t to fit (the probe rejects it)
    for nu in ((0, 1), (1,), (0, 0), (1, 1)):
        slope, diag = moment_scaling_probe(
            model, nu, b=2.0, t_grid=(0.05, 0.1, 0.2, 0.4), paths=paths, steps=steps, seed=seed
        )
        slopes[nu] = (slope, diag["expected_slope"])
    return slopes


@_criterion(10, "iterated-integral moment exponents match (b/2)(m+|nu|) within 0.15")
def criterion_10(seed: int = 0):
    slopes = moment_slopes(seed, 20000, 256)
    detail = {f"nu={nu}": {"slope": s, "expected": e} for nu, (s, e) in slopes.items()}
    return all(abs(s - e) <= 0.15 for s, e in slopes.values()), detail


# --- criterion 11 ----------------------------------------------------------


def levy_against_series(omega, d, paths, steps, seed):
    """The averaged area exponential's top coefficient against the curvature
    series at 2 Omega, the law it follows: (estimate, oracle_top,
    difference, tolerance), the tolerance 1% of max(1, |oracle_top|)."""
    res = levy_area_estimate(omega, d, paths, steps, seed=seed)
    oracle = clifford.a_hat_series([[2.0 * e for e in row] for row in omega], d)
    oracle_top = oracle.coefficient((1 << d) - 1)
    diff = abs(res.top_mean - oracle_top)
    return res, oracle_top, diff, 0.01 * max(1.0, abs(oracle_top))


# criterion 11's curvature, Omega_12 = 0.9 e1 e2 = -Omega_21, also run by criterion 13
_E12 = MultiVector(2, {0b11: 0.9})
AREA_OMEGA = [[MultiVector.zero(2), _E12], [-1.0 * _E12, MultiVector.zero(2)]]


@_criterion(11, "stochastic-area exponential matches the curvature series (1%)")
def criterion_11(seed: int = 0):
    _, _, diff, tol = levy_against_series(AREA_OMEGA, 2, 10**5, 512, seed)
    zero = MultiVector.zero(2)
    zero_case = levy_area_estimate(
        [[zero, zero], [zero, zero]], 2, paths=10, steps=8, seed=seed
    )
    exact_one = (
        zero_case.mean_form.coefficient(0) == 1.0
        and zero_case.mean_form.coefficient(0b11) == 0.0
    )
    passed = diff <= tol and exact_one
    return passed, {"top_difference": diff, "tolerance": tol, "zero_case_exact": exact_one}


# --- criterion 12 ----------------------------------------------------------


def bridge_midpoint_chi2(d: int, t: float, samples: int, bins: int, seed: int = 0):
    """Chi-squared test of two-step torus bridges from (0.8, ...) to
    (2.9, ...): the first coordinate of the wrapped midpoint against its
    product-of-kernels marginal, plus exact endpoint pinning.

    The bins expecting fewer than 5 counts are pooled into one bin, which
    also takes the next-smallest bins while it expects fewer than 5 itself,
    so the chi-squared law with (kept bins - 1) degrees of freedom holds.
    Draws from ``_chunk_rng(seed, 0)``; returns (chi2, 1% critical value,
    degrees of freedom, endpoints_exact).
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
    order = np.argsort(expected)
    pooled = int(np.count_nonzero(expected < 5.0))
    while 0 < pooled < bins and expected[order[:pooled]].sum() < 5.0:
        pooled += 1
    if pooled:
        small, kept = order[:pooled], order[pooled:]
        counts = np.append(counts[kept], counts[small].sum())
        expected = np.append(expected[kept], expected[small].sum())
    dof = len(expected) - 1
    if dof < 1:
        raise ValueError(f"{samples} samples leave no two bins expecting 5 or more counts")
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return chi2, float(scipy.stats.chi2.ppf(0.99, dof)), dof, endpoints_exact


@_criterion(12, "bridge midpoint law passes chi-squared at 1%; endpoints pinned exactly")
def criterion_12(seed: int = 0):
    chi2, crit, dof, endpoints_exact = bridge_midpoint_chi2(1, 0.7, 10**5, 40, seed)
    passed = chi2 <= crit and endpoints_exact
    return passed, {
        "chi2": chi2, "critical": crit, "dof": dof, "endpoints_exact": endpoints_exact,
    }


# --- criterion 13 ----------------------------------------------------------


def _reproducibility_payload(seed: int, workers: int) -> dict:
    res = fk_estimate(acceptance_fk_model(), FK_T, FK_X, FK_Y, paths=2 * 16384 + 100,
                      steps=64, seed=seed, workers=workers)
    levy = levy_area_estimate(AREA_OMEGA, 2, paths=20000, steps=64, seed=seed)
    return {
        "fk_estimate": [[repr(v) for v in row] for row in res.estimate],
        "fk_stderr": [[repr(v) for v in row] for row in res.stderr],
        "levy_top": repr(levy.top_mean),
    }


@_criterion(13, "seeded reruns are bitwise identical on 1 and 4 workers")
def criterion_13(seed: int = 0):
    digests = {
        workers: digest_of(_reproducibility_payload(seed, workers))
        for workers in (1, 4)
    }
    rerun = digest_of(_reproducibility_payload(seed, 1))
    return digests[1] == digests[4] == rerun, {"digests": digests, "rerun": rerun}


def run_criteria(numbers=None, seed: int = 0):
    numbers = sorted(CRITERIA) if numbers is None else sorted(numbers)
    results = []
    for num in numbers:
        if num not in CRITERIA:
            raise ValueError(f"unknown criterion {num}")
        results.append(CRITERIA[num](seed=seed))
    return results
