"""Flat-model localization functional through the exact spectral mode sum.

Evaluates, deterministically and per point (homogeneity makes the point
irrelevant),

    F(t) = (t/2)^(-n/2 + sum_j deg(w_j')/2)
           * Str( sum_m (-2)^m sum_I c(w_0')
                  Phi^{D^2/2}_t(P(w_{I_1}), ..., P(w_{I_m}))(x, x) )

with the kernels of the flat-torus spin model, each a batched block-triangular
exponential over its stack of mode matrices, extrapolates t -> 0,
and compares against the localization target with unit characteristic
class.  ``localization_check`` (``opcalc localize``) uses the spectral
oracle, which rejects truncations whose torus-tail estimate exceeds 1e-10,
and optionally cross-checks one grid time against the Monte Carlo path
estimator.  ``small_time_limit`` (``opcalc jlo``) gives exact values for the
K-truncated model with the supertrace over the whole torus, (2 pi)^d times
the unguarded mode sum, so (2 pi)^d times ``localize`` up to truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..clifford import build_spinor_rep, clifford_quantize, supertrace
from ..jlo import clifford_defect, localization_target, ordered_partitions, richardson
from .engine import fk_estimate
from .model import (
    TWO_PI,
    PerturbationSpec,
    TorusModel,
    _oracle_z,
    _truncated_kernel,
    _truncation_tail,
    spectral_phi_kernel,
)


def spin_torus_model(d: int, perturbations=()) -> TorusModel:
    """Trivial-spin-structure flat model: H per mode is |k|^2/2."""
    rep = build_spinor_rep(d)
    return TorusModel(d, rep.dim, perturbations=tuple(perturbations))


def chain_block_perturbation(rep, chain, indices) -> PerturbationSpec:
    """Perturbation data of one ordered-partition block.

    Singletons {j} give the first-order operator with symbol coefficients
    S^m = -2 c(e_m -| w_j') and zeroth part c(w_j''); pairs give the purely
    zeroth-order quantization defect; longer blocks vanish.
    """
    d = rep.d
    omegas = tuple(chain[i] for i in indices)
    if len(omegas) == 1:
        w = omegas[0]
        first = tuple(
            -2.0 * clifford_quantize(rep, w.prime.contract(m + 1)) for m in range(d)
        )
        return PerturbationSpec(first, clifford_quantize(rep, w.doubleprime))
    if len(omegas) == 2:
        v = clifford_defect(lambda form: clifford_quantize(rep, form), *omegas)
        return PerturbationSpec.zeroth(v, d)
    return PerturbationSpec.zeroth(np.zeros((rep.dim, rep.dim), dtype=complex), d)


def _prefactor(chain, t: float) -> float:
    n = len(chain) - 1
    degs = [w.prime.pure_degree() for w in chain]
    return (t / 2.0) ** (-n / 2.0 + sum(degs) / 2.0)


def _partition_models(chain) -> list:
    """[((-2)^m, spin-torus model), ...] over the chain's ordered partitions.

    A partition's model carries one perturbation per block, in order; a
    chain with n = 0 gives the unperturbed model with coefficient 1.  The
    models do not depend on t, so each public entry point builds them once.
    """
    d = chain[0].d
    rep = build_spinor_rep(d)
    n = len(chain) - 1
    if n == 0:
        return [(1.0, spin_torus_model(d))]
    return [
        ((-2.0) ** m, spin_torus_model(d, tuple(
            chain_block_perturbation(rep, chain, block) for block in partition
        )))
        for m in range(1, n + 1)
        for partition in ordered_partitions(m, n)
    ]


def _functionals(chain, models, t_sequence, kernel) -> list:
    """F(t) for every t, with ``models`` the chain's ``_partition_models``
    and ``kernel(model, t)`` the diagonal kernel of a partition's model."""
    rep = build_spinor_rep(chain[0].d)
    c0 = clifford_quantize(rep, chain[0].prime)
    values = []
    for t in t_sequence:
        acc = 0.0 + 0.0j
        for coeff, model in models:
            acc += coeff * supertrace(rep, c0 @ kernel(model, t))
        values.append(_prefactor(chain, t) * acc)
    return values


def localization_value(chain, t: float, truncation: int, x=None) -> complex:
    """The deterministic localization functional at one time and point.

    Uses the guarded spectral oracle, so a truncation whose tail estimate
    exceeds 1e-10 raises ValueError.
    """
    chain = tuple(chain)
    x = np.zeros(chain[0].d) if x is None else np.asarray(x, dtype=float)
    return _functionals(
        chain, _partition_models(chain), (t,),
        lambda model, t: spectral_phi_kernel(model, t, x, x, truncation),
    )[0]


@dataclass(frozen=True)
class LocalizationResult:
    extrapolated: complex
    target: complex
    sweep: tuple  # rows of (t, value)
    mc_check: dict | None

    @property
    def relative_error(self) -> float:
        scale = max(abs(self.target), 1e-300)
        return abs(self.extrapolated - self.target) / scale


def localization_check(
    chain,
    t_sequence=(0.8, 0.4),
    truncation: int = 14,
    mc_paths: int = 0,
    mc_steps: int = 256,
    seed: int = 0,
    richardson_order: float = 1.0,
) -> LocalizationResult:
    """Extrapolated flat-model localization value against the h-map target.

    With ``mc_paths`` > 0, the first grid time is re-evaluated through the
    Feynman-Kac path estimator and compared with the spectral value at the
    same truncation: ``z`` is the discrepancy beyond the spectral value's
    truncation-tail bound (``tail_bound``), in standard errors.
    """
    chain = tuple(chain)
    d = chain[0].d
    for w in chain:
        if w.prime.n != d or w.doubleprime.n != d:
            raise ValueError("chain forms must share the model dimension")
    x = np.zeros(d)
    models = _partition_models(chain)
    values = _functionals(
        chain, models, t_sequence,
        lambda model, t: spectral_phi_kernel(model, t, x, x, truncation),
    )
    extrapolated = richardson(values, richardson_order)
    target = localization_target(chain, d, volume=1.0)

    mc_check = None
    if mc_paths > 0:
        t_mc = float(t_sequence[0])
        mc_value, mc_err, det_value, det_tail = _mc_localization(
            chain, models, t_mc, mc_paths, mc_steps, seed, truncation
        )
        z = float(_oracle_z(abs(mc_value - det_value), mc_err, det_tail, abs(det_value)))
        mc_check = {
            "t": t_mc,
            "mc_value": mc_value,
            "stderr": mc_err,
            "deterministic": det_value,
            "tail_bound": det_tail,
            "z": z,
        }
    return LocalizationResult(extrapolated, target, tuple(zip(t_sequence, values)), mc_check)


def small_time_limit(
    chain,
    t_sequence=(1.6, 0.8),
    truncation: int = 6,
    richardson_order: float = 1.0,
) -> LocalizationResult:
    """Extrapolate the K-truncated flat-model functional toward t = 0.

    Each value is exact for the model truncated to the modes |k|_inf <= K,
    with the supertrace over the whole torus: (2 pi)^d times the mode sum,
    with no tail check, since the truncated model is what is studied.
    ``t_sequence`` must decrease geometrically by factor 2.  The target is
    the h-map pairing with unit characteristic class and the full torus
    volume.
    """
    chain = tuple(chain)
    d = chain[0].d
    if any(t <= 0 for t in t_sequence):
        raise ValueError("t must be positive")
    x = np.zeros(d)
    volume = TWO_PI**d
    values = _functionals(
        chain, _partition_models(chain), t_sequence,
        lambda model, t: _truncated_kernel(model, t, x, x, truncation),
    )
    values = [volume * value for value in values]
    extrapolated = richardson(values, richardson_order)
    target = localization_target(chain, d, volume)
    return LocalizationResult(extrapolated, target, tuple(zip(t_sequence, values)), None)


def _mc_localization(chain, models, t, paths, steps, seed, truncation):
    """Monte Carlo version of the localization functional at one time, with
    its deterministic value at the same truncation."""
    d = chain[0].d
    rep = build_spinor_rep(d)
    prefactor = _prefactor(chain, t)
    x = np.zeros(d)
    c0 = clifford_quantize(rep, chain[0].prime)
    # crude error propagation through the weighted supertrace
    weights = np.abs(rep.chirality @ c0)
    acc_mc = 0.0 + 0.0j
    acc_det = 0.0 + 0.0j
    err_sq = 0.0
    det_tail = 0.0
    for i, (sign, model) in enumerate(models):
        res = fk_estimate(model, t, x, x, paths, steps, seed=seed + i)
        det_kernel = spectral_phi_kernel(model, t, x, x, truncation)
        coeff = prefactor * sign
        acc_mc += coeff * supertrace(rep, c0 @ res.estimate)
        acc_det += coeff * supertrace(rep, c0 @ det_kernel)
        err_sq += (abs(coeff) * float(np.sum(weights * res.stderr))) ** 2
        det_tail += abs(coeff) * float(np.sum(weights)) * _truncation_tail(
            model, t, truncation
        )
    return acc_mc, float(np.sqrt(err_sq)), acc_det, det_tail
