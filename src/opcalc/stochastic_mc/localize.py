"""Flat-model localization functional through the exact spectral mode sum.

Evaluates, deterministically and at the point x = 0 (homogeneity makes the
point irrelevant),

    F(t) = (t/2)^(-n/2 + sum_j deg(w_j')/2)
           * Str( sum_m (-2)^m sum_I c(w_0')
                  Phi^{D^2/2}_t(P(w_{I_1}), ..., P(w_{I_m}))(x, x) )

with the kernels of the flat-torus spin model, extrapolates t -> 0 along
the line through the last two times of the grid (``jlo.richardson``; the
two must differ), and compares against the localization target with unit
characteristic class.  The partition sum is ``jlo.partition_blocks``, the
assembly ``chern_eval`` uses, so partitions with a vanishing block are
dropped; one spin-torus model per surviving partition is built once per
call.  The spin-torus models have
no connection and no potential, so H_k = |k|^2/2 is scalar and each kernel
is the factorised moment sum of ``model._truncated_kernel`` (a model with a
connection or a non-scalar potential would take its per-mode
``phi_core.phi_block`` sum).  The three entry points share one body: models,
F(t) per time, Richardson, target.  ``localization_check`` (``opcalc
localize``) uses the spectral oracle, which rejects truncations whose
torus-tail estimate exceeds 1e-10, and optionally cross-checks the first
grid time against the Monte Carlo path estimator.  ``small_time_limit``
(``opcalc jlo``) gives exact values for the K-truncated model with the
supertrace over the whole torus, (2 pi)^d times the unguarded mode sum, so
(2 pi)^d times ``localize`` up to truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..clifford import build_spinor_rep, clifford_quantize, supertrace
from ..jlo import localization_target, partition_blocks, richardson
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


def _prefactor(chain, t: float) -> float:
    n = len(chain) - 1
    degs = [w.prime.pure_degree() for w in chain]
    return (t / 2.0) ** (-n / 2.0 + sum(degs) / 2.0)


def _partition_models(chain) -> list:
    """[((-2)^m, spin-torus model), ...] over ``jlo.partition_blocks``.

    D = sum_m c(e_m) d_m, so a singleton's symbol coefficients are the
    graded commutators S^m = [c(e_m), c(w_j')].  A partition's model carries
    one perturbation per block, in order; n = 0 gives the unperturbed model
    with coefficient 1.  The models do not depend on t.
    """
    d = chain[0].d
    rep = build_spinor_rep(d)
    return [
        ((-2.0) ** m, spin_torus_model(d, tuple(
            PerturbationSpec(block[:-1], block[-1]) for block in blocks
        )))
        for m, blocks in partition_blocks(chain, rep.gammas, partial(clifford_quantize, rep))
    ]


def _functional(chain, rep, c0, models, kernels, t):
    """F(t) from the partitions' diagonal kernels, and the Cauchy-Schwarz
    bound sum |prefactor coeff| ||c0||_F ||K||_F on the modulus of every
    partition term, the scale at which those terms cancel."""
    prefactor = _prefactor(chain, t)
    c0_norm = np.linalg.norm(c0)
    acc = 0.0 + 0.0j
    bound = 0.0
    for (coeff, _), kernel in zip(models, kernels):
        acc += coeff * supertrace(rep, c0 @ kernel)
        bound += abs(prefactor * coeff) * c0_norm * np.linalg.norm(kernel)
    return prefactor * acc, float(bound)


@dataclass(frozen=True)
class LocalizationResult:
    extrapolated: complex
    target: complex
    sweep: tuple  # rows of (t, value, Cauchy-Schwarz bound of the value)
    mc_check: dict | None

    @property
    def relative_error(self) -> float:
        """|extrapolated - target| relative to |target|, or, for a zero
        target, to the sweep's largest Cauchy-Schwarz bound."""
        scale = abs(self.target) or max(bound for _, _, bound in self.sweep)
        return abs(self.extrapolated - self.target) / max(scale, 1e-300)


def _localize(chain, t_sequence, kernel, truncation, volume=1.0, mc=None) -> LocalizationResult:
    """The body of every entry point: partition models; F(t) times
    ``volume`` per time, from the kernels ``kernel(model, t, x, x,
    truncation)`` at x = 0; Richardson through the last two times; the
    target.  ``mc`` = (paths, steps, seed) adds a Monte Carlo check of the
    first time."""
    chain = tuple(chain)
    d = chain[0].d
    if any(w.prime.n != d or w.doubleprime.n != d for w in chain):
        raise ValueError("chain forms must share the model dimension")
    if any(t <= 0 for t in t_sequence):
        raise ValueError("t must be positive")
    if len(t_sequence) > 1 and t_sequence[-1] == t_sequence[-2]:
        raise ValueError("the last two times must differ")
    x = np.zeros(d)
    rep = build_spinor_rep(d)
    c0 = clifford_quantize(rep, chain[0].prime)
    models = _partition_models(chain)
    sweep = []
    for t in t_sequence:
        kernels = [kernel(model, t, x, x, truncation) for _, model in models]
        value, bound = _functional(chain, rep, c0, models, kernels, t)
        sweep.append((t, volume * value, volume * bound))
    mc_check = None
    if mc is not None:
        mc_check = _mc_check(chain, rep, c0, models, sweep[0], x, truncation, *mc)
    extrapolated = richardson(t_sequence, [value for _, value, _ in sweep])
    target = localization_target(chain, d, volume)
    return LocalizationResult(extrapolated, target, tuple(sweep), mc_check)


def localization_value(chain, t: float, truncation: int) -> complex:
    """The deterministic localization functional at one time.

    Uses the guarded spectral oracle, so a truncation whose tail estimate
    exceeds 1e-10 raises ValueError.
    """
    return _localize(chain, (t,), spectral_phi_kernel, truncation).sweep[0][1]


def localization_check(
    chain,
    t_sequence=(0.8, 0.4),
    truncation: int = 14,
    mc_paths: int = 0,
    mc_steps: int = 256,
    seed: int = 0,
) -> LocalizationResult:
    """Extrapolated flat-model localization value against the h-map target.

    With ``mc_paths`` > 0, the first grid time is re-evaluated through the
    Feynman-Kac path estimator and compared with the sweep's spectral value
    there: ``z`` is the discrepancy beyond that value's truncation-tail
    bound (``tail_bound``), in standard errors floored at 1e-12 of its
    Cauchy-Schwarz bound.
    """
    return _localize(chain, t_sequence, spectral_phi_kernel, truncation,
                     mc=(mc_paths, mc_steps, seed) if mc_paths > 0 else None)


def small_time_limit(chain, t_sequence=(1.6, 0.8), truncation: int = 6) -> LocalizationResult:
    """Extrapolate the K-truncated flat-model functional toward t = 0.

    Each value is exact for the model truncated to the modes |k|_inf <= K,
    with the supertrace over the whole torus: (2 pi)^d times the mode sum,
    with no tail check, since the truncated model is what is studied.  The
    target is the h-map pairing with unit characteristic class and the full
    torus volume.
    """
    chain = tuple(chain)
    return _localize(chain, t_sequence, _truncated_kernel, truncation, volume=TWO_PI ** chain[0].d)


def _mc_check(chain, rep, c0, models, row, x, truncation, paths, steps, seed) -> dict:
    """The functional at the sweep row (t, value, bound) from one path
    estimate per partition model, against that row's value; partition i
    draws from Philox stream i of ``seed``."""
    t, det_value, det_bound = row
    results = [
        fk_estimate(model, t, x, x, paths, steps, seed=seed, stream=i)
        for i, (_, model) in enumerate(models)
    ]
    mc_value, _ = _functional(chain, rep, c0, models, [res.estimate for res in results], t)
    prefactor = _prefactor(chain, t)
    # crude error propagation through the weighted supertrace
    weights = np.abs(rep.chirality @ c0)
    err_sq = 0.0
    det_tail = 0.0
    for (sign, model), res in zip(models, results):
        coeff = abs(prefactor * sign)
        err_sq += (coeff * float(np.sum(weights * res.stderr))) ** 2
        det_tail += coeff * float(np.sum(weights)) * _truncation_tail(model, t, truncation)
    mc_err = float(np.sqrt(err_sq))
    z = _oracle_z(abs(mc_value - det_value), mc_err, det_tail, det_bound)
    return {"t": float(t), "mc_value": mc_value, "stderr": mc_err, "deterministic": det_value,
            "tail_bound": det_tail, "z": float(z)}
