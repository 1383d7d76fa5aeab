"""Seeded inputs for the three workloads, written as the JSON configs opcalc reads.

Everything here uses numpy only, never opcalc, so generating inputs costs
the same on every version of the program.  The same seed gives the same
files byte for byte.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

TWO_PI = 2.0 * np.pi

# (n, dim) cells of phi_grid.  Quadrature joins only where its node tensor
# nodes**n * dim**2 stays within QUAD_BUDGET; (3, 16) alone would take ~10 s.
PHI_CELLS = ((1, 2), (1, 8), (1, 32), (2, 2), (2, 8), (2, 32), (3, 2), (3, 8), (3, 32), (4, 8))
PHI_T = 0.5
QUAD_NODES = 32
QUAD_BUDGET = 1 << 18
ODE_STEPS = 2048


def quadrature_joins(n: int, dim: int) -> bool:
    return QUAD_NODES**n * dim * dim <= QUAD_BUDGET


def matrix_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(v) for v in m.real.ravel()],
        "im": [float(v) for v in m.imag.ravel()],
    }


def _form(terms) -> list:
    return [{"indices": list(idx), "re": float(c)} for idx, c in terms]


def _write(workdir: str, name: str, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _nonzero(rng, lo=0.5, hi=2.0) -> float:
    """Uniform magnitude in [lo, hi] with a random sign."""
    return float(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)))


# --- phi_grid ----------------------------------------------------------------


def _random_family(rng, n: int, dim: int) -> dict:
    """Nonnegative Hermitian H = G G*/dim and n complex Gaussian perturbations."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = g @ g.conj().T / dim
    h = 0.5 * (h + h.conj().T)
    perts = [
        (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(dim)
        for _ in range(n)
    ]
    return {"H": matrix_json(h), "P": [matrix_json(p) for p in perts], "t": PHI_T}


def phi_grid_inputs(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 1])
    return {
        (n, dim): _write(workdir, f"family_n{n}_dim{dim}.json", _random_family(rng, n, dim))
        for n, dim in PHI_CELLS
    }


# --- the criterion-9 and criterion-10 models ---------------------------------


def criterion9_model(with_perturbation: bool) -> dict:
    """d=2, r=2 model with connection, non-scalar potential and G-dressing."""
    a1 = np.array([[0.2j, 0.12 + 0.08j], [-0.12 + 0.08j, -0.16j]])
    a2 = np.array([[-0.08j, 0.16 - 0.04j], [-0.16 - 0.04j, 0.12j]])
    w = np.array([[0.5, 0.08 - 0.08j], [0.08 + 0.08j, 0.33]])
    s1 = np.array([[0.22, 0.08j], [-0.08j, -0.15]])
    s2 = np.array([[0.08, 0.15], [0.15, 0.19]])
    v = np.array([[0.3, 0.11 + 0.04j], [0.11 - 0.04j, -0.22]])
    model = {"d": 2, "r": 2, "A": [matrix_json(a1), matrix_json(a2)], "W": matrix_json(w)}
    model["perturbations"] = (
        [{"S": [matrix_json(s1), matrix_json(s2)], "V": matrix_json(v)}]
        if with_perturbation
        else []
    )
    return model


def criterion10_model() -> dict:
    """d=2, r=2 model with no connection and no potential, two perturbations."""
    s1 = np.array([[0.8, 0.0], [0.0, 0.6]])
    s2 = np.array([[0.5, 0.2], [0.2, 0.7]])
    v = np.array([[0.9, 0.1], [0.1, 0.7]])
    perts = [
        {"S": [matrix_json(s1), matrix_json(s2)], "V": matrix_json(v)},
        {"S": [matrix_json(0.7 * s2), matrix_json(0.9 * s1)], "V": matrix_json(0.8 * v)},
    ]
    return {"d": 2, "r": 2, "perturbations": perts}


# --- mode_oracle -------------------------------------------------------------

KERNEL_T = 0.5
KERNEL_K = 16
# K=3 (2401 modes) needs t=4 for the kernel's 1e-10 tail bound; K=6 at
# t=1.6 (28561 modes) would make one pass ~30 s
D4_T = 4.0
D4_K = 3
CHAIN_T_GRID = "1.6,0.8"


def mode_oracle_inputs(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 2])
    x = rng.uniform(0.0, TWO_PI, 2)
    y = rng.uniform(0.0, TWO_PI, 2)
    out = {"x": x.tolist(), "y": y.tolist()}
    for label, with_p in (("n0", False), ("n1", True)):
        out[f"model_{label}"] = _write(workdir, f"model_c9_{label}.json", criterion9_model(with_p))
    # the two d=2 spec chains, each scaled by seeded nonzero coefficients
    c0, c1, c2 = (_nonzero(rng) for _ in range(3))
    out["chain0"] = _write(
        workdir, "chain0.json", {"d": 2, "chain": [{"prime": _form([((1, 2), c0)])}]}
    )
    out["chain1"] = _write(
        workdir,
        "chain1.json",
        {"d": 2, "chain": [{"prime": _form([((1,), c1)])}, {"doubleprime": _form([((2,), c2)])}]},
    )
    # d=4, n=1 chain: w0' and w1'' of degree 2, w1' of degree 1
    pairs = list(itertools.combinations(range(1, 5), 2))
    w0 = [(p, rng.uniform(-1.0, 1.0)) for p in pairs]
    w1p = [((i,), rng.uniform(-1.0, 1.0)) for i in range(1, 5)]
    w1pp = [(p, rng.uniform(-1.0, 1.0)) for p in pairs]
    out["chain_d4"] = _write(
        workdir,
        "chain_d4.json",
        {"d": 4, "chain": [{"prime": _form(w0)}, {"prime": _form(w1p), "doubleprime": _form(w1pp)}]},
    )
    return out


# --- path_mc -----------------------------------------------------------------

FK_T = 0.5
# (paths, steps): twice the paths at which the CLI's 3 SE gate was sized, so
# the benchmark's 3 sqrt(2) SE gate allows the same absolute error
FK_RUNS = {"n0": (32768, 128), "n1": (8192, 1024)}
WORKERS_RUN = (32768, 32)  # two chunks, so two workers have work to share
MOMENT_NU = (0, 1)
MOMENT_T_GRID = (0.05, 0.1, 0.2, 0.4)
MOMENT_RUN = (16384, 64)
LEVY_D = 4
LEVY_RUN = (32768, 128)


def path_mc_inputs(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 3])
    # diagonal points: the step bias of the estimator stays well inside its
    # standard error there at these path and step counts
    x = rng.uniform(0.0, TWO_PI, 2).tolist()
    out = {"mc_seed": int(rng.integers(0, 2**31))}
    for label, with_p in (("n0", False), ("n1", True)):
        cfg = criterion9_model(with_p)
        cfg.update({"t": FK_T, "x": x, "y": x})
        out[f"fk_{label}"] = _write(workdir, f"fk_{label}.json", cfg)
    out["model_c10"] = _write(workdir, "model_c10.json", criterion10_model())
    d = LEVY_D
    omega = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            terms = [(p, rng.uniform(-0.3, 0.3)) for p in itertools.combinations(range(1, d + 1), 2)]
            omega[i][j] = _form(terms)
            omega[j][i] = _form([(p, -c) for p, c in terms])
    out["levy"] = _write(workdir, "levy_d4.json", {"d": d, "omega": omega})
    return out


GENERATORS = {
    "phi_grid": phi_grid_inputs,
    "mode_oracle": mode_oracle_inputs,
    "path_mc": path_mc_inputs,
}
