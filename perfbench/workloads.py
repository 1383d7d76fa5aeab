"""Job lists, warm-up calls and output checks of the three workloads.

A job drives a documented ``opcalc`` subcommand in-process through
``opcalc.cli.main(argv)``, or calls the public function directly where no
subcommand computes the quantity.  Program functions are looked up on their
modules at call time, so the trace recorder's wrappers are seen when they are
installed.  Every output is checked after the timed passes; the checks use
oracles that do not share the route under test:

* phi_grid     pairwise agreement of the Phi_t evaluators (1e-6 relative);
* mode_oracle  a batched eigenbasis divided-difference oracle for the
               spectral kernels, the per-mode and dense localization routes
               against each other and the localization target, and the
               flat-model closed form for the d=4 chain;
* path_mc      the spectral oracle (4.24 SE, 2 % relative), the exact moment
               exponent and the exact Levy-area law.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

import opcalc.cli
import opcalc.clifford
import opcalc.jsonio
import opcalc.stochastic_mc.engine
import opcalc.stochastic_mc.levy
import opcalc.stochastic_mc.localize
import opcalc.stochastic_mc.model

from . import inputs as gen

TWO_PI = 2.0 * np.pi


@dataclass
class Check:
    job: str
    name: str
    passed: bool
    ratio: float = 0.0  # error over tolerance; 0 for exact checks
    detail: str = ""


@dataclass
class Job:
    """One timed call.  ``run`` returns a raw result; ``collect`` turns it
    (untimed) into ``(digest, data)``; ``checks`` verifies ``data``."""

    name: str
    run: object
    collect: object
    checks: object


@dataclass
class Workload:
    name: str
    jobs: list
    warmup: object
    cross_checks: object = None  # data-by-job -> [Check]
    workers_run: object = None  # workers -> (digest, chunks) of an FK estimate


# --- helpers -------------------------------------------------------------------


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _matrix(obj) -> np.ndarray:
    return (np.asarray(obj["re"]) + 1j * np.asarray(obj["im"])).reshape(obj["rows"], obj["cols"])


def _out(workdir: str, job: str) -> str:
    return os.path.join(workdir, f"{job}.report.json")


def _cli_job(name: str, argv: list, out_path: str, checks=None, replaced=()) -> Job:
    """``replaced`` names CLI verdicts that ``checks`` replaces with a check of
    its own; the exit code may then be the CLI's numeric-failure code when
    those are the only false verdicts."""
    argv = list(argv) + ["--out", out_path]

    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = opcalc.cli.main(argv)
        return code, sink.getvalue()

    def collect(raw):
        code, text = raw
        report = None
        if code in (0, 1) and os.path.exists(out_path):
            with open(out_path) as fh:
                report = json.load(fh)
            os.remove(out_path)
        digest = report["results_digest"] if report else f"exit {code}: {text[-200:]}"
        return digest, {"code": code, "report": report, "text": text}

    def all_checks(data):
        """Exit code, every verdict not replaced, and ``checks``; a check named
        after a verdict adds its error ratio to that verdict instead of
        repeating it."""
        report = data["report"]
        false = {v for v, ok in report["verdicts"].items() if not ok} if report else None
        exit_ok = data["code"] == 0 or (
            data["code"] == opcalc.cli.EXIT_NUMERIC
            and report is not None
            and false <= set(replaced)
        )
        out = {"exit": Check(name, "exit_code_0", exit_ok, detail=data["text"][-300:])}
        if report is None:
            return list(out.values())
        for verdict, ok in sorted(report["verdicts"].items()):
            if verdict not in replaced:
                out[f"verdict.{verdict}"] = Check(name, f"verdict.{verdict}", bool(ok))
        for check in checks(name, report) if checks is not None else ():
            verdict = out.get(check.name)
            check.passed = check.passed and (verdict is None or verdict.passed)
            out[check.name] = check
        return list(out.values())

    return Job(name, run, collect, all_checks)


def _direct_job(name: str, run, checks) -> Job:
    def collect(raw):
        return _digest(raw), raw

    return Job(name, run, collect, lambda data: checks(name, data))


def _ratio_check(job: str, name: str, err: float, tol: float) -> Check:
    ratio = float(err) / tol
    return Check(job, name, bool(ratio <= 1.0), ratio, f"{err:.3e} vs {tol:.1e}")


# --- phi_grid ------------------------------------------------------------------

PHI_TOL = 1e-6


def _phi_deviation(values: dict) -> float:
    """Worst pairwise relative deviation, with the CLI's normalisation."""
    scale = max(np.linalg.norm(v) for v in values.values())
    names = sorted(values)
    return max(
        np.linalg.norm(values[a] - values[b]) / max(scale, 1e-300)
        for a, b in itertools.combinations(names, 2)
    )


def _phi_values(report) -> dict:
    return {
        key: _matrix(res["value"])
        for key, res in report["results"].items()
        if key in ("fermionic", "quadrature", "ode")
    }


def _evaluators_agree(job, report):
    dev = _phi_deviation(_phi_values(report))
    return [_ratio_check(job, "verdict.cross_method_1e-6", dev, PHI_TOL)]


def phi_grid(seed: int, workdir: str, cells=gen.PHI_CELLS) -> Workload:
    families = gen.phi_grid_inputs(seed, workdir)
    steps = ["--steps", str(gen.ODE_STEPS)]
    jobs = []
    for n, dim in cells:
        cfg = families[(n, dim)]
        base = f"phi.n{n}_dim{dim}"
        if gen.quadrature_joins(n, dim):
            argv = ["phi", "--config", cfg, "--method", "all", "--nodes", str(gen.QUAD_NODES)]
            jobs.append(_cli_job(base, argv + steps, _out(workdir, base), _evaluators_agree))
        else:
            for method in ("fermionic", "ode"):
                argv = ["phi", "--config", cfg, "--method", method]
                name = f"{base}.{method}"
                extra = steps if method == "ode" else []
                jobs.append(_cli_job(name, argv + extra, _out(workdir, name)))

    def cross_checks(data_by_job):
        out = []
        for n, dim in cells:
            base = f"phi.n{n}_dim{dim}"
            pair = [data_by_job.get(f"{base}.{m}") for m in ("fermionic", "ode")]
            if pair[0] is None or any(p["report"] is None for p in pair):
                continue
            values = {}
            for p in pair:
                values.update(_phi_values(p["report"]))
            dev = _phi_deviation(values)
            out.append(_ratio_check(base, "fermionic_vs_ode", dev, PHI_TOL))
        return out

    return Workload("phi_grid", jobs, jobs[0].run, cross_checks)


# --- mode_oracle ---------------------------------------------------------------

KERNEL_TOL = 1e-9
ROUTE_TOL = 1e-6
D4_TOL = 1e-9


def kernel_reference(cfg: dict, t: float, x, y, truncation: int) -> np.ndarray:
    """Fourier kernel of Phi_t for n <= 1 from one batched eigh over modes.

    In the eigenbasis of H_k, Phi_t(P)_ij = P_ij (e^{-t l_j} - e^{-t l_i}) /
    (l_i - l_j), and t e^{-t l_i} on the diagonal.
    """
    d, r = cfg["d"], cfg["r"]
    conn = [_matrix(a) for a in cfg.get("A", [])] or [np.zeros((r, r))] * d
    pot = _matrix(cfg["W"]) if "W" in cfg else np.zeros((r, r))
    ks = np.array(list(itertools.product(range(-truncation, truncation + 1), repeat=d)), float)
    eye = np.eye(r)
    factors = [1j * ks[:, m, None, None] * eye + conn[m] for m in range(d)]
    h = sum(0.5 * np.conj(np.swapaxes(f, 1, 2)) @ f for f in factors) + pot
    lam, u = np.linalg.eigh(h)
    decay = np.exp(-t * lam)
    if cfg.get("perturbations"):
        (spec,) = cfg["perturbations"]
        p = _matrix(spec["V"]) + sum(_matrix(s) @ f for s, f in zip(spec["S"], factors))
        pt = np.conj(np.swapaxes(u, 1, 2)) @ p @ u
        delta = lam[:, :, None] - lam[:, None, :]
        safe = np.where(delta == 0.0, 1.0, delta)
        dd = np.where(delta == 0.0, t, -np.expm1(-t * delta) / safe)
        inner = pt * dd * decay[:, None, :]
    else:
        inner = np.zeros_like(h)
        idx = np.arange(r)
        inner[:, idx, idx] = decay
    phase = np.exp(1j * ks @ (np.asarray(x) - np.asarray(y)))
    blocks = u @ inner @ np.conj(np.swapaxes(u, 1, 2))
    return np.einsum("m,mab->ab", phase, blocks) / TWO_PI**d


def flat_closed_form(chain, t: float, truncation: int):
    """Localization value of an n = 1 chain on the flat spin model.

    H_k = |k|^2/2 is scalar, so Phi_t(P_k) = t e^{-t l_k} P_k and the terms
    odd in k cancel at x = y, leaving
    (t/2)^e (-2) t (2 pi)^-d G^d Str(c(w0') c(w1'')) with G = sum_j e^{-t j^2/2}
    and e = -1/2 + (deg w0' + deg w1')/2.  Returns (value, scale) with
    |value| <= scale."""
    d = chain[0].d
    rep = opcalc.clifford.build_spinor_rep(d)
    c0 = opcalc.clifford.clifford_quantize(rep, chain[0].prime)
    c1 = opcalc.clifford.clifford_quantize(rep, chain[1].doubleprime)
    js = np.arange(-truncation, truncation + 1)
    power = -0.5 + (chain[0].prime.pure_degree() + chain[1].prime.pure_degree()) / 2.0
    gauss = np.sum(np.exp(-t * js**2 / 2.0)) ** d
    coeff = (t / 2.0) ** power * (-2.0) * t * gauss / TWO_PI**d
    value = coeff * opcalc.clifford.supertrace(rep, c0 @ c1)
    return value, abs(coeff) * np.linalg.norm(c0) * np.linalg.norm(c1)


def mode_oracle(seed: int, workdir: str, with_d4: bool = True) -> Workload:
    inp = gen.mode_oracle_inputs(seed, workdir)
    x, y = np.array(inp["x"]), np.array(inp["y"])
    jobs = []
    for label in ("n0", "n1"):
        path = inp[f"model_{label}"]

        def run(path=path):
            model = opcalc.jsonio.torus_model_from_json(opcalc.jsonio.load_config(path))
            return opcalc.stochastic_mc.model.spectral_phi_kernel(
                model, gen.KERNEL_T, x, y, gen.KERNEL_K
            )

        def check(job, value, path=path):
            with open(path) as fh:
                ref = kernel_reference(json.load(fh), gen.KERNEL_T, x, y, gen.KERNEL_K)
            err = np.abs(value - ref).max() / np.abs(ref).max()
            return [_ratio_check(job, "eigen_oracle", err, KERNEL_TOL)]

        jobs.append(_direct_job(f"kernel.{label}", run, check))

    def within_target(job, report):
        err = report["results"]["relative_error"]
        return [_ratio_check(job, "verdict.within_2_percent", err, 0.02)]

    for route, k in (("localize", "14"), ("jlo", "6")):
        for chain in ("chain0", "chain1"):
            argv = [route, "--config", inp[chain], "--t-grid", gen.CHAIN_T_GRID, "--truncation", k]
            name = f"{route}.{chain}"
            jobs.append(_cli_job(name, argv, _out(workdir, name), within_target))

    if with_d4:
        chain_path = inp["chain_d4"]

        def run_d4():
            _, chain = opcalc.jsonio.chain_from_json(opcalc.jsonio.load_config(chain_path))
            return opcalc.stochastic_mc.localize.localization_value(chain, gen.D4_T, gen.D4_K)

        def check_d4(job, value):
            _, chain = opcalc.jsonio.chain_from_json(opcalc.jsonio.load_config(chain_path))
            ref, scale = flat_closed_form(chain, gen.D4_T, gen.D4_K)
            return [_ratio_check(job, "closed_form", abs(value - ref), D4_TOL * scale)]

        jobs.append(_direct_job("localization.d4", run_d4, check_d4))

    def cross_checks(data_by_job):
        """Dense (jlo, whole-torus supertrace) and per-mode (localize, per
        point) routes compute the same functional up to the torus volume."""
        out = []
        for chain in ("chain0", "chain1"):
            dense, per_mode = (data_by_job[f"{r}.{chain}"]["report"] for r in ("jlo", "localize"))
            if dense is None or per_mode is None:
                continue
            worst = 0.0
            for row, point in zip(dense["results"]["rows"], per_mode["results"]["sweep"]):
                a = complex(row["value_re"], row["value_im"]) / TWO_PI**2
                b = complex(point["value"]["re"], point["value"]["im"])
                worst = max(worst, abs(a - b) / abs(b))
            out.append(_ratio_check(f"routes.{chain}", "dense_vs_per_mode", worst, ROUTE_TOL))
        return out

    return Workload("mode_oracle", jobs, jobs[0].run, cross_checks)


# --- path_mc -------------------------------------------------------------------

FK_REL_TOL = 0.02
# The CLI's 3 SE verdict fails up to 0.27 % of unbiased estimates per entry,
# which a benchmark run on dozens of seeds trips.  FK_RUNS has twice the paths
# of the 3 SE sizing, so 3 sqrt(2) new SE is the absolute error 3 SE allowed
# there, and an unbiased entry exceeds it with probability at most 2.2e-5.
FK_Z_GATE = 3.0 * np.sqrt(2.0)
MOMENT_TOL = 0.15


def _fk_oracle(job, report):
    """2 % relative agreement on the entries above 5 % of the oracle norm,
    and the CLI's z-scores within FK_Z_GATE standard errors."""
    est = _matrix(report["results"]["estimate"])
    oracle = _matrix(report["results"]["oracle"])
    z = np.abs(_matrix(report["results"]["z_scores"]))
    big = np.abs(oracle) > 0.05 * np.linalg.norm(oracle, 2)
    rel = (np.abs(est - oracle)[big] / np.abs(oracle)[big]).max()
    gate = _ratio_check(job, "within_z_gate", z.max(), FK_Z_GATE)
    gate.detail += f"; CLI within_3_stderr={report['verdicts']['within_3_stderr']}"
    return [_ratio_check(job, "relative_2pct", rel, FK_REL_TOL), gate]


def path_mc(seed: int, workdir: str, scale: float = 1.0) -> Workload:
    """``scale`` < 1 shrinks the jobs' path counts (tests only)."""
    inp = gen.path_mc_inputs(seed, workdir)
    mc_seed = inp["mc_seed"]

    def paths(n):
        return max(256, int(n * scale))

    jobs = []
    for label in ("n0", "n1"):
        n_paths, steps = gen.FK_RUNS[label]
        argv = [
            "fk", "--config", inp[f"fk_{label}"], "--paths", str(paths(n_paths)),
            "--steps", str(steps), "--truncation", str(gen.KERNEL_K),
            "--workers", "1", "--seed", str(mc_seed),
        ]
        jobs.append(_cli_job(f"fk.{label}", argv, _out(workdir, f"fk.{label}"), _fk_oracle,
                             replaced=("within_3_stderr",)))

    def run_moment():
        model = opcalc.jsonio.torus_model_from_json(opcalc.jsonio.load_config(inp["model_c10"]))
        n_paths, steps = gen.MOMENT_RUN
        slope, _ = opcalc.stochastic_mc.engine.moment_scaling_probe(
            model, gen.MOMENT_NU, 2.0, gen.MOMENT_T_GRID, paths(n_paths), steps, seed=mc_seed
        )
        return slope

    def check_moment(job, slope):
        # E|I_m(t)|^b grows like t^{(b/2)(m + |nu|)} for a pure pattern nu
        expected = 0.5 * 2.0 * (len(gen.MOMENT_NU) + sum(gen.MOMENT_NU))
        return [_ratio_check(job, "slope", abs(slope - expected), MOMENT_TOL)]

    jobs.append(_direct_job("moment.c10", run_moment, check_moment))

    def load_omega():
        cfg = opcalc.jsonio.load_config(inp["levy"])
        d = cfg["d"]
        omega = [
            [opcalc.jsonio.form_from_json(e, d) for e in row] for row in cfg["omega"]
        ]
        return d, omega

    def run_levy():
        d, omega = load_omega()
        n_paths, steps = gen.LEVY_RUN
        res = opcalc.stochastic_mc.levy.levy_area_estimate(
            omega, d, paths(n_paths), steps, seed=mc_seed
        )
        return res.top_mean, res.top_stderr

    def check_levy(job, result):
        # the unit-weight accumulator follows the series at 2 Omega (exact law)
        d, omega = load_omega()
        doubled = [[2.0 * e for e in row] for row in omega]
        oracle = opcalc.clifford.a_hat_series(doubled, d).coefficient((1 << d) - 1)
        tol = 0.01 * max(1.0, abs(oracle))
        return [_ratio_check(job, "series_at_2omega_1pct", abs(result[0] - oracle), tol)]

    jobs.append(_direct_job("levy.d4", run_levy, check_levy))

    def warmup():
        argv = ["fk", "--config", inp["fk_n0"], "--paths", "256", "--steps", "16",
                "--truncation", str(gen.KERNEL_K), "--seed", str(mc_seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            opcalc.cli.main(argv + ["--out", _out(workdir, "warmup")])

    def workers_run(workers: int):
        """The n=1 FK estimate, straight from the engine; returns its digest
        and chunk count.  ``scale`` cuts steps, never paths, so the estimate
        always spans two chunks."""
        cfg = opcalc.jsonio.load_config(inp["fk_n1"])
        model = opcalc.jsonio.torus_model_from_json(cfg)
        w_paths, w_steps = gen.WORKERS_RUN
        res = opcalc.stochastic_mc.engine.fk_estimate(
            model, cfg["t"], np.array(cfg["x"]), np.array(cfg["y"]),
            w_paths, max(4, int(w_steps * scale)), seed=mc_seed, workers=workers,
        )
        chunks = -(-res.diagnostics["paths"] // res.diagnostics["chunk_size"])
        return _digest((res.estimate.tobytes(), res.stderr.tobytes())), chunks

    return Workload("path_mc", jobs, warmup, workers_run=workers_run)


BUILDERS = {"phi_grid": phi_grid, "mode_oracle": mode_oracle, "path_mc": path_mc}
