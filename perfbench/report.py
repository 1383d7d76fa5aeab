"""Timed passes, traced pass, metrics and the printed result of one run."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from . import inputs as gen
from .trace import LAYER_MODULES, Recorder, summarize
from .workloads import Check

SETUP_SAMPLES = 3  # set-ups per run: this process plus fresh child processes
MIN_PASSES = 3  # untraced passes per run, whatever --seconds allows
# below MIN_PASSES, no pass starts that is expected to end after this many
# seconds, so that a run on a contended host still ends within its time limit
PASS_BUDGET_S = 100.0
CHILD_TIMEOUT_S = 170


# --- measurement -----------------------------------------------------------------


def _run_pass(wl, recorder=None):
    """One pass over the job list; returns (timed seconds, job -> (digest, data))."""
    raws = []
    wall = 0.0
    for job in wl.jobs:
        if recorder is not None:
            recorder.job = job.name
        start = time.perf_counter()
        raws.append(job.run())
        wall += time.perf_counter() - start
    if recorder is not None:
        recorder.job = None
    return wall, {job.name: job.collect(raw) for job, raw in zip(wl.jobs, raws)}


def _repeat_checks(first, collected, label):
    return [
        Check(name, f"digest_repeats.{label}", digest == first[name][0])
        for name, (digest, _data) in collected.items()
    ]


def _setup_children(script, args) -> list:
    samples = []
    argv = [sys.executable, script, "--setup-only", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _observers(recorder: Recorder):
    """Counts taken at the span boundaries."""

    def expm(counts, m):
        counts["linalg.expm.max_dim"] = max(counts["linalg.expm.max_dim"], m.shape[0])

    def kernel(counts, model, t, x, y, truncation):
        counts["spectral_phi_kernel.modes"] += (2 * truncation + 1) ** model.d

    def simulate(counts, model, x, y, t, steps, rng, n_paths, orders=None):
        counts["engine.path_steps"] += steps * n_paths

    def levy(counts, omega, d, paths, steps, seed=0, weight=1.0):
        counts["levy.paths"] += paths

    recorder.observe("linalg.expm", expm)
    recorder.observe("stochastic_mc.model.spectral_phi_kernel", kernel)
    recorder.observe("stochastic_mc.engine.simulate_functionals", simulate)
    recorder.observe("stochastic_mc.levy.levy_area_estimate", levy)


def _another_pass(passes, elapsed: float, seconds: float) -> bool:
    if not passes:
        return True
    limit = PASS_BUDGET_S if len(passes) < MIN_PASSES else seconds
    return elapsed + statistics.median(passes) <= limit


def measure(wl, args, setup_s: float, nproc: int, script: str) -> dict:
    """Untraced passes while the next one is expected to end within
    ``args.seconds`` (at least MIN_PASSES within PASS_BUDGET_S), then the
    traced pass and the worker comparison, then the checks of the first
    pass's outputs."""
    checks = []
    passes = []
    first = None
    start = time.perf_counter()
    while _another_pass(passes, time.perf_counter() - start, args.seconds):
        wall, collected = _run_pass(wl)
        passes.append(wall)
        if first is None:
            first = collected
        else:
            checks += _repeat_checks(first, collected, "untraced")
    # the peak of the timed passes, before the untimed work below
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = None
    if args.trace:
        recorder = Recorder()
        _observers(recorder)
        recorder.install()
        try:
            traced_wall, collected = _run_pass(wl, recorder)
        finally:
            recorder.remove()
        checks += _repeat_checks(first, collected, "traced")
        traced = {"wall": traced_wall, "recorder": recorder}

    workers = None
    if wl.workers_run is not None:
        times, digests = {}, {}
        for n_workers in (1, 2):
            t0 = time.perf_counter()
            digests[n_workers], chunks = wl.workers_run(n_workers)
            times[n_workers] = time.perf_counter() - t0
        checks.append(Check("fk.workers", "digest_1_vs_2_workers",
                            digests[1] == digests[2] and chunks >= 2, detail=f"{chunks} chunks"))
        workers = {"seconds": times, "speedup": times[1] / times[2]}

    data_by_job = {name: data for name, (_digest, data) in first.items()}
    for job in wl.jobs:
        checks += job.checks(data_by_job[job.name])
    if wl.cross_checks is not None:
        checks += wl.cross_checks(data_by_job)

    setup_samples = [setup_s] if args.trace else [setup_s] + _setup_children(script, args)
    return {
        "passes": passes,
        "setup_samples": setup_samples,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "traced": traced,
        "workers": workers,
        "machine": machine(nproc),
    }


# --- metrics ----------------------------------------------------------------------


def end_to_end(result) -> dict:
    return {
        "wall_s": (statistics.median(result["passes"]), "s"),
        "setup_s": (statistics.median(result["setup_samples"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def _cell_metrics(spans) -> dict:
    """ms per Phi_t call for each evaluator on each phi_grid cell."""
    out = {}
    for n, dim in gen.PHI_CELLS:
        cell = f"phi.n{n}_dim{dim}"
        evaluators = ("fermionic", "ode") + (("quadrature",) if gen.quadrature_joins(n, dim) else ())
        for ev in evaluators:
            total = sum(
                end - start
                for _sid, name, start, end, _parent, job in spans
                if name == f"phi_core.phi_{ev}" and job is not None
                and (job == cell or job.startswith(cell + "."))
            )
            out[f"phi_core.ms_per_phi.{ev}.n{n}_dim{dim}"] = (1e3 * total, "ms")
    return out


def per_layer(result) -> dict:
    recorder = result["traced"]["recorder"]
    spans = recorder.spans
    counts = recorder.counts
    summ = summarize(spans)

    def self_s(name):
        return summ.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summ.get(name, {}).get("calls", 0)

    def total_s(name):
        return summ.get(name, {}).get("total_s", 0.0)

    def per(num, den, scale):
        return scale * num / den if den else 0.0

    def layer_self(module):
        prefixes = (module + ".",) + (("acceptance.digest_of",) if module == "jsonio" else ())
        return sum((rec["self_s"] for name, rec in summ.items() if name.startswith(prefixes)), 0.0)

    kernel = "stochastic_mc.model.spectral_phi_kernel"
    modes = counts["spectral_phi_kernel.modes"]
    path_steps = counts["engine.path_steps"]
    levy_paths = counts["levy.paths"]
    m = {
        "linalg.expm.calls": (calls("linalg.expm"), "count"),
        "linalg.expm.self_s": (self_s("linalg.expm"), "s"),
        "linalg.expm.max_dim": (counts["linalg.expm.max_dim"], "count"),
        "linalg.hermitian.calls": (calls("linalg.hermitian"), "count"),
        "linalg.hermitian.self_s": (self_s("linalg.hermitian"), "s"),
        "linalg.herm_exp.self_s": (self_s("linalg.herm_exp"), "s"),
        "grassmann.theta_hat_matrix.self_s": (self_s("grassmann.theta_hat_matrix"), "s"),
        "phi_core.build_lift.self_s": (self_s("phi_core.build_lift"), "s"),
        "phi_core.phi_fermionic.calls": (calls("phi_core.phi_fermionic"), "count"),
        "phi_core.phi_fermionic.self_s": (self_s("phi_core.phi_fermionic"), "s"),
        "phi_core.phi_ode.self_s": (self_s("phi_core.phi_ode"), "s"),
        "phi_core.phi_quadrature.self_s": (self_s("phi_core.phi_quadrature"), "s"),
        "clifford.clifford_quantize.calls": (calls("clifford.clifford_quantize"), "count"),
        "clifford.clifford_quantize.self_s": (self_s("clifford.clifford_quantize"), "s"),
        "jlo.flat_localization_value.self_s": (self_s("jlo.flat_localization_value"), "s"),
        f"{kernel}.modes": (modes, "count"),
        f"{kernel}.self_s": (self_s(kernel), "s"),
        f"{kernel}.us_per_mode": (per(total_s(kernel), modes, 1e6), "us"),
        "stochastic_mc.model.TorusModel.calls": (calls("stochastic_mc.model.TorusModel"), "count"),
        "stochastic_mc.model.TorusModel.init_s": (total_s("stochastic_mc.model.TorusModel"), "s"),
        "stochastic_mc.localize.localization_value.self_s": (
            self_s("stochastic_mc.localize.localization_value"), "s"),
        "stochastic_mc.engine.path_steps": (path_steps, "count"),
        "stochastic_mc.engine.ns_per_path_step": (
            per(total_s("stochastic_mc.engine.simulate_functionals"), path_steps, 1e9), "ns"),
        "stochastic_mc.engine.simulate_functionals.self_s": (
            self_s("stochastic_mc.engine.simulate_functionals"), "s"),
        "stochastic_mc.engine.bmm.calls": (calls("stochastic_mc.engine.bmm"), "count"),
        "stochastic_mc.engine.bmm.self_s": (self_s("stochastic_mc.engine.bmm"), "s"),
        "stochastic_mc.engine.batch_expm.calls": (calls("stochastic_mc.engine.batch_expm"), "count"),
        "stochastic_mc.engine.batch_expm.self_s": (self_s("stochastic_mc.engine.batch_expm"), "s"),
        "stochastic_mc.engine.workers2_speedup": (
            result["workers"]["speedup"] if result["workers"] else 0.0, "ratio"),
        "stochastic_mc.bridge.sample_winding.self_s": (
            self_s("stochastic_mc.bridge.sample_winding"), "s"),
        "stochastic_mc.bridge.standard_bridge_increments.self_s": (
            self_s("stochastic_mc.bridge.standard_bridge_increments"), "s"),
        "stochastic_mc.levy.us_per_path": (
            per(total_s("stochastic_mc.levy.levy_area_estimate"), levy_paths, 1e6), "us"),
        "stochastic_mc.levy.exp_dense_batch.self_s": (
            self_s("stochastic_mc.levy.exp_dense_batch"), "s"),
    }
    for module in LAYER_MODULES:
        m[f"{module}.self_s"] = (layer_self(module), "s")
    m.update(_cell_metrics(spans))
    untraced = statistics.median(result["passes"])
    m["trace.overhead_frac"] = (result["traced"]["wall"] / untraced - 1.0, "ratio")
    checks = result["checks"]
    m["verify.err_over_tol"] = (max(c.ratio for c in checks), "ratio")
    m["verify.fail_frac"] = (sum(not c.passed for c in checks) / len(checks), "ratio")
    return m


# --- output -----------------------------------------------------------------------


def machine(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def emit(result, args, workdir: str):
    metrics = per_layer(result) if args.trace else end_to_end(result)
    checks = result["checks"]
    failed = [c for c in checks if not c.passed]
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": result["machine"],
        "pass_seconds": result["passes"],
        "setup_seconds": result["setup_samples"],
        "workers": result["workers"],
        "checks": [vars(c) for c in checks],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(workdir, exist_ok=True)
    if result["traced"] is not None:
        spans_path = os.path.join(workdir, f"spans-{tag}.jsonl.gz")
        result["traced"]["recorder"].write(spans_path)
        record["spans"] = spans_path
        record["traced_pass_seconds"] = result["traced"]["wall"]
    with open(os.path.join(workdir, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    passes = result["passes"]
    print(f"perfbench {tag}: {len(passes)} untraced passes, "
          f"wall_s median {statistics.median(passes):.4f} s over {len(passes)} samples "
          "(too few passes for a tail percentile)")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    worst = max(c.ratio for c in checks)
    print(f"checks: {len(checks)} attempted, {len(failed)} failed "
          f"(fail_frac {len(failed) / len(checks):.4g}), err_over_tol {worst:.4g}")
    for c in failed:
        print(f"FAILED {c.job} {c.name} ratio={c.ratio:.4g} {c.detail}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
