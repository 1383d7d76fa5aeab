"""Command-line front end.

Subcommands: phi, jlo, patodi, ahat, fk, levy-area, localize, bridge-test,
selftest.  Configs and reports are JSON, time sweeps also emit CSV; formats
are documented in docs/formats.md.  Exit codes: 0 all verdicts pass, 1 a
numeric verdict failed, 2 usage or schema error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import time

import numpy as np

from . import __version__, acceptance, clifford, phi_core
from .jsonio import (
    ConfigError,
    chain_from_json,
    curvature_from_json,
    family_from_json,
    matrix_to_json,
    point_from_json,
    read_config,
    torus_model_from_json,
    write_report,
)
from .stochastic_mc import localization_check, small_time_limit

EXIT_PASS, EXIT_NUMERIC, EXIT_USAGE = 0, 1, 2
# a time t must satisfy 0 < t <= _MAX_FLOAT: positive, finite, and not NaN
_MAX_FLOAT = sys.float_info.max


def _args_echo(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("func",)}


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_t_grid(text: str):
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError("--t-grid", "expected comma-separated reals") from None
    if not all(0 < v <= _MAX_FLOAT for v in vals):
        raise ConfigError("--t-grid", "need positive and finite times")
    if len(vals) > 1 and vals[-1] == vals[-2]:
        raise ConfigError("--t-grid", "the last two times must differ")
    return vals


def _count(value, cfg: dict, key: str, default: int, flag: str, minimum: int = 1,
           maximum: int | None = None) -> int:
    """An integer count of at least ``minimum`` (and at most ``maximum``):
    the command-line ``value`` if given, else the config's ``key``, else
    ``default``."""
    where = flag
    if value is None:
        value, where = cfg.get(key, default), f"config.{key}"
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(where, f"need an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(where, f"need an integer <= {maximum}, got {value!r}")
    return value


def _seed(value, cfg: dict) -> int:
    """The seed: the command-line ``value`` if given, else the config's
    ``seed``, else 0.  It is one unsigned 64-bit word of the path engine's
    Philox key, and every command takes seeds in that range."""
    return _count(value, cfg, "seed", 0, "--seed", minimum=0, maximum=2**64 - 1)


def _time(value, cfg: dict):
    """The positive and finite time t: the command-line ``value`` if given,
    else the config's ``t``, else 0.5."""
    where = "--t"
    if value is None:
        value, where = cfg.get("t", 0.5), "config.t"
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value <= _MAX_FLOAT:
        raise ConfigError(where, f"t must be positive and finite, got {value!r}")
    return value


# --- subcommand handlers ----------------------------------------------------
#
# Each handler returns (config echo, results, verdicts); selftest also returns
# its per-criterion seconds.  ``main`` times the call and writes the report.
# A --config command echoes the file's own text (``read_config``), the others
# their arguments.


def cmd_phi(args):
    cfg, echo = read_config(args.config)
    fam = family_from_json(cfg)
    t = _time(args.t, cfg)
    nodes = _count(args.nodes, {}, "nodes", 32, "--nodes", minimum=4)
    steps = _count(args.steps, {}, "steps", 4096, "--steps", minimum=16)
    methods = (
        ("fermionic", "quadrature", "ode") if args.method == "all" else (args.method,)
    )
    results = {}
    vals = {}
    for method in methods:
        if method == "fermionic":
            res = phi_core.phi_fermionic(fam, t)
        elif method == "quadrature":
            res = phi_core.phi_quadrature(fam, t, nodes)
        else:
            res = phi_core.phi_ode(fam, t, steps)
        vals[method] = res.value
        results[method] = {
            "t": t,
            "method": method,
            "value": matrix_to_json(res.value),
            "diagnostics": res.diagnostics,
        }
    verdicts = {}
    if len(methods) > 1:
        devs = acceptance.pairwise_relative_deviation(vals)
        results["pairwise_relative_deviation"] = devs
        verdicts["cross_method_1e-6"] = max(devs.values()) <= 1e-6
    return echo, results, verdicts


def cmd_jlo(args):
    cfg, echo = read_config(args.config)
    _, chain = chain_from_json(cfg)
    t_grid = _parse_t_grid(args.t_grid)
    # K = 0 keeps the one mode k = 0
    truncation = _count(args.truncation, {}, "K", 6, "--truncation", minimum=0)
    res = small_time_limit(chain, t_sequence=t_grid, truncation=truncation)
    rows = [
        {"chain": cfg.get("chain"), "t": t, "value_re": v.real, "value_im": v.imag}
        for t, v, _ in res.sweep
    ]
    results = {
        "rows": rows,
        "extrapolated": res.extrapolated,
        "target": res.target,
        "relative_error": res.relative_error,
    }
    verdicts = {"within_2_percent": res.relative_error <= 0.02}
    if args.csv:
        _write_csv(
            args.csv,
            ["t", "value_re", "value_im"],
            [(t, v.real, v.imag) for t, v, _ in res.sweep],
        )
    return echo, results, verdicts


def cmd_patodi(args):
    if args.d % 2 or args.d < 2:
        raise ConfigError("--d", "d must be a positive even integer")
    args.words = _count(args.words, {}, "words", 50, "--words")
    args.seed = _seed(args.seed, {})
    rep = clifford.build_spinor_rep(args.d)
    worst_vanish, worst_top = acceptance.patodi_residuals(
        rep, np.random.default_rng(args.seed), args.words
    )
    results = {
        "d": args.d,
        "chirality_sign": rep.sigma,
        "worst_vanishing": worst_vanish,
        "worst_top_residual": worst_top,
        "words": args.words,
    }
    verdicts = {
        "vanishing_1e-10": worst_vanish <= 1e-10,
        "top_identity_1e-10": worst_top <= 1e-10,
    }
    return _args_echo(args), results, verdicts


def cmd_ahat(args):
    cfg, echo = read_config(args.config)
    d, omega = curvature_from_json(cfg)
    series = clifford.a_hat_series(omega, d)
    results = {
        "coefficients": {
            format(mask, "b").zfill(d): {"re": c.real, "im": c.imag}
            for mask, c in sorted(series.coeffs.items())
        },
        "degree0": series.coefficient(0),
        "top": series.coefficient((1 << d) - 1),
    }
    verdicts = {"degree0_is_one": series.coefficient(0) == 1.0}
    return echo, results, verdicts


def cmd_fk(args):
    cfg, echo = read_config(args.config)
    model = torus_model_from_json(cfg)
    t = _time(args.t, cfg)
    x = point_from_json(cfg.get("x", [0.0] * model.d), model.d, "config.x")
    y = point_from_json(cfg.get("y", [0.0] * model.d), model.d, "config.y")
    paths = _count(args.paths, cfg, "paths", 20000, "--paths")
    steps = _count(args.steps, cfg, "steps", 256, "--steps")
    seed = _seed(args.seed, cfg)
    k = _count(args.truncation, cfg, "K", 14, "--truncation")
    workers = _count(args.workers, {}, "workers", 1, "--workers")
    res, oracle, z = acceptance.fk_against_oracle(model, t, x, y, paths, steps, seed, workers, k)
    results = {
        "estimate": matrix_to_json(res.estimate),
        "stderr": matrix_to_json(res.stderr + 0j),
        "oracle": matrix_to_json(oracle),
        "z_scores": matrix_to_json(z + 0j),
        "diagnostics": res.diagnostics,
    }
    verdicts = {"within_3_stderr": bool(np.all(z <= 3.0))}
    return echo, results, verdicts


def cmd_levy_area(args):
    cfg, echo = read_config(args.config)
    d, omega = curvature_from_json(cfg)
    if len(omega) != d:
        raise ConfigError("config.omega", f"levy-area needs a {d} x {d} matrix")
    paths = _count(args.paths, cfg, "paths", 10**5, "--paths")
    steps = _count(args.steps, cfg, "steps", 512, "--steps")
    seed = _seed(args.seed, cfg)
    res, oracle_top, diff, tol = acceptance.levy_against_series(omega, d, paths, steps, seed)
    results = {
        "estimate_top": res.top_mean,
        "stderr_top": res.top_stderr,
        "oracle_top": oracle_top,
        "difference": diff,
        "tolerance": tol,
        "diagnostics": res.diagnostics,
    }
    verdicts = {"within_tolerance": diff <= tol}
    return echo, results, verdicts


def cmd_localize(args):
    cfg, echo = read_config(args.config)
    d, chain = chain_from_json(cfg)
    t_grid = _parse_t_grid(args.t_grid)
    # command-line counts only: the empty config adds no config keys
    res = localization_check(
        chain,
        t_sequence=t_grid,
        truncation=_count(args.truncation, {}, "K", 14, "--truncation"),
        mc_paths=_count(args.paths, {}, "paths", 0, "--paths", minimum=0),
        mc_steps=_count(args.steps, {}, "steps", 256, "--steps"),
        seed=_seed(args.seed, {}),
    )
    results = {
        "sweep": [{"t": t, "value": v} for t, v, _ in res.sweep],
        "extrapolated": res.extrapolated,
        "target": res.target,
        "relative_error": res.relative_error,
        "mc_check": res.mc_check,
    }
    verdicts = {"within_2_percent": res.relative_error <= 0.02}
    if res.mc_check is not None:
        verdicts["mc_within_3_stderr"] = res.mc_check["z"] <= 3.0
    if args.csv:
        _write_csv(
            args.csv,
            ["t", "value_re", "value_im"],
            [(t, v.real, v.imag) for t, v, _ in res.sweep],
        )
    return echo, results, verdicts


def cmd_bridge_test(args):
    args.d = _count(args.d, {}, "d", 1, "--d")
    args.samples = _count(args.samples, {}, "samples", 10**5, "--samples")
    args.bins = _count(args.bins, {}, "bins", 40, "--bins", minimum=2)
    args.seed = _seed(args.seed, {})
    args.t = _time(args.t, {})
    chi2, crit, dof, endpoints_exact = acceptance.bridge_midpoint_chi2(
        args.d, args.t, args.samples, args.bins, args.seed
    )
    results = {
        "chi2": chi2,
        "critical_1pct": crit,
        "dof": dof,
        "bins": args.bins,
        "samples": args.samples,
        "endpoints_exact": endpoints_exact,
    }
    verdicts = {"chi2_pass": chi2 <= crit, "endpoints_exact": endpoints_exact}
    return _args_echo(args), results, verdicts


def cmd_selftest(args):
    numbers = None
    if args.criteria:
        try:
            numbers = [int(v) for v in args.criteria.split(",")]
        except ValueError:
            raise ConfigError("--criteria", "expected comma-separated integers") from None
    seed = _seed(args.seed, {})
    results = acceptance.run_criteria(numbers, seed=seed)
    for res in results:
        print(res.line())
    verdicts = {f"criterion_{r.number}": r.passed for r in results}
    print(f"{sum(verdicts.values())}/{len(verdicts)} criteria passed")
    results_json = {
        f"criterion_{r.number}": {"title": r.title, "passed": r.passed, "details": r.details}
        for r in results
    }
    criteria_s = {f"criterion_{r.number}": r.elapsed for r in results}
    return {"criteria": numbers or "all"}, results_json, verdicts, criteria_s


# --- argument parsing -------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each ``parse_args``
    call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="opcalc",
        description="Iterated semigroup integrals, graded supertraces, and "
        "flat-torus path-integral estimators.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("phi", help="evaluate the iterated integral three ways")
    common(p)
    p.add_argument("--method", choices=("quadrature", "fermionic", "ode", "all"), default="all")
    p.add_argument("--t", type=float)
    p.add_argument("--nodes", type=int, help="quadrature nodes per dim")
    p.add_argument("--steps", type=int, help="ode steps")
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("jlo", help="flat-model small-time cocycle study")
    common(p)
    p.add_argument("--t-grid", default="1.6,0.8", help="comma-separated times")
    p.add_argument("--truncation", type=int)
    p.add_argument("--csv", help="write the t-sweep CSV here")
    p.set_defaults(func=cmd_jlo)

    p = sub.add_parser("patodi", help="filtration and top supertrace checks")
    common(p, config=False)
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--words", type=int)
    p.set_defaults(func=cmd_patodi)

    p = sub.add_parser("ahat", help="curvature characteristic power series")
    common(p)
    p.set_defaults(func=cmd_ahat)

    p = sub.add_parser("fk", help="path estimator vs spectral oracle")
    common(p)
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--t", type=float)
    p.add_argument("--paths", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--truncation", type=int)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_fk)

    p = sub.add_parser("levy-area", help="stochastic-area exponential vs series")
    common(p)
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--paths", type=int)
    p.add_argument("--steps", type=int)
    p.set_defaults(func=cmd_levy_area)

    p = sub.add_parser("localize", help="flat-model localization check")
    common(p)
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--t-grid", default="0.8,0.4")
    p.add_argument("--truncation", type=int)
    p.add_argument("--paths", type=int, help="MC cross-check paths")
    p.add_argument("--steps", type=int)
    p.add_argument("--csv", help="write the t-sweep CSV here")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("bridge-test", help="bridge cylinder-law chi-squared test")
    common(p, config=False)
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--d", type=int)
    p.add_argument("--t", type=float, default=0.7)
    p.add_argument("--samples", type=int)
    p.add_argument("--bins", type=int)
    p.set_defaults(func=cmd_bridge_test)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    common(p, config=False)
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--criteria", help="comma-separated criterion numbers (default all)")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code) if exc.code else 0
    started = time.time()
    try:
        config_echo, results, verdicts, *criteria_s = args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    timings = {"elapsed_s": time.time() - started}
    if criteria_s:
        timings["criteria_s"] = criteria_s[0]
    versions = {"opcalc": __version__, "numpy": np.__version__}
    if "scipy" in sys.modules:  # of the program, only the chi-squared check imports it
        versions["scipy"] = sys.modules["scipy"].__version__
    report = {
        "command": args.command,
        "config": config_echo,
        "results": results,
        "verdicts": verdicts,
        "timings": timings,
        "versions": versions,
    }
    text = write_report(report, args.out)
    print(f"report written to {args.out}" if args.out else text)
    return EXIT_PASS if all(verdicts.values()) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
