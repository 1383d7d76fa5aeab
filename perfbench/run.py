"""opcalc benchmark runner.

    python3 perfbench/run.py --workload phi_grid --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of untraced passes:
``wall_s`` (median seconds per pass over the workload's job list, over at
least three passes unless they would run past 100 s),
``setup_s`` (median of several set-ups: ``import opcalc``, writing the seeded
inputs and one warm-up call, each in a fresh process but the first) and
``peak_rss_mb``.  With ``--trace 1`` it times untraced passes, then one pass
with every public opcalc function wrapped in a span recorder, and reports the
per-layer metrics.  Every output is checked; the last stdout line is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  Spans and a full
record (machine, passes, checks) are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time

_T0 = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cap_blas_threads() -> int:
    """Cap BLAS thread pools at the usable core count (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = None
        if current is None or not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("phi_grid", "mode_oracle", "path_mc"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import opcalc from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    try:
        import opcalc.cli  # noqa: F401  (the whole package loads through the CLI)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import opcalc from {src}: {exc}")
    import opcalc

    if not os.path.abspath(opcalc.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: opcalc imported from {opcalc.__file__}, not {src}")


def main(argv=None) -> int:
    args = _parse(argv)
    nproc = _cap_blas_threads()
    _import_program()

    from perfbench import report, workloads

    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.BUILDERS[args.workload](args.seed, workdir)
        wl.warmup()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(repr(setup_s))
            return 0
        result = report.measure(wl, args, setup_s, nproc, __file__)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.emit(result, args, WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
