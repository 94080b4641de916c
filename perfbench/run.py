"""Benchmark entry point: one workload in this process, untraced or traced.

    python3 perfbench/run.py --workload landau_session --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout: the package is imported from its
``src/`` directory, and without one the run exits with an error and
prints no result.  The untraced run (``--trace 0``) reports the
end-to-end metrics: the median wall time of the workload's task, the
median set-up time of three fresh processes, and this process's peak RSS.  The traced run
(``--trace 1``) spends half of ``--seconds`` untraced and half with the
layer wrappers of ``tracing.py`` installed, and reports per-layer medians
plus the tracing overhead.  The last line of standard output is the
result object; the line before it is the reproducibility and machine
record.  Working files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from operations import OperationFailed, Operations

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 3
MIN_ITERATIONS = 2  # untraced: wall_s is never a single sample

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.penrose_s": "s", "cli.nonlinear_s": "s", "cli.norms_s": "s", "cli.report_s": "s",
    "cli.self_s": "s", "cli.artifact_mb": "MB",
    "nonlinear.run_s": "s", "nonlinear.steps": "count", "nonlinear.step_ms": "ms",
    "nonlinear.closure_residual_s": "s", "nonlinear.snapshot_mb": "MB",
    "norms.norm_profile_s": "s", "norms.check_FG1_s": "s", "norms.check_F_le_sqrtG_s": "s",
    "norms.check_multiplier_s": "s", "norms.check_contraction_s": "s",
    "norms.snapshots": "count", "norms.self_s": "s",
    "spectral.to_eta_calls": "count", "spectral.eta_derivative_calls": "count",
    "spectral.to_eta_s": "s", "spectral.transform_reuse": "ratio",
    "penrose.full_report_s": "s", "penrose.margin_s": "s", "penrose.strip_width_s": "s",
    "penrose.strip_width_calls": "count", "penrose.landau_root_s": "s",
    "penrose.count_zeros_calls": "count", "penrose.laplace_symbol_calls": "count",
    "penrose.laplace_symbol_points": "count", "penrose.self_s": "s",
    "linear.volterra_solve_s": "s", "linear.resolvent_kernel_s": "s",
    "linear.solve_via_kernel_s": "s", "linear.contour_parameters_s": "s",
    "linear.kernel_phase_entries": "count", "linear.self_s": "s",
    "equilibria.mu_hat_points": "count",
    "trace.overhead": "ratio",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every grid, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="generate inputs, warm up and exit (one set-up sample)")
    return p.parse_args(argv)


def _import_program():
    """Put the checkout's src/ first on the path and import vpdamp from it."""
    if not (SRC / "vpdamp" / "__init__.py").is_file():
        raise SystemExit(f"error: no vpdamp package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import vpdamp
    if Path(vpdamp.__file__).resolve().parent != SRC / "vpdamp":
        raise SystemExit(f"error: vpdamp was imported from {vpdamp.__file__}, not {SRC}")
    import workloads
    return workloads


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_record() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "git_commit": _git_commit(),
    }


def _setup_probe(args) -> float:
    """Wall time of one fresh process that imports, generates inputs and warms up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=150)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return elapsed


def _measure(workload, ops, seconds, record, tracer=None, min_iterations=1):
    """Repeat the task for about `seconds`: (wall times, per-layer rows, error).

    A new iteration starts only while at least half of a median iteration
    still fits.  Each iteration's artifacts must match record["artifacts"],
    the digests of the run's first iteration, byte for byte.  The first
    failed operation ends the measurement and is returned as the error.
    """
    walls, rows = [], []
    start = time.perf_counter()
    try:
        while True:
            workload.prepare()
            if tracer is not None:
                tracer.begin(len(walls))
            t0 = time.perf_counter()
            try:
                workload.iteration(ops)
            finally:
                walls.append(time.perf_counter() - t0)
            if tracer is not None:
                rows.append(tracer.end(workload.sizes()))
            digests = workload.digests()
            record.setdefault("artifacts", digests)
            ops.run("rerun identical", lambda: digests,
                    lambda d: None if d == record["artifacts"] else
                    "artifacts differ from the first iteration of this run")
            if (len(walls) >= min_iterations and
                    time.perf_counter() - start + 0.5 * statistics.median(walls) >= seconds):
                return walls, rows, None
    except OperationFailed as exc:
        return walls, rows, str(exc)


def main(argv=None) -> int:
    args = _parse(argv)
    for key in [k for k in os.environ if k.startswith("VPDAMP_")]:
        del os.environ[key]  # the CLI reads defaults from these
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.setup_only:
        try:
            make(args.seed, work, tiny).warm_up()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    ops = Operations()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size}
    try:
        if args.trace:
            metrics, error = _traced(args, make(args.seed, work, tiny), ops, record)
        else:
            setup = [_setup_probe(args) for _ in range(SETUP_PROBES)]
            workload = make(args.seed, work, tiny)
            workload.warm_up()
            walls, _, error = _measure(workload, ops, args.seconds, record,
                                       min_iterations=MIN_ITERATIONS)
            record["iterations_s"] = walls
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": error is None and ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    record.update(error=error, machine=machine_record())
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({"record": record, "result": result},
                                                     indent=1))
    if error:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def _traced(args, workload, ops, record):
    """Half the time untraced, half traced: (per-layer medians, error)."""
    from tracing import Tracer

    workload.warm_up()
    plain, _, error = _measure(workload, ops, args.seconds / 2, record)
    record["iterations_s"] = {"untraced": plain}
    if error:
        return {}, error
    tracer = Tracer(args.workload)
    tracer.install()
    try:
        if hasattr(workload, "set_equilibrium"):  # library workloads own their Equilibrium
            workload.set_equilibrium(tracer.count_points(workload.eq))
            workload.warm_up()
        traced, rows, error = _measure(workload, ops, args.seconds / 2, record, tracer)
        record["iterations_s"]["traced"] = traced
    finally:
        tracer.uninstall()
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "results" / f"spans-{args.workload}-seed{args.seed}.json")
    if not rows:
        return {}, error
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics, error


if __name__ == "__main__":
    sys.exit(main())
