"""The benchmark's workloads: inputs drawn from a seed, one task, its checks.

A workload object is built once per process (input generation), warmed
up once, then runs its task repeatedly.  The seed draws initial-mode
amplitudes and offsets inside fixed ranges, so it changes values but
never the amount of work.  Every call into the program is made through a
module attribute (``cli.main``, ``linear.volterra_solve``), so the
tracer's wrappers see it.  Bounds in the checks are those of the
package's acceptance suite.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from vpdamp import cli, linear, penrose
from vpdamp.equilibria import gaussian

from operations import OperationFailed, Operations


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _session_config(k_max, N_v, T, stride, snapshot_stride, modes) -> str:
    entries = ", ".join(f"{k}:{off!r}:{amp!r}" for k, off, amp in modes)
    return (
        "[equilibrium]\nname = gaussian\n"
        f"[grid]\nk_max = {k_max}\nV = 8.0\nN_v = {N_v}\n"
        f"[time]\ndt = 5e-3\nT = {T!r}\nstride = {stride}\nsnapshot_stride = {snapshot_stride}\n"
        f"[initial-data]\nmodes = {entries}\n"
        "[output]\nformats = csv,json,snapshots\n"
    )


class _CliSession:
    """A sequence of CLI subcommands on one generated config file."""

    # k_max, N_v, T, stride and snapshot_stride of the session and of the self-test
    grid: dict
    tiny_grid: dict

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.work = work
        self.out = work / "out"
        self.config = work / "session.ini"
        self.size = self.tiny_grid if tiny else self.grid
        work.mkdir(parents=True, exist_ok=True)
        self.config.write_text(
            _session_config(**self.size, modes=self.draw_modes(np.random.default_rng(seed))))

    def command(self, name: str, config: Path = None, out: Path = None) -> int:
        return cli.main([name, "--config", str(config or self.config),
                         "--out", str(out or self.out)])

    def summary(self, command: str) -> dict:
        return json.loads((self.out / f"{command}.json").read_text())

    def warm_up(self) -> None:
        """Four steps through nonlinear and norms on the same grid.

        Snapshot stride 2 keeps closure_residual, and its buffers, out of
        the warm-up, so they do not set peak RSS for sessions without it.
        """
        size = dict(self.size, T=0.02, stride=1, snapshot_stride=2)
        config = self.work / "warm.ini"
        config.write_text(_session_config(**size, modes=((1, 0.0, 1e-3),)))
        for name in ("nonlinear", "norms"):
            rc = self.command(name, config, self.work / "warm")
            if rc != 0:
                raise OperationFailed(f"warm-up {name} exited {rc}")
        shutil.rmtree(self.work / "warm")

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def digests(self) -> dict:
        return {p.name: _sha256(p.read_bytes()) for p in sorted(self.out.iterdir())}

    def sizes(self) -> dict:
        return {"cli.artifact_mb": sum(p.stat().st_size for p in self.out.iterdir()) / 1e6}

    @staticmethod
    def exit_ok(rc: int):
        return None if rc == 0 else f"exit code {rc}"

    def conservation_problem(self, summary: dict):
        cons = summary["conservation"]
        if not cons["mass_drift_max"] < 1e-10:
            return f"mass drift {cons['mass_drift_max']} >= 1e-10"
        if not cons["l2_drift_max"] < 1e-6:
            return f"L2 drift {cons['l2_drift_max']} >= 1e-6"
        return None


class LandauSession(_CliSession):
    """The README session: penrose, nonlinear, norms, report on landau.ini."""

    grid = dict(k_max=8, N_v=2048, T=10.0, stride=10, snapshot_stride=100)
    tiny_grid = dict(k_max=2, N_v=256, T=1.0, stride=10, snapshot_stride=100)

    def draw_modes(self, rng):
        return ((1, float(rng.uniform(-0.25, 0.25)), float(rng.uniform(0.8e-3, 1.2e-3))),)

    def iteration(self, ops: Operations) -> None:
        ops.run("penrose", lambda: self.command("penrose"), self.check_penrose)
        ops.run("nonlinear", lambda: self.command("nonlinear"), self.check_nonlinear)
        ops.run("norms", lambda: self.command("norms"), self.exit_ok)
        ops.run("report", lambda: self.command("report"), self.check_report)

    def check_penrose(self, rc):
        if rc != 0:
            return self.exit_ok(rc)
        roots = [r for r in self.summary("penrose")["roots"] if r["k"] == 1]
        if not roots or not roots[0]["residual"] < 1e-10:
            return f"no k=1 root with residual < 1e-10: {roots}"
        self.damping_rate = -roots[0]["re"]
        return None

    def check_nonlinear(self, rc):
        if rc != 0:
            return self.exit_ok(rc)
        summary = self.summary("nonlinear")
        problem = self.conservation_problem(summary)
        if problem or self.size["T"] < 10.0:  # the rate fit needs T >= 10
            return problem
        rate = summary["fits"]["1"]["rate"]
        if not abs(rate - self.damping_rate) < 0.05 * self.damping_rate:
            return f"mode-1 rate {rate} is not within 5% of the root's {self.damping_rate}"
        return None

    def check_report(self, rc):
        if rc != 0:
            return self.exit_ok(rc)
        foreign = self.summary("report")["foreign_hashes"]
        return f"foreign hashes {foreign}" if foreign else None


class DenseClosure(_CliSession):
    """Dense nonlinear run (every state stored) and norms at k_max = 16."""

    grid = dict(k_max=16, N_v=2048, T=0.2, stride=1, snapshot_stride=1)
    tiny_grid = dict(k_max=2, N_v=256, T=0.05, stride=1, snapshot_stride=1)

    def draw_modes(self, rng):
        return tuple((k, float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.5e-3, 1e-3)))
                     for k in (1, 2))

    def iteration(self, ops: Operations) -> None:
        ops.run("nonlinear", lambda: self.command("nonlinear"), self.check_nonlinear)
        ops.run("norms", lambda: self.command("norms"), self.check_norms)

    def check_nonlinear(self, rc):
        if rc != 0:
            return self.exit_ok(rc)
        summary = self.summary("nonlinear")
        closure = summary["closure_residual"]
        if closure is None or not closure < 1e-5:
            return f"closure residual {closure} is not < 1e-5"
        return self.conservation_problem(summary)

    def check_norms(self, rc):
        if rc != 0:
            return self.exit_ok(rc)
        c0 = self.summary("norms")["FG1"]["C0"]
        return None if c0 is not None and math.isfinite(c0) else f"FG1 C0 = {c0}"


class LinearRoutes:
    """full_report, then both linear routes for k = 1..4 on the criterion-2 grid."""

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.dt, self.T = (1e-2, 2.0) if tiny else (1e-3, 20.0)
        self.times = self.dt * np.arange(int(round(self.T / self.dt)) + 1)
        rng = np.random.default_rng(seed)
        self.modes = {k: (float(rng.uniform(0.5e-3, 1.5e-3)), float(rng.uniform(-0.5, 0.5)))
                      for k in range(1, 5)}
        # Built once: linear's strip cache is keyed by id(eq), so a fresh
        # equilibrium per iteration would hit or miss it through id reuse.
        self.set_equilibrium(gaussian())
        self.results = {}

    def set_equilibrium(self, eq) -> None:
        self.eq = eq
        self.hat0 = {k: linear.cosine_initial_hat(eq, ((k, amp, off),))
                     for k, (amp, off) in self.modes.items()}

    def warm_up(self) -> None:
        """Fills linear's certified-strip cache for this equilibrium."""
        linear.contour_parameters(self.eq, 1, self.T)

    def prepare(self) -> None:
        self.results = {}

    def iteration(self, ops: Operations) -> None:
        eq = self.eq
        report = ops.run("full_report", lambda: penrose.full_report(eq), self.check_report)
        self.results["roots"] = np.array([(k, lam.real, lam.imag, res)
                                          for k, lam, res in report.roots])
        for k, hat0 in self.hat0.items():
            def source(ts, hat0=hat0, k=k):
                return linear.source_from_initial(hat0, k, ts)

            direct = ops.run(f"volterra_solve k={k}",
                             lambda: linear.volterra_solve(eq, k, source, self.dt, self.T),
                             lambda tr: None if np.all(np.isfinite(tr.values)) else "not finite")
            kernel = ops.run(
                f"resolvent_kernel k={k}",
                lambda: linear.resolvent_kernel(
                    eq, k, *linear.contour_parameters(eq, k, self.T), self.times),
                lambda ker: None if ker.theta_fit >= 0.5 * report.theta1 else
                f"theta_fit {ker.theta_fit} < theta1/2 = {0.5 * report.theta1}")
            via = ops.run(
                f"solve_via_kernel k={k}",
                lambda: linear.solve_via_kernel(
                    linear.DensityTrace(k=k, times=self.times, values=source(self.times)),
                    kernel),
                lambda tr: self.check_gap(direct, tr))
            self.results[f"volterra_k{k}"] = direct.values
            self.results[f"kernel_k{k}"] = kernel.values
            self.results[f"kernel_route_k{k}"] = via.values

    @staticmethod
    def check_report(report):
        if not report.kappa0 > 0.0:
            return f"kappa0 = {report.kappa0} is not > 0"
        if not report.theta1 > 0.0:
            return f"theta1 = {report.theta1} is not > 0"
        if 1 not in [k for k, _, _ in report.roots]:
            return "no k=1 root"
        bad = [(k, res) for k, _, res in report.roots if not res < 1e-10]
        return f"root residuals >= 1e-10: {bad}" if bad else None

    @staticmethod
    def check_gap(direct, via):
        gap = float(np.max(np.abs(direct.values - via.values)))
        return None if gap <= 1e-5 else f"route gap {gap} > 1e-5"

    def digests(self) -> dict:
        return {name: _sha256(a.tobytes()) for name, a in sorted(self.results.items())}

    def sizes(self) -> dict:
        return {"cli.artifact_mb": 0.0}


WORKLOADS = {
    "landau_session": LandauSession,
    "linear_routes": LinearRoutes,
    "dense_closure": DenseClosure,
}
