"""Spans and counters around calls into vpdamp's layers, for the traced run.

Each public function is wrapped where its caller looks it up (the
``vpdamp.cli`` binding of ``run`` for the CLI, ``vpdamp.norms.to_eta``
for the norms module, ``vpdamp.penrose.margin`` for penrose's own
callers), so the program itself is not edited.  A span is
(name, start, end, parent, workload, iteration); spans stay in memory and
are written out once, when the run ends.  The untraced run never installs
the wrappers.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from collections import Counter

import numpy as np


def _steps(tr, args, result):
    tr.counts["nonlinear.steps"] += args[0].n_steps
    tr.counts["nonlinear.snapshot_bytes"] += sum(s.data.nbytes for s in result.snapshots)


def _norm_snapshots(tr, args, result):
    tr.counts["norms.snapshots"] += len(args[0].snapshots)


def _to_eta(tr, args, result):
    tr.counts["spectral.to_eta_calls"] += 1
    tr.eta_keys.add((float(args[0].t), int(args[1])))


def _eta_derivative(tr, args, result):
    tr.counts["spectral.eta_derivative_calls"] += 1


def _strip_width(tr, args, result):
    tr.counts["penrose.strip_width_calls"] += 1


def _count_zeros(tr, args, result):
    tr.counts["penrose.count_zeros_calls"] += 1


def _laplace_symbol(tr, args, result):
    tr.counts["penrose.laplace_symbol_calls"] += 1
    tr.counts["penrose.laplace_symbol_points"] += int(np.size(args[2]))


def _kernel_entries(tr, args, result):
    tr.counts["linear.kernel_phase_entries"] += result.times.size * result.n_quad


# (module, attribute, span name, hook).  A function reached through two
# bindings is wrapped in both under one span name.
PATCHES = (
    ("vpdamp.cli", "main", lambda args: "cli." + args[0][0], None),
    ("vpdamp.cli", "full_report", "penrose.full_report", None),
    ("vpdamp.cli", "run", "nonlinear.run", _steps),
    ("vpdamp.cli", "closure_residual", "nonlinear.closure_residual", None),
    ("vpdamp.cli", "norm_profile", "norms.norm_profile", _norm_snapshots),
    ("vpdamp.cli", "check_FG1", "norms.check_FG1", None),
    ("vpdamp.cli", "check_contraction", "norms.check_contraction", None),
    ("vpdamp.cli", "check_F_le_sqrtG", "norms.check_F_le_sqrtG", None),
    ("vpdamp.cli", "check_multiplier", "norms.check_multiplier", None),
    ("vpdamp.cli", "eta_tail_fraction", "norms.eta_tail_fraction", None),
    ("vpdamp.norms", "norm_profile", "norms.norm_profile", None),
    ("vpdamp.norms", "to_eta", "spectral.to_eta", _to_eta),
    ("vpdamp.norms", "eta_derivative", "spectral.eta_derivative", _eta_derivative),
    ("vpdamp.penrose", "full_report", "penrose.full_report", None),
    ("vpdamp.penrose", "margin", "penrose.margin", None),
    ("vpdamp.penrose", "strip_width", "penrose.strip_width", _strip_width),
    ("vpdamp.linear", "strip_width", "penrose.strip_width", _strip_width),
    ("vpdamp.penrose", "landau_root", "penrose.landau_root", None),
    ("vpdamp.penrose", "count_zeros", "penrose.count_zeros", _count_zeros),
    ("vpdamp.penrose", "laplace_symbol", "penrose.laplace_symbol", _laplace_symbol),
    ("vpdamp.linear", "source_from_initial", "linear.source_from_initial", None),
    ("vpdamp.linear", "volterra_solve", "linear.volterra_solve", None),
    ("vpdamp.linear", "contour_parameters", "linear.contour_parameters", None),
    ("vpdamp.linear", "resolvent_kernel", "linear.resolvent_kernel", _kernel_entries),
    ("vpdamp.linear", "solve_via_kernel", "linear.solve_via_kernel", None),
)

SELF_TIMED = ("cli", "penrose", "linear", "nonlinear", "norms")

# Inclusive time of every call of a span name, per iteration.
TIMED = {
    "cli.penrose_s": "cli.penrose",
    "cli.nonlinear_s": "cli.nonlinear",
    "cli.norms_s": "cli.norms",
    "cli.report_s": "cli.report",
    "nonlinear.run_s": "nonlinear.run",
    "nonlinear.closure_residual_s": "nonlinear.closure_residual",
    "norms.norm_profile_s": "norms.norm_profile",
    "norms.check_FG1_s": "norms.check_FG1",
    "norms.check_F_le_sqrtG_s": "norms.check_F_le_sqrtG",
    "norms.check_multiplier_s": "norms.check_multiplier",
    "norms.check_contraction_s": "norms.check_contraction",
    "spectral.to_eta_s": "spectral.to_eta",
    "penrose.full_report_s": "penrose.full_report",
    "penrose.margin_s": "penrose.margin",
    "penrose.strip_width_s": "penrose.strip_width",
    "penrose.landau_root_s": "penrose.landau_root",
    "linear.volterra_solve_s": "linear.volterra_solve",
    "linear.resolvent_kernel_s": "linear.resolvent_kernel",
    "linear.solve_via_kernel_s": "linear.solve_via_kernel",
    "linear.contour_parameters_s": "linear.contour_parameters",
}

COUNTED = ("nonlinear.steps", "norms.snapshots", "spectral.to_eta_calls",
           "spectral.eta_derivative_calls", "penrose.strip_width_calls",
           "penrose.count_zeros_calls", "penrose.laplace_symbol_calls",
           "penrose.laplace_symbol_points", "linear.kernel_phase_entries",
           "equilibria.mu_hat_points")


class Tracer:
    """Installs the wrappers, records spans and counters, derives layer metrics."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []  # [name, start, end, parent, iteration]
        self.counts: Counter = Counter()
        self.eta_keys: set = set()
        self.iteration = -1
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        for module_name, attr, name, hook in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def count_points(self, eq):
        """Copy of eq whose mu_hat counts the points it is evaluated at."""
        mu_hat = eq.mu_hat

        def counted(eta):
            self.counts["equilibria.mu_hat_points"] += int(np.size(eta))
            return mu_hat(eta)

        return dataclasses.replace(eq, mu_hat=counted)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([label, time.perf_counter(), None, parent, self.iteration])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def begin(self, iteration: int) -> None:
        self.iteration = iteration
        self.counts.clear()
        self.eta_keys.clear()

    def end(self, sizes: dict) -> dict:
        """Per-layer metrics of the iteration that begin() opened."""
        inclusive = Counter()
        self_time = Counter()  # a span's duration minus that of its direct children
        for name, start, end, parent, iteration in self.spans:
            if iteration != self.iteration:
                continue
            inclusive[name] += end - start
            self_time[name.split(".")[0]] += end - start
            if parent is not None:
                self_time[self.spans[parent][0].split(".")[0]] -= end - start
        m = {key: inclusive[name] for key, name in TIMED.items()}
        m.update({key: self.counts[key] for key in COUNTED})
        m.update({f"{layer}.self_s": self_time[layer] for layer in SELF_TIMED})
        steps = self.counts["nonlinear.steps"]
        m["nonlinear.step_ms"] = 1e3 * inclusive["nonlinear.run"] / steps if steps else 0.0
        m["nonlinear.snapshot_mb"] = self.counts["nonlinear.snapshot_bytes"] / 1e6
        calls = self.counts["spectral.to_eta_calls"]
        m["spectral.transform_reuse"] = len(self.eta_keys) / calls if calls else 0.0
        m.update(sizes)
        return m

    def write(self, path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p,
                 "workload": self.workload, "iteration": i}
                for n, s, e, p, i in self.spans]
        path.write_text(json.dumps({"spans": rows}))
