"""Command line front end: config files in, reproducible artifacts out.

Configs are INI documents with six sections.  The keys are the rows of
_KEYS and their defaults the ExperimentConfig field defaults; unknown
sections or keys are rejected.  parse reads every key, then collects every
violation at once from the rules' owners: Grid, spectral.time_steps,
spectral.check_strides, spectral.check_resolution, nonlinear.check_modes,
norms.WeightParams and the equilibrium constructors.  README.md shows the
config block with every default and the artifacts each command writes.

Exit codes: 0 success, 2 inconclusive diagnostics, 1 error.  Flags
--config/--out/--seed; environment variables VPDAMP_CONFIG, VPDAMP_OUT,
VPDAMP_SEED supply defaults for the matching flags (explicit flags win).
--seed applies to random initial data only.  Reruns with the same config
are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import struct
import sys
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, fields
from itertools import groupby
from pathlib import Path

import numpy as np

from . import __version__
from .equilibria import Equilibrium, gaussian, two_stream, zero
from .linear import DensityTrace, cosine_initial_hat, fit_decay, source_from_initial, volterra_solve
from .nonlinear import RunConfig, RunRecord, Snapshot, check_modes, echo_experiment, run
from .nonlinear import closure_residual  # noqa: F401  (perfbench's tracer wraps it here)
from .norms import (WeightParams, check_contraction, check_F_le_sqrtG, check_multiplier,
                    check_propagator, eta_tail_fraction, fit_FG1, norm_profile, radius,
                    require_snapshots)
from .norms import check_FG1  # noqa: F401  (perfbench's tracer wraps vpdamp.cli.check_FG1)
from .penrose import NoStableStripError, full_report, strip_width
from .spectral import (Grid, check_resolution, check_strides, fft_length, record_steps,
                       required_nv, time_steps)

FORMAT_VERSION = 1
ENV_PREFIX = "VPDAMP_"

_EQUILIBRIA = {"gaussian": (gaussian, 0), "two_stream": (two_stream, 1), "zero": (zero, 0)}
_PROFILES = ("none", "gaussian", "zero")
_FORMATS = ("csv", "json", "snapshots")


class ConfigError(ValueError):
    """Invalid experiment config; carries every violation, not just the first."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in self.violations))


def _auto_nv(V: float, k_max: int, t_final: float) -> int:
    """The N_v that "N_v = 0" means: an even 2^a 3^b 5^c length (a fast FFT), at least 256,
    resolving phases up to t_final."""
    return max(256, 2 * fft_length(-(-required_nv(V, k_max, t_final) // 2)))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description; the field defaults are the config defaults."""

    eq_name: str
    eq_params: tuple = ()
    k_max: int = 4
    V: float = 8.0
    N_v: int = 0  # 0: _auto_nv, resolved by parse and grid()
    dt: float = 1e-3
    t_final: float = 10.0
    trace_stride: int = 1
    snapshot_stride: int = 0
    gamma: float = 1.0
    sigma: float = 3.2
    delta: float = 0.1
    lambda0: float = 0.05
    lambda1: float = 0.2
    modes: tuple = ((1, 0.0, 1e-3),)  # (k, eta_offset, amplitude) triples, documented order
    profile_name: str = "none"
    random_modes: int = 0
    random_amplitude: float = 1e-3
    out_dir: str = "out"
    formats: tuple = ("csv", "json")

    def equilibrium(self) -> Equilibrium:
        return _EQUILIBRIA[self.eq_name][0](*self.eq_params)

    def profile(self):
        return None if self.profile_name == "none" else _EQUILIBRIA[self.profile_name][0]()

    def grid(self) -> Grid:
        return Grid(k_max=self.k_max, V=self.V,
                    N_v=self.N_v or _auto_nv(self.V, self.k_max, self.t_final))

    def weights(self) -> WeightParams:
        return WeightParams(gamma=self.gamma, sigma=self.sigma, delta=self.delta,
                            lam0=self.lambda0, lam1=self.lambda1)

    def run_modes(self, seed: int = 0) -> tuple:
        """(k, amplitude, eta_offset) triples in solver order; draws random data if configured."""
        if self.random_modes:
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(self.random_modes):
                k = int(rng.integers(1, self.k_max + 1))
                off = float(rng.uniform(-3.0, 3.0))
                amp = self.random_amplitude * float(rng.uniform(0.5, 1.0))
                out.append((k, amp, off))
            return tuple(out)
        return tuple((k, amp, off) for (k, off, amp) in self.modes)

    def run_config(self, seed: int, snapshot_stride: int = 0) -> RunConfig:
        return RunConfig(eq=self.equilibrium(), grid=self.grid(), dt=self.dt,
                         t_final=self.t_final, modes=self.run_modes(seed),
                         trace_stride=self.trace_stride, snapshot_stride=snapshot_stride,
                         profile=self.profile())


# ---------------------------------------------------------------------------
# config keys: a reader turns a key's stripped text into its field's value,
# or raises ValueError with one message per problem (int and float are
# described by _KINDS)

_KINDS = {int: "an integer", float: "a number"}


class _Partial(ValueError):
    """A reader's problems, with the value it could still read for the cross-key rules."""

    def __init__(self, problems, value):
        super().__init__(*problems)
        self.value = value


def _equilibrium_name(text):
    if not text:
        raise ValueError("required (gaussian, two_stream, or zero)")
    if text not in _EQUILIBRIA:
        raise ValueError(f"unknown equilibrium '{text}' "
                         f"(choose from {', '.join(sorted(_EQUILIBRIA))})")
    return text


def _params(text):
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got '{text}'") from None


def _modes(text):
    modes, problems = [], []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        nums = part.split(":")
        if len(nums) != 3:
            problems.append(f"entry '{part}' is not k:eta_offset:amplitude")
            continue
        try:
            modes.append((int(nums[0]), float(nums[1]), float(nums[2])))
        except ValueError:
            problems.append(f"entry '{part}' has non-numeric fields")
    if problems:
        raise _Partial(problems, tuple(modes))
    return tuple(modes)


def _profile(text):
    if text not in _PROFILES:
        raise ValueError(f"choose from {', '.join(_PROFILES)}, got '{text}'")
    return text


def _directory(text):
    if not text:
        raise ValueError("need a nonempty path")
    return text


def _formats(text):
    asked = [p.strip() for p in text.split(",") if p.strip()]
    unknown = [f"unknown format '{f}' (choose from {', '.join(_FORMATS)})"
               for f in asked if f not in _FORMATS]
    if unknown:
        raise ValueError(*unknown)
    return tuple(f for f in _FORMATS if f in asked)


# (section, key, ExperimentConfig field, reader, echo), in echo order
_KEYS = (
    ("equilibrium", "name", "eq_name", _equilibrium_name, str),
    ("equilibrium", "params", "eq_params", _params, lambda ps: ", ".join(map(_fmt, ps))),
    ("grid", "k_max", "k_max", int, str),
    ("grid", "V", "V", float, _fmt),
    ("grid", "N_v", "N_v", int, str),
    ("time", "dt", "dt", float, _fmt),
    ("time", "T", "t_final", float, _fmt),
    ("time", "stride", "trace_stride", int, str),
    ("time", "snapshot_stride", "snapshot_stride", int, str),
    ("weights", "gamma", "gamma", float, _fmt),
    ("weights", "sigma", "sigma", float, _fmt),
    ("weights", "delta", "delta", float, _fmt),
    ("weights", "lambda0", "lambda0", float, _fmt),
    ("weights", "lambda1", "lambda1", float, _fmt),
    ("initial-data", "modes", "modes", _modes,
     lambda ms: ", ".join(f"{k}:{_fmt(off)}:{_fmt(amp)}" for (k, off, amp) in ms)),
    ("initial-data", "profile", "profile_name", _profile, str),
    ("initial-data", "random_modes", "random_modes", int, str),
    ("initial-data", "random_amplitude", "random_amplitude", float, _fmt),
    ("output", "directory", "out_dir", _directory, str),
    ("output", "formats", "formats", _formats, ",".join),
)


def parse(text: str) -> ExperimentConfig:
    """Validate a config document; raises ConfigError listing all violations."""
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"not a well-formed config: {exc}"]) from exc

    bad: list = []
    known = {(sec, key) for sec, key, *_ in _KEYS}
    for sec in cp.sections():
        if sec not in {s for s, _ in known}:
            bad.append(f"unknown section [{sec}]")
            continue
        bad.extend(f"unknown key '{key}' in [{sec}]" for key in cp[sec] if (sec, key) not in known)

    # Text that cannot be read leaves the default; a value read but refused
    # stays, so the cross-key rules below judge it as written.
    v = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}
    for sec, key, field, read, _ in _KEYS:
        text = cp.get(sec, key, fallback=None)
        if text is None and field in v:
            continue
        text = (text or "").strip()
        try:
            v[field] = read(text)
        except ValueError as exc:
            problems = [f"expected {_KINDS[read]}, got '{text}'"] if read in _KINDS else exc.args
            bad.extend(f"[{sec}] {key}: {problem}" for problem in problems)
            if isinstance(exc, _Partial):
                v[field] = exc.value

    def check(where, rule, *args) -> bool:
        """Whether the owner's rule passes; each part of its refusal is a violation."""
        try:
            rule(*args)
        except ValueError as exc:
            bad.extend(f"{where} {part}" for part in str(exc).split("; "))
            return False
        return True

    name = v.get("eq_name")
    if name in _EQUILIBRIA:
        build, arity = _EQUILIBRIA[name]
        if len(v["eq_params"]) != arity:
            bad.append(f"[equilibrium] params: {name} takes exactly {arity} "
                       f"parameter(s), got {len(v['eq_params'])}")
        else:
            check("[equilibrium] params:", build, *v["eq_params"])

    # N_v = 0 asks for _auto_nv, which needs a valid grid and time grid and a finite
    # requirement; until then Grid judges k_max and V with a valid stand-in N_v
    k_max, V, T = v["k_max"], v["V"], v["t_final"]
    grid_ok = check("[grid]", Grid, k_max, V, v["N_v"] or 2)
    time_ok = check("[time]", time_steps, v["dt"], T)
    check("[time]", check_strides, v["trace_stride"], v["snapshot_stride"])
    if grid_ok and time_ok and check("[grid]", required_nv, V, k_max, T):
        v["N_v"] = v["N_v"] or _auto_nv(V, k_max, T)
        check("[grid]", check_resolution, V, k_max, v["N_v"], T)

    check("[weights]", WeightParams, v["gamma"], v["sigma"], v["delta"], v["lambda0"],
          v["lambda1"])

    if v["random_modes"] < 0:
        bad.append(f"[initial-data] random_modes: need random_modes >= 0, "
                   f"got {v['random_modes']}")
    if not (v["random_amplitude"] > 0 and math.isfinite(v["random_amplitude"])):
        bad.append(f"[initial-data] random_amplitude: need a positive finite "
                   f"number, got {v['random_amplitude']}")
    if v["random_modes"] > 0:
        if not cp.has_option("initial-data", "modes"):
            v["modes"] = ()
        elif v["modes"]:
            bad.append("[initial-data] choose explicit modes or random_modes, not both")
    if grid_ok:  # the mode range is judged against a valid k_max
        check("[initial-data]", check_modes, [(k, amp, off) for k, off, amp in v["modes"]],
              k_max)

    if bad:
        raise ConfigError(bad)
    return ExperimentConfig(**v)


def parse_file(path) -> ExperimentConfig:
    return parse(Path(path).read_text())


def config_echo(cfg: ExperimentConfig) -> str:
    """Canonical config text; parsing it back yields an equal config."""
    return "\n".join(
        f"[{sec}]\n" + "".join(f"{key} = {echo(getattr(cfg, field))}\n"
                               for _, key, field, _, echo in rows)
        for sec, rows in groupby(_KEYS, key=lambda row: row[0]))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_echo(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# serialization


def _json_render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return _fmt(x) if math.isfinite(x) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return _json_render({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + _json_render(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{_json_render(str(k))}: {_json_render(v, indent + 1)}"
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(_json_render(payload) + "\n")


def _write_trace_csv(path, cfg_hash: str, traces: dict, times: np.ndarray) -> None:
    """Rows (t, k, Re rho, Im rho, |E|) sorted by time, then mode."""
    ks = sorted(traces)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config-hash: {cfg_hash}\n")
        fh.write("t,k,re_rho,im_rho,abs_E\n")
        for i, t in enumerate(times):
            for k in ks:
                rho = traces[k][i]
                fh.write(f"{_fmt(t)},{k},{_fmt(rho.real)},{_fmt(rho.imag)},"
                         f"{_fmt(abs(rho) / abs(k))}\n")


def _read_trace_csv(path):
    """Inverse of _write_trace_csv: (hash, times, {k: complex values})."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# config-hash: "):
        raise ValueError(f"{path} has no config-hash header")
    file_hash = lines[0].split(": ", 1)[1].strip()
    if not lines[1:] or lines[1] != "t,k,re_rho,im_rho,abs_E":
        raise ValueError(f"{path} has an unexpected column header")
    per_k: dict = {}
    times: list = []
    for line in lines[2:]:
        if not line:
            continue
        t_s, k_s, re_s, im_s, _ = line.split(",")
        t, k = float(t_s), int(k_s)
        if not times or t > times[-1]:
            times.append(t)
        per_k.setdefault(k, []).append(complex(float(re_s), float(im_s)))
    n = len(times)
    for k, vals in per_k.items():
        if len(vals) != n:
            raise ValueError(f"{path}: mode {k} has {len(vals)} samples, expected {n}")
    return file_hash, np.asarray(times), {k: np.asarray(v) for k, v in per_k.items()}


_SNAP_HEADER = struct.Struct("<iidd")  # k_max, N_v, V, t


def write_snapshot(path, cfg_hash: str, grid: Grid, snap: Snapshot) -> None:
    """The hash, the header, rho_1..k_max as <c16, then the mode table as <c8."""
    data = np.ascontiguousarray(snap.data).astype("<c8", copy=False)
    with open(path, "wb") as fh:
        fh.write(cfg_hash.encode("ascii"))
        fh.write(_SNAP_HEADER.pack(grid.k_max, grid.N_v, grid.V, snap.t))
        fh.write(np.asarray(snap.rho, dtype="<c16").tobytes())
        fh.write(data.tobytes(order="C"))


def _snapshot_header(path):
    """(hash, grid, t) from a snapshot file's header, refused unless the size matches it."""
    with open(path, "rb") as fh:
        head = fh.read(64 + _SNAP_HEADER.size)
    if len(head) < 64 + _SNAP_HEADER.size:
        raise ValueError(f"{path} is too short to be a snapshot file")
    k_max, N_v, V, t = _SNAP_HEADER.unpack_from(head, 64)
    expected = 64 + _SNAP_HEADER.size + 16 * k_max + 8 * (2 * k_max + 1) * N_v
    size = Path(path).stat().st_size
    if size != expected:
        raise ValueError(f"{path}: expected {expected} bytes for a "
                         f"(k_max={k_max}, N_v={N_v}) snapshot, got {size}")
    return head[:64].decode("ascii"), Grid(k_max=k_max, V=V, N_v=N_v), t


def read_snapshot(path):
    """(hash, grid, snapshot) back from the binary layout."""
    file_hash, grid, t = _snapshot_header(path)
    offset = 64 + _SNAP_HEADER.size
    rho = np.fromfile(path, dtype="<c16", count=grid.k_max, offset=offset)
    data = np.fromfile(path, dtype="<c8", offset=offset + rho.nbytes)
    return file_hash, grid, Snapshot(t=t, data=data.reshape(grid.n_modes, grid.N_v), rho=rho)


@dataclass(frozen=True)
class _SnapshotFiles(Sequence):
    """Snapshots of checked files, each read from its file when indexed."""

    paths: list

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, i: int) -> Snapshot:
        return read_snapshot(self.paths[i])[2]


# ---------------------------------------------------------------------------
# subcommands


@dataclass(frozen=True)
class _Options:
    out_dir: Path
    seed: int
    cfg_hash: str


def _fit_or_none(trace: DensityTrace):
    try:
        fit = fit_decay(trace, gamma=1.0)
    except ValueError:
        return None
    return {"rate": fit.rate, "log_amplitude": fit.log_amplitude,
            "residual": fit.residual, "n_used": fit.n_used}


def _propagator_or_none(k: int, trace: DensityTrace, source, theta1: float,
                        params: WeightParams):
    try:
        fit = check_propagator(k, trace.times, trace.values, source, theta1, params)
    except ValueError:
        return None
    return {"C": fit.C, "at_t": fit.at[0], "at_z": fit.at[1], "n_samples": fit.n_samples}


def _cmd_penrose(cfg: ExperimentConfig, opts: _Options) -> tuple:
    rep = full_report(cfg.equilibrium(), k_max_scan=cfg.k_max)
    return 0, {
        "equilibrium": rep.equilibrium,
        "kappa0": rep.kappa0,
        "theta1": rep.theta1,
        "k_tail": rep.k_tail,
        "roots": [{"k": k, "re": lam.real, "im": lam.imag, "residual": res}
                  for (k, lam, res) in rep.roots],
        "windings": [{"k": k, "rect": list(rect), "winding": w}
                     for (k, rect, w) in rep.windings],
        "scan": rep.scan,
    }


def _cmd_linear(cfg: ExperimentConfig, opts: _Options) -> tuple:
    modes = cfg.run_modes(opts.seed)
    if not modes:
        raise ValueError("linear needs at least one initial mode")
    eq = cfg.equilibrium()
    hat0 = cosine_initial_hat(cfg.profile() or eq, modes)
    ks = sorted({int(k) for (k, _, _) in modes})
    traces = {k: volterra_solve(eq, k, lambda ts, k=k: source_from_initial(hat0, k, ts),
                                cfg.dt, cfg.t_final) for k in ks}
    times = traces[ks[0]].times
    idx = record_steps(times.size - 1, cfg.trace_stride)
    if "csv" in cfg.formats:
        _write_trace_csv(opts.out_dir / "linear_traces.csv", opts.cfg_hash,
                         {k: tr.values[idx] for k, tr in traces.items()}, times[idx])
    try:
        theta1 = strip_width(eq)
    except NoStableStripError:
        propagator = None
    else:
        propagator = {str(k): _propagator_or_none(k, tr, source_from_initial(hat0, k, times),
                                                  theta1, cfg.weights())
                      for k, tr in traces.items()}
    return 0, {
        "equilibrium": eq.name,
        "modes": [[int(k), off, amp] for (k, amp, off) in modes],
        "dt": cfg.dt,
        "t_final": cfg.t_final,
        "fits": {str(k): _fit_or_none(tr) for k, tr in traces.items()},
        "final_abs_field": {str(k): float(abs(tr.field_values[-1]))
                            for k, tr in traces.items()},
        "propagator": propagator,
    }


def _cmd_nonlinear(cfg: ExperimentConfig, opts: _Options) -> tuple:
    rc = cfg.run_config(opts.seed, cfg.snapshot_stride)
    n_snapshots = 0

    def sink(snap: Snapshot) -> None:  # a run that fails leaves the snapshots it took
        nonlocal n_snapshots
        if "snapshots" in cfg.formats:
            write_snapshot(opts.out_dir / f"snapshot_{n_snapshots:06d}.bin", opts.cfg_hash,
                           rc.grid, snap)
        n_snapshots += 1

    out = run(rc, sink)
    if "csv" in cfg.formats:
        _write_trace_csv(opts.out_dir / "traces.csv", opts.cfg_hash,
                         {k: tr.values for k, tr in out.traces.items()}, out.times)
    cons = out.conservation
    return 0, {
        "equilibrium": rc.eq.name,
        "modes": [[int(k), off, amp] for (k, amp, off) in rc.modes],
        "seed": opts.seed if cfg.random_modes else None,
        "n_steps": rc.n_steps,
        "conservation": {
            "mass_drift_max": float(np.max(cons["mass_drift"])),
            "l2_drift_max": float(np.max(cons["l2_drift"])),
            "reality_drift_max": float(np.max(cons["reality_drift"])),
            "dealias_max": float(np.max(cons["dealias"])),
        },
        "closure_residual": out.closure,
        "fits": {str(k): _fit_or_none(out.traces[k])
                 for k in sorted({int(k) for (k, _, _) in rc.modes})},
        "final_abs_field": {str(k): float(abs(tr.field_values[-1]))
                            for k, tr in sorted(out.traces.items())},
        "n_snapshots": n_snapshots,
    }


def _cmd_echo(cfg: ExperimentConfig, opts: _Options) -> tuple:
    rep = echo_experiment(cfg.run_config(opts.seed))
    return 2 if rep.inconclusive else 0, {
        "inconclusive": rep.inconclusive,
        "noise_floor": rep.noise_floor,
        "peaks": [{"mode": p.mode, "measured_time": p.measured_time,
                   "amplitude": p.amplitude, "predicted_time": p.predicted_time,
                   "relative_error": p.relative_error} for p in rep.peaks],
    }


def _load_run(cfg: ExperimentConfig, opts: _Options) -> RunRecord:
    h = opts.cfg_hash
    trace_path = opts.out_dir / "traces.csv"
    if not trace_path.exists():
        raise FileNotFoundError(f"{trace_path} not found; run the nonlinear "
                                "subcommand with csv output first")
    file_hash, times, values = _read_trace_csv(trace_path)
    if file_hash != h:
        raise ValueError(f"{trace_path} was written by a different config "
                         f"(hash {file_hash[:12]}.., expected {h[:12]}..)")
    grid = cfg.grid()
    paths = sorted(opts.out_dir.glob("snapshot_*.bin"))
    for path in paths:
        s_hash, s_grid, _ = _snapshot_header(path)
        if s_hash != h:
            raise ValueError(f"{path} was written by a different config")
        if s_grid != grid:
            raise ValueError(f"{path} grid {s_grid} does not match the config grid {grid}")
    if not paths:
        raise FileNotFoundError(f"no snapshot files in {opts.out_dir}; rerun the "
                                "nonlinear subcommand with formats = csv,json,snapshots")
    traces = {k: DensityTrace(k=k, times=times, values=v) for k, v in values.items()}
    return RunRecord(grid=grid, times=times, traces=traces, snapshots=_SnapshotFiles(paths))


def _cmd_norms(cfg: ExperimentConfig, opts: _Options) -> tuple:
    stored = _load_run(cfg, opts)
    params = cfg.weights()
    n = len(stored.snapshots)
    require_snapshots(n)
    pick = set(np.linspace(0, n - 1, min(n, 16)).astype(int).tolist())
    sqrt_rows = []
    final = None

    def sample(i, snap, mass) -> None:  # the profile's folded mass, one snapshot at a time
        nonlocal final
        if i in pick:
            lam = float(radius(mass.t, params))
            zs = (0.0, lam / 2.0, lam)
            for z, m in zip(zs, check_F_le_sqrtG(mass, enumerate(snap.rho, 1), zs, params)):
                sqrt_rows.append({"t": mass.t, "z": z, "margin": m.margin, "ok": m.ok})
        if i == n - 1:
            final = mass

    profile = norm_profile(stored, params, sample)
    if "csv" in cfg.formats:
        with open(opts.out_dir / "norm_profile.csv", "w", newline="\n") as fh:
            fh.write(f"# config-hash: {opts.cfg_hash}\n")
            fh.write("t,z,G,F,lambda\n")
            for i, t in enumerate(profile.times):
                for j, z in enumerate(profile.z_grid):
                    fh.write(f"{_fmt(t)},{_fmt(z)},{_fmt(profile.G[i, j])},"
                             f"{_fmt(profile.F[i, j])},{_fmt(profile.lam[i])}\n")

    fg1 = fit_FG1(profile)
    contraction = check_contraction(stored, params, C0=fg1.C0)
    mult = check_multiplier(final, cfg.lambda0, params)
    return 0, {
        "n_snapshots": n,
        "FG1": {"C0": fg1.C0, "max_violation": fg1.max_violation,
                "at_t": fg1.at[0], "at_z": fg1.at[1], "n_samples": fg1.n_samples},
        "contraction": {"C0": fg1.C0, "all_satisfied": bool(contraction.satisfied.all()),
                        "first_failure": contraction.first_failure},
        "sqrt_domination": sqrt_rows,
        "sqrt_domination_ok": all(r["ok"] for r in sqrt_rows),
        "multiplier": {"x_margin": mult.x_margin, "v_margin": mult.v_margin,
                       "h": mult.h, "ok": mult.ok},
        "eta_tail_fraction_final": eta_tail_fraction(final, cfg.lambda0, params),
    }


def _cmd_report(cfg: ExperimentConfig, opts: _Options) -> tuple:
    artifacts = {path.name: json.loads(path.read_text())
                 for path in sorted(opts.out_dir.glob("*.json")) if path.name != "report.json"}
    if not artifacts:
        raise FileNotFoundError(f"no JSON summaries in {opts.out_dir}; run a "
                                "subcommand first")
    foreign = sorted({a.get("config_hash") for a in artifacts.values()} - {opts.cfg_hash})
    return 0, {"artifacts": artifacts, "foreign_hashes": foreign}


_COMMANDS = {
    "penrose": (_cmd_penrose, "dispersion margin, strip width, and root report"),
    "linear": (_cmd_linear, "linearized density evolution and decay fits"),
    "nonlinear": (_cmd_nonlinear, "full pseudo-spectral evolution with diagnostics"),
    "echo": (_cmd_echo, "two-wave echo experiment"),
    "norms": (_cmd_norms, "weighted-norm inequality report from stored snapshots"),
    "report": (_cmd_report, "aggregate the JSON summaries in the output directory"),
}


def _run_command(command: str, cfg: ExperimentConfig, opts: _Options) -> int:
    """Echo the config, run the command, and write its summary under the common head.

    A command that raises leaves config.ini and no summary.
    """
    opts.out_dir.mkdir(parents=True, exist_ok=True)
    (opts.out_dir / "config.ini").write_text(f"# config-hash: {opts.cfg_hash}\n"
                                             + config_echo(cfg))
    code, summary = _COMMANDS[command][0](cfg, opts)
    _write_json(opts.out_dir / f"{command}.json",
                {"format_version": FORMAT_VERSION, "package_version": __version__,
                 "config_hash": opts.cfg_hash, "command": command, **summary})
    return code


# ---------------------------------------------------------------------------
# entry point


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpdamp",
        description="Stability analysis and phase-mixing experiments on the torus.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", default=_env("CONFIG"),
                       help="path to the experiment config (or set VPDAMP_CONFIG)")
        p.add_argument("--out", default=_env("OUT"),
                       help="output directory override (or VPDAMP_OUT)")
        p.add_argument("--seed", type=int, default=_env("SEED"),
                       help="RNG seed; random initial data only (or VPDAMP_SEED)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses code 2 for usage errors; 2 is reserved for inconclusive
        return 0 if exc.code == 0 else 1

    if not args.config:
        print("error: no config given (use --config or VPDAMP_CONFIG)", file=sys.stderr)
        return 1
    try:
        cfg = parse_file(args.config)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1

    if args.seed is not None and cfg.random_modes == 0:
        print("error: --seed applies to random initial data only "
              "(set random_modes in [initial-data])", file=sys.stderr)
        return 1

    opts = _Options(out_dir=Path(args.out or cfg.out_dir), seed=args.seed or 0,
                    cfg_hash=config_hash(cfg))
    try:
        return _run_command(args.command, cfg, opts)
    except Exception as exc:  # surface solver refusals as clean CLI errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
