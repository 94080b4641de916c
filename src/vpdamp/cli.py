"""Command line front end: config files in, reproducible artifacts out.

Configs are INI documents with six sections.  Every key has a documented
default; unknown sections or keys are rejected, and validation reports
every violation at once rather than stopping at the first.  The [time]
and N_v rules (T >= 0 a whole number of at most 1e7 steps dt; the
resolution rule) are spectral.time_steps and spectral.check_resolution.

    [equilibrium]
    name = gaussian            # gaussian | two_stream | zero
    params =                   # constructor arguments (two_stream: stream separation)

    [grid]
    k_max = 4
    V = 8.0
    N_v = 0                    # 0 = choose automatically from the resolution rule

    [time]
    dt = 1e-3
    T = 10.0
    stride = 1                 # trace recording stride, in steps
    snapshot_stride = 0        # 0 = final snapshot only

    [weights]
    gamma = 1.0
    sigma = 3.2
    delta = 0.1
    lambda0 = 0.05
    lambda1 = 0.2

    [initial-data]
    modes = 1:0.0:1e-3         # comma-separated k:eta_offset:amplitude
    profile = none             # data envelope: none (use equilibrium) | gaussian | zero
    random_modes = 0           # > 0 draws that many modes from the --seed RNG
    random_amplitude = 1e-3

    [output]
    directory = out
    formats = csv,json         # any of csv, json, snapshots; the JSON
                               # summary is always written

Artifacts all land in the output directory and all carry the config
hash (SHA-256 of the canonical config echo): `config.ini` is the echo
itself, `<command>.json` the versioned summary (floats with 17
significant digits), `traces.csv` the density traces with columns
t,k,re_rho,im_rho,abs_E, and `snapshot_NNNNNN.bin` the binary states
(64 ASCII hex hash, then little-endian header `<iidd` = k_max, N_v, V,
t, then the row-major complex64 mode table).  The closure residual is
null unless every step is both traced and snapshotted; `norms` reads the
stored run back as a nonlinear.RunRecord.

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .equilibria import Equilibrium, gaussian, two_stream, zero
from .linear import DensityTrace, cosine_initial_hat, fit_decay, source_from_initial, volterra_solve
from .nonlinear import (MissingSnapshotsError, RunConfig, RunRecord, Snapshot,
                        closure_residual, echo_experiment, run)
from .norms import (WeightParams, check_contraction, check_F_le_sqrtG, check_multiplier,
                    eta_tail_fraction, fit_FG1, norm_profile, radius, snapshot_density)
from .norms import check_FG1  # noqa: F401  (perfbench's tracer wraps vpdamp.cli.check_FG1)
from .penrose import full_report
from .spectral import Grid, check_resolution, record_steps, required_nv, time_steps

FORMAT_VERSION = 1
ENV_PREFIX = "VPDAMP_"

_SCHEMA = {
    "equilibrium": ("name", "params"),
    "grid": ("k_max", "V", "N_v"),
    "time": ("dt", "T", "stride", "snapshot_stride"),
    "weights": ("gamma", "sigma", "delta", "lambda0", "lambda1"),
    "initial-data": ("modes", "profile", "random_modes", "random_amplitude"),
    "output": ("directory", "formats"),
}
_EQUILIBRIA = {"gaussian": (gaussian, 0), "two_stream": (two_stream, 1), "zero": (zero, 0)}
_PROFILES = ("none", "gaussian", "zero")
_FORMATS = ("csv", "json", "snapshots")


class ConfigError(ValueError):
    """Invalid experiment config; carries every violation, not just the first."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in self.violations))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description with defaults filled in."""

    eq_name: str
    eq_params: tuple
    k_max: int
    V: float
    N_v: int
    dt: float
    t_final: float
    trace_stride: int
    snapshot_stride: int
    gamma: float
    sigma: float
    delta: float
    lambda0: float
    lambda1: float
    modes: tuple  # (k, eta_offset, amplitude) triples, documented order
    profile_name: str
    random_modes: int
    random_amplitude: float
    out_dir: str
    formats: tuple

    def equilibrium(self) -> Equilibrium:
        make, _ = _EQUILIBRIA[self.eq_name]
        return make(*self.eq_params)

    def profile(self):
        if self.profile_name == "none":
            return None
        return _EQUILIBRIA[self.profile_name][0]()

    def grid(self) -> Grid:
        return Grid(k_max=self.k_max, V=self.V, N_v=self.N_v)

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


def parse(text: str) -> ExperimentConfig:
    """Validate a config document; raises ConfigError listing all violations."""
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"not a well-formed config: {exc}"]) from exc

    bad: list = []
    for sec in cp.sections():
        if sec not in _SCHEMA:
            bad.append(f"unknown section [{sec}]")
            continue
        for key in cp[sec]:
            if key not in _SCHEMA[sec]:
                bad.append(f"unknown key '{key}' in [{sec}]")

    def raw(sec, key, default=None):
        if cp.has_section(sec) and cp.has_option(sec, key):
            return cp.get(sec, key).strip()
        return default

    def check(sec, rule, *args):
        try:
            rule(*args)
        except ValueError as exc:
            bad.extend(f"[{sec}] {part}" for part in str(exc).split("; "))

    def take(sec, key, cast, default, kind):
        s = raw(sec, key)
        if s is None:
            return default
        try:
            return cast(s)
        except ValueError:
            bad.append(f"[{sec}] {key}: expected {kind}, got '{s}'")
            return default

    eq_name = raw("equilibrium", "name", "")
    if not eq_name:
        bad.append("[equilibrium] name: required (gaussian, two_stream, or zero)")
    elif eq_name not in _EQUILIBRIA:
        bad.append(f"[equilibrium] name: unknown equilibrium '{eq_name}' "
                   f"(choose from {', '.join(sorted(_EQUILIBRIA))})")
    ptext = raw("equilibrium", "params", "")
    eq_params: tuple = ()
    try:
        eq_params = tuple(float(p) for p in ptext.split(",") if p.strip())
    except ValueError:
        bad.append(f"[equilibrium] params: expected comma-separated numbers, got '{ptext}'")
    if eq_name in _EQUILIBRIA:
        arity = _EQUILIBRIA[eq_name][1]
        if len(eq_params) != arity:
            bad.append(f"[equilibrium] params: {eq_name} takes exactly {arity} "
                       f"parameter(s), got {len(eq_params)}")

    k_max = take("grid", "k_max", int, 4, "an integer")
    V = take("grid", "V", float, 8.0, "a number")
    N_v = take("grid", "N_v", int, 0, "an integer")
    dt = take("time", "dt", float, 1e-3, "a number")
    T = take("time", "T", float, 10.0, "a number")
    stride = take("time", "stride", int, 1, "an integer")
    snap_stride = take("time", "snapshot_stride", int, 0, "an integer")

    if k_max < 1:
        bad.append(f"[grid] k_max: need k_max >= 1, got {k_max}")
    if not (V > 0 and math.isfinite(V)):
        bad.append(f"[grid] V: need V > 0 and finite, got {V}")
    check("time", time_steps, dt, T)
    if stride < 1:
        bad.append(f"[time] stride: need stride >= 1, got {stride}")
    if snap_stride < 0:
        bad.append(f"[time] snapshot_stride: need snapshot_stride >= 0, got {snap_stride}")

    grid_ok = k_max >= 1 and V > 0 and math.isfinite(V) and T >= 0 and math.isfinite(T)
    if N_v == 0 and grid_ok:
        need = required_nv(V, k_max, T)
        N_v = max(256, need + need % 2)
    if N_v < 2 or N_v % 2 != 0:
        if N_v != 0 or grid_ok:  # auto N_v left unresolved is not the user's fault
            bad.append(f"[grid] N_v: need N_v even and >= 2, got {N_v}")
    elif grid_ok:
        check("grid", check_resolution, V, k_max, N_v, T)

    gamma = take("weights", "gamma", float, 1.0, "a number")
    sigma = take("weights", "sigma", float, 3.2, "a number")
    delta = take("weights", "delta", float, 0.1, "a number")
    lam0 = take("weights", "lambda0", float, 0.05, "a number")
    lam1 = take("weights", "lambda1", float, 0.2, "a number")
    check("weights", WeightParams, gamma, sigma, delta, lam0, lam1)

    random_modes = take("initial-data", "random_modes", int, 0, "an integer")
    random_amp = take("initial-data", "random_amplitude", float, 1e-3, "a number")
    if random_modes < 0:
        bad.append(f"[initial-data] random_modes: need random_modes >= 0, got {random_modes}")
    if not (random_amp > 0 and math.isfinite(random_amp)):
        bad.append(f"[initial-data] random_amplitude: need a positive finite "
                   f"number, got {random_amp}")
    mtext = raw("initial-data", "modes")
    if mtext is None:
        mtext = "" if random_modes > 0 else "1:0.0:1e-3"
    modes: list = []
    for part in mtext.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) != 3:
            bad.append(f"[initial-data] modes: entry '{part}' is not k:eta_offset:amplitude")
            continue
        try:
            k, off, amp = int(fields[0]), float(fields[1]), float(fields[2])
        except ValueError:
            bad.append(f"[initial-data] modes: entry '{part}' has non-numeric fields")
            continue
        if k_max >= 1 and not (1 <= k <= k_max):
            bad.append(f"[initial-data] modes: need 1 <= k <= k_max = {k_max}, got k = {k}")
        if not (math.isfinite(off) and math.isfinite(amp)):
            bad.append(f"[initial-data] modes: entry '{part}' must be finite")
        modes.append((k, off, amp))
    if random_modes > 0 and modes:
        bad.append("[initial-data] choose explicit modes or random_modes, not both")
    profile = raw("initial-data", "profile", "none")
    if profile not in _PROFILES:
        bad.append(f"[initial-data] profile: choose from {', '.join(_PROFILES)}, got '{profile}'")

    out_dir = raw("output", "directory", "out")
    if not out_dir:
        bad.append("[output] directory: need a nonempty path")
    ftext = raw("output", "formats", "csv,json")
    asked = [p.strip() for p in ftext.split(",") if p.strip()]
    for f in asked:
        if f not in _FORMATS:
            bad.append(f"[output] formats: unknown format '{f}' "
                       f"(choose from {', '.join(_FORMATS)})")
    formats = tuple(f for f in _FORMATS if f in asked)

    if bad:
        raise ConfigError(bad)
    return ExperimentConfig(
        eq_name=eq_name, eq_params=eq_params, k_max=k_max, V=V, N_v=N_v,
        dt=dt, t_final=T, trace_stride=stride, snapshot_stride=snap_stride,
        gamma=gamma, sigma=sigma, delta=delta, lambda0=lam0, lambda1=lam1,
        modes=tuple(modes), profile_name=profile, random_modes=random_modes,
        random_amplitude=random_amp, out_dir=out_dir, formats=formats,
    )


def parse_file(path) -> ExperimentConfig:
    return parse(Path(path).read_text())


def config_echo(cfg: ExperimentConfig) -> str:
    """Canonical config text; parsing it back yields an equal config."""
    modes = ", ".join(f"{k}:{_fmt(off)}:{_fmt(amp)}" for (k, off, amp) in cfg.modes)
    lines = [
        "[equilibrium]",
        f"name = {cfg.eq_name}",
        f"params = {', '.join(_fmt(p) for p in cfg.eq_params)}",
        "",
        "[grid]",
        f"k_max = {cfg.k_max}",
        f"V = {_fmt(cfg.V)}",
        f"N_v = {cfg.N_v}",
        "",
        "[time]",
        f"dt = {_fmt(cfg.dt)}",
        f"T = {_fmt(cfg.t_final)}",
        f"stride = {cfg.trace_stride}",
        f"snapshot_stride = {cfg.snapshot_stride}",
        "",
        "[weights]",
        f"gamma = {_fmt(cfg.gamma)}",
        f"sigma = {_fmt(cfg.sigma)}",
        f"delta = {_fmt(cfg.delta)}",
        f"lambda0 = {_fmt(cfg.lambda0)}",
        f"lambda1 = {_fmt(cfg.lambda1)}",
        "",
        "[initial-data]",
        f"modes = {modes}",
        f"profile = {cfg.profile_name}",
        f"random_modes = {cfg.random_modes}",
        f"random_amplitude = {_fmt(cfg.random_amplitude)}",
        "",
        "[output]",
        f"directory = {cfg.out_dir}",
        f"formats = {','.join(cfg.formats)}",
        "",
    ]
    return "\n".join(lines)


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


def _summary_head(command: str, cfg: ExperimentConfig) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "package_version": __version__,
        "config_hash": config_hash(cfg),
        "command": command,
    }


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
        if k not in per_k:
            per_k[k] = []
        if not times or t > times[-1]:
            times.append(t)
        per_k[k].append(complex(float(re_s), float(im_s)))
    n = len(times)
    for k, vals in per_k.items():
        if len(vals) != n:
            raise ValueError(f"{path}: mode {k} has {len(vals)} samples, expected {n}")
    return file_hash, np.asarray(times), {k: np.asarray(v) for k, v in per_k.items()}


_SNAP_HEADER = struct.Struct("<iidd")  # k_max, N_v, V, t


def write_snapshot(path, cfg_hash: str, grid: Grid, snap: Snapshot) -> None:
    data = np.ascontiguousarray(snap.data).astype("<c8", copy=False)
    with open(path, "wb") as fh:
        fh.write(cfg_hash.encode("ascii"))
        fh.write(_SNAP_HEADER.pack(grid.k_max, grid.N_v, grid.V, snap.t))
        fh.write(data.tobytes(order="C"))


def read_snapshot(path):
    """(hash, grid, snapshot) back from the binary layout."""
    blob = Path(path).read_bytes()
    if len(blob) < 64 + _SNAP_HEADER.size:
        raise ValueError(f"{path} is too short to be a snapshot file")
    file_hash = blob[:64].decode("ascii")
    k_max, N_v, V, t = _SNAP_HEADER.unpack_from(blob, 64)
    count = (2 * k_max + 1) * N_v
    expected = 64 + _SNAP_HEADER.size + 8 * count
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for a "
                         f"(k_max={k_max}, N_v={N_v}) snapshot, got {len(blob)}")
    data = np.frombuffer(blob, dtype="<c8", offset=64 + _SNAP_HEADER.size,
                         count=count).reshape(2 * k_max + 1, N_v)
    return file_hash, Grid(k_max=k_max, V=V, N_v=N_v), Snapshot(t=t, data=data.copy())


# ---------------------------------------------------------------------------
# subcommands


@dataclass(frozen=True)
class _Options:
    out_dir: Path
    seed: int


def _prepare(cfg: ExperimentConfig, opts: _Options) -> str:
    opts.out_dir.mkdir(parents=True, exist_ok=True)
    h = config_hash(cfg)
    (opts.out_dir / "config.ini").write_text(f"# config-hash: {h}\n" + config_echo(cfg))
    return h


def _fit_or_none(trace: DensityTrace):
    try:
        fit = fit_decay(trace, gamma=1.0)
    except ValueError:
        return None
    return {"rate": fit.rate, "log_amplitude": fit.log_amplitude,
            "residual": fit.residual, "n_used": fit.n_used}


def _cmd_penrose(cfg: ExperimentConfig, opts: _Options) -> int:
    _prepare(cfg, opts)
    rep = full_report(cfg.equilibrium(), k_max_scan=cfg.k_max)
    payload = _summary_head("penrose", cfg)
    payload.update({
        "equilibrium": rep.equilibrium,
        "kappa0": rep.kappa0,
        "theta1": rep.theta1,
        "k_tail": rep.k_tail,
        "roots": [{"k": k, "re": lam.real, "im": lam.imag, "residual": res}
                  for (k, lam, res) in rep.roots],
        "windings": [{"k": k, "rect": list(rect), "winding": w}
                     for (k, rect, w) in rep.windings],
        "scan": rep.scan,
    })
    _write_json(opts.out_dir / "penrose.json", payload)
    return 0


def _cmd_linear(cfg: ExperimentConfig, opts: _Options) -> int:
    h = _prepare(cfg, opts)
    modes = cfg.run_modes(opts.seed)
    if not modes:
        raise ValueError("linear needs at least one initial mode")
    eq = cfg.equilibrium()
    hat0 = cosine_initial_hat(cfg.profile() or eq, modes)
    ks = sorted({int(k) for (k, _, _) in modes})
    traces = {}
    fits = {}
    for k in ks:
        trace = volterra_solve(eq, k, lambda ts, k=k: source_from_initial(hat0, k, ts),
                               cfg.dt, cfg.t_final)
        traces[k] = trace
        fits[str(k)] = _fit_or_none(trace)
    times = traces[ks[0]].times
    idx = record_steps(times.size - 1, cfg.trace_stride)
    if "csv" in cfg.formats:
        _write_trace_csv(opts.out_dir / "traces.csv", h,
                         {k: tr.values[idx] for k, tr in traces.items()}, times[idx])
    payload = _summary_head("linear", cfg)
    payload.update({
        "equilibrium": eq.name,
        "modes": [[int(k), off, amp] for (k, amp, off) in modes],
        "dt": cfg.dt,
        "t_final": cfg.t_final,
        "fits": fits,
        "final_abs_field": {str(k): float(abs(tr.field_values[-1]))
                            for k, tr in traces.items()},
    })
    _write_json(opts.out_dir / "linear.json", payload)
    return 0


def _cmd_nonlinear(cfg: ExperimentConfig, opts: _Options) -> int:
    h = _prepare(cfg, opts)
    modes = cfg.run_modes(opts.seed)
    rc = RunConfig(eq=cfg.equilibrium(), grid=cfg.grid(), dt=cfg.dt,
                   t_final=cfg.t_final, modes=modes, trace_stride=cfg.trace_stride,
                   snapshot_stride=cfg.snapshot_stride, profile=cfg.profile())
    out = run(rc)
    if "csv" in cfg.formats:
        _write_trace_csv(opts.out_dir / "traces.csv", h,
                         {k: tr.values for k, tr in out.traces.items()}, out.times)
    if "snapshots" in cfg.formats:
        for i, snap in enumerate(out.snapshots):
            write_snapshot(opts.out_dir / f"snapshot_{i:06d}.bin", h, rc.grid, snap)
    try:
        closure = closure_residual(out)
    except MissingSnapshotsError:
        closure = None
    cons = out.conservation
    payload = _summary_head("nonlinear", cfg)
    payload.update({
        "equilibrium": rc.eq.name,
        "modes": [[int(k), off, amp] for (k, amp, off) in modes],
        "seed": opts.seed if cfg.random_modes else None,
        "n_steps": rc.n_steps,
        "conservation": {
            "mass_drift_max": float(np.max(cons["mass_drift"])),
            "l2_drift_max": float(np.max(cons["l2_drift"])),
            "reality_drift_max": out.reality_drift_max,
            "dealias_max": float(np.max(cons["dealias"])),
        },
        "closure_residual": closure,
        "fits": {str(k): _fit_or_none(out.traces[k])
                 for k in sorted({int(k) for (k, _, _) in modes})},
        "final_abs_field": {str(k): float(abs(tr.field_values[-1]))
                            for k, tr in sorted(out.traces.items())},
        "n_snapshots": len(out.snapshots),
    })
    _write_json(opts.out_dir / "nonlinear.json", payload)
    return 0


def _cmd_echo(cfg: ExperimentConfig, opts: _Options) -> int:
    _prepare(cfg, opts)
    rc = RunConfig(eq=cfg.equilibrium(), grid=cfg.grid(), dt=cfg.dt,
                   t_final=cfg.t_final, modes=cfg.run_modes(opts.seed),
                   trace_stride=cfg.trace_stride, profile=cfg.profile())
    rep = echo_experiment(rc)
    payload = _summary_head("echo", cfg)
    payload.update({
        "inconclusive": rep.inconclusive,
        "noise_floor": rep.noise_floor,
        "peaks": [{"mode": p.mode, "measured_time": p.measured_time,
                   "amplitude": p.amplitude, "predicted_time": p.predicted_time,
                   "relative_error": p.relative_error} for p in rep.peaks],
    })
    _write_json(opts.out_dir / "echo.json", payload)
    return 2 if rep.inconclusive else 0


def _load_run(cfg: ExperimentConfig, directory: Path) -> RunRecord:
    h = config_hash(cfg)
    trace_path = directory / "traces.csv"
    if not trace_path.exists():
        raise FileNotFoundError(f"{trace_path} not found; run the nonlinear "
                                "subcommand with csv output first")
    file_hash, times, values = _read_trace_csv(trace_path)
    if file_hash != h:
        raise ValueError(f"{trace_path} was written by a different config "
                         f"(hash {file_hash[:12]}.., expected {h[:12]}..)")
    grid = cfg.grid()
    snaps = []
    for path in sorted(directory.glob("snapshot_*.bin")):
        s_hash, s_grid, snap = read_snapshot(path)
        if s_hash != h:
            raise ValueError(f"{path} was written by a different config")
        if s_grid != grid:
            raise ValueError(f"{path} grid {s_grid} does not match the config grid {grid}")
        snaps.append(snap)
    if not snaps:
        raise FileNotFoundError(f"no snapshot files in {directory}; rerun the "
                                "nonlinear subcommand with formats = csv,json,snapshots")
    traces = {k: DensityTrace(k=k, times=times, values=v) for k, v in values.items()}
    return RunRecord(grid=grid, times=times, traces=traces, snapshots=snaps)


def _cmd_norms(cfg: ExperimentConfig, opts: _Options) -> int:
    h = _prepare(cfg, opts)
    stored = _load_run(cfg, opts.out_dir)
    params = cfg.weights()
    profile = norm_profile(stored, params)
    if "csv" in cfg.formats:
        with open(opts.out_dir / "norm_profile.csv", "w", newline="\n") as fh:
            fh.write(f"# config-hash: {h}\n")
            fh.write("t,z,G,F,lambda\n")
            for i, t in enumerate(profile.times):
                for j, z in enumerate(profile.z_grid):
                    fh.write(f"{_fmt(t)},{_fmt(z)},{_fmt(profile.G[i, j])},"
                             f"{_fmt(profile.F[i, j])},{_fmt(profile.lam[i])}\n")

    fg1 = fit_FG1(profile)
    contraction = check_contraction(stored, params, C0=fg1.C0)
    grid = stored.grid
    pick = np.unique(np.linspace(0, len(stored.snapshots) - 1,
                                 min(len(stored.snapshots), 16)).astype(int))
    sqrt_rows = []
    for i in pick:
        snap = stored.snapshots[i]
        state = snap.to_state(grid)
        rho = snapshot_density(stored, snap.t)
        lam = float(radius(snap.t, params))
        for z in (0.0, lam / 2.0, lam):
            m = check_F_le_sqrtG(state, rho, z, params)
            sqrt_rows.append({"t": snap.t, "z": z, "margin": m.margin, "ok": m.ok})
    final_state = stored.snapshots[-1].to_state(grid)
    mult = check_multiplier(final_state, cfg.lambda0, params)
    payload = _summary_head("norms", cfg)
    payload.update({
        "n_snapshots": len(stored.snapshots),
        "FG1": {"C0": fg1.C0, "max_violation": fg1.max_violation,
                "at_t": fg1.at[0], "at_z": fg1.at[1], "n_samples": fg1.n_samples},
        "contraction": {"C0": fg1.C0, "all_satisfied": bool(contraction.satisfied.all()),
                        "first_failure": contraction.first_failure},
        "sqrt_domination": sqrt_rows,
        "sqrt_domination_ok": all(r["ok"] for r in sqrt_rows),
        "multiplier": {"x_margin": mult.x_margin, "v_margin": mult.v_margin,
                       "h": mult.h, "ok": mult.ok},
        "eta_tail_fraction_final": eta_tail_fraction(final_state, cfg.lambda0, params),
    })
    _write_json(opts.out_dir / "norms.json", payload)
    return 0


def _cmd_report(cfg: ExperimentConfig, opts: _Options) -> int:
    h = _prepare(cfg, opts)
    artifacts = {}
    for path in sorted(opts.out_dir.glob("*.json")):
        if path.name == "report.json":
            continue
        artifacts[path.name] = json.loads(path.read_text())
    if not artifacts:
        raise FileNotFoundError(f"no JSON summaries in {opts.out_dir}; run a "
                                "subcommand first")
    foreign = sorted({a.get("config_hash") for a in artifacts.values()} - {h})
    payload = _summary_head("report", cfg)
    payload.update({"artifacts": artifacts, "foreign_hashes": foreign})
    _write_json(opts.out_dir / "report.json", payload)
    return 0


_COMMANDS = {
    "penrose": _cmd_penrose,
    "linear": _cmd_linear,
    "nonlinear": _cmd_nonlinear,
    "echo": _cmd_echo,
    "norms": _cmd_norms,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# entry point


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpdamp",
        description="Stability analysis and phase-mixing experiments on the torus.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
            ("penrose", "dispersion margin, strip width, and root report"),
            ("linear", "linearized density evolution and decay fits"),
            ("nonlinear", "full pseudo-spectral evolution with diagnostics"),
            ("echo", "two-wave echo experiment"),
            ("norms", "weighted-norm inequality report from stored snapshots"),
            ("report", "aggregate the JSON summaries in the output directory")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="path to the experiment config "
                       "(or set VPDAMP_CONFIG)")
        p.add_argument("--out", help="output directory override (or VPDAMP_OUT)")
        p.add_argument("--seed", type=int, help="RNG seed; random initial data "
                       "only (or VPDAMP_SEED)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses code 2 for usage errors; 2 is reserved for inconclusive
        return 0 if exc.code == 0 else 1

    config_path = args.config or _env("CONFIG")
    if not config_path:
        print("error: no config given (use --config or VPDAMP_CONFIG)", file=sys.stderr)
        return 1
    try:
        cfg = parse_file(config_path)
    except FileNotFoundError:
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1

    seed = args.seed if args.seed is not None else _env("SEED")
    try:
        seed = 0 if seed is None else int(seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    seed_given = args.seed is not None or _env("SEED") is not None
    if seed_given and cfg.random_modes == 0:
        print("error: --seed applies to random initial data only "
              "(set random_modes in [initial-data])", file=sys.stderr)
        return 1

    out_dir = Path(args.out or _env("OUT") or cfg.out_dir)
    opts = _Options(out_dir=out_dir, seed=seed)
    try:
        return _COMMANDS[args.command](cfg, opts)
    except Exception as exc:  # surface solver refusals as clean CLI errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
