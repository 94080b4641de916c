"""Config parsing, artifact formats, exit codes, and rerun determinism."""

import argparse
import ast
import collections
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vpdamp
from vpdamp import cli, nonlinear, norms, spectral
from vpdamp.linear import cosine_initial_hat, source_from_initial, volterra_solve
from vpdamp.nonlinear import Snapshot, closure_residual, run
from vpdamp.norms import norm_profile
from vpdamp.penrose import NoStableStripError, strip_width
from vpdamp.spectral import Grid, fft_length, required_nv

MINIMAL = "[equilibrium]\nname = gaussian\n"


def config_text(directory, **kw):
    """A small but fully explicit gaussian run config."""
    opts = {
        "name": "gaussian", "params": "", "k_max": 2, "V": 8.0, "N_v": 256,
        "dt": 1e-2, "T": 2.0, "stride": 5, "snapshot_stride": 50,
        "modes": "1:0.0:1e-3", "profile": "none",
        "formats": "csv,json,snapshots",
    }
    opts.update(kw)
    return f"""
[equilibrium]
name = {opts['name']}
params = {opts['params']}

[grid]
k_max = {opts['k_max']}
V = {opts['V']}
N_v = {opts['N_v']}

[time]
dt = {opts['dt']}
T = {opts['T']}
stride = {opts['stride']}
snapshot_stride = {opts['snapshot_stride']}

[initial-data]
modes = {opts['modes']}
profile = {opts['profile']}

[output]
directory = {directory}
formats = {opts['formats']}
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParse:
    def test_minimal_gaussian_fills_defaults(self):
        cfg = cli.parse(MINIMAL)
        assert cfg.eq_name == "gaussian" and cfg.eq_params == ()
        assert (cfg.k_max, cfg.V, cfg.N_v) == (4, 8.0, 256)
        assert (cfg.dt, cfg.t_final) == (1e-3, 10.0)
        assert (cfg.trace_stride, cfg.snapshot_stride) == (1, 0)
        assert (cfg.gamma, cfg.sigma, cfg.delta) == (1.0, 3.2, 0.1)
        assert (cfg.lambda0, cfg.lambda1) == (0.05, 0.2)
        assert cfg.modes == ((1, 0.0, 1e-3),)
        assert cfg.profile_name == "none" and cfg.profile() is None
        assert cfg.out_dir == "out" and cfg.formats == ("csv", "json")

    def test_auto_nv_respects_resolution_rule(self):
        cfg = cli.parse(MINIMAL + "[time]\nT = 50.0\ndt = 1e-2\n")
        need = required_nv(8.0, 4, 50.0)
        assert need > 256
        assert cfg.N_v >= need and cfg.N_v % 2 == 0
        # the least even 2^a 3^b 5^c length, a fast FFT: 1020 = 2^2 3 5 17 would not be
        assert cfg.N_v == 2 * fft_length(-(-need // 2)) == 1024
        rest = cfg.N_v
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        assert rest == 1
        assert cli._auto_nv(8.0, 8, 30.0) == 1250  # README grid at T = 30; 1224 = 2^3 3^2 17

    def test_directly_built_config_resolves_auto_nv(self):
        # N_v = 0 is the auto value whether or not the config went through parse
        parsed, direct = cli.parse(MINIMAL), cli.ExperimentConfig(eq_name="gaussian")
        assert direct.N_v == 0
        assert direct.grid() == parsed.grid() == Grid(k_max=4, V=8.0, N_v=256)
        assert direct.run_config(seed=0).grid == parsed.run_config(seed=0).grid

    def test_equilibrium_params_reach_constructor(self):
        cfg = cli.parse("[equilibrium]\nname = two_stream\nparams = 3.0\n")
        assert cfg.eq_params == (3.0,)
        assert cfg.equilibrium().name == "two_stream"

    def test_gamma_below_regularity_cites_inequality(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse(MINIMAL + "[weights]\ngamma = 0.3\n")
        assert "3*gamma > 1 + 2*delta" in str(err.value)

    def test_sigma_violation_cites_inequality(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse(MINIMAL + "[weights]\nsigma = 2.0\ndelta = 0.1\n")
        assert "sigma > 3 + delta" in str(err.value)

    def test_all_violations_listed_not_just_first(self):
        text = """
[equilibrium]
name = nosuch
[grid]
k_max = 0
V = -1
[weights]
gamma = 0.3
sigma = 2.0
[output]
formats = csv,yaml
[mystery]
x = 1
"""
        with pytest.raises(cli.ConfigError) as err:
            cli.parse(text)
        v = "\n".join(err.value.violations)
        for expected in ("unknown section [mystery]", "unknown equilibrium 'nosuch'",
                         "k_max >= 1", "V > 0", "3*gamma > 1 + 2*delta",
                         "sigma > 3 + delta", "unknown format 'yaml'"):
            assert expected in v
        assert len(err.value.violations) >= 7

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown key 'colour'"):
            cli.parse(MINIMAL + "[grid]\ncolour = blue\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="not a well-formed config"):
            cli.parse("[grid]\nk_max = 2\nk_max = 3\n[equilibrium]\nname = gaussian\n")

    def test_time_not_multiple_of_dt(self):
        with pytest.raises(cli.ConfigError, match="integer multiple of dt"):
            cli.parse(MINIMAL + "[time]\ndt = 1e-3\nT = 0.0015\n")

    def test_step_limit_is_a_config_error(self):
        with pytest.raises(cli.ConfigError, match=r"\[time\] T: .*step limit"):
            cli.parse(MINIMAL + "[time]\ndt = 1e-9\nT = 100\n")

    def test_zero_final_time_accepted(self):
        assert cli.parse(MINIMAL + "[time]\nT = 0\n").t_final == 0.0

    def test_explicit_nv_below_resolution_rule(self):
        with pytest.raises(cli.ConfigError, match=r"2\*V\*k_max\*T/pi"):
            cli.parse(MINIMAL + "[grid]\nN_v = 64\n[time]\nT = 20.0\ndt = 1e-2\n")

    def test_mode_out_of_range_cites_k_max(self):
        with pytest.raises(cli.ConfigError, match="1 <= k <= k_max = 4"):
            cli.parse(MINIMAL + "[initial-data]\nmodes = 9:0.0:1e-3\n")

    def test_malformed_mode_entry(self):
        with pytest.raises(cli.ConfigError, match="k:eta_offset:amplitude"):
            cli.parse(MINIMAL + "[initial-data]\nmodes = 1:0.0\n")

    def test_random_and_explicit_modes_conflict(self):
        with pytest.raises(cli.ConfigError, match="not both"):
            cli.parse(MINIMAL
                      + "[initial-data]\nmodes = 1:0.0:1e-3\nrandom_modes = 2\n")

    def test_two_stream_arity_checked(self):
        with pytest.raises(cli.ConfigError, match="exactly 1 parameter"):
            cli.parse("[equilibrium]\nname = two_stream\n")

    @pytest.mark.parametrize("u", ["nan", "inf", "-1"])
    def test_two_stream_separation_refused_with_the_rest(self, u):
        # the constructor's refusal is a parse-time violation, listed with the others
        with pytest.raises(cli.ConfigError) as err:
            cli.parse(f"[equilibrium]\nname = two_stream\nparams = {u}\n[grid]\nk_max = 0\n")
        assert [line.split(":")[0] for line in err.value.violations] == [
            "[equilibrium] params", "[grid] k_max"]
        assert "stream separation must be finite and >= 0" in err.value.violations[0]

    @pytest.mark.parametrize("weights,refused", [
        ("sigma = inf", ["sigma"]),
        ("lambda1 = inf", ["lambda1"]),
        ("lambda0 = inf\nlambda1 = inf", ["lambda0", "lambda1"]),
        ("gamma = nan", ["gamma"]),
    ], ids=["sigma", "lambda1", "both-radii", "gamma-nan"])
    def test_non_finite_weight_refused_with_the_rest(self, weights, refused):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse(MINIMAL + f"[grid]\nk_max = 0\n[weights]\n{weights}\n")
        assert err.value.violations[0].startswith("[grid] k_max")
        assert [line.split(",")[0] for line in err.value.violations[1:]] == [
            f"[weights] need a finite {name}" for name in refused]

    @pytest.mark.parametrize("section,text,owner", [
        ("grid", "k_max = 0", lambda: Grid(k_max=0, V=8.0, N_v=256)),
        ("grid", "V = nan", lambda: Grid(k_max=4, V=math.nan, N_v=256)),
        ("grid", "N_v = 5", lambda: Grid(k_max=4, V=8.0, N_v=5)),
        ("time", "stride = 0", lambda: spectral.check_strides(0, 0)),
        ("time", "snapshot_stride = -1", lambda: spectral.check_strides(1, -1)),
        ("initial-data", "modes = 9:0.0:1e-3",
         lambda: nonlinear.check_modes([(9, 1e-3, 0.0)], 4)),
        ("initial-data", "modes = 1:0.0:inf",
         lambda: nonlinear.check_modes([(1, math.inf, 0.0)], 4)),
    ], ids=["k_max", "V", "N_v", "stride", "snapshot_stride", "mode-k", "mode-amplitude"])
    def test_violation_is_the_owners_message(self, section, text, owner):
        # parse restates no grid, stride or mode rule: it reports the owner's words
        with pytest.raises(ValueError) as exc:
            owner()
        with pytest.raises(cli.ConfigError) as err:
            cli.parse(MINIMAL + f"[{section}]\n{text}\n")
        assert err.value.violations == (f"[{section}] {exc.value}",)

    def test_grid_names_every_failure(self):
        with pytest.raises(ValueError) as exc:
            Grid(k_max=0, V=math.nan, N_v=5)
        parts = str(exc.value).split("; ")
        assert [part.split(":")[0] for part in parts] == ["k_max", "V", "N_v"]
        with pytest.raises(cli.ConfigError) as err:
            cli.parse(MINIMAL + "[grid]\nk_max = 0\nV = nan\nN_v = 5\n")
        assert err.value.violations == tuple(f"[grid] {part}" for part in parts)

    @pytest.mark.parametrize("grid", ["V = 1e308", "V = 1e308\nN_v = 256"],
                             ids=["auto-N_v", "explicit-N_v"])
    def test_overflowing_resolution_requirement_is_a_violation(self, grid):
        # 2*V*k_max*T/pi overflows to inf: the resolution rule names V, parse reports it
        with pytest.raises(spectral.ResolutionError) as exc:
            required_nv(1e308, 4, 10.0)
        with pytest.raises(cli.ConfigError) as err:
            cli.parse(MINIMAL + f"[grid]\n{grid}\n")
        assert err.value.violations == (f"[grid] {exc.value}",)
        assert str(exc.value).startswith("V: ")

    @pytest.mark.parametrize("text,violation", [
        ("[equilibrium]\nname =\n",
         "[equilibrium] name: required (gaussian, two_stream, or zero)"),
        (MINIMAL + "params = a, b\n",
         "[equilibrium] params: expected comma-separated numbers, got 'a, b'"),
        (MINIMAL + "[initial-data]\nmodes = 1:x:1e-3\n",
         "[initial-data] modes: entry '1:x:1e-3' has non-numeric fields"),
        (MINIMAL + "[initial-data]\nprofile = foo\n",
         "[initial-data] profile: choose from none, gaussian, zero, got 'foo'"),
        (MINIMAL + "[output]\ndirectory =\n", "[output] directory: need a nonempty path"),
        (MINIMAL + "[initial-data]\nrandom_modes = -1\n",
         "[initial-data] random_modes: need random_modes >= 0, got -1"),
        (MINIMAL + "[initial-data]\nrandom_amplitude = 0\n",
         "[initial-data] random_amplitude: need a positive finite number, got 0.0"),
    ], ids=["empty-name", "params", "mode-fields", "profile", "empty-directory",
            "random_modes", "random_amplitude"])
    def test_reader_refusal_is_a_violation(self, text, violation):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse(text)
        assert err.value.violations == (violation,)


class TestEchoRoundTrip:
    def test_minimal_round_trips(self):
        cfg = cli.parse(MINIMAL)
        again = cli.parse(cli.config_echo(cfg))
        assert again == cfg
        assert cli.config_hash(again) == cli.config_hash(cfg)

    def test_full_config_round_trips(self, tmp_path):
        text = config_text(tmp_path / "o", name="two_stream", params="3.0",
                           modes="1:0.25:1e-4, 2:-1.5:5e-5", profile="gaussian")
        cfg = cli.parse(text)
        assert cli.parse(cli.config_echo(cfg)) == cfg

    def test_echo_file_on_disk_reparses_identical(self, tmp_path):
        path = write_config(tmp_path, config_text(tmp_path / "o", T=0.1,
                                                  snapshot_stride=0))
        assert cli.main(["nonlinear", "--config", str(path)]) == 0
        echoed = (tmp_path / "o" / "config.ini").read_text()
        assert echoed.startswith("# config-hash: ")
        cfg = cli.parse(echoed)  # the hash line is a comment to the parser
        assert cfg == cli.parse(path.read_text())
        assert echoed.split("\n", 1)[0].endswith(cli.config_hash(cfg))


class TestJsonRendering:
    def test_floats_carry_17_significant_digits(self):
        assert cli._json_render({"x": 0.1}) == '{\n  "x": 0.10000000000000001\n}'

    def test_non_finite_becomes_null(self):
        assert cli._json_render([float("nan"), float("inf")]) == \
            "[\n  null,\n  null\n]"

    def test_nested_containers_and_scalars(self):
        out = cli._json_render({"a": [1, True, None], "b": {"c": "s"}})
        assert json.loads(out) == {"a": [1, True, None], "b": {"c": "s"}}

    def test_complex_splits_into_re_im(self):
        assert json.loads(cli._json_render(1 + 2j)) == {"re": 1.0, "im": 2.0}


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        from vpdamp.nonlinear import Snapshot
        grid = Grid(k_max=2, V=8.0, N_v=16)
        rng = np.random.default_rng(3)
        data = (rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16)))
        snap = Snapshot(t=1.25, data=data.astype(np.complex64))
        path = tmp_path / "s.bin"
        cli.write_snapshot(path, "ab" * 32, grid, snap)
        h, g, back = cli.read_snapshot(path)
        assert h == "ab" * 32
        assert g == grid and back.t == 1.25
        assert back.data.dtype == np.complex64
        np.testing.assert_array_equal(back.data, snap.data)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(b"x" * 70)
        with pytest.raises(ValueError, match="too short"):
            cli.read_snapshot(path)


class TestPenroseCommand:
    def test_gaussian_report(self, tmp_path):
        path = write_config(tmp_path, "[equilibrium]\nname = gaussian\n"
                            f"[output]\ndirectory = {tmp_path / 'pen'}\n")
        assert cli.main(["penrose", "--config", str(path)]) == 0
        rep = json.loads((tmp_path / "pen" / "penrose.json").read_text())
        assert rep["kappa0"] > 0 and rep["theta1"] > 0
        assert rep["command"] == "penrose" and rep["format_version"] == 1
        ks = [r["k"] for r in rep["roots"]]
        assert ks == [1, 2] and all(r["re"] < 0 for r in rep["roots"])
        # frozen stability margin, serialized at full precision
        text = (tmp_path / "pen" / "penrose.json").read_text()
        assert "0.75091727859177171" in text


class TestLinearCommand:
    def test_zero_kernel_trace_equals_source(self, tmp_path):
        path = write_config(tmp_path, config_text(
            tmp_path / "lin", name="zero", profile="gaussian", k_max=2,
            dt=1e-2, T=2.0, stride=1, snapshot_stride=0, formats="csv,json"))
        assert cli.main(["linear", "--config", str(path)]) == 0
        _, times, vals = cli._read_trace_csv(tmp_path / "lin" / "linear_traces.csv")
        source = 0.5e-3 * np.exp(-times**2 / 2.0)
        assert np.max(np.abs(vals[1] - source)) <= 1e-14
        rep = json.loads((tmp_path / "lin" / "linear.json").read_text())
        assert set(rep["fits"]) == {"1"}

    def test_landau_rate_recovered(self, tmp_path):
        path = write_config(tmp_path, config_text(
            tmp_path / "lin2", k_max=1, N_v=256, dt=1e-2, T=10.0,
            stride=1, snapshot_stride=0, formats="json"))
        assert cli.main(["linear", "--config", str(path)]) == 0
        rep = json.loads((tmp_path / "lin2" / "linear.json").read_text())
        rate = rep["fits"]["1"]["rate"]
        assert abs(rate - 0.8513304555998186) / 0.8513304555998186 < 0.05
        assert not (tmp_path / "lin2" / "linear_traces.csv").exists()

    def test_propagator_fit_is_the_direct_fit(self, tmp_path):
        # the linear estimate in the density norm, at the strip width penrose certifies
        path = write_config(tmp_path, config_text(tmp_path / "lin3", formats="json"))
        assert cli.main(["linear", "--config", str(path)]) == 0
        got = json.loads((tmp_path / "lin3" / "linear.json").read_text())["propagator"]
        cfg = cli.parse_file(path)
        eq = cfg.equilibrium()
        hat0 = cosine_initial_hat(eq, cfg.run_modes())
        tr = volterra_solve(eq, 1, lambda ts: source_from_initial(hat0, 1, ts),
                            cfg.dt, cfg.t_final)
        fit = norms.check_propagator(1, tr.times, tr.values,
                                     source_from_initial(hat0, 1, tr.times),
                                     strip_width(eq), cfg.weights())
        assert set(got) == {"1"} and math.isfinite(got["1"]["C"])
        assert got["1"] == {"C": fit.C, "at_t": fit.at[0], "at_z": fit.at[1],
                            "n_samples": fit.n_samples}

    def test_propagator_null_without_a_strip_or_samples(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, config_text(tmp_path / "lin4", T=0.0, formats="json"))
        assert cli.main(["linear", "--config", str(path)]) == 0
        rep = json.loads((tmp_path / "lin4" / "linear.json").read_text())
        assert rep["propagator"] == {"1": None}  # one sample: nothing to fit

        def unstable(eq):
            raise NoStableStripError(f"no zero-free strip found for {eq.name}")

        monkeypatch.setattr(cli, "strip_width", unstable)
        path = write_config(tmp_path, config_text(tmp_path / "lin5", formats="json"))
        assert cli.main(["linear", "--config", str(path)]) == 0
        rep = json.loads((tmp_path / "lin5" / "linear.json").read_text())
        assert rep["propagator"] is None and rep["fits"]["1"] is not None


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("nl")
    path = write_config(tmp, config_text(tmp / "run"))
    assert cli.main(["nonlinear", "--config", str(path)]) == 0
    return tmp, path


class TestNonlinearCommand:
    def test_artifacts_present(self, run_dir):
        tmp, _ = run_dir
        names = sorted(p.name for p in (tmp / "run").iterdir())
        assert "config.ini" in names and "nonlinear.json" in names
        assert "traces.csv" in names
        assert sum(n.startswith("snapshot_") for n in names) == 5

    def test_trace_csv_layout(self, run_dir):
        tmp, path = run_dir
        cfg = cli.parse(path.read_text())
        lines = (tmp / "run" / "traces.csv").read_text().splitlines()
        assert lines[0] == f"# config-hash: {cli.config_hash(cfg)}"
        assert lines[1] == "t,k,re_rho,im_rho,abs_E"
        n_rec = 2.0 / 1e-2 / 5 + 1
        assert len(lines) - 2 == int(n_rec) * cfg.k_max
        first = lines[2].split(",")
        assert first[0] == "0" and first[1] == "1"
        # |E_1| = |rho_1| / 1 on the first row
        assert float(first[4]) == pytest.approx(abs(complex(float(first[2]),
                                                            float(first[3]))))

    def test_summary_conservation_and_fit(self, run_dir):
        tmp, _ = run_dir
        rep = json.loads((tmp / "run" / "nonlinear.json").read_text())
        assert rep["conservation"]["mass_drift_max"] < 1e-10
        assert rep["conservation"]["reality_drift_max"] < 1e-12
        assert rep["fits"]["1"]["rate"] > 0
        assert rep["seed"] is None and rep["n_snapshots"] == 5
        assert "threads" not in rep

    def test_rerun_is_byte_identical(self, run_dir):
        tmp, path = run_dir
        digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
        before = {p.name: digest(p) for p in (tmp / "run").iterdir()}
        assert cli.main(["nonlinear", "--config", str(path)]) == 0
        after = {p.name: digest(p) for p in (tmp / "run").iterdir()}
        assert after == before

    def test_snapshots_round_trip_on_grid(self, run_dir):
        tmp, path = run_dir
        cfg = cli.parse(path.read_text())
        snaps = sorted((tmp / "run").glob("snapshot_*.bin"))
        ts = []
        for p in snaps:
            h, grid, snap = cli.read_snapshot(p)
            assert h == cli.config_hash(cfg)
            assert grid == cfg.grid()
            ts.append(snap.t)
        assert ts == sorted(ts) and ts[-1] == 2.0

    def test_closure_null_when_traces_are_strided(self, tmp_path):
        path = write_config(tmp_path, config_text(tmp_path / "o", T=0.1, stride=2,
                                                  snapshot_stride=1))
        assert cli.main(["nonlinear", "--config", str(path)]) == 0
        rep = json.loads((tmp_path / "o" / "nonlinear.json").read_text())
        assert rep["closure_residual"] is None

    def test_closure_reported_whenever_every_step_is_stored(self, tmp_path):
        # one step: the initial and final snapshots are every state
        path = write_config(tmp_path, config_text(tmp_path / "o", T=0.01, stride=1))
        assert cli.main(["nonlinear", "--config", str(path)]) == 0
        rep = json.loads((tmp_path / "o" / "nonlinear.json").read_text())
        assert rep["n_snapshots"] == 2 and rep["closure_residual"] < 1e-10


class TestNormsCommand:
    def test_pipeline_from_stored_artifacts(self, tmp_path):
        path = write_config(tmp_path, config_text(tmp_path / "o", T=2.0,
                                                  stride=5, snapshot_stride=20))
        assert cli.main(["nonlinear", "--config", str(path)]) == 0
        assert cli.main(["norms", "--config", str(path)]) == 0
        rep = json.loads((tmp_path / "o" / "norms.json").read_text())
        assert rep["FG1"]["C0"] > 0 and rep["FG1"]["max_violation"] == 0
        assert rep["sqrt_domination_ok"] is True
        assert rep["multiplier"]["ok"] is True
        assert 0 <= rep["eta_tail_fraction_final"] < 0.1
        lines = (tmp_path / "o" / "norm_profile.csv").read_text().splitlines()
        assert lines[1] == "t,z,G,F,lambda"
        assert len(lines) - 2 == rep["n_snapshots"] * 33

    def test_one_profile_per_run(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, config_text(tmp_path / "o", T=1.0,
                                                  stride=5, snapshot_stride=20))
        assert cli.main(["nonlinear", "--config", str(path)]) == 0
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return norm_profile(*args, **kwargs)

        monkeypatch.setattr(cli, "norm_profile", counted)
        monkeypatch.setattr(norms, "norm_profile", counted)
        assert cli.main(["norms", "--config", str(path)]) == 0
        assert len(calls) == 1

    def test_one_eta_mass_and_one_read_per_snapshot(self, tmp_path, monkeypatch):
        # the profile's folded masses also serve the sqrt(G) rows, the multiplier and
        # the tail fraction: one eta_mass per snapshot file, and each file read once
        path = write_config(tmp_path, config_text(tmp_path / "o", T=0.2, stride=1,
                                                  snapshot_stride=1))
        assert cli.main(["nonlinear", "--config", str(path)]) == 0
        files = sorted((tmp_path / "o").glob("snapshot_*.bin"))
        assert len(files) == 21
        masses, reads = [], collections.Counter()
        mass, read = norms.eta_mass, cli.read_snapshot
        monkeypatch.setattr(norms, "eta_mass", lambda state: masses.append(1) or mass(state))
        monkeypatch.setattr(cli, "read_snapshot",
                            lambda path: reads.update([Path(path)]) or read(path))
        assert cli.main(["norms", "--config", str(path)]) == 0
        assert len(masses) == len(files)
        assert reads == collections.Counter(files)
        rep = json.loads((tmp_path / "o" / "norms.json").read_text())
        assert len(rep["sqrt_domination"]) == 3 * 16

    def test_failed_command_leaves_config_and_no_summary(self, tmp_path):
        path = write_config(tmp_path, config_text(tmp_path / "o"))
        assert cli.main(["norms", "--config", str(path)]) == 1
        names = sorted(p.name for p in (tmp_path / "o").iterdir())
        assert names == ["config.ini"]

    def test_requires_snapshots(self, tmp_path):
        path = write_config(tmp_path, config_text(tmp_path / "o", T=0.5,
                                                  formats="csv,json"))
        assert cli.main(["nonlinear", "--config", str(path)]) == 0
        assert cli.main(["norms", "--config", str(path)]) == 1

    @pytest.mark.parametrize("snapshot_stride, n", [(0, 1), (50, 2)])
    def test_refuses_fewer_than_3_snapshots_before_computing(self, tmp_path, monkeypatch,
                                                             capsys, snapshot_stride, n):
        path = write_config(tmp_path, config_text(tmp_path / "o", T=0.5,
                                                  snapshot_stride=snapshot_stride))
        assert cli.main(["nonlinear", "--config", str(path)]) == 0
        assert len(list((tmp_path / "o").glob("snapshot_*.bin"))) == n
        monkeypatch.setattr(cli, "norm_profile", lambda *args: pytest.fail("norm_profile ran"))
        capsys.readouterr()
        assert cli.main(["norms", "--config", str(path)]) == 1
        assert "need at least 3 snapshots for centered time differencing" in \
            capsys.readouterr().err
        assert not (tmp_path / "o" / "norm_profile.csv").exists()
        assert not (tmp_path / "o" / "norms.json").exists()

    def test_linear_run_leaves_the_nonlinear_traces(self, tmp_path):
        # linear writes linear_traces.csv: a linear run between nonlinear and norms changes
        # neither the traces norms reads nor its report
        path = write_config(tmp_path, config_text(tmp_path / "o", T=1.0, snapshot_stride=20))
        out = tmp_path / "o"
        assert cli.main(["nonlinear", "--config", str(path)]) == 0
        assert cli.main(["norms", "--config", str(path)]) == 0
        traces, report = (out / "traces.csv").read_bytes(), (out / "norms.json").read_bytes()
        (out / "norms.json").unlink()
        assert cli.main(["linear", "--config", str(path)]) == 0
        assert cli.main(["norms", "--config", str(path)]) == 0
        assert (out / "norms.json").read_bytes() == report
        assert (out / "traces.csv").read_bytes() == traces
        assert (out / "linear_traces.csv").exists()

    def test_rejects_foreign_artifacts(self, tmp_path):
        path = write_config(tmp_path, config_text(tmp_path / "o", T=1.0))
        assert cli.main(["nonlinear", "--config", str(path)]) == 0
        other = write_config(tmp_path, config_text(tmp_path / "o", T=2.0),
                             name="other.ini")
        assert cli.main(["norms", "--config", str(other)]) == 1


class TestStreamedRun:
    """nonlinear streams its snapshots to disk and norms reads them back one at a time."""

    def test_matches_the_in_memory_run(self, tmp_path):
        text = config_text(tmp_path / "o", T=0.3, stride=1, snapshot_stride=1,
                           modes="1:0.0:1e-2, 2:0.5:1e-2")
        path = write_config(tmp_path, text)
        for command in ("nonlinear", "norms"):
            assert cli.main([command, "--config", str(path)]) == 0
        cfg = cli.parse(path.read_text())
        opts = cli._Options(out_dir=tmp_path / "o", seed=0, cfg_hash=cli.config_hash(cfg))
        out = run(cfg.run_config(0, cfg.snapshot_stride))
        rep = json.loads((tmp_path / "o" / "nonlinear.json").read_text())
        assert rep["closure_residual"] == closure_residual(out)
        files = sorted((tmp_path / "o").glob("snapshot_*.bin"))
        assert len(files) == len(out.snapshots) == rep["n_snapshots"] == 31
        for file, snap in zip(files, out.snapshots):
            cli.write_snapshot(tmp_path / "ref.bin", opts.cfg_hash, out.grid, snap)
            assert file.read_bytes() == (tmp_path / "ref.bin").read_bytes()
        stored = cli._load_run(cfg, opts)
        from_files = norm_profile(stored, cfg.weights())
        in_memory = norm_profile(out, cfg.weights())
        np.testing.assert_array_equal(from_files.times, in_memory.times)
        np.testing.assert_array_equal(from_files.G, in_memory.G)
        np.testing.assert_array_equal(from_files.F, in_memory.F)

    def test_memory_does_not_grow_with_steps(self, tmp_path):
        # dense nonlinear + norms: at the same grid, twice the steps may not raise the
        # traced peak by a tenth (stored snapshots alone would add 72% here)
        def peak(T):
            text = config_text(tmp_path / f"o{T}", N_v=512, T=T, stride=1, snapshot_stride=1)
            path = write_config(tmp_path, text, name=f"{T}.ini")
            tracemalloc.start()
            try:
                for command in ("nonlinear", "norms"):
                    assert cli.main([command, "--config", str(path)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(0.05)  # first calls fill one-off caches
        short, long = peak(0.5), peak(1.0)
        assert long < 1.1 * short, f"traced peak {short / 1e6:.3f} -> {long / 1e6:.3f} MB"

    @pytest.mark.parametrize("damage, message", [
        ("hash", "was written by a different config"),
        ("grid", "does not match the config grid"),
        ("short", r"expected \d+ bytes for a \(k_max=2, N_v=256\) snapshot, got \d+"),
    ])
    def test_norms_refuses_bad_snapshot_files_before_computing(self, tmp_path, monkeypatch,
                                                               capsys, damage, message):
        path = write_config(tmp_path, config_text(tmp_path / "o", T=1.0, snapshot_stride=20))
        assert cli.main(["nonlinear", "--config", str(path)]) == 0
        last = sorted((tmp_path / "o").glob("snapshot_*.bin"))[-1]
        h, grid, snap = cli.read_snapshot(last)
        if damage == "hash":
            cli.write_snapshot(last, "ab" * 32, grid, snap)
        elif damage == "grid":
            cli.write_snapshot(last, h, Grid(k_max=2, V=8.0, N_v=128),
                               Snapshot(snap.t, snap.data[:, ::2]))
        else:
            last.write_bytes(last.read_bytes()[:-8])
        monkeypatch.setattr(cli, "norm_profile", lambda *args: pytest.fail("norm_profile ran"))
        capsys.readouterr()
        assert cli.main(["norms", "--config", str(path)]) == 1
        assert re.search(message, capsys.readouterr().err)

    def test_norms_refuses_misaligned_strides_before_computing(self, tmp_path, monkeypatch,
                                                               capsys):
        # snapshots every 5 steps, traces every 3: the snapshot at t = 0.05 has no trace
        path = write_config(tmp_path, config_text(tmp_path / "o", T=0.5, stride=3,
                                                  snapshot_stride=5))
        assert cli.main(["nonlinear", "--config", str(path)]) == 0
        calls = []
        monkeypatch.setattr(cli, "norm_profile", lambda *args: calls.append(args))
        capsys.readouterr()
        assert cli.main(["norms", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "traces were not recorded at snapshot time t = 0.05" in err
        assert "use a snapshot_stride that is a multiple of stride" in err
        assert calls == []


class TestEchoCommand:
    def test_two_wave_echo_report(self, tmp_path):
        path = write_config(tmp_path, config_text(
            tmp_path / "e", name="zero", profile="gaussian", k_max=4,
            N_v=512, dt=0.02, T=14.0, stride=1, snapshot_stride=0,
            modes="1:10.0:1e-3, 1:0.0:1e-3", formats="json"))
        assert cli.main(["echo", "--config", str(path)]) == 0
        rep = json.loads((tmp_path / "e" / "echo.json").read_text())
        assert rep["inconclusive"] is False
        primary = next(p for p in rep["peaks"] if p["mode"] == 1)
        assert abs(primary["measured_time"] - 10.0) <= 2 * 0.02
        secondary = next(p for p in rep["peaks"] if p["mode"] == 2)
        assert secondary["relative_error"] < 0.05

    def test_below_noise_floor_is_inconclusive(self, tmp_path):
        path = write_config(tmp_path, config_text(
            tmp_path / "e", name="zero", profile="gaussian",
            dt=0.05, T=3.0, modes="1:2.0:1e-14, 1:0.0:1e-14",
            snapshot_stride=0, formats="json"))
        assert cli.main(["echo", "--config", str(path)]) == 2
        rep = json.loads((tmp_path / "e" / "echo.json").read_text())
        assert rep["inconclusive"] is True and rep["peaks"] == []


class TestReportCommand:
    def test_aggregates_summaries(self, tmp_path):
        path = write_config(tmp_path, config_text(tmp_path / "o", T=0.1,
                                                  snapshot_stride=0,
                                                  formats="json"))
        assert cli.main(["nonlinear", "--config", str(path)]) == 0
        assert cli.main(["report", "--config", str(path)]) == 0
        rep = json.loads((tmp_path / "o" / "report.json").read_text())
        assert list(rep["artifacts"]) == ["nonlinear.json"]
        assert rep["foreign_hashes"] == []

    def test_empty_directory_is_an_error(self, tmp_path):
        path = write_config(tmp_path, config_text(tmp_path / "nothing",
                                                  formats="json"))
        assert cli.main(["report", "--config", str(path)]) == 1


class TestExitCodesAndFlags:
    def test_usage_error_exits_1(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_config_exits_1(self, capsys):
        assert cli.main(["penrose"]) == 1
        assert "no config" in capsys.readouterr().err

    def test_nonexistent_config_exits_1(self):
        assert cli.main(["penrose", "--config", "/no/such/file.ini"]) == 1

    def test_invalid_config_prints_all_violations(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL + "[weights]\ngamma = 0.3\nsigma = 2.0\n")
        assert cli.main(["penrose", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "3*gamma > 1 + 2*delta" in err and "sigma > 3 + delta" in err

    @pytest.mark.parametrize("command", ["penrose", "linear", "nonlinear"])
    def test_non_finite_separation_exits_1(self, tmp_path, capsys, command):
        path = write_config(tmp_path, config_text(tmp_path / "o", name="two_stream",
                                                  params="nan", formats="json"))
        assert cli.main([command, "--config", str(path)]) == 1
        assert "[equilibrium] params" in capsys.readouterr().err
        assert not (tmp_path / "o" / f"{command}.json").exists()

    def test_non_finite_weight_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, config_text(tmp_path / "o", T=1.0)
                            + "\n[weights]\nsigma = inf\n")
        assert cli.main(["norms", "--config", str(path)]) == 1
        assert "[weights] need a finite sigma, got sigma = inf" in capsys.readouterr().err
        assert not (tmp_path / "o" / "norms.json").exists()

    def test_overflowing_V_exits_1_without_traceback(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL + "[grid]\nV = 1e308\n")
        assert cli.main(["penrose", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "[grid] V: need 2*V*k_max*T/pi finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,modes,traces,message", [
        ("linear", "", None, "error: linear needs at least one initial mode"),
        ("norms", "1:0.0:1e-3", "t,k,re_rho,im_rho,abs_E\n0,1,0,0,0\n",
         "traces.csv has no config-hash header"),
        ("norms", "1:0.0:1e-3", "# config-hash: 0\nt,k,rho\n0,1,0\n",
         "traces.csv has an unexpected column header"),
        ("norms", "1:0.0:1e-3",
         "# config-hash: 0\nt,k,re_rho,im_rho,abs_E\n0,1,0,0,0\n0,2,0,0,0\n0.1,1,0,0,0\n",
         "traces.csv: mode 2 has 1 samples, expected 2"),
    ], ids=["linear-without-modes", "trace-hash-line", "trace-columns", "trace-short-mode"])
    def test_command_refusal_exits_1(self, tmp_path, capsys, command, modes, traces, message):
        path = write_config(tmp_path, config_text(tmp_path / "o", modes=modes))
        if traces is not None:
            (tmp_path / "o").mkdir()
            (tmp_path / "o" / "traces.csv").write_text(traces)
        assert cli.main([command, "--config", str(path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / f"{command}.json").exists()

    def test_seed_without_random_data_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert cli.main(["nonlinear", "--config", str(path), "--seed", "7"]) == 1
        assert "random initial data only" in capsys.readouterr().err

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert cli.main(["penrose", "--config", str(path), "--threads", "2"]) == 1
        assert "--threads" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "penrose" in capsys.readouterr().out

    def test_module_entry_point(self):
        # the child imports vpdamp from this checkout, installed or not
        src = str(Path(vpdamp.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "vpdamp.cli", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0 and "nonlinear" in proc.stdout


class TestSeedAndEnv:
    RANDOM = MINIMAL + ("[grid]\nk_max = 3\n[time]\ndt = 1e-2\nT = 1.0\n"
                        "[initial-data]\nrandom_modes = 2\n")

    def test_random_draw_deterministic_per_seed(self):
        cfg = cli.parse(self.RANDOM)
        assert cfg.run_modes(7) == cfg.run_modes(7)
        assert cfg.run_modes(8) != cfg.run_modes(7)
        for k, amp, off in cfg.run_modes(7):
            assert 1 <= k <= 3 and 0 < amp <= 1e-3 and abs(off) <= 3

    def test_seeded_run_records_seed(self, tmp_path):
        path = write_config(tmp_path, self.RANDOM
                            + f"[output]\ndirectory = {tmp_path / 'r'}\nformats = json\n")
        assert cli.main(["nonlinear", "--config", str(path), "--seed", "7"]) == 0
        rep = json.loads((tmp_path / "r" / "nonlinear.json").read_text())
        assert rep["seed"] == 7 and len(rep["modes"]) == 2

    def test_env_supplies_config_and_out(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "[equilibrium]\nname = gaussian\n"
                            f"[output]\ndirectory = {tmp_path / 'a'}\n")
        monkeypatch.setenv("VPDAMP_CONFIG", str(path))
        monkeypatch.setenv("VPDAMP_OUT", str(tmp_path / "b"))
        assert cli.main(["penrose"]) == 0
        assert (tmp_path / "b" / "penrose.json").exists()
        assert not (tmp_path / "a").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "[equilibrium]\nname = gaussian\n")
        monkeypatch.setenv("VPDAMP_OUT", str(tmp_path / "envdir"))
        assert cli.main(["penrose", "--config", str(path),
                         "--out", str(tmp_path / "flagdir")]) == 0
        assert (tmp_path / "flagdir" / "penrose.json").exists()
        assert not (tmp_path / "envdir").exists()

    def seeded_run(self, tmp_path, *flags):
        path = write_config(tmp_path, self.RANDOM
                            + f"[output]\ndirectory = {tmp_path / 'r'}\nformats = json\n")
        code = cli.main(["nonlinear", "--config", str(path), *flags])
        summary = tmp_path / "r" / "nonlinear.json"
        return code, json.loads(summary.read_text()) if summary.exists() else None

    def test_env_seed_is_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VPDAMP_SEED", "7")
        code, rep = self.seeded_run(tmp_path)
        assert code == 0 and rep["seed"] == 7
        cfg = cli.parse(self.RANDOM)
        assert rep["modes"] == [[k, off, amp] for (k, amp, off) in cfg.run_modes(7)]

    def test_seed_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VPDAMP_SEED", "8")
        code, rep = self.seeded_run(tmp_path, "--seed", "7")
        assert code == 0 and rep["seed"] == 7

    def test_bad_env_seed_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("VPDAMP_SEED", "x")
        code, rep = self.seeded_run(tmp_path)
        assert code == 1 and rep is None
        assert "'x'" in capsys.readouterr().err


class TestReadmeMatchesCli:
    """README's usage line and environment variables track the parser: a stale flag fails."""

    README = Path(__file__).resolve().parent.parent / "README.md"

    def test_usage_line_lists_every_subcommand_flag(self):
        usage = re.search(r"^vpdamp <subcommand> (.*)$", self.README.read_text(), re.M)
        documented = set(re.findall(r"--[a-z][a-z-]*", usage.group(1)))
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for name, parser in sub.choices.items():
            flags = {f for a in parser._actions for f in a.option_strings
                     if f.startswith("--") and f != "--help"}
            assert flags == documented, name

    def test_ini_block_keys_in_echo_order(self):
        def keys(text):
            section, out = None, []
            for line in text.splitlines():
                line = re.sub(r"\s*[;#].*", "", line).strip()
                if line.startswith("["):
                    section = line.strip("[]")
                elif line:
                    out.append((section, line.split("=")[0].strip()))
            return out

        block = self.README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        assert keys(block) == keys(cli.config_echo(cli.parse(MINIMAL)))

    def test_environment_variables_match_env_calls(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        read = {cli.ENV_PREFIX + node.args[0].value for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_env"}
        assert set(re.findall(r"VPDAMP_[A-Z]+", self.README.read_text())) == read
        assert set(re.findall(r"VPDAMP_[A-Z]+", cli.__doc__)) == read
