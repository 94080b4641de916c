"""Tests for the nonlinear evolution in the free-transport frame."""

import dataclasses

import numpy as np
import pytest

from vpdamp.equilibria import gaussian, two_stream, zero
from vpdamp.linear import cosine_initial_hat, fit_decay, source_from_initial, volterra_solve
from vpdamp.nonlinear import (
    MissingSnapshotsError,
    RunConfig,
    StabilityError,
    closure_residual,
    echo_experiment,
    field,
    initial_state,
    run,
    step,
)
from vpdamp.spectral import Grid, phase_rows

# Dominant dispersion zero of two_stream(3) at k = 1 (damped on the unit
# torus), frozen from the Newton root finder cross-checked by quadrature.
TWO_STREAM_ROOT_K1 = -1.132855951617341 + 1.192856453780191j

EQ = gaussian()
GRID = Grid(k_max=4, V=8.0, N_v=256)


@pytest.fixture(scope="module")
def linearized_run():
    cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-3, t_final=5.0, modes=((1, 1e-3, 0.0),),
                    quadratic_term=False, snapshot_stride=1)
    return run(cfg)


@pytest.fixture(scope="module")
def nonlinear_pair():
    """Full runs at two amplitudes for the linearization-limit checks."""
    outs = {}
    for eps in (1e-2, 1e-3):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-3, t_final=5.0, modes=((1, eps, 0.0),))
        outs[eps] = run(cfg)
    return outs


class TestConfig:
    def base(self, **kw):
        args = dict(eq=EQ, grid=GRID, dt=1e-2, t_final=0.1, modes=((1, 1e-3, 0.0),))
        args.update(kw)
        return RunConfig(**args)

    def test_valid_config_accepted(self):
        cfg = self.base()
        assert cfg.n_steps == 10
        assert cfg.data_profile is EQ

    def test_profile_overrides_envelope(self):
        prof = zero()
        assert self.base(profile=prof).data_profile is prof

    @pytest.mark.parametrize("kw,msg", [
        (dict(dt=0.0), "positive"),
        (dict(dt=-0.1), "positive"),
        (dict(t_final=0.105), "integer multiple"),
        (dict(dt=1e-9, t_final=100.0), "1e7 steps"),
        (dict(t_final=200.0), "N_v"),
        (dict(modes=((0, 1e-3, 0.0),)), "1..4"),
        (dict(modes=((5, 1e-3, 0.0),)), "1..4"),
        (dict(modes=((1, np.inf, 0.0),)), "finite"),
        (dict(trace_stride=0), "trace_stride"),
        (dict(snapshot_stride=-1), "snapshot_stride"),
        (dict(threads=0), "threads"),
    ])
    def test_rejects(self, kw, msg):
        with pytest.raises(ValueError, match=msg):
            self.base(**kw)


class TestStateSetup:
    def test_initial_rows_closed_form(self):
        g = Grid(k_max=2, V=8.0, N_v=128)
        st = initial_state(g, EQ, ((2, 1e-3, 1.5),))
        M = EQ.mu(g.v)
        want = 0.5e-3 * np.exp(1.5j * g.v) * M
        assert np.allclose(st.data[g.mode_index(2)], want, atol=1e-18)
        assert np.allclose(st.data[g.mode_index(-2)], np.conj(want), atol=1e-18)
        assert np.all(st.data[g.mode_index(0)] == 0)
        assert st.reality_error() == 0.0

    def test_field_skips_mean_mode(self):
        ks = np.array([-2, -1, 0, 1, 2])
        rho = np.array([1.0, 2.0, 3.0, 4.0, 5.0], dtype=complex)
        E = field(rho, ks)
        assert E[2] == 0.0
        assert np.allclose(E[[0, 1, 3, 4]], rho[[0, 1, 3, 4]] / (1j * ks[[0, 1, 3, 4]]))


class TestFreeTransport:
    def test_state_constant_without_field_feedback(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=0.05, t_final=5.0,
                        modes=((1, 1e-3, 0.0), (3, 1e-4, 2.0)),
                        linear_term=False, quadratic_term=False)
        out = run(cfg)
        assert np.array_equal(out.final_state.data, out.initial_state.data)
        assert out.reality_drift_max == 0.0

    def test_density_trace_is_the_streaming_moment(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=0.05, t_final=5.0, modes=((1, 1e-3, 0.0),),
                        linear_term=False, quadratic_term=False)
        out = run(cfg)
        tr = out.traces[1]
        want = 0.5e-3 * np.exp(-0.5 * tr.times**2)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(tr.values - want)) < 1e-12 * scale


class TestAgainstLinearTheory:
    def test_linearized_run_matches_volterra(self, linearized_run):
        out = linearized_run
        hat0 = cosine_initial_hat(EQ, ((1, 1e-3, 0.0),))
        ref = volterra_solve(EQ, 1, lambda ts: source_from_initial(hat0, 1, ts),
                             1e-3, 5.0)
        assert np.max(np.abs(out.traces[1].values - ref.values)) < 1e-8

    def test_linearization_limit(self, nonlinear_pair):
        hat0 = cosine_initial_hat(EQ, ((1, 1.0, 0.0),))
        lin = volterra_solve(EQ, 1, lambda ts: source_from_initial(hat0, 1, ts),
                             1e-3, 5.0)
        errs = {eps: np.max(np.abs(out.traces[1].values / eps - lin.values))
                for eps, out in nonlinear_pair.items()}
        assert errs[1e-3] < 1e-6
        # cosine data feeds mode 1 back only at third order, so the scaled
        # mismatch shrinks quadratically between these two amplitudes
        assert errs[1e-2] / errs[1e-3] > 50

    def test_quadratic_remainder_scales_linearly(self, nonlinear_pair):
        # no mode-2 data, so rho_2/eps is pure remainder, O(eps)
        rem = {eps: np.max(np.abs(out.traces[2].values)) / eps
               for eps, out in nonlinear_pair.items()}
        ratio = rem[1e-2] / rem[1e-3]
        assert 5.0 < ratio < 20.0

    def test_two_stream_damping_rate(self):
        ts = two_stream(3.0)
        g = Grid(k_max=2, V=11.0, N_v=256)
        cfg = RunConfig(eq=ts, grid=g, dt=5e-3, t_final=10.0, modes=((1, 1e-6, 0.0),))
        out = run(cfg)
        fit = fit_decay(out.traces[1], 1.0, window=(0.5, 9.5))
        want = -TWO_STREAM_ROOT_K1.real
        assert abs(fit.rate - want) / want < 0.02


class TestTimeStepper:
    def test_rk4_order_via_richardson(self):
        finals = {}
        for dt in (2e-2, 1e-2, 5e-3):
            cfg = RunConfig(eq=EQ, grid=GRID, dt=dt, t_final=2.0, modes=((1, 5e-2, 0.0),))
            finals[dt] = run(cfg).final_state.data
        e1 = np.max(np.abs(finals[2e-2] - finals[1e-2]))
        e2 = np.max(np.abs(finals[1e-2] - finals[5e-3]))
        assert e1 < 1e-10
        assert 14.0 < e1 / e2 < 18.0

    def test_step_composes_like_run(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=2e-2,
                        modes=((1, 1e-2, 0.0), (2, 5e-3, 1.0)))
        out = run(cfg)
        st = initial_state(GRID, EQ, cfg.modes)
        st = step(st, EQ, 1e-2)
        st = step(st, EQ, 1e-2)
        assert st.t == pytest.approx(2e-2)
        assert np.array_equal(st.data, out.final_state.data)

    def test_stability_refusal_names_a_usable_dt(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=0.5, t_final=10.0, modes=((1, 0.5, 0.0),))
        with pytest.raises(StabilityError, match="use dt <"):
            run(cfg)

    def test_step_refuses_non_real_state(self):
        st = initial_state(GRID, EQ, ((1, 1e-2, 0.0), (2, 5e-3, 1.0)))
        assert step(st, EQ, 1e-2).t == pytest.approx(1e-2)
        bad = st.copy()
        bad.data[GRID.mode_index(-1)] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match=r"reality_error\(\)"):
            step(bad, EQ, 1e-2)

    def test_threads_do_not_change_bits(self):
        base = dict(eq=EQ, grid=GRID, dt=1e-3, t_final=2.0,
                    modes=((1, 1e-2, 0.0), (2, 5e-3, 1.0)))
        one = run(RunConfig(**base))
        two = run(RunConfig(**base, threads=2))
        assert np.array_equal(one.final_state.data, two.final_state.data)


class TestRhsOracle:
    def test_mixed_representation_matches_eta_space_law(self):
        # Evolve a two-mode state briefly, then verify the time derivative
        # against d/dt ghat_k(eta) = -i(eta - kt)[E_k muhat(eta - kt)
        # + sum_{l != 0} E_l ghat_{k-l}(eta - lt)] with every transform
        # taken as a direct moment sum on interior frequencies.
        from vpdamp.nonlinear import _Engine

        g = Grid(k_max=3, V=8.0, N_v=512)
        cfg = RunConfig(eq=EQ, grid=g, dt=1e-3, t_final=0.5,
                        modes=((1, 1e-2, 0.0), (2, 5e-3, 1.0)))
        state = run(cfg).final_state
        t = 0.5
        eng = _Engine(g, EQ, True, True)
        rhs = eng.rhs(state.data, t)
        K = g.k_max
        rho_pos = g.dv * np.einsum("kj,kj->k", state.data[K + 1:], phase_rows(t, g.v, K))
        E_pos = rho_pos / (1j * np.arange(1, K + 1))
        E = np.zeros(2 * K + 1, dtype=complex)
        E[K + 1:] = E_pos
        E[:K] = np.conj(E_pos[::-1])

        def direct_hat(row, eta):
            return g.dv * np.exp(-1j * np.outer(eta, g.v)) @ row

        etas = np.linspace(-12.0, 12.0, 97)
        for k in range(-K, K + 1):
            got = direct_hat(rhs[K + k], etas)
            want = np.zeros_like(etas, dtype=complex)
            if k != 0:
                want += E[K + k] * EQ.mu_hat(etas - k * t)
            for l in range(-K, K + 1):
                if l == 0 or abs(k - l) > K:
                    continue
                want += E[K + l] * direct_hat(state.data[K + k - l], etas - l * t)
            want *= -1j * (etas - k * t)
            scale = max(float(np.max(np.abs(got))), 1e-16)
            assert np.max(np.abs(got - want)) < 1e-10 * scale


def full_row_rhs(data, t, g, eq):
    """Reference rhs: every row m = -K..K transformed and convolved, then mirrored."""
    K = g.k_max
    ms = np.arange(-K, K + 1)
    up = np.exp(1j * t * np.outer(ms, g.v))  # e^{i m v t}
    E = np.zeros(2 * K + 1, dtype=complex)
    E[K + 1:] = g.dv * np.sum(data[K + 1:] * np.conj(up[K + 1:]), axis=1) / (1j * ms[K + 1:])
    E[:K] = np.conj(E[:K:-1])
    xi = 2.0 * np.pi * np.fft.fftfreq(g.N_v, d=g.dv)
    xi[g.N_v // 2] = 0.0
    W = np.fft.ifft(1j * xi * np.fft.fft(data, axis=-1), axis=-1) - 1j * t * ms[:, None] * data
    out = -(E[:, None] * up) * eq.mu_prime(g.v)
    for k in ms:
        for l in ms:
            if l != 0 and abs(k - l) <= K:
                out[K + k] -= E[K + l] * up[K + l] * W[K + k - l]
    out[:K] = np.conj(out[:K:-1])
    return out


class TestHalfModeStepper:
    """The k >= 0 stepper against a full-row RK4 with reality re-enforced per step."""

    CFG = RunConfig(eq=EQ, grid=Grid(k_max=3, V=8.0, N_v=512), dt=1e-3, t_final=2e-2,
                    modes=((1, 1e-2, 0.0), (2, 5e-3, 1.0)))

    @pytest.fixture(scope="class")
    def out(self):
        return run(self.CFG)

    def test_run_matches_full_row_reference(self, out):
        cfg, g = self.CFG, self.CFG.grid
        data = initial_state(g, EQ, cfg.modes).data
        dt = cfg.dt
        for n in range(cfg.n_steps):
            t = n * dt
            k1 = full_row_rhs(data, t, g, EQ)
            k2 = full_row_rhs(data + 0.5 * dt * k1, t + 0.5 * dt, g, EQ)
            k3 = full_row_rhs(data + 0.5 * dt * k2, t + 0.5 * dt, g, EQ)
            k4 = full_row_rhs(data + dt * k3, t + dt, g, EQ)
            data = data + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            data = 0.5 * (data + np.conj(data[::-1]))
        got = out.final_state.data
        assert np.max(np.abs(got - data)) <= 1e-13 * np.max(np.abs(data))

    def test_rhs_matches_reference_with_exact_mirror(self, out):
        from vpdamp.nonlinear import _Engine

        g, K = self.CFG.grid, self.CFG.grid.k_max
        state = out.final_state
        got = _Engine(g, EQ, True, True).rhs(state.data, state.t)
        assert np.array_equal(got[:K], np.conj(got[:K:-1]))
        want = full_row_rhs(state.data, state.t, g, EQ)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_reality_drift_stays_at_rounding(self, out):
        assert out.reality_drift_max < 1e-12


class TestConservation:
    def test_mass_and_reality(self, nonlinear_pair):
        out = nonlinear_pair[1e-3]
        assert np.max(out.conservation["mass_drift"]) < 1e-10
        assert out.reality_drift_max < 1e-12

    def test_linearized_reality_is_exact(self, linearized_run):
        assert linearized_run.reality_drift_max == 0.0

    def test_transport_skew_symmetry(self):
        # with the driving term off the quadratic bracket conserves the
        # velocity-integrated square sum up to dealiasing
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-3, t_final=3.0, modes=((1, 1e-2, 0.0),),
                        linear_term=False)
        out = run(cfg)
        assert np.max(out.conservation["l2_drift"]) < 1e-14
        assert np.max(out.conservation["dealias"]) < 1e-10

    def test_conservation_arrays_align_with_times(self, nonlinear_pair):
        out = nonlinear_pair[1e-3]
        for key in ("t", "mass_drift", "l2", "l2_drift", "reality_drift", "dealias"):
            assert out.conservation[key].shape == out.times.shape
        assert np.array_equal(out.conservation["t"], out.times)


class TestRecording:
    def test_trace_stride_keeps_endpoints(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=0.1, modes=((1, 1e-3, 0.0),),
                        trace_stride=4)
        out = run(cfg)
        assert np.allclose(out.times, [0.0, 0.04, 0.08, 0.1])
        assert out.traces[1].times.shape == out.times.shape

    def test_snapshot_stride_and_final_append(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=0.1, modes=((1, 1e-3, 0.0),),
                        snapshot_stride=3)
        out = run(cfg)
        assert [s.t for s in out.snapshots] == pytest.approx([0.0, 0.03, 0.06, 0.09, 0.1])
        last = out.snapshots[-1]
        assert last.data.dtype == np.complex64
        assert np.array_equal(last.data, out.final_state.data.astype(np.complex64))
        st = last.to_state(GRID)
        assert st.data.dtype == np.complex128
        assert st.t == pytest.approx(0.1)

    def test_no_stride_still_records_final_snapshot(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=0.1, modes=((1, 1e-3, 0.0),))
        out = run(cfg)
        assert len(out.snapshots) == 1
        assert out.snapshots[0].t == pytest.approx(0.1)


class TestClosure:
    def test_linear_regime(self, linearized_run):
        assert closure_residual(linearized_run) < 1e-6

    def test_full_nonlinear(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-3, t_final=10.0, modes=((1, 1e-3, 0.0),),
                        snapshot_stride=1)
        assert closure_residual(run(cfg)) < 1e-5

    def test_interaction_pairing_is_visible(self):
        # At amplitude 2e-2 the quadratic interaction integral is far above
        # the discretization residual, so reading the same run without it
        # (or with a wrong (k, l) pairing) must fail the identity.
        cfg = RunConfig(eq=EQ, grid=Grid(k_max=4, V=8.0, N_v=512), dt=1e-2, t_final=2.0,
                        modes=((1, 2e-2, 0.0), (2, 2e-2, 1.0)), snapshot_stride=1)
        out = run(cfg)
        assert closure_residual(out) < 1e-6
        without = dataclasses.replace(out, config=dataclasses.replace(cfg, quadratic_term=False))
        assert closure_residual(without) > 1e-5

    def test_zero_data_gives_zero(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=0.5, modes=((1, 0.0, 0.0),),
                        snapshot_stride=1)
        assert closure_residual(run(cfg)) == 0.0

    def test_free_transport_identity(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=0.5, modes=((1, 1e-3, 0.0),),
                        linear_term=False, quadratic_term=False, snapshot_stride=1)
        assert closure_residual(run(cfg)) < 1e-14

    def test_requires_dense_traces(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=0.5, modes=((1, 1e-3, 0.0),),
                        trace_stride=2, snapshot_stride=1)
        with pytest.raises(MissingSnapshotsError, match="every step"):
            closure_residual(run(cfg))

    @pytest.mark.parametrize("stride", [0, 2])
    def test_requires_dense_snapshots(self, stride):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=0.5, modes=((1, 1e-3, 0.0),),
                        snapshot_stride=stride)
        with pytest.raises(MissingSnapshotsError, match="dense snapshots"):
            closure_residual(run(cfg))


ECHO_GRID = Grid(k_max=4, V=8.0, N_v=512)


def echo_config(e1=1e-3, e2=1e-3, eta1=10.0, dt=0.02, T=14.0, eta2=0.0, n=None):
    modes = ((1, e1, eta1), (1, e2, eta2))
    if n is not None:
        modes = modes[:n]
    return RunConfig(eq=zero(), grid=ECHO_GRID, dt=dt, t_final=T, modes=modes,
                     profile=gaussian())


class TestEcho:
    def test_single_wave_burst_time(self):
        rep = echo_experiment(echo_config(e2=0.0, dt=0.01))
        peak = rep.peak_for(1)
        assert peak is not None
        assert peak.predicted_time == pytest.approx(10.0)
        assert abs(peak.measured_time - 10.0) <= 2 * 0.01
        assert peak.relative_error <= 2 * 0.01 / 10.0

    def test_two_wave_secondary_matches_picard(self):
        rep = echo_experiment(echo_config())
        assert not rep.inconclusive
        sec = rep.peak_for(2)
        assert sec is not None
        assert sec.predicted_time is not None
        assert sec.relative_error < 0.05
        # the secondary burst is a genuine nonlinear product, far above
        # the noise floor yet far below the primary
        prim = rep.peak_for(1)
        assert rep.noise_floor < sec.amplitude < 1e-2 * prim.amplitude

    def test_harmonics_carry_no_prediction(self):
        rep = echo_experiment(echo_config())
        for k in (3, 4):
            peak = rep.peak_for(k)
            if peak is not None:
                assert peak.predicted_time is None
                assert peak.relative_error is None

    def test_zero_data_is_inconclusive(self):
        rep = echo_experiment(echo_config(e1=0.0, e2=0.0, dt=0.1, T=12.0))
        assert rep.inconclusive
        assert rep.peaks == ()
        assert rep.peak_for(1) is None

    def test_rejects_reactive_background(self):
        cfg = RunConfig(eq=gaussian(), grid=ECHO_GRID, dt=0.1, t_final=12.0,
                        modes=((1, 1e-3, 10.0), (1, 1e-3, 0.0)))
        with pytest.raises(ValueError, match="zero background"):
            echo_experiment(cfg)

    def test_rejects_wrong_mode_count(self):
        with pytest.raises(ValueError, match="two modes"):
            echo_experiment(echo_config(n=1))

    def test_rejects_misplaced_offsets(self):
        with pytest.raises(ValueError, match="offset"):
            echo_experiment(echo_config(eta2=3.0))
        with pytest.raises(ValueError, match="offset"):
            echo_experiment(echo_config(eta1=0.0))

    def test_rejects_burst_beyond_horizon(self):
        with pytest.raises(ValueError, match="t_final"):
            echo_experiment(echo_config(T=8.0))
