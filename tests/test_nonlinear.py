"""Tests for the nonlinear evolution in the free-transport frame."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from vpdamp import nonlinear
from vpdamp.equilibria import gaussian, two_stream, zero
from vpdamp.linear import cosine_initial_hat, fit_decay, source_from_initial, volterra_solve
from vpdamp.nonlinear import (
    MissingSnapshotsError,
    RunConfig,
    StabilityError,
    closure_residual,
    echo_experiment,
    initial_state,
    run,
)
from vpdamp.spectral import BoundaryDecayError, Grid, boundary_floors, phase_rows

# Dominant dispersion zero of two_stream(3) at k = 1 (damped on the unit
# torus), frozen from the Newton root finder cross-checked by quadrature.
TWO_STREAM_ROOT_K1 = -1.132855951617341 + 1.192856453780191j

EQ = gaussian()
GRID = Grid(k_max=4, V=8.0, N_v=256)


def reality_error(state) -> float:
    """Max |g_k - conj(g_{-k})| relative to the state magnitude."""
    scale = np.max(np.abs(state.data))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(state.data - np.conj(state.data[::-1]))) / scale)


def boundary_floor(state) -> float:
    """The state's boundary floor: its largest per-mode floor."""
    return float(np.max(boundary_floors(np.abs(state.data) ** 2)))


def peak_for(rep, mode: int):
    """The echo report's peak for mode, or None."""
    return next((p for p in rep.peaks if p.mode == mode), None)


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
        pytest.param(dict(t_final=0.105), "integer multiple", id="kw2-integer_multiple"),
        pytest.param(dict(dt=1e-9, t_final=100.0), "1e7 steps", id="kw3-1e7_steps"),
        (dict(t_final=200.0), "N_v"),
        pytest.param(dict(modes=((0, 1e-3, 0.0),)), "1 <= k <= k_max = 4", id="kw5-1..4"),
        pytest.param(dict(modes=((5, 1e-3, 0.0),)), "1 <= k <= k_max = 4", id="kw6-1..4"),
        (dict(modes=((1, np.inf, 0.0),)), "finite"),
        pytest.param(dict(trace_stride=0), "stride: need stride >= 1", id="kw8-trace_stride"),
        (dict(snapshot_stride=-1), "snapshot_stride"),
        (dict(modes=((1.5, 1e-3, 0.0),)), "integer"),
        (dict(modes=((np.inf, 1e-3, 0.0),)), "integer"),
    ])
    def test_rejects(self, kw, msg):
        with pytest.raises(ValueError, match=msg):
            self.base(**kw)

    def test_no_threads_setting(self):
        # the stepper is serial; a thread count would change no number
        with pytest.raises(TypeError, match="threads"):
            self.base(threads=2)

    def test_negative_final_time_rejected(self):
        with pytest.raises(ValueError, match="T >= 0"):
            self.base(t_final=-1.0)

    def test_run_refuses_undecayed_initial_state(self):
        # at V = 3 the Gaussian data keeps about 1e-2 of its peak at v = -V: the
        # solver would alias it silently, so run refuses before the first step
        cfg = self.base(grid=Grid(k_max=4, V=3.0, N_v=256))
        floor = boundary_floor(initial_state(cfg.grid, EQ, cfg.modes))
        assert floor > 1e-2
        with pytest.raises(BoundaryDecayError, match=rf"floor {floor:.3e} .*enlarge V"):
            run(cfg)

    def test_run_refuses_non_finite_initial_state(self):
        # a NaN floor compares False with every tolerance; the check must still fail
        bad = dataclasses.replace(EQ, mu=lambda v: np.full(np.shape(v), np.nan))
        with pytest.raises(BoundaryDecayError, match="floor nan .*the state is not finite"):
            run(self.base(eq=bad))

    def test_stability_check_refuses_non_finite_field(self):
        # finite data, NaN mu': step 1 poisons the state, step 2's stability check sees it
        bad = dataclasses.replace(EQ, mu_prime=lambda v: np.full(np.shape(v), np.nan))
        with pytest.raises(StabilityError, match=r"at t = 0\.01; the field is not finite"):
            run(self.base(eq=bad))

    def test_run_refuses_a_final_state_that_is_not_finite(self):
        # finite data, NaN mu': a one-step run has no next stability check, so the
        # final state's floor must fail on its own
        bad = dataclasses.replace(EQ, mu_prime=lambda v: np.full(np.shape(v), np.nan))
        with pytest.raises(BoundaryDecayError, match=r"state at step 1 \(t = 0\.01\) has "
                                                     r"boundary floor nan .*not finite"):
            run(self.base(eq=bad, t_final=1e-2))


class TestStateSetup:
    def test_initial_rows_closed_form(self):
        g = Grid(k_max=2, V=8.0, N_v=128)
        st = initial_state(g, EQ, ((2, 1e-3, 1.5),))
        M = EQ.mu(g.v)
        want = 0.5e-3 * np.exp(1.5j * g.v) * M
        assert np.allclose(st.data[g.mode_index(2)], want, atol=1e-18)
        assert np.allclose(st.data[g.mode_index(-2)], np.conj(want), atol=1e-18)
        assert np.all(st.data[g.mode_index(0)] == 0)
        assert reality_error(st) == 0.0


class TestFreeTransport:
    def test_state_constant_without_field_feedback(self):
        cfg = RunConfig(eq=zero(), grid=GRID, dt=0.05, t_final=5.0,
                        modes=((1, 1e-3, 0.0), (3, 1e-4, 2.0)),
                        quadratic_term=False, profile=EQ)
        out = run(cfg)
        assert np.array_equal(out.final_state.data, out.initial_state.data)
        assert max(out.conservation["reality_drift"]) == 0.0

    def test_density_trace_is_the_streaming_moment(self):
        cfg = RunConfig(eq=zero(), grid=GRID, dt=0.05, t_final=5.0, modes=((1, 1e-3, 0.0),),
                        quadratic_term=False, profile=EQ)
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

    def test_stability_refusal_names_a_usable_dt(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=0.5, t_final=10.0, modes=((1, 0.5, 0.0),))
        with pytest.raises(StabilityError, match="use dt <"):
            run(cfg)


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
        eng = _Engine(g, EQ, True)
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


class TestCouplingKernel:
    """The stepper's mode convolution, as the closure integrand reads it."""

    @pytest.mark.parametrize("edges_only, k_max", [  # K = 3 keeps the ids [False], [True]
        pytest.param(edges, k, id=str(edges) if k == 3 else f"{edges}-K{k}")
        for k in (3, 16, 32) for edges in (False, True)])
    def test_matches_naive_interaction_sum(self, edges_only, k_max):
        # sum_{l != 0, |k-l| <= K} (k/l) g_{k-l} rho_l e^{i l s v} = -i k (what
        # product writes); edges_only keeps just the rows m = +-K, so every
        # surviving pair sits on the truncation edge k - l = +-K.
        from vpdamp.nonlinear import _Engine

        g = Grid(k_max=k_max, V=8.0, N_v=64)
        K, s = g.k_max, 0.7
        rng = np.random.default_rng(12)
        shape = (2 * K + 1, g.N_v)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if edges_only:
            data[1:-1] = 0.0
        data[:K] = np.conj(data[:K:-1])
        data[K] = data[K].real
        rho_pos = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        rho = {l: rho_pos[l - 1] if l > 0 else np.conj(rho_pos[-l - 1])
               for l in range(-K, K + 1) if l}

        want = np.zeros((K + 1, g.N_v), dtype=complex)
        for k in range(K + 1):
            for l in range(-K, K + 1):
                if l != 0 and abs(k - l) <= K:
                    want[k] += (k / l) * data[K + k - l] * rho[l] * np.exp(1j * l * s * g.v)

        eng = _Engine(g, EQ, True)
        out = np.zeros((K + 1, g.N_v), dtype=complex)
        eng.product(rho_pos, phase_rows(s, g.v, K), data[K:], out)
        got = -1j * np.arange(K + 1)[:, None] * out
        assert np.max(np.abs(want)) > 0.1
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def full_row_rhs(data, t, g, eq, linear=True, quadratic=True):
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
    out = -(E[:, None] * up) * eq.mu_prime(g.v) * linear
    for k in ms:
        for l in ms:
            if quadratic and l != 0 and abs(k - l) <= K:
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
        got = _Engine(g, EQ, True).rhs(state.data, state.t)
        assert np.array_equal(got[:K], np.conj(got[:K:-1]))
        want = full_row_rhs(state.data, state.t, g, EQ)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("linear, quadratic", [(True, False), (False, True), (True, True)])
    def test_rhs_term_switches_at_k8(self, linear, quadratic):
        # the linear term rides in the m = 0 column of the coupling product, so
        # each switch is checked on its own; every row of the state is filled
        from vpdamp.nonlinear import _Engine

        g = Grid(k_max=8, V=8.0, N_v=512)
        K = g.k_max
        rng = np.random.default_rng(8)
        data = (rng.standard_normal((2 * K + 1, g.N_v))
                + 1j * rng.standard_normal((2 * K + 1, g.N_v))) * 1e-2 * EQ.mu(g.v)
        data[:K] = np.conj(data[:K:-1])
        data[K] = data[K].real
        got = _Engine(g, EQ if linear else zero(), quadratic).rhs(data, 1.3)
        want = full_row_rhs(data, 1.3, g, EQ, linear, quadratic)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_reality_drift_stays_at_rounding(self, out):
        assert max(out.conservation["reality_drift"]) < 1e-12


class TestConservation:
    def test_mass_and_reality(self, nonlinear_pair):
        out = nonlinear_pair[1e-3]
        assert np.max(out.conservation["mass_drift"]) < 1e-10
        assert max(out.conservation["reality_drift"]) < 1e-12

    def test_linearized_reality_is_exact(self, linearized_run):
        assert max(linearized_run.conservation["reality_drift"]) == 0.0

    def test_drift_max_does_not_depend_on_the_trace_stride(self):
        # each step's drift lands in exactly one recorded slot, the last step's included
        drift = [max(run(RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=1.0,
                                   modes=((1, 2e-2, 0.0), (2, 2e-2, 1.0)),
                                   trace_stride=s)).conservation["reality_drift"])
                 for s in (1, 3)]
        assert drift[0] == drift[1] > 0.0

    def test_transport_skew_symmetry(self):
        # with the driving term off the quadratic bracket conserves the
        # velocity-integrated square sum up to dealiasing
        cfg = RunConfig(eq=zero(), grid=GRID, dt=1e-3, t_final=3.0, modes=((1, 1e-2, 0.0),),
                        profile=EQ)
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

    def test_trace_stride_leaves_the_stepper_bits(self):
        # recording reads the state and never feeds the step
        base = dict(eq=EQ, grid=GRID, dt=1e-2, t_final=0.1,
                    modes=((1, 1e-2, 0.0), (2, 5e-3, 1.0)), snapshot_stride=1)
        sparse = run(RunConfig(**base, trace_stride=3))
        dense = run(RunConfig(**base))
        assert np.array_equal(dense.final_state.data, sparse.final_state.data)
        assert all(np.array_equal(a.data, b.data)
                   for a, b in zip(dense.snapshots, sparse.snapshots))
        assert np.array_equal(dense.traces[2].values[::3], sparse.traces[2].values[:-1])

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

    def test_interaction_pairing_is_visible(self, monkeypatch):
        # At amplitude 2e-2 the quadratic interaction integral is far above
        # the discretization residual, so a closure of the same run without it
        # (or with a wrong (k, l) pairing) must fail the identity.  Only the
        # closure is told to drop the term; the stepper is untouched.
        cfg = RunConfig(eq=EQ, grid=Grid(k_max=4, V=8.0, N_v=512), dt=1e-2, t_final=2.0,
                        modes=((1, 2e-2, 0.0), (2, 2e-2, 1.0)), snapshot_stride=1)
        out = run(cfg)
        assert closure_residual(out) < 1e-6
        init = nonlinear._Closure.__init__
        monkeypatch.setattr(nonlinear._Closure, "__init__", lambda self, c, *rest: init(
            self, dataclasses.replace(c, quadratic_term=False), *rest))
        without = run(cfg)
        assert closure_residual(without) > 1e-5

    def test_zero_data_gives_zero(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=0.5, modes=((1, 0.0, 0.0),),
                        snapshot_stride=1)
        assert closure_residual(run(cfg)) == 0.0

    def test_free_transport_identity(self):
        cfg = RunConfig(eq=zero(), grid=GRID, dt=1e-2, t_final=0.5, modes=((1, 1e-3, 0.0),),
                        quadratic_term=False, snapshot_stride=1, profile=EQ)
        assert closure_residual(run(cfg)) < 1e-14

    def test_holds_no_mode_pair_buffer(self):
        # The closure reuses the stepper's product kernel; a (k, l) gather would
        # hold a (K, 2K, N_v) complex128 buffer at every snapshot.
        g = Grid(k_max=16, V=8.0, N_v=256)
        cfg = RunConfig(eq=EQ, grid=g, dt=1e-2, t_final=0.5,
                        modes=((1, 1e-2, 0.0), (3, 1e-2, 0.5)), snapshot_stride=1)
        tracemalloc.start()
        try:
            out = run(cfg, lambda snap: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert closure_residual(out) < 1e-6
        assert peak < g.k_max * 2 * g.k_max * g.N_v * 16

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


class TestSnapshotSink:
    @pytest.mark.parametrize("stride", [1, 3])
    def test_sink_takes_the_snapshots_and_the_run_keeps_none(self, stride):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=0.5, modes=((1, 1e-2, 0.0),),
                        snapshot_stride=stride)
        taken = []
        streamed, kept = run(cfg, taken.append), run(cfg)
        assert streamed.snapshots == [] and len(taken) == len(kept.snapshots)
        for a, b in zip(taken, kept.snapshots):
            assert a.t == b.t and np.array_equal(a.data, b.data)
        np.testing.assert_array_equal(streamed.final_state.data, kept.final_state.data)
        assert kept.closure == streamed.closure

    @pytest.mark.parametrize("strides", [(3, 5), (1, 2), (4, 2)])
    def test_each_snapshot_carries_its_step_density(self, strides):
        # traced step or not, a snapshot's rho is what a stride-1 run traces at its step
        kw = dict(eq=EQ, grid=GRID, dt=1e-2, t_final=0.5,
                  modes=((1, 1e-2, 0.0), (2, 5e-3, 1.0)))
        traced = run(RunConfig(**kw)).traces
        out = run(RunConfig(**kw, trace_stride=strides[0], snapshot_stride=strides[1]))
        assert len(out.snapshots) == 50 // strides[1] + 1
        for snap in out.snapshots:
            n = round(snap.t / 1e-2)
            assert snap.rho.dtype == np.complex128
            assert np.array_equal(snap.rho, [traced[k].values[n] for k in sorted(traced)])

    def test_dense_closure_accumulated_in_the_step_loop(self):
        # the same accumulator in the step loop, with a sink or without one: equal bits
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=1.0,
                        modes=((1, 2e-2, 0.0), (2, 2e-2, 1.0)), snapshot_stride=1)
        closure = run(cfg, lambda snap: None).closure
        assert closure is not None and closure < 1e-6
        assert closure == closure_residual(run(cfg))

    @pytest.mark.parametrize("strides", [(2, 1), (1, 2), (1, 0)])
    def test_no_closure_unless_every_step_is_stored(self, strides):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=0.5, modes=((1, 1e-3, 0.0),),
                        trace_stride=strides[0], snapshot_stride=strides[1])
        assert run(cfg, lambda snap: None).closure is None


class TestBoundaryGuard:
    def test_run_refuses_a_state_that_reaches_the_edge(self):
        # the gaussian data decays at |v| = V, but the two-stream slope carries the
        # perturbation to the edge within a few steps; the run must not finish
        cfg = RunConfig(eq=two_stream(6.0), grid=Grid(k_max=2, V=8.0, N_v=256), dt=1e-2,
                        t_final=0.5, modes=((1, 1e-3, 0.0),), profile=gaussian())
        assert boundary_floor(initial_state(cfg.grid, gaussian(), cfg.modes)) < 1e-12
        with pytest.raises(BoundaryDecayError,
                           match=r"state at step \d+ \(t = [0-9.]+\) has boundary floor "
                                 r".* at \|v\| = V .*enlarge V"):
            run(cfg)

    def test_floor_recorded_at_every_recorded_step(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=1.0, modes=((1, 1e-2, 0.0),),
                        trace_stride=4)
        out = run(cfg)
        floor = out.conservation["boundary_floor"]
        assert floor.shape == out.times.shape and np.all(floor <= 1e-12)
        assert floor[-1] == pytest.approx(boundary_floor(out.final_state), rel=1e-12)


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
        peak = peak_for(rep, 1)
        assert peak is not None
        assert peak.predicted_time == pytest.approx(10.0)
        assert abs(peak.measured_time - 10.0) <= 2 * 0.01
        assert peak.relative_error <= 2 * 0.01 / 10.0

    def test_two_wave_secondary_matches_picard(self):
        rep = echo_experiment(echo_config())
        assert not rep.inconclusive
        sec = peak_for(rep, 2)
        assert sec is not None
        assert sec.predicted_time is not None
        assert sec.relative_error < 0.05
        # the secondary burst is a genuine nonlinear product, far above
        # the noise floor yet far below the primary
        prim = peak_for(rep, 1)
        assert rep.noise_floor < sec.amplitude < 1e-2 * prim.amplitude

    def test_harmonics_carry_no_prediction(self):
        rep = echo_experiment(echo_config())
        for k in (3, 4):
            peak = peak_for(rep, k)
            if peak is not None:
                assert peak.predicted_time is None
                assert peak.relative_error is None

    def test_zero_data_is_inconclusive(self):
        rep = echo_experiment(echo_config(e1=0.0, e2=0.0, dt=0.1, T=12.0))
        assert rep.inconclusive
        assert rep.peaks == ()
        assert peak_for(rep, 1) is None

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
