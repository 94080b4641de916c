"""Tests for the linearized density evolution module."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from vpdamp import linear, penrose
from vpdamp.equilibria import gaussian, two_stream, zero
from vpdamp.linear import (
    DensityTrace,
    FitResult,
    contour_parameters,
    cosine_initial_hat,
    fit_decay,
    resolvent_kernel,
    solve_via_kernel,
    source_from_initial,
    volterra_solve,
)
from vpdamp.penrose import full_report
from vpdamp.spectral import chirp_sum, fft_convolve, phase_sum
from stream_pairs import narrow_two_stream

# Dominant Landau root of the gaussian background at k = 1, frozen from an
# independent trapezoid-quadrature Newton oracle.
GAUSSIAN_ROOT_K1 = -0.8513304555998186 + 2.045904868820431j

EQ = gaussian()
STUB = zero()
EPS = 1e-3


def single_mode_source(k=1, eps=EPS, offset=0.0):
    hat0 = cosine_initial_hat(EQ, [(k, eps, offset)])
    return hat0, (lambda t, _h=hat0, _k=k: np.asarray(_h(_k, _k * np.atleast_1d(t)), complex))


class TestTrace:
    def test_field_relation_exact(self):
        t = np.linspace(0, 1, 5)
        vals = np.exp(1j * t)
        tr = DensityTrace(k=3, times=t, values=vals)
        assert np.array_equal(tr.field_values, vals / (3j))

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError, match="k != 0"):
            DensityTrace(k=0, times=np.zeros(3), values=np.zeros(3, complex))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            DensityTrace(k=1, times=np.zeros(3), values=np.zeros(4, complex))


class TestSource:
    def test_single_cosine_closed_form(self):
        hat0, _ = single_mode_source()
        t = np.linspace(0.0, 4.0, 9)
        got = source_from_initial(hat0, 1, t)
        assert np.allclose(got, 0.5 * EPS * np.exp(-0.5 * t**2), atol=1e-15)

    def test_eta_offset_shifts_the_profile(self):
        hat0 = cosine_initial_hat(EQ, [(2, EPS, 1.5)])
        t = np.array([0.0, 0.5, 1.0])
        got = source_from_initial(hat0, 2, t)
        assert np.allclose(got, 0.5 * EPS * np.exp(-0.5 * (2 * t - 1.5) ** 2), atol=1e-15)

    def test_conjugate_mode(self):
        hat0, _ = single_mode_source()
        t = np.linspace(0.0, 2.0, 5)
        plus = np.asarray(hat0(1, t))
        minus = np.asarray(hat0(-1, -t))
        assert np.allclose(minus, np.conj(plus), atol=1e-16)

    def test_absent_mode_is_zero(self):
        hat0, _ = single_mode_source()
        assert np.all(source_from_initial(hat0, 3, np.linspace(0, 2, 5)) == 0)

    def test_scalar_time_returns_scalar(self):
        hat0, _ = single_mode_source()
        out = source_from_initial(hat0, 1, 1.5)
        assert isinstance(out, complex)


class TestVolterra:
    def test_stub_background_returns_source_exactly(self):
        src = lambda t: np.exp(-0.3 * np.atleast_1d(t)).astype(complex)
        tr = volterra_solve(STUB, 2, src, 1e-2, 10.0)
        assert np.array_equal(tr.values, src(tr.times))

    def test_initial_value_exact(self):
        _, src = single_mode_source()
        tr = volterra_solve(EQ, 1, src, 1e-2, 1.0)
        assert tr.values[0] == 0.5 * EPS

    def test_linearity_under_power_of_two_scaling(self):
        _, src = single_mode_source()
        tr1 = volterra_solve(EQ, 1, src, 1e-2, 5.0)
        tr2 = volterra_solve(EQ, 1, lambda t: 2.0 * src(t), 1e-2, 5.0)
        assert np.array_equal(tr2.values, 2.0 * tr1.values)

    def test_richardson_ratio_near_four(self):
        # second-order accuracy: halving dt shrinks the t = 5 error 4x
        _, src = single_mode_source()
        end = {}
        for dt in (4e-3, 2e-3, 1e-3):
            end[dt] = volterra_solve(EQ, 1, src, dt, 5.0).values[-1]
        ratio = abs(end[4e-3] - end[2e-3]) / abs(end[2e-3] - end[1e-3])
        assert 3.5 < ratio < 4.5

    def test_decay_rate_matches_dispersion_root(self):
        _, src = single_mode_source()
        tr = volterra_solve(EQ, 1, src, 1e-3, 20.0)
        fit = fit_decay(tr, 1.0, window=(5.0, 20.0))
        target = -GAUSSIAN_ROOT_K1.real
        assert abs(fit.rate - target) / target < 0.02
        assert abs(fit.rate - target) < 1e-3

    @pytest.mark.parametrize(
        "dt,T,msg",
        [(0.0, 1.0, "positive"), (-0.1, 1.0, "positive"),
         pytest.param(0.3, 1.0, "integer multiple", id="0.3-1.0-integer_multiple")],
    )
    def test_grid_validation(self, dt, T, msg):
        _, src = single_mode_source()
        with pytest.raises(ValueError, match=msg):
            volterra_solve(EQ, 1, src, dt, T)

    def test_step_limit(self):
        _, src = single_mode_source()
        with pytest.raises(ValueError, match="step limit"):
            volterra_solve(EQ, 1, src, 1e-8, 200.0)

    def test_negative_final_time_rejected(self):
        _, src = single_mode_source()
        with pytest.raises(ValueError, match="T >= 0"):
            volterra_solve(EQ, 1, src, 1e-2, -1.0)


def direct_march(eq, k, source, dt, T):
    """The O(N^2) product-trapezoid march that volterra_solve reorders."""
    times = dt * np.arange(int(round(T / dt)) + 1)
    kappa = times * np.asarray(eq.mu_hat(k * times), dtype=float)
    S = np.asarray(source(times), dtype=complex)
    rho = np.zeros(times.size, dtype=complex)
    rho[0] = S[0]
    for n in range(1, times.size):
        acc = 0.5 * kappa[n] * rho[0]
        if n > 1:
            acc += np.dot(kappa[n - 1 : 0 : -1], rho[1:n])
        rho[n] = S[n] - dt * acc
    return rho


def convolve_march(eq, k, source, dt, T):
    """volterra_solve with every split's history from fft_convolve, the kernel transformed anew."""
    times = dt * np.arange(int(round(T / dt)) + 1)
    kappa = times * np.asarray(eq.mu_hat(k * times), dtype=float)
    rho = np.array(source(times), dtype=complex)
    rho[1:] -= 0.5 * dt * kappa[1:] * rho[0]
    weight = np.exp(min(1.0, eq.theta0 * abs(k), linear.EXP_CAP / max(T, dt)) * times)
    inverse = np.eye(min(linear.VOLTERRA_BLOCK, times.size))
    for n in range(1, inverse.shape[0]):
        inverse[n] -= dt * kappa[n:0:-1] @ inverse[:n]
    inverse = inverse.astype(complex)

    def block(lo, hi):
        if hi - lo <= linear.VOLTERRA_BLOCK:
            rho[lo:hi] = inverse[: hi - lo, : hi - lo] @ rho[lo:hi]
            return
        mid, span = (lo + hi) // 2, hi - lo
        block(lo, mid)
        hist = fft_convolve(rho[lo:mid] * weight[: mid - lo], kappa[:span] * weight[:span], span)
        rho[mid:hi] -= dt * hist[mid - lo :] / weight[mid - lo : span]
        block(mid, hi)

    block(1, times.size)
    return rho


def split_spans(lo, hi):
    """Span hi - lo of every split the divide and conquer makes on [lo, hi)."""
    if hi - lo <= linear.VOLTERRA_BLOCK:
        return []
    mid = (lo + hi) // 2
    return split_spans(lo, mid) + [hi - lo] + split_spans(mid, hi)


class TestVolterraDivideAndConquer:
    @staticmethod
    def source(t):
        return 1e-3 * np.exp(-0.5 * (t - 1.0) ** 2 + 2j * t)

    # block edges at 128 samples; 20001 is the criterion-2 grid length
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 1000, 20001])
    @pytest.mark.parametrize("eq", [EQ, two_stream(3.0)], ids=["gaussian", "two_stream3"])
    def test_matches_direct_march(self, eq, n):
        dt = 20.0 / (n - 1) if n > 1 else 1e-3
        T = dt * (n - 1)
        got = volterra_solve(eq, 1, self.source, dt, T).values
        ref = direct_march(eq, 1, self.source, dt, T)
        assert got.shape == ref.shape == (n,)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [129, 1001, 1002, 20001])
    @pytest.mark.parametrize("eq", [EQ, two_stream(3.0), narrow_two_stream()],
                             ids=["gaussian", "two_stream3", "narrow"])
    def test_bit_identical_to_convolve_march(self, eq, n):
        dt = 20.0 / (n - 1)
        got = volterra_solve(eq, 1, self.source, dt, dt * (n - 1)).values
        assert np.array_equal(got, convolve_march(eq, 1, self.source, dt, dt * (n - 1)))

    @pytest.mark.parametrize("n", [1002, 20001])
    def test_each_span_kernel_transformed_once(self, monkeypatch, n):
        # 20001 samples split spans 20000, 10000, ..., 625, 312, 313, 156, 157
        forward, inverse = [], []
        fft, ifft = np.fft.fft, np.fft.ifft
        monkeypatch.setattr(np.fft, "fft", lambda a, *args: forward.append(a) or fft(a, *args))
        monkeypatch.setattr(np.fft, "ifft", lambda a, *args: inverse.append(a) or ifft(a, *args))
        dt = 20.0 / (n - 1)
        volterra_solve(EQ, 1, self.source, dt, dt * (n - 1))
        spans = split_spans(1, n)
        kernels = [a.size for a in forward if np.isrealobj(a)]
        assert sorted(kernels) == sorted(set(spans)) and len(set(spans)) < len(spans)
        assert len(forward) - len(kernels) == len(inverse) == len(spans)

    @pytest.mark.parametrize("dt, T", [(0.25, 60.0), (0.05, 40.0)])
    def test_growing_resolvent_matches_direct_march(self, dt, T):
        # the unstable k = 1 mode grows like e^{0.206 t}; a 128-sample block spans up
        # to 32 time units, so the base-block inverse holds a growing discrete resolvent
        got = volterra_solve(narrow_two_stream(), 1, self.source, dt, T).values
        ref = direct_march(narrow_two_stream(), 1, self.source, dt, T)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_long_grid_stays_finite(self):
        # sigma T is capped, so the e^{sigma t} history weights cannot overflow
        tr = volterra_solve(EQ, 1, self.source, 0.5, 2000.0)
        assert np.all(np.isfinite(tr.values))


def gauss_panel_autoconvolution(eq, k, times):
    """(kappa * kappa)(t) by 40 scaled 16-node Gauss panels on [0, t/2], doubled."""
    x, wq = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, 1.0, 41)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wu = (half[:, None] * wq[None, :]).ravel()
    out = np.empty(times.size)
    for i in range(0, times.size, 512):
        tb = times[i : i + 512, None]
        s = 0.5 * tb * u[None, :]
        integrand = (s * np.asarray(eq.mu_hat(k * s), dtype=float)
                     * (tb - s) * np.asarray(eq.mu_hat(k * (tb - s)), dtype=float))
        out[i : i + 512] = tb[:, 0] * (integrand @ wu)
    return out


class TestKernelAutoconvolution:
    @pytest.mark.parametrize("times", [
        2e-3 * np.arange(10001),          # where an order-6 rule was off by 2e-14
        0.1 * np.arange(201),             # coarse: nested grid of spacing h/128 at k = 4
        0.37 + 0.05 * np.arange(200),     # t_0 off the multiples of h: per-time sums
        0.01 * (37 + np.arange(400)),     # t_0 = 0.37 on the multiples of h
    ], ids=["h2e-3", "h0.1", "t0.37-off-grid", "t0.37-on-grid"])
    @pytest.mark.parametrize("eq", [EQ, two_stream(3.0)], ids=["gaussian", "two_stream3"])
    def test_matches_gauss_panels(self, eq, times):
        for k in range(1, 5):
            th, _, _ = contour_parameters(eq, k, float(times[-1]))
            got = linear._kernel_autoconvolution(eq, k, times, 2.0 * th * k)
            ref = gauss_panel_autoconvolution(eq, k, times)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), k


class TestKernel:
    @pytest.mark.parametrize("route", ["contour_parameters", "volterra_solve"])
    def test_zero_mode_refused_before_any_work(self, route, monkeypatch):
        # the mean mode has no density equation: refused with resolvent_kernel's message
        # before the strip is certified or the source and kernel are sampled
        monkeypatch.setattr(linear, "strip_width", lambda eq: pytest.fail("strip certified"))
        with pytest.raises(ValueError, match="k must be nonzero"):
            if route == "contour_parameters":
                contour_parameters(EQ, 0, 5.0)
            else:
                volterra_solve(EQ, 0, lambda ts: pytest.fail("source sampled"), 1e-2, 1.0)

    def test_stub_kernel_identically_zero(self):
        t = 1e-2 * np.arange(101)
        ker = resolvent_kernel(STUB, 1, 0.25, 50.0, 256, t)
        assert np.max(np.abs(ker.values)) == 0.0

    def test_abscissa_beyond_strip_refused(self):
        with pytest.raises(ValueError, match="certified strip"):
            resolvent_kernel(EQ, 1, 0.9, 100.0, 512, np.linspace(0, 1, 11))

    def test_strip_cache_serves_each_equilibrium_its_own_width(self, monkeypatch):
        # Short-lived equilibria reuse freed ids; none may receive another's strip.
        monkeypatch.setattr(penrose, "_strips", weakref.WeakKeyDictionary())
        monkeypatch.setattr(penrose, "_certify_strip", lambda eq: 0.5 * eq.theta0)
        for i in range(20):
            eq = dataclasses.replace(gaussian(), theta0=1.0 - 0.03 * i)
            assert penrose.strip_width(eq) == 0.5 * eq.theta0

    def test_strip_cache_drops_collected_equilibria(self, monkeypatch):
        monkeypatch.setattr(penrose, "_strips", weakref.WeakKeyDictionary())
        monkeypatch.setattr(penrose, "_certify_strip", lambda eq: 0.5 * eq.theta0)
        for i in range(50):
            penrose.strip_width(dataclasses.replace(gaussian(), theta0=1.0 - 0.01 * i))
        gc.collect()
        assert len(penrose._strips) <= 2

    def test_one_certified_strip_per_equilibrium(self, monkeypatch):
        # contour_parameters certifies the strip; full_report on the same object reads
        # it, whatever its k_max_scan, and winds only margin's own z-rectangle, whose
        # count for mode k covers the lambda-rectangle k rect that windings reports.
        contours = []
        windings = penrose._windings
        monkeypatch.setattr(penrose, "_windings", lambda eq, rect, ks: contours.append(
            (rect, tuple(ks))) or windings(eq, rect, ks))
        eq = gaussian()
        contour_parameters(eq, 1, 20.0)
        assert contours, "contour_parameters ran no bisection"
        contours.clear()
        rep = full_report(eq, k_max_scan=8)
        b = math.sqrt(2.0 * eq.C0) / eq.theta0 + 1.0
        assert contours == [((0.0, b, penrose.OMEGA_MAX), tuple(range(1, 9)))]
        assert [rect for _, rect, _ in rep.windings] == [
            (0.0, k * b, k * penrose.OMEGA_MAX) for k in range(1, 9)]
        assert rep.theta1 == penrose.strip_width(eq)

    @pytest.mark.parametrize("times", [np.array([0.0, 0.1, 0.3]), np.linspace(0, 1, 11) ** 2,
                                       np.zeros((2, 3)), np.array([])])
    def test_non_uniform_grid_refused(self, times):
        th, Om, nq = contour_parameters(EQ, 1, 1.0)
        with pytest.raises(ValueError, match="grid"):
            resolvent_kernel(EQ, 1, th, Om, nq, times)

    def test_one_sample_and_shifted_grids(self):
        th, Om, nq = contour_parameters(EQ, 1, 2.0)
        full = resolvent_kernel(EQ, 1, th, Om, nq, 0.01 * np.arange(201)).values
        shifted = resolvent_kernel(EQ, 1, th, Om, nq, 0.5 + 0.01 * np.arange(151)).values
        one = resolvent_kernel(EQ, 1, th, Om, nq, np.array([1.3])).values
        assert np.max(np.abs(shifted - full[50:])) < 1e-13
        assert abs(one[0] - full[130]) < 1e-13

    @pytest.mark.parametrize("N, M, t0", [(7, 40, 0.0), (300, 41, 0.0), (300, 41, 1.7),
                                          (5, 3, -2.5), (1, 9, 0.4), (64, 2, 3.0),
                                          (20001, 20, 0.0)])  # chirp phases reach 2e4 rad
    def test_chirp_sum_matches_phase_sum(self, N, M, t0):
        rng = np.random.default_rng(N + M)
        times = t0 + 4.0 / max(N - 1, 1) * np.arange(N)
        lam = -0.3 + 0.2j + 1j * np.linspace(0.0, 9.0, M)
        w = rng.normal(size=M) + 1j * rng.normal(size=M)
        ref = phase_sum(times, lam, w)
        assert np.max(np.abs(chirp_sum(times, lam, w) - ref)) < 1e-13 * np.max(np.abs(ref))

    def test_omega_tail_refused(self):
        with pytest.raises(ValueError, match="tail"):
            resolvent_kernel(EQ, 1, 0.25, 5.0, 64, np.linspace(0, 1, 11))

    @pytest.mark.parametrize("bad", [(0.0, 100.0, 64), (0.25, -1.0, 64), (0.25, 100.0, 1)])
    def test_parameter_validation(self, bad):
        with pytest.raises(ValueError):
            resolvent_kernel(EQ, 1, *bad, np.linspace(0, 1, 11))

    def test_small_time_behaviour(self):
        # K(0) = 0 and K'(0) = -mu_hat(0) = -1
        th, Om, nq = contour_parameters(EQ, 1, 1.0)
        ker = resolvent_kernel(EQ, 1, th, Om, nq, np.array([0.0, 0.01]))
        assert abs(ker.values[0]) < 1e-10
        assert abs(ker.values[1] / 0.01 + 1.0) < 1e-3

    def test_decay_certificate(self):
        times = 2e-3 * np.arange(5001)
        th, Om, nq = contour_parameters(EQ, 1, 10.0)
        ker = resolvent_kernel(EQ, 1, th, Om, nq, times)
        assert ker.theta_fit > 0.8  # Landau rate of the k = 1 root
        assert ker.C_fit < 2.0
        mag = np.abs(ker.values)
        usable = mag > 1e-12 * mag.max()
        bound = ker.C_fit * np.exp(-ker.theta_fit * times)
        assert np.all(mag[usable] <= bound[usable] * (1 + 1e-9))

    def test_identity_residual(self):
        # K + kappa + kappa * K = 0, discretized with the same trapezoid
        times = 2e-3 * np.arange(5001)
        th, Om, nq = contour_parameters(EQ, 1, 10.0)
        ker = resolvent_kernel(EQ, 1, th, Om, nq, times)
        kap = times * np.asarray(EQ.mu_hat(times), float)
        K = ker.values
        dt = 2e-3
        full = np.convolve(kap, K)[: times.size]
        conv = dt * (full - 0.5 * kap * K[0] - 0.5 * kap[0] * K)
        assert np.max(np.abs(K + kap + conv)) < 5e-6


class TestKernelRoute:
    def test_stub_route_returns_source(self):
        t = 1e-2 * np.arange(101)
        ker = resolvent_kernel(STUB, 1, 0.25, 50.0, 256, t)
        S = np.exp(-0.1 * t).astype(complex)
        out = solve_via_kernel(DensityTrace(k=1, times=t, values=S), ker)
        assert np.array_equal(out.values, S)

    def test_routes_agree(self):
        times = 2e-3 * np.arange(5001)
        hat0, src = single_mode_source()
        tra = volterra_solve(EQ, 1, src, 2e-3, 10.0)
        th, Om, nq = contour_parameters(EQ, 1, 10.0)
        ker = resolvent_kernel(EQ, 1, th, Om, nq, times)
        S = np.asarray(hat0(1, times), complex)
        trb = solve_via_kernel(DensityTrace(k=1, times=times, values=S), ker)
        assert np.max(np.abs(tra.values - trb.values)) < 1e-6

    def test_fft_convolution_matches_direct_sum(self):
        times = 2e-3 * np.arange(2001)
        hat0, _ = single_mode_source()
        th, Om, nq = contour_parameters(EQ, 1, 4.0)
        ker = resolvent_kernel(EQ, 1, th, Om, nq, times)
        S = np.asarray(hat0(1, times), complex)
        K = ker.values
        ref = S + 2e-3 * (np.convolve(K, S)[: times.size] - 0.5 * K * S[0] - 0.5 * K[0] * S)
        got = solve_via_kernel(DensityTrace(k=1, times=times, values=S), ker).values
        assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(S))

    def test_one_sample_grid_returns_source(self):
        # T = 0: the grid is {0}, the convolution is empty and rho = S
        ker = resolvent_kernel(EQ, 1, *contour_parameters(EQ, 1, 0.0), [0.0])
        S = np.array([1e-3 + 2e-4j])
        out = solve_via_kernel(DensityTrace(k=1, times=np.zeros(1), values=S), ker)
        assert np.array_equal(out.values, S)

    def test_grid_mismatch_rejected(self):
        t = 1e-2 * np.arange(101)
        ker = resolvent_kernel(STUB, 1, 0.25, 50.0, 256, t)
        with pytest.raises(ValueError, match="time grid"):
            solve_via_kernel(DensityTrace(k=1, times=1e-2 * np.arange(51),
                                          values=np.zeros(51, complex)), ker)


class TestFitDecay:
    def test_pure_exponential(self):
        t = 1e-2 * np.arange(1001)
        tr = DensityTrace(k=1, times=t, values=1j * np.exp(-0.3 * t))
        fit = fit_decay(tr, 1.0)
        assert abs(fit.rate - 0.3) < 1e-6
        assert fit.residual < 1e-12

    def test_constant_trace_gives_zero_rate(self):
        t = 1e-2 * np.arange(1001)
        tr = DensityTrace(k=1, times=t, values=np.full(1001, 0.7j))
        assert abs(fit_decay(tr, 1.0).rate) < 1e-10

    def test_stretched_exponential(self):
        t = 1e-2 * np.arange(4001)
        tr = DensityTrace(k=1, times=t, values=1j * 2.0 * np.exp(-0.5 * t**0.6))
        fit = fit_decay(tr, 0.6)
        assert abs(fit.rate - 0.5) < 1e-8
        assert abs(fit.log_amplitude - np.log(2.0)) < 1e-8

    def test_oscillatory_trace_fits_envelope(self):
        t = 1e-2 * np.arange(2001)
        tr = DensityTrace(k=1, times=t, values=1j * np.exp(-0.4 * t) * np.cos(2.0 * t))
        fit = fit_decay(tr, 1.0)
        assert abs(fit.rate - 0.4) < 1e-2
        assert fit.n_used >= 8

    def test_window_restricts_the_fit(self):
        t = 1e-2 * np.arange(1001)
        vals = np.where(t < 5.0, np.exp(-0.3 * t), np.exp(-1.5 - 0.8 * (t - 5.0)))
        tr = DensityTrace(k=1, times=t, values=(1j * vals).astype(complex))
        fit = fit_decay(tr, 1.0, window=(0.0, 5.0))
        assert abs(fit.rate - 0.3) < 1e-6

    def test_too_few_points_rejected(self):
        t = 1e-2 * np.arange(6)
        tr = DensityTrace(k=1, times=t, values=np.exp(-t).astype(complex))
        with pytest.raises(ValueError, match="need 8"):
            fit_decay(tr, 1.0)
