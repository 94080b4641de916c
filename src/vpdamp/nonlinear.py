"""Pseudo-spectral Vlasov-Poisson evolution in the free-transport frame.

The state is the perturbation's Fourier-in-x coefficients sampled on the
velocity grid, advanced in the frame where free streaming is the
identity.  The mixed (k, v) representation makes the frequency shift of
the coupling term an exact multiplication by e^{i l v t}; no eta-space
interpolation enters the hot loop.  As e^{i l v t} = e^{i k v t} e^{-i m v t}
(m = k - l), the sum over l is one Toeplitz matrix of field amplitudes
times the phase-rotated rows.  Densities are read off by oscillatory
moments at phase rate k t, so the resolution rule of the spectral module
is the only sampling constraint.

Reality of the underlying distribution (g_{-k} = conj(g_k)) is kept by
construction: the RK4 stepper advances only the rows k >= 0 and mirrors
them into the negative rows once per step.  What is left to re-enforce
is the imaginary part of the mean mode, whose drift is logged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .equilibria import Equilibrium
from .linear import DensityTrace, cosine_initial_hat, local_maxima
from .spectral import (Grid, SpectralState, boundary_floors, check_resolution, check_strides,
                       phase_rows, record_steps, refuse_boundary, require, time_steps,
                       trapezoid_convolve)

NOISE_FLOOR = 1e-13
PICARD_STEPS = 4000  # trapezoid steps of the second-iterate time integral


class StabilityError(RuntimeError):
    pass


class MissingSnapshotsError(RuntimeError):
    pass


def check_modes(modes, k_max: int) -> None:
    """require every (k, amplitude, eta_offset) to have k an integer in 1..k_max and a
    finite amplitude and offset."""
    rules = []
    for k, amp, off in modes:
        rules += [(float(k).is_integer() and 1 <= k <= k_max,
                   f"modes: need an integer 1 <= k <= k_max = {k_max}, got k = {k}"),
                  (np.isfinite(amp) and np.isfinite(off), f"modes: need a finite amplitude "
                   f"and offset, got amplitude {amp} and offset {off} at k = {k}")]
    require(*rules)


@dataclass(frozen=True)
class RunConfig:
    """Everything one evolution needs; validated on construction."""

    eq: Equilibrium
    grid: Grid
    dt: float
    t_final: float
    modes: tuple  # (k, amplitude, eta_offset) triples, k > 0
    quadratic_term: bool = True
    trace_stride: int = 1
    snapshot_stride: int = 0
    profile: Optional[Equilibrium] = None  # data envelope; defaults to eq

    def __post_init__(self):
        time_steps(self.dt, self.t_final)
        check_resolution(self.grid.V, self.grid.k_max, self.grid.N_v, self.t_final)
        check_modes(self.modes, self.grid.k_max)
        check_strides(self.trace_stride, self.snapshot_stride)

    @property
    def n_steps(self) -> int:
        return time_steps(self.dt, self.t_final)

    @property
    def data_profile(self) -> Equilibrium:
        return self.profile if self.profile is not None else self.eq


@dataclass(frozen=True)
class Snapshot:
    t: float
    data: np.ndarray  # (n_modes, N_v) complex64

    def to_state(self, grid: Grid) -> SpectralState:
        return SpectralState(grid, self.data.astype(np.complex128), self.t)


@dataclass
class RunRecord:
    """What the weighted-norm diagnostics read from a run: a RunOutput, or the
    CLI's rebuild from stored traces and snapshots."""

    grid: Grid
    times: np.ndarray
    traces: dict  # k > 0 -> DensityTrace
    snapshots: Sequence  # Snapshot by t, ending with the final state; [] if run had a sink


@dataclass
class RunOutput(RunRecord):
    config: RunConfig
    initial_state: SpectralState
    final_state: SpectralState
    conservation: dict  # arrays t, mass_drift, l2, l2_drift, reality_drift, dealias, boundary_floor
    closure: Optional[float] = None  # closure residual, accumulated in the loop of a dense run


def initial_state(grid: Grid, profile: Equilibrium, modes) -> SpectralState:
    """Perturbation sum_j amp_j cos(k_j x + eta_j v) M(v), M = profile.mu, as a spectral state."""
    M = profile.mu(grid.v)
    data = np.zeros((grid.n_modes, grid.N_v), dtype=np.complex128)
    for km, amp, off in modes:
        km = int(km)
        osc = np.exp(1j * off * grid.v)
        data[grid.mode_index(km)] += 0.5 * amp * osc * M
        data[grid.mode_index(-km)] += 0.5 * amp * np.conj(osc) * M
    return SpectralState(grid, data)


class _Coupling:
    """-sum_{l != 0, |k-l| <= K} E_l e^{i l v t} X_{k-l}, k = 0..K, as e^{i k v t} (T Z)_k, where
    Z_m = e^{-i m v t} X_m and T_km = -E_{k-m} is a (K+1) x (2K+1) Toeplitz matrix (m = k - l)."""

    def __init__(self, K: int, N_v: int):
        self.K = K
        self._ks = np.arange(1, K + 1)
        k, m = np.ogrid[0 : K + 1, -K : K + 1]
        self._index = np.where(np.abs(k - m) <= K, K + k - m, K)  # into -E_l at K+l; E_0 = 0
        self._Z = np.empty((2 * K + 1, N_v), dtype=np.complex128)  # row K+m
        self._up = np.empty((K, N_v), dtype=np.complex128)

    def product(self, rho: np.ndarray, rows: np.ndarray, X: np.ndarray, out: np.ndarray) -> None:
        """The sum into out, from rho_1..K, phase_rows at t and X_0..X_K (X_-m = conj X_m)."""
        K, Z = self.K, self._Z
        Z[K] = X[0]
        np.multiply(X[1:], rows, out=Z[K + 1 :])
        np.conjugate(Z[:K:-1], out=Z[:K])
        E = 1j * rho / self._ks  # -E_l for l = 1..K
        np.matmul(np.concatenate((np.conj(E[::-1]), [0.0], E))[self._index], Z, out=out)
        out[1:] *= np.conjugate(rows, out=self._up)  # e^{i k v t}


class _Engine(_Coupling):
    """Grid machinery and preallocated buffers for the stepper of rows k = 0..k_max."""

    def __init__(self, grid: Grid, eq: Equilibrium, quadratic_term: bool):
        super().__init__(grid.k_max, grid.N_v)
        self.v = grid.v
        self.dv = grid.dv
        self.quadratic_term = quadratic_term
        self.mu_prime = np.asarray(eq.mu_prime(grid.v), dtype=float)
        # free transport (no background slope, no quadratic term): every stage derivative is 0
        self._free = not (quadratic_term or np.any(self.mu_prime))
        xi = 2.0 * np.pi * np.fft.fftfreq(grid.N_v, d=grid.dv)
        xi[grid.N_v // 2] = 0.0  # unpaired odd mode has no consistent derivative
        self._deriv_symbol = 1j * xi
        self._prod, self._y, self._acc, self._k = np.empty((4, self.K + 1, grid.N_v),
                                                           dtype=np.complex128)

    def _stage(self, h: np.ndarray, t: float, rows: np.ndarray, out: np.ndarray,
               dt: Optional[float] = None) -> None:
        """d/dt of h = data[k_max:] into out, given phase_rows at t; dt checks stability."""
        K = self.K
        if self._free:
            out.fill(0.0)
            return
        rho = self.dv * np.einsum("kj,kj->k", h[1:], rows)
        if dt is not None:
            emax = float(np.max(np.abs(rho) / self._ks))
            if not dt * K * (1.0 + t) * emax < 0.5:  # a NaN field fails too
                fix = (f"use dt < {0.5 / (K * (1.0 + t) * emax):.3e}" if math.isfinite(emax)
                       else f"the field is not finite (max|E| = {emax})")
                raise StabilityError(f"dt = {dt:g} violates dt*k_max*(1+t)*max|E| < 0.5 "
                                     f"at t = {t:g}; {fix}")
        if self.quadratic_term:  # both terms in one product: X_m = d_v g_m - i m t g_m, mu' in X_0
            F = np.fft.fft(h, axis=-1)
            F *= self._deriv_symbol
            X = np.fft.ifft(F, axis=-1)
            X[1:] -= np.multiply((1j * t * self._ks)[:, None], h[1:], out=self._prod[:K])
        else:
            X = np.zeros_like(h)
        X[0] += self.mu_prime
        self.product(rho, rows, X, out)

    def rhs(self, data: np.ndarray, t: float) -> np.ndarray:
        """Full time derivative at t; rows k < 0 are exact conjugate mirrors."""
        K = self.K
        out = np.empty(data.shape, dtype=np.complex128)
        self._stage(data[K:], t, phase_rows(t, self.v, K), out[K:])
        np.conjugate(out[:K:-1], out=out[:K])
        return out

    def rk4(self, data: np.ndarray, t: float, dt: float) -> float:
        """One stability-checked classical step of rows k >= 0 in place, then the mirror.

        Rows k != 0 leave as exact mirrors, so clearing Im g_0 re-enforces
        reality; its size before clearing is returned as the step's drift.
        """
        K = self.K
        h = data[K:]
        acc, y, k = self._acc, self._y, self._k  # acc sums k1 + 2 k2 + 2 k3 + k4 in order
        rows = phase_rows(t, self.v, K)  # every stage's rows are built in this buffer
        self._stage(h, t, rows, acc, dt)
        np.add(h, np.multiply(acc, 0.5 * dt, out=y), out=y)
        phase_rows(t + 0.5 * dt, self.v, K, rows)  # shared by k2 and k3
        self._stage(y, t + 0.5 * dt, rows, k)
        np.add(h, np.multiply(k, 0.5 * dt, out=y), out=y)
        acc += np.multiply(k, 2.0, out=k)
        self._stage(y, t + 0.5 * dt, rows, k)
        np.add(h, np.multiply(k, dt, out=y), out=y)
        acc += np.multiply(k, 2.0, out=k)
        self._stage(y, t + dt, phase_rows(t + dt, self.v, K, rows), k)
        acc += k
        h += np.multiply(acc, dt / 6.0, out=acc)
        np.conjugate(data[:K:-1], out=data[:K])
        drift = float(np.max(np.abs(h[0].imag)))
        h[0].imag = 0.0
        return drift


def run(config: RunConfig, sink: Optional[Callable[[Snapshot], None]] = None) -> RunOutput:
    """Advance the configured state to t_final, recording traces and diagnostics.

    Snapshots go to sink as they are taken (else to the output's list).  A dense run
    (every step traced and snapshotted), with or without a sink, accumulates its
    closure residual (see _Closure) into the output's closure as it steps.  Each
    recorded step's state goes through spectral.refuse_boundary; a non-finite one
    between the first and the last is left to the next step's stability check.
    """
    g = config.grid
    K = g.k_max
    eng = _Engine(g, config.eq, config.quadratic_term)
    init = initial_state(g, config.data_profile, config.modes)
    data = init.data.copy()
    N = config.n_steps
    dt = config.dt

    rec_idx = record_steps(N, config.trace_stride)
    rec_set = {n: i for i, n in enumerate(rec_idx)}
    snap_set = set(record_steps(N, config.snapshot_stride) if config.snapshot_stride else [N])
    n_rec = len(rec_idx)
    times_rec = dt * np.asarray(rec_idx, dtype=float)
    trace_vals = np.zeros((K, n_rec), dtype=np.complex128)
    mass, l2, reality, dealias, floor = np.zeros((5, n_rec))
    rows = np.empty((K, g.N_v), dtype=np.complex128)  # phase rows of the last recorded step

    snapshots: list = []
    emit = snapshots.append if sink is None else sink
    dense = config.trace_stride == 1 and len(snap_set) == N + 1
    closure = _Closure(config, init.data, times_rec, eng) if dense else None

    def record(n: int, drift: float) -> None:
        i, t = rec_set[n], n * dt
        rho_pos = eng.dv * np.einsum("kj,kj->k", data[K + 1 :], phase_rows(t, eng.v, K, rows))
        trace_vals[:, i] = rho_pos
        mass[i] = abs(eng.dv * np.sum(data[K]))
        a2 = np.abs(data) ** 2
        l2[i] = eng.dv * float(np.sum(a2))
        reality[i] = drift
        emax = float(np.max(np.abs(rho_pos) / eng._ks))
        dealias[i] = emax * math.sqrt(eng.dv * float(np.sum(a2[0]) + np.sum(a2[-1])))
        floor[i] = np.max(boundary_floors(a2))
        if n in (0, N) or math.isfinite(floor[i]):
            refuse_boundary(floor[i], f"state at step {n} (t = {t:g})" if n else "initial state")

    pending_drift = 0.0
    for n in range(N + 1):
        if n:
            pending_drift = max(pending_drift, eng.rk4(data, (n - 1) * dt, dt))
        if n in rec_set:
            record(n, pending_drift)
            pending_drift = 0.0
        if n in snap_set:
            snap = Snapshot(n * dt, data.astype(np.complex64))
            emit(snap)
            if closure is not None:
                closure.add(trace_vals[:, n], rows, snap.data[K:])

    final = SpectralState(g, data.copy(), N * dt)
    traces = {
        k: DensityTrace(k=k, times=times_rec, values=trace_vals[k - 1].copy())
        for k in range(1, K + 1)
    }
    conservation = {
        "t": times_rec,
        "mass_drift": np.abs(mass - mass[0]),
        "l2": l2,
        "l2_drift": np.abs(l2 - l2[0]),
        "reality_drift": reality,
        "dealias": dealias,
        "boundary_floor": floor,
    }
    return RunOutput(
        grid=g, config=config, times=times_rec, traces=traces, snapshots=snapshots,
        initial_state=init, final_state=final, conservation=conservation,
        closure=closure.residual() if closure else None,
    )


class _Closure:
    """Self-consistency of the evolved density against the derived identity, fed a
    dense run's states in step order.

    For each retained mode the density must satisfy
    rho_k(t) + int_0^t (t-s) mu_hat(k(t-s)) rho_k(s) ds = S_k(t), where the source
    is the initial-data moment S0 minus the quadratic interaction integral Q.  Both
    sides are assembled from the run's own history with the trapezoid rule; what is
    NOT shared with the time stepper is the identity itself, so the residual
    measures whether the evolution solved the right equation.  The interaction
    integrand sum_l (k/l) g_{k-l} rho_l e^{i l s v} = i k sum_l C_l g_{k-l} reads the
    stepper's coupling kernel on each complex64 snapshot, and the initial-data
    moments are read with the same phase rows.  Running sums P = int f ds and
    Ra = int s f ds of f = -sum_l C_l g_{k-l}, rows k = 0..K, give Q (the integrand
    is -i k f, or nothing without the quadratic term); S0 and Q are kept per step.
    """

    def __init__(self, cfg: RunConfig, init: np.ndarray, times: np.ndarray, coupling: _Coupling):
        g, K = cfg.grid, cfg.grid.k_max
        self.cfg, self.times, self.coupling, self.n = cfg, times, coupling, 0
        self.init = init[K + 1 :]
        self.weight = -1j * g.dv * coupling._ks * cfg.quadratic_term
        self.f_prev, self.f_cur, self.P, self.Ra = np.zeros((4, K + 1, g.N_v), dtype=np.complex128)
        self.rho, self.S0, self.Q = np.zeros((3, K, times.size), dtype=np.complex128)

    def add(self, rho: np.ndarray, rows: np.ndarray, X: np.ndarray) -> None:
        """The next step's rho_1..K, phase_rows at its time and its rows X_0..X_K."""
        n, times = self.n, self.times
        self.rho[:, n] = rho
        self.coupling.product(rho, rows, X, self.f_cur)
        if n:  # at t = 0 every integral vanishes and rho(0) = S0(0) by construction
            w = 0.5 * self.cfg.dt
            self.P += w * (self.f_prev + self.f_cur)
            self.Ra += w * (times[n - 1] * self.f_prev + times[n] * self.f_cur)
            self.S0[:, n] = self.cfg.grid.dv * np.einsum("kj,kj->k", self.init, rows)
            self.Q[:, n] = self.weight * np.einsum("kj,kj->k",
                                                   times[n] * self.P[1:] - self.Ra[1:], rows)
        self.f_prev, self.f_cur = self.f_cur, self.f_prev
        self.n += 1

    def residual(self) -> float:
        """max |rho + volterra - S0 + Q| over steps n >= 1; the Volterra memory term
        needs the whole density history, so it is formed here."""
        ts, mu_hat = self.times, self.cfg.eq.mu_hat
        volterra = np.array([trapezoid_convolve(ts * np.asarray(mu_hat(k * ts), dtype=float),
                                                rho, self.cfg.dt)
                             for k, rho in enumerate(self.rho, 1)])
        return float(np.max(np.abs(self.rho + volterra - self.S0 + self.Q)[:, 1:], initial=0.0))


def closure_residual(output: RunOutput) -> float:
    """The closure residual (see _Closure) that a dense run, with or without a sink,
    accumulated in its step loop.  Raises MissingSnapshotsError unless every step was
    traced and snapshotted."""
    if output.config.trace_stride != 1:
        raise MissingSnapshotsError("closure residual needs traces at every step")
    if output.closure is None:
        raise MissingSnapshotsError(
            "closure residual needs dense snapshots; rerun with snapshot_stride=1"
        )
    return output.closure


@dataclass(frozen=True)
class EchoPeak:
    mode: int
    measured_time: float
    amplitude: float
    predicted_time: Optional[float] = None
    relative_error: Optional[float] = None


@dataclass(frozen=True)
class EchoReport:
    peaks: tuple
    inconclusive: bool
    noise_floor: float


def _interior_peak(times: np.ndarray, mag: np.ndarray):
    """Largest interior local maximum, or None below the noise floor."""
    idx = local_maxima(mag)
    idx = idx[mag[idx] > NOISE_FLOOR]
    if idx.size == 0:
        return None
    best = idx[np.argmax(mag[idx])]
    return float(times[best]), float(mag[best])


def _picard_second_order(hat0: Callable, K_mode: int, data_modes,
                         t_grid: np.ndarray) -> np.ndarray:
    """|rho^(2)_K(t)| from the explicit second iterate with free streaming.

    rho^(2)_K(t) = f0_{K,Kt} - sum_l int_0^t (K(t-s)/l) f0_{l,ls} f0_{K-l,Kt-ls} ds,
    integrated by trapezoid on a fixed unit grid of PICARD_STEPS steps scaled to [0, t].
    """
    u = np.linspace(0.0, 1.0, PICARD_STEPS + 1)
    w = np.full(PICARD_STEPS + 1, 1.0 / PICARD_STEPS)
    w[0] = w[-1] = 0.5 / PICARD_STEPS
    out = np.empty(t_grid.size, dtype=np.complex128)
    ls = sorted({m for m in data_modes} | {-m for m in data_modes})
    for i, t in enumerate(t_grid):
        s = t * u
        total = np.asarray(hat0(K_mode, np.atleast_1d(K_mode * t)), complex)[0]
        for l in ls:
            m = K_mode - l
            rho1 = np.asarray(hat0(l, l * s), complex)
            mom = np.asarray(hat0(m, K_mode * t - l * s), complex)
            integrand = (K_mode * (t - s) / l) * rho1 * mom
            total -= t * np.dot(w, integrand)
        out[i] = total
    return out


def echo_experiment(config: RunConfig) -> EchoReport:
    """Run two-wave data and compare field-burst times against the Picard oracle.

    The oracle's linear flow is free streaming, so the configured
    background must be the zero stub (pass the data envelope through
    config.profile); a reactive background would shift the bursts away
    from anything the second iterate can predict.
    """
    if config.eq.C0 > 1e-10:
        raise ValueError(
            "echo analysis assumes a zero background response; use the zero() "
            "equilibrium and supply the data envelope via profile"
        )
    if len(config.modes) != 2:
        raise ValueError("echo data is exactly two modes: (k1, eps1, eta1), (k2, eps2, 0)")
    (k1, e1, eta1), (k2, e2, eta2) = config.modes
    if eta1 == 0.0 or eta2 != 0.0:
        raise ValueError("first mode carries the velocity offset, second must have none")
    if not eta1 / k1 < config.t_final:
        raise ValueError(f"need eta1/k1 = {eta1 / k1:g} < t_final = {config.t_final:g}")

    out = run(config)
    times = out.times
    hat0 = cosine_initial_hat(config.data_profile, config.modes)

    peaks = []
    for k in sorted(out.traces):
        found = _interior_peak(times, np.abs(out.traces[k].field_values))
        if found is None:
            continue
        t_meas, amp = found
        predicted = None
        if k == k1 and e1 != 0.0:
            predicted = eta1 / k1  # first-order burst: |phi_hat(k1 t - eta1)| peaks
        secondary = k1 + k2
        if k == secondary and e1 != 0.0 and e2 != 0.0 and secondary != k1:
            curve = np.abs(_picard_second_order(hat0, k, (k1, k2), times) / (1j * k))
            pred = _interior_peak(times, np.maximum(curve, 0.0))
            if pred is not None:
                predicted = pred[0]
        rel = abs(t_meas - predicted) / predicted if predicted else None
        peaks.append(EchoPeak(mode=k, measured_time=t_meas, amplitude=amp,
                              predicted_time=predicted, relative_error=rel))
    return EchoReport(peaks=tuple(peaks), inconclusive=not peaks, noise_floor=NOISE_FLOOR)
