"""Pseudo-spectral Vlasov-Poisson evolution in the free-transport frame.

The state is the perturbation's Fourier-in-x coefficients sampled on the
velocity grid, advanced in the frame where free streaming is the
identity.  The mixed (k, v) representation makes the frequency shift of
the coupling term an exact multiplication by e^{i l v t}; no eta-space
interpolation enters the hot loop.  Densities are read off by
oscillatory moments at phase rate k t, so the resolution rule of the
spectral module is the only sampling constraint.

Reality of the underlying distribution (g_{-k} = conj(g_k)) is kept by
construction: the RK4 stepper advances only the rows k >= 0 and mirrors
them into the negative rows once per step.  What is left to re-enforce
is the imaginary part of the mean mode, whose drift is logged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .equilibria import Equilibrium
from .linear import DensityTrace, cosine_initial_hat, local_maxima
from .spectral import Grid, SpectralState, phase_rows, phase_sum, required_nv

NOISE_FLOOR = 1e-13


class StabilityError(RuntimeError):
    pass


class MissingSnapshotsError(RuntimeError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Everything one evolution needs; validated on construction."""

    eq: Equilibrium
    grid: Grid
    dt: float
    t_final: float
    modes: tuple  # (k, amplitude, eta_offset) triples, k > 0
    linear_term: bool = True
    quadratic_term: bool = True
    trace_stride: int = 1
    snapshot_stride: int = 0
    threads: int = 1  # validated and recorded; the stepper is serial
    profile: Optional[Equilibrium] = None  # data envelope; defaults to eq

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        n = self.t_final / self.dt
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ValueError(f"t_final = {self.t_final} is not an integer multiple of dt")
        if round(n) > 10**7:
            raise ValueError("more than 1e7 steps requested")
        need = required_nv(self.grid.V, self.grid.k_max, self.t_final)
        if self.grid.N_v < need:
            raise ValueError(
                f"N_v = {self.grid.N_v} cannot resolve moments up to "
                f"t = {self.t_final}; need N_v >= {need}"
            )
        for km, amp, off in self.modes:
            if int(km) <= 0 or int(km) > self.grid.k_max:
                raise ValueError(f"initial mode k = {km} must lie in 1..{self.grid.k_max}")
            if not np.isfinite(amp) or not np.isfinite(off):
                raise ValueError("mode amplitudes and offsets must be finite")
        if self.trace_stride < 1 or self.snapshot_stride < 0:
            raise ValueError("trace_stride >= 1 and snapshot_stride >= 0 required")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

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
class RunOutput:
    config: RunConfig
    times: np.ndarray
    traces: dict  # k > 0 -> DensityTrace
    snapshots: list  # Snapshot, ordered by t, always ends with the final state
    initial_state: SpectralState
    final_state: SpectralState
    conservation: dict  # arrays keyed 't', 'mass_drift', 'l2', 'l2_drift', 'reality_drift', 'dealias'
    reality_drift_max: float


def field(rho: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Electric-field coefficients E_k = rho_k/(ik); the mean mode carries none."""
    rho = np.asarray(rho, dtype=complex)
    ks = np.asarray(ks)
    out = np.zeros_like(rho)
    nz = ks != 0
    out[nz] = rho[nz] / (1j * ks[nz])
    return out


def initial_state(grid: Grid, eq: Equilibrium, modes, profile: Optional[Equilibrium] = None,
                  t: float = 0.0) -> SpectralState:
    """Perturbation sum_j amp_j cos(k_j x + eta_j v) M(v) as a spectral state."""
    M = (profile if profile is not None else eq).mu(grid.v)
    data = np.zeros((grid.n_modes, grid.N_v), dtype=np.complex128)
    for km, amp, off in modes:
        km = int(km)
        osc = np.exp(1j * off * grid.v)
        data[grid.mode_index(km)] += 0.5 * amp * osc * M
        data[grid.mode_index(-km)] += 0.5 * amp * np.conj(osc) * M
    return SpectralState(grid, data, t)


class _Engine:
    """Grid machinery and preallocated buffers for the stepper of rows k = 0..k_max."""

    def __init__(self, grid: Grid, eq: Equilibrium, linear_term: bool,
                 quadratic_term: bool):
        self.K = K = grid.k_max
        self.v = grid.v
        self.dv = grid.dv
        self.linear_term = linear_term
        self.quadratic_term = quadratic_term
        self.mu_prime = np.asarray(eq.mu_prime(grid.v), dtype=float)
        xi = 2.0 * np.pi * np.fft.fftfreq(grid.N_v, d=grid.dv)
        xi[grid.N_v // 2] = 0.0  # unpaired odd mode has no consistent derivative
        self._deriv_symbol = 1j * xi
        self._ks = np.arange(1, K + 1)
        self._W = np.empty((2 * K + 1, grid.N_v), dtype=np.complex128)  # row K+m
        self._C = np.empty_like(self._W)  # E_l e^{i l v t} at row K+l
        self._prod, self._y, self._acc, self._k = np.empty((4, K + 1, grid.N_v),
                                                           dtype=np.complex128)

    def _stage(self, h: np.ndarray, t: float, rows: np.ndarray, out: np.ndarray,
               dt: Optional[float] = None) -> None:
        """d/dt of h = data[k_max:] into out, given phase_rows at t; dt checks stability."""
        K = self.K
        out.fill(0.0)
        if not (self.linear_term or self.quadratic_term):
            return
        rho = self.dv * np.einsum("kj,kj->k", h[1:], rows)
        if dt is not None:
            emax = float(np.max(np.abs(rho) / self._ks))
            if dt * K * (1.0 + t) * emax >= 0.5:
                raise StabilityError(
                    f"dt = {dt:g} violates dt*k_max*(1+t)*max|E| < 0.5 at t = {t:g}; "
                    f"use dt < {0.5 / (K * (1.0 + t) * emax):.3e}"
                )
        # C_l = E_l e^{i l v t}: rows l < 0 are conj(E_|l|) e^{-i |l| v t}, l > 0 their mirror
        C, prod = self._C, self._prod
        np.multiply(np.conj(rho / (1j * self._ks))[::-1, None], rows[::-1], out=C[:K])
        np.conjugate(C[K - 1 :: -1], out=C[K + 1 :])

        if self.linear_term:
            # -E_k e^{i k v t} mu'(v), driving row k
            out[1:] -= np.multiply(C[K + 1 :], self.mu_prime, out=prod[:K])

        if self.quadratic_term:
            # W_m = d_v g_m - i m t g_m; negative m and l are conjugate mirrors
            W = self._W
            F = np.fft.fft(h, axis=-1)
            F *= self._deriv_symbol
            W[K:] = np.fft.ifft(F, axis=-1)
            W[K + 1 :] -= np.multiply((1j * t * self._ks)[:, None], h[1:], out=prod[:K])
            np.conjugate(W[:K:-1], out=W[:K])
            for l in range(-K, K + 1):  # fixed l order keeps runs bit-identical
                if l == 0:
                    continue
                n = K + 1 + min(l, 0)  # rows k = 0..n-1 keep |k - l| <= K
                out[:n] -= np.multiply(C[K + l], W[K - l : K - l + n], out=prod[:n])

    def rhs(self, data: np.ndarray, t: float) -> np.ndarray:
        """Full time derivative at t; rows k < 0 are exact conjugate mirrors."""
        K = self.K
        out = np.empty(data.shape, dtype=np.complex128)
        self._stage(data[K:], t, phase_rows(t, self.v, K), out[K:])
        np.conjugate(out[:K:-1], out=out[:K])
        return out

    def rk4(self, data: np.ndarray, t: float, dt: float) -> float:
        """One stability-checked classical step of rows k >= 0 in place, then the mirror.

        Rows k != 0 leave as exact mirrors, so re-enforcing reality only clears
        Im g_0; its size before clearing is returned as the step's reality drift.
        """
        K = self.K
        h = data[K:]
        acc, y, k = self._acc, self._y, self._k  # acc sums k1 + 2 k2 + 2 k3 + k4 in order
        self._stage(h, t, phase_rows(t, self.v, K), acc, dt)
        np.add(h, np.multiply(acc, 0.5 * dt, out=y), out=y)
        mid = phase_rows(t + 0.5 * dt, self.v, K)  # shared by k2 and k3
        self._stage(y, t + 0.5 * dt, mid, k)
        np.add(h, np.multiply(k, 0.5 * dt, out=y), out=y)
        acc += np.multiply(k, 2.0, out=k)
        self._stage(y, t + 0.5 * dt, mid, k)
        np.add(h, np.multiply(k, dt, out=y), out=y)
        acc += np.multiply(k, 2.0, out=k)
        self._stage(y, t + dt, phase_rows(t + dt, self.v, K), k)
        acc += k
        h += np.multiply(acc, dt / 6.0, out=acc)
        np.conjugate(data[:K:-1], out=data[:K])
        drift = float(np.max(np.abs(h[0].imag)))
        h[0].imag = 0.0
        return drift


def step(state: SpectralState, eq: Equilibrium, dt: float, *, linear_term: bool = True,
         quadratic_term: bool = True) -> SpectralState:
    """One classical 4-stage step from state.t; a non-real state is refused, not mirrored."""
    err = state.reality_error()
    if err > 1e-12:
        raise ValueError(f"state.reality_error() = {err:.3e} exceeds 1e-12; need g_-k = conj(g_k)")
    data = state.data.astype(np.complex128)
    _Engine(state.grid, eq, linear_term, quadratic_term).rk4(data, state.t, dt)
    return SpectralState(state.grid, data, state.t + dt)


def run(config: RunConfig) -> RunOutput:
    """Advance the configured state to t_final, recording traces and diagnostics."""
    g = config.grid
    K = g.k_max
    eng = _Engine(g, config.eq, config.linear_term, config.quadratic_term)
    init = initial_state(g, config.eq, config.modes, config.profile)
    data = init.data.copy()
    N = config.n_steps
    dt = config.dt

    rec_idx = list(range(0, N + 1, config.trace_stride))
    if rec_idx[-1] != N:
        rec_idx.append(N)
    rec_set = {n: i for i, n in enumerate(rec_idx)}
    n_rec = len(rec_idx)
    times_rec = dt * np.asarray(rec_idx, dtype=float)
    trace_vals = np.zeros((K, n_rec), dtype=np.complex128)
    mass = np.zeros(n_rec)
    l2 = np.zeros(n_rec)
    reality = np.zeros(n_rec)
    dealias = np.zeros(n_rec)

    snapshots: list = []

    def record(n: int, t: float, drift: float):
        i = rec_set[n]
        rho_pos = eng.dv * np.einsum("kj,kj->k", data[K + 1 :], phase_rows(t, eng.v, K))
        trace_vals[:, i] = rho_pos
        mass[i] = abs(eng.dv * np.sum(data[K]))
        l2[i] = eng.dv * float(np.sum(np.abs(data) ** 2))
        reality[i] = drift
        emax = float(np.max(np.abs(rho_pos) / eng._ks))
        edge = eng.dv * float(np.sum(np.abs(data[0]) ** 2) + np.sum(np.abs(data[-1]) ** 2))
        dealias[i] = emax * math.sqrt(edge)

    drift_max = pending_drift = 0.0
    record(0, 0.0, 0.0)
    if config.snapshot_stride > 0:
        snapshots.append(Snapshot(0.0, data.astype(np.complex64)))
    for n in range(1, N + 1):
        d = eng.rk4(data, (n - 1) * dt, dt)
        drift_max = max(drift_max, d)
        pending_drift = max(pending_drift, d)
        if n in rec_set:
            record(n, n * dt, pending_drift)
            pending_drift = 0.0
        if config.snapshot_stride > 0 and n % config.snapshot_stride == 0:
            snapshots.append(Snapshot(n * dt, data.astype(np.complex64)))

    if not snapshots or snapshots[-1].t != N * dt:
        snapshots.append(Snapshot(N * dt, data.astype(np.complex64)))
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
    }
    return RunOutput(
        config=config, times=times_rec, traces=traces, snapshots=snapshots,
        initial_state=init, final_state=final, conservation=conservation,
        reality_drift_max=drift_max,
    )


def closure_residual(output: RunOutput) -> float:
    """Self-consistency of the evolved density against the derived identity.

    For each retained mode the density must satisfy
    rho_k(t) + int_0^t (t-s) mu_hat(k(t-s)) rho_k(s) ds = S_k(t), where the
    source is the initial-data moment minus the quadratic interaction
    integral.  Both sides are assembled from the run's own dense history
    with the same trapezoid rule; what is NOT shared with the time
    stepper is the identity itself, so the residual measures whether the
    evolution solved the right equation.  The interaction integral is
    gathered over (k, l) pairs into running (k, velocity) buffers, turning
    the naive cubic sweep into one pass over the snapshots.
    """
    cfg = output.config
    if cfg.trace_stride != 1:
        raise MissingSnapshotsError("closure residual needs traces at every step")
    g = cfg.grid
    K = g.k_max
    N = cfg.n_steps
    dt = cfg.dt
    times = output.times
    snaps = output.snapshots
    if len(snaps) != N + 1 or any(
        abs(s.t - n * dt) > 1e-12 * max(1.0, n * dt) for n, s in enumerate(snaps)
    ):
        raise MissingSnapshotsError(
            "closure residual needs dense snapshots; rerun with snapshot_stride=1"
        )

    v = g.v
    dv = g.dv
    ks = np.arange(1, K + 1)
    mu_hat = cfg.eq.mu_hat

    # Volterra memory term per mode, trapezoid end-corrected convolution.
    # Disabled terms drop out of the identity the run actually solved.
    volterra = np.zeros((K, N + 1), dtype=np.complex128)
    rho = np.empty((K, N + 1), dtype=np.complex128)
    for k in ks:
        rho[k - 1] = output.traces[k].values
        if not cfg.linear_term:
            continue
        kap = times * np.asarray(mu_hat(k * times), dtype=float)
        full = np.convolve(kap, rho[k - 1])[: N + 1]
        volterra[k - 1] = dt * (full - 0.5 * kap * rho[k - 1][0] - 0.5 * kap[0] * rho[k - 1])

    # initial-data moments S0_k(t_n), exact in v
    init = output.initial_state.data
    S0 = np.array([dv * phase_sum(-1j * k * times, v, init[K + k]) for k in ks])
    base = rho + volterra - S0

    if not cfg.quadratic_term:
        return float(np.max(np.abs(base)))

    # Interaction integral via running accumulators over the snapshot pass.
    # Pair (k, l) reads mode m = k - l; pairs with |m| > K get zero weight.
    # The weights k/l do not depend on time, so the l sum is taken per snapshot.
    ells = np.array([l for l in range(-K, K + 1) if l != 0])
    m = ks[:, None] - ells[None, :]
    m_row = K + np.clip(m, -K, K)
    weight = np.where(np.abs(m) <= K, ks[:, None] / ells[None, :], 0.0)
    pairs = np.empty((K, ells.size, g.N_v), dtype=np.complex128)
    f_prev = np.empty((K, g.N_v), dtype=np.complex128)
    f_cur = np.empty_like(f_prev)
    P = np.zeros_like(f_prev)
    Ra = np.zeros_like(f_prev)

    def integrand(n: int, out: np.ndarray) -> np.ndarray:
        """sum_l (k/l) g_{k-l} rho_l e^{i l s v} at s = times[n]; returns e^{-i k s v}."""
        rows = phase_rows(times[n], v, K)
        b_pos = rho[:, n, None] * np.conj(rows)  # l = 1..K; l < 0 are conjugates
        np.take(snaps[n].data.astype(np.complex128), m_row, axis=0, out=pairs)
        np.multiply(pairs, np.concatenate([np.conj(b_pos[::-1]), b_pos]), out=pairs)
        np.einsum("kl,klj->kj", weight, pairs, out=out)
        return rows

    integrand(0, f_prev)
    # t = 0: all integrals vanish; residual is rho(0) - S0(0) = 0 by construction
    residual = 0.0
    w = 0.5 * dt
    for n in range(1, N + 1):
        rows = integrand(n, f_cur)
        P += w * (f_prev + f_cur)
        Ra += w * (times[n - 1] * f_prev + times[n] * f_cur)
        Q = dv * np.einsum("kj,kj->k", times[n] * P - Ra, rows)
        residual = max(residual, float(np.max(np.abs(base[:, n] + Q))))
        f_prev, f_cur = f_cur, f_prev
    return residual


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

    def peak_for(self, mode: int) -> Optional[EchoPeak]:
        for p in self.peaks:
            if p.mode == mode:
                return p
        return None


def _interior_peak(times: np.ndarray, mag: np.ndarray):
    """Largest interior local maximum, or None below the noise floor."""
    idx = local_maxima(mag)
    idx = idx[mag[idx] > NOISE_FLOOR]
    if idx.size == 0:
        return None
    best = idx[np.argmax(mag[idx])]
    return float(times[best]), float(mag[best])


def _picard_second_order(hat0: Callable, K_mode: int, data_modes, t_grid: np.ndarray,
                         n_s: int = 4000) -> np.ndarray:
    """|rho^(2)_K(t)| from the explicit second iterate with free streaming.

    rho^(2)_K(t) = f0_{K,Kt} - sum_l int_0^t (K(t-s)/l) f0_{l,ls} f0_{K-l,Kt-ls} ds,
    integrated by trapezoid on a fixed unit grid scaled to [0, t].
    """
    u = np.linspace(0.0, 1.0, n_s + 1)
    w = np.full(n_s + 1, 1.0 / n_s)
    w[0] = w[-1] = 0.5 / n_s
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
    prof_hat = config.data_profile.mu_hat
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
