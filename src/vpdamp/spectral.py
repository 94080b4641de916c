"""Fourier conventions, grids, and transforms shared by the whole package.

Space is the torus x in [0, 2*pi) with integer wavenumbers k; x-Fourier
coefficients follow the convention

    g_k(v) = (2*pi)**-1 * integral e^{-i k x} g(x, v) dx,

so a unit-mean profile has coefficient 1 at k = 0.  Velocity space is the
truncated interval [-V, V) sampled uniformly at v_j = -V + j*dv,
dv = 2V/N_v.  The velocity transform uses the continuous convention

    g_{k,eta} = integral e^{-i eta v} g_k(v) dv,

discretized as the dv-weighted DFT; the dual grid has spacing
deta = pi/V and covers eta in [-pi/dv, pi/dv).  With these weights the
discrete Parseval identity

    dv * sum_j |g_k(v_j)|^2 = (2*pi)**-1 * deta * sum_m |g_{k,eta_m}|^2

holds to rounding.  Truncating velocity space is only legitimate while the
state has decayed at |v| = V, or the error is silent aliasing.  The one
measure is `boundary_floors`: per mode sqrt(max edge |g_k|^2 / max |g|^2),
against the max of the whole state (0 for a zero state, nan for a non-finite
one).  The one refusal is `refuse_boundary`, which every eta-transform applies
per mode and `nonlinear.run` to the initial, each recorded and the final state.

Resolution rule: extracting the density at time t requires the phase
e^{-i k t v} to be resolved on the v-grid, i.e. |k t| * dv < pi.  A run up
to time T with modes |k| <= k_max therefore needs

    N_v >= (2 V / pi) * k_max * T,

which `check_resolution` enforces.  Each input rule has one owner that
raises it: `Grid` the grid (k_max >= 1, 0 < V < inf, N_v even and >= 2),
`time_steps` the time grid of every run, and `check_strides` the recording
strides, whose steps `record_steps` lists.

Padding rule: every zero-padded FFT product pads to `fft_length`, the least 2^a 3^b 5^c not
below its convolution length, which numpy transforms as fast per point as a power of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BOUNDARY_DECAY_TOL = 1e-12
MAX_STEPS = 10**7
# Order-8 Gregory end corrections c_i of sum_j f_j + sum_{i<8} c_i (f_i + f_{m-i}): by
# Euler-Maclaurin, sum_i c_i i^d is -1/2 at d = 0, B_{d+1}/(d+1) at odd d, 0 at other d < 8.
GREGORY_WEIGHTS = np.linalg.solve(np.vander(np.arange(8.0), increasing=True).T,
                                  [-1 / 2, 1 / 12, 0, -1 / 120, 0, 1 / 252, 0, -1 / 240])


class BoundaryDecayError(ValueError):
    """State has not decayed at the edge of the velocity domain."""


class ResolutionError(ValueError):
    """Oscillatory phase too fast for the velocity grid."""


def required_nv(V: float, k_max: int, t_final: float) -> int:
    """Smallest velocity-grid size resolving density phases up to t_final."""
    need = 2.0 * V / np.pi * k_max * t_final
    if not math.isfinite(need):  # a huge V overflows
        raise ResolutionError(f"V: need 2*V*k_max*T/pi finite, got {need} at V = {V:g}")
    return int(np.ceil(need)) + 1


def check_resolution(V: float, k_max: int, N_v: int, T: float) -> None:
    """Raise ResolutionError unless N_v resolves density phases of |k| <= k_max up to T."""
    need = required_nv(V, k_max, T)
    if N_v < need:
        raise ResolutionError(f"N_v: need N_v >= 2*V*k_max*T/pi + 1 = {need} to resolve "
                              f"density phases up to T = {T:g}, got {N_v}")


def require(*rules) -> None:
    """Raise one ValueError naming every failed (holds, message) rule, joined by "; ",
    the separator cli.parse splits a refusal into violations at."""
    problems = [message for holds, message in rules if not holds]
    if problems:
        raise ValueError("; ".join(problems))


def time_steps(dt: float, T: float) -> int:
    """Number of steps dt from 0 to T: dt > 0 and T >= 0 finite, T/dt within 1e-9
    (relative) of an integer, at most MAX_STEPS; the ValueError names every
    failed condition, joined by "; "."""
    require((dt > 0 and math.isfinite(dt), f"dt: need a positive, finite dt, got {dt}"),
            (T >= 0 and math.isfinite(T), f"T: need a finite T >= 0, got {T}"))
    n = T / dt
    if not n <= MAX_STEPS:  # also an overflowed T/dt = inf
        raise ValueError(f"T: T/dt = {n:.6g} exceeds the step limit of 1e7 steps")
    if abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise ValueError(f"T: need T an integer multiple of dt, got T/dt = {n!r}")
    return round(n)


def check_strides(stride: int, snapshot_stride: int) -> None:
    """require stride >= 1 and snapshot_stride >= 0 (0: the final state only)."""
    require((stride >= 1, f"stride: need stride >= 1, got {stride}"),
            (snapshot_stride >= 0,
             f"snapshot_stride: need snapshot_stride >= 0, got {snapshot_stride}"))


def record_steps(n_steps: int, stride: int) -> list:
    """Recorded step indices 0, stride, 2*stride, ..., always ending with n_steps."""
    steps = list(range(0, n_steps + 1, stride))
    return steps if steps[-1] == n_steps else steps + [n_steps]


@dataclass(frozen=True)
class Grid:
    """Uniform phase-space grid: modes k in {-k_max..k_max}, v in [-V, V).

    Parameters
    ----------
    k_max : int
        Largest retained spatial mode, k_max >= 1.
    V : float
        Half-width of the truncated velocity domain, 0 < V < inf.
    N_v : int
        Number of velocity points (even, >= 2).
    """

    k_max: int
    V: float
    N_v: int

    def __post_init__(self):
        require((self.k_max >= 1, f"k_max: need k_max >= 1, got {self.k_max}"),
                (0 < self.V < math.inf, f"V: need V > 0 and finite, got {self.V}"),
                (self.N_v >= 2 and self.N_v % 2 == 0,
                 f"N_v: need N_v even and >= 2, got {self.N_v}"))

    @property
    def dv(self) -> float:
        return 2.0 * self.V / self.N_v

    @property
    def v(self) -> np.ndarray:
        """Velocity nodes v_j = -V + j*dv."""
        return -self.V + self.dv * np.arange(self.N_v)

    @property
    def deta(self) -> float:
        return np.pi / self.V

    @property
    def eta(self) -> np.ndarray:
        """Dual grid, ascending: eta_m = m*deta for m = -N_v/2 .. N_v/2 - 1."""
        return self.deta * (np.arange(self.N_v) - self.N_v // 2)

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.k_max, self.k_max + 1)

    @property
    def n_modes(self) -> int:
        return 2 * self.k_max + 1

    def mode_index(self, k: int) -> int:
        if abs(k) > self.k_max:
            raise ValueError(f"mode {k} outside grid (k_max={self.k_max})")
        return k + self.k_max


@dataclass
class SpectralState:
    """Mode coefficients g_k(v_j) on a Grid, at a frame time t.

    data[k + k_max, j] holds g_k(v_j).  Physical states satisfy the
    reality constraint g_{-k} = conj(g_k); it is not enforced on write
    (diagnostic states legitimately break it) but is maintained by the
    evolution code.
    """

    grid: Grid
    data: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        want = (self.grid.n_modes, self.grid.N_v)
        if self.data.shape != want:
            raise ValueError(f"data shape {self.data.shape}, expected {want}")
        self.data = np.ascontiguousarray(self.data, dtype=np.complex128)

    def mode(self, k: int) -> np.ndarray:
        return self.data[self.grid.mode_index(k)]


def boundary_floors(a2: np.ndarray) -> np.ndarray:
    """sqrt(max edge |g_k|^2 / max |g|^2) per row of squared magnitudes a2 (0 if all 0)."""
    top = float(np.max(a2))
    if not math.isfinite(top):
        return np.full(len(a2), np.nan)
    return np.sqrt(np.max(a2[:, [0, -1]], axis=1) / top) if top else np.zeros(len(a2))


def refuse_boundary(floor: float, where: str) -> None:
    """Raise BoundaryDecayError naming where unless floor <= BOUNDARY_DECAY_TOL."""
    if not floor <= BOUNDARY_DECAY_TOL:  # a nan floor fails too
        fix = "enlarge V" if math.isfinite(floor) else "the state is not finite"
        raise BoundaryDecayError(f"{where} has boundary floor {floor:.3e} at |v| = V "
                                 f"(tolerance {BOUNDARY_DECAY_TOL:.0e}); {fix}")


def _check_boundary(state: SpectralState, k=None) -> None:
    """refuse_boundary on mode k (every mode if None)."""
    floors = boundary_floors(np.abs(state.data) ** 2)
    for i in range(state.grid.n_modes) if k is None else [state.grid.mode_index(k)]:
        refuse_boundary(floors[i], f"mode k={i - state.grid.k_max}")


def _alternating_signs(n: int) -> np.ndarray:
    # (-1)**m for m = -n/2 .. n/2 - 1 in ascending order; exact integers.
    # Entry i has m = i - n/2, negative where i + n/2 is odd.
    s = np.ones(n)
    s[(n // 2 + 1) % 2 :: 2] = -1.0
    return s


def _eta_transform(grid: Grid, rows: np.ndarray) -> np.ndarray:
    # dv-weighted DFT of each row along v, on the ascending eta-grid.
    spec = np.fft.fftshift(np.fft.fft(rows, axis=-1), axes=-1)
    return grid.dv * _alternating_signs(grid.N_v) * spec


def to_eta(state: SpectralState, k: int) -> np.ndarray:
    """Velocity transform of mode k on the ascending eta-grid.

    Returns g_{k,eta_m} = dv * sum_j e^{-i eta_m v_j} g_k(v_j).  Because
    deta*V = pi the phase correction for the grid offset is exactly
    (-1)**m, so the transform is an FFT with sign flips and carries no
    extra trigonometric rounding.
    """
    _check_boundary(state, k)
    return _eta_transform(state.grid, state.mode(k))


def eta_derivative(state: SpectralState, k: int) -> np.ndarray:
    """d/deta of the velocity transform: the transform of (-i v) g_k(v)."""
    _check_boundary(state, k)
    g = state.grid
    return _eta_transform(g, (-1j * g.v) * state.mode(k))


def eta_mass(state: SpectralState) -> np.ndarray:
    """|to_eta|^2 + |eta_derivative|^2 of every mode, rows in grid.modes order, bit-equal to
    the per-mode calls: one boundary check, one buffer and one FFT call per transform.  The
    (-1)**m signs drop out of the magnitudes, so in-place passes write the shifted halves."""
    _check_boundary(state)
    g, h = state.grid, state.grid.N_v // 2
    spec = np.fft.fft(state.data, axis=-1)
    spec *= g.dv
    out = np.empty(spec.shape)
    np.abs(spec[:, h:], out=out[:, :h])
    np.abs(spec[:, :h], out=out[:, h:])
    out *= out
    np.fft.fft(np.multiply(-1j * g.v, state.data, out=spec), axis=-1, out=spec)
    spec *= g.dv
    d = np.abs(spec)
    d *= d
    out[:, :h] += d[:, h:]
    out[:, h:] += d[:, :h]
    return out


def phase_rows(a: float, v: np.ndarray, n: int, out=None) -> np.ndarray:
    """Rows e^{-i m a v} for m = 1..n, built by cumulative products (into out if given)."""
    rows = np.empty((n, v.size), dtype=np.complex128) if out is None else out
    base = np.exp(-1j * a * v)
    rows[0] = base
    for i in range(1, n):
        np.multiply(rows[i - 1], base, out=rows[i])
    return rows


def phase_sum(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sums sum_j e^{a_i b_j} w_j for a 1-d a; 256-row blocks bound the phase matrix."""
    out = np.empty(a.size, dtype=np.complex128)
    for s in range(0, a.size, 256):
        out[s : s + 256] = np.exp(np.outer(a[s : s + 256], b)) @ w
    return out


def chirp_sum(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """phase_sum(a, b, w) for uniform real a_n = a_0 + n h and b_j = b_0 + i j d.

    Bluestein's jn = (j^2 + n^2 - (n-j)^2)/2 makes it one FFT convolution with
    the chirp e^{-i c m^2}, c = h d/2, m = 1-M..N-1.  c_hi m^2 is exact, so the
    chirp phases (up to c N^2 radians) keep their low digits.
    """
    M, N = b.size, a.size
    om = b.imag - b[0].imag
    c = 0.5 * (a[-1] - a[0]) / max(N - 1, 1) * om[-1] / max(M - 1, 1)
    bits = 52 - 2 * max(N, M).bit_length() - math.frexp(c)[1]
    c_hi = math.ldexp(round(math.ldexp(c, bits)), -bits)
    m2 = (np.arange(1 - M, N) ** 2).astype(float)
    chirp = np.exp(1j * c_hi * m2) * np.exp(1j * (c - c_hi) * m2)
    u = w * np.exp(1j * om * a[0]) * chirp[M - 1 :: -1]
    y = fft_convolve(u, np.conj(chirp), N + M - 1)[M - 1 :]
    return np.exp(a * b[0]) * chirp[M - 1 :] * y


def fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n (1 for n <= 1), over the 2^a multiples of each 3^b 5^c."""
    best, p5 = 1 << max(n - 1, 0).bit_length(), 1
    while p5 < best:
        p = p5
        while p < best:
            best, p = min(best, p << (-(-n // p) - 1).bit_length()), 3 * p
        p5 *= 5
    return best


def fft_convolve(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the linear convolution a * b, by one FFT product padded to fft_length
    (real FFTs for real inputs: half the work and less round-off)."""
    size = fft_length(a.size + b.size - 1)
    if np.isrealobj(a) and np.isrealobj(b):
        return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]
    return np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))[:n]


def trapezoid_convolve(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid sums dt (a * b - a b_0 / 2 - a_0 b / 2) of int_0^t a(t-s) b(s) ds, step dt."""
    return dt * (fft_convolve(a, b, a.size) - 0.5 * a * b[0] - 0.5 * a[0] * b)
