"""Linearized density evolution by two independent routes.

The density coefficient of mode k obeys a second-kind Volterra equation
with smooth convolution kernel (t-s) mu_hat(k(t-s)) and source
S_k(t) = f0_hat_{k, kt}.  `volterra_solve` discretizes that equation
directly with a product-trapezoid rule; `resolvent_kernel` inverts the
Laplace-domain solution along a vertical contour inside the certified
zero-free strip and `solve_via_kernel` convolves the result with the
source.  The two routes share nothing numerically past the closed-form
mu_hat, which is what makes their agreement a meaningful check.  The
march solves its discrete system by divide and conquer with FFT history sums
(each span's kernel transformed once per solve) and one precomputed-inverse
product per base block, O(N log^2 N) per mode.

Contour note: the Laplace-domain kernel -L/(1+L) only decays like
|lambda|^{-2} along vertical lines, which would need an absurd
truncation for 1e-8 accuracy.  The first two Laurent terms are known in
closed time-domain form (-L gives -t mu_hat(kt), L^2 gives the kernel
autoconvolution, one FFT with Gregory end corrections), so only the
remainder -L^3/(1+L), decaying like |lambda|^{-6}, is integrated
numerically.  Its symbol on the contour is one chirp-z line sum, on a
uniform time grid the contour trapezoid a chirp-z transform and the
convolution with the source an FFT product: O(N log N) per mode.  Every
zero-padded product, the march's splits too, pads to spectral.fft_length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .equilibria import Equilibrium
from .penrose import strip_width, symbol_on_line
from .spectral import (GREGORY_WEIGHTS, chirp_sum, fft_convolve, fft_length, require,
                       time_steps, trapezoid_convolve)

TRACE_FLOOR = 1e-14
EXP_CAP = 600.0  # largest exponent of a weight e^{c t}; e^600 ~ 4e260 leaves headroom
VOLTERRA_BLOCK = 128  # volterra_solve solves blocks this short by one matrix product
H_AUTO = 4e-3  # largest |k|-scaled sample spacing of the kernel autoconvolution


@dataclass(frozen=True)
class DensityTrace:
    """Density samples of one spatial mode on a uniform time grid."""

    k: int
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.k == 0:
            raise ValueError("density traces are for k != 0 (the mean mode has no field)")
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")

    @property
    def field_values(self) -> np.ndarray:
        """E_k(t) = rho_k(t) / (i k), exact per stored values."""
        return self.values / (1j * self.k)


def source_from_initial(hat0: Callable, k: int, times) -> np.ndarray:
    """Source samples S_k(t) = hat0(k, k t) from the closed-form transform hat0(k, eta)
    of the initial data, such as `cosine_initial_hat` returns; a scalar time gives a scalar."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.asarray(hat0(k, k * t), dtype=complex)
    return out if np.ndim(times) else complex(out[0])


def cosine_initial_hat(eq: Equilibrium, modes) -> Callable:
    """Closed-form transform of sum_j eps_j cos(k_j x + eta_j v) mu(v).

    modes is an iterable of (k_j, eps_j, eta_j).  Returns hat0(k, eta)
    with hat0 = (eps/2) mu_hat(eta - eta_j) on k = k_j and the conjugate
    partner on k = -k_j.
    """
    mode_list = [(int(kj), float(ej), float(oj)) for (kj, ej, oj) in modes]

    def hat0(k: int, eta):
        eta = np.asarray(eta, dtype=float)
        out = np.zeros(eta.shape, dtype=complex)
        for kj, ej, oj in mode_list:
            if k == kj:
                out += 0.5 * ej * np.asarray(eq.mu_hat(eta - oj), dtype=complex)
            if k == -kj:
                out += 0.5 * ej * np.asarray(eq.mu_hat(eta + oj), dtype=complex)
        return out

    return hat0


def volterra_solve(eq: Equilibrium, k: int, source, dt: float, T: float) -> DensityTrace:
    """Solve the density equation rho + kernel * rho = S with product trapezoid.

    source maps the time grid 0, dt, ..., T to the samples S_k(t_n).
    The memory kernel kappa(tau) = tau mu_hat(k tau) is evaluated in
    closed form on the grid; history weights are trapezoidal.  Since
    kappa(0) = 0 the discrete system is explicit:
    rho_n = S_n - dt [ kappa_n rho_0 / 2 + sum_{m=1}^{n-1} kappa_{n-m} rho_m ].
    Global accuracy O(dt^2).  Divide and conquer (Hairer, Lubich & Schlichte 1985)
    solves it in O(N log^2 N), see _solve_block; its base blocks multiply by the
    inverse of I + dt T_kappa, the march of the identity, built once per call.  History
    sums carry e^{sigma t}, sigma = min(1, theta0 |k|), with sigma T <= EXP_CAP.
    """
    require((k != 0, "k must be nonzero"))
    times = dt * np.arange(time_steps(dt, T) + 1)
    kappa = times * np.asarray(eq.mu_hat(k * times), dtype=float)
    rho = np.array(source(times), dtype=complex)
    if rho.shape != times.shape:
        raise ValueError("source callable must return one value per time")
    rho[1:] -= 0.5 * dt * kappa[1:] * rho[0]
    weight = np.exp(min(1.0, eq.theta0 * abs(k), EXP_CAP / max(T, dt)) * times)
    inverse = np.eye(min(VOLTERRA_BLOCK, times.size))
    for n in range(1, inverse.shape[0]):
        inverse[n] -= dt * kappa[n:0:-1] @ inverse[:n]
    _solve_block(inverse.astype(complex), kappa, rho, dt, weight, 1, times.size, {})
    return DensityTrace(k=k, times=times, values=rho)


def _solve_block(inverse, kappa, rho, dt, weight, lo, hi, spectra):
    """Turn rho[lo:hi], sources holding all history before lo, into the solution.

    Solve the first half, add its history into the second half with one
    FFT convolution, recurse; multiply by `inverse` up to VOLTERRA_BLOCK.
    As w_{m-lo} w_{n-m} = w_{n-lo} for w_j = e^{sigma t_j}, convolving the
    weighted factors and dividing by w_{n-lo} gives the same sums, with
    the FFT's round-off shrinking with the decaying solution.  `spectra` holds each
    span's fft_length (mid - lo is span // 2) and kernel transform: a split costs one
    forward and one inverse FFT, padded as fft_convolve pads.
    """
    if hi - lo <= VOLTERRA_BLOCK:
        rho[lo:hi] = inverse[: hi - lo, : hi - lo] @ rho[lo:hi]
        return
    mid, span = (lo + hi) // 2, hi - lo
    _solve_block(inverse, kappa, rho, dt, weight, lo, mid, spectra)
    if span not in spectra:
        size = fft_length(mid - lo + span - 1)
        spectra[span] = size, np.fft.fft(kappa[:span] * weight[:span], size)
    size, spectrum = spectra[span]
    hist = np.fft.ifft(np.fft.fft(rho[lo:mid] * weight[: mid - lo], size) * spectrum)
    rho[mid:hi] -= dt * hist[mid - lo : span] / weight[mid - lo : span]
    _solve_block(inverse, kappa, rho, dt, weight, mid, hi, spectra)


@dataclass(frozen=True)
class ResolventKernel:
    """Time samples of the resolvent kernel for one mode, plus provenance.

    The fitted envelope (C_fit, theta_fit) satisfies
    |K(t_n)| <= C_fit e^{-theta_fit |k| t_n} at every sample by
    construction; theta_fit > 0 is the certificate that the kernel
    actually decays.
    """

    k: int
    times: np.ndarray
    values: np.ndarray
    theta_hat1: float
    Omega: float
    n_quad: int
    C_fit: float
    theta_fit: float


def contour_parameters(eq: Equilibrium, k: int, t_max: float):
    """Default (theta_hat1, Omega, n_quad) for resolvent_kernel.

    The abscissa keeps a safety factor inside both the certified strip
    and the envelope convergence region; the frequency spacing makes the
    trapezoid's periodization images land beyond t_max plus many decay
    lengths.
    """
    require((k != 0, "k must be nonzero"))
    theta_hat1 = min(strip_width(eq), 0.25 * eq.theta0)
    Omega = 100.0
    period = t_max + 25.0 / (theta_hat1 * abs(k))
    n_quad = int(math.ceil(Omega * period / (2.0 * math.pi))) + 1
    return theta_hat1, Omega, n_quad


def resolvent_kernel(eq: Equilibrium, k: int, theta_hat1: float, Omega: float,
                     n_quad: int, times) -> ResolventKernel:
    """Sample the resolvent kernel by inverse Laplace transform.

    K(t) = -kappa(t) + (kappa * kappa)(t) + contour integral of
    -L^3/(1+L) along Re lambda = -theta_hat1 |k| (trapezoid, n_quad
    nodes on [0, Omega], L there a line sum, doubled by conjugate symmetry),
    summed over the uniform times t_0 + n h by one chirp-z FFT convolution.
    Refuses a non-uniform time grid, an abscissa beyond the certified
    zero-free strip and an Omega whose measured tail exceeds 1e-8.
    """
    require((k != 0, "k must be nonzero"))
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not times.size or np.max(
            np.abs(times - np.linspace(times[0], times[-1], times.size))) > 1e-12:
        raise ValueError(f"times must be a uniform grid t_0 + n h, got {times}")
    strip = strip_width(eq)
    if theta_hat1 > strip + 1e-12:
        raise ValueError(
            f"contour abscissa {theta_hat1:g} exceeds the certified strip width {strip:g}"
        )
    if theta_hat1 <= 0 or Omega <= 0 or n_quad < 2:
        raise ValueError("need theta_hat1 > 0, Omega > 0, n_quad >= 2")

    a = theta_hat1 * abs(k)

    # exact first terms
    kappa_t = times * np.asarray(eq.mu_hat(k * times), dtype=float)
    auto = _kernel_autoconvolution(eq, k, times, 2.0 * a)

    # contour remainder
    omega = np.linspace(0.0, Omega, n_quad)
    L = symbol_on_line(eq, -theta_hat1, omega / abs(k)) / k**2
    G = -(L**3) / (1.0 + L)
    tail = np.abs(G[-1]) * Omega / 5.0  # integrand falls like omega^{-6}
    if tail > 1e-8 * math.pi:
        raise ValueError(
            f"Omega = {Omega:g} leaves a contour tail ~{tail / math.pi:.2e}; enlarge it"
        )
    w = np.full(n_quad, Omega / (n_quad - 1))
    w[[0, -1]] *= 0.5
    remainder = chirp_sum(times, -a + 1j * omega, G * w).real / math.pi  # phases e^{lambda t}

    values = -kappa_t + auto + remainder
    C_fit, theta_fit = _fit_kernel_envelope(abs(k), times, values)
    return ResolventKernel(
        k=k, times=times, values=values.astype(complex), theta_hat1=theta_hat1,
        Omega=Omega, n_quad=n_quad, C_fit=C_fit, theta_fit=theta_fit,
    )


def _kernel_autoconvolution(eq: Equilibrium, k: int, times: np.ndarray,
                            rate: float) -> np.ndarray:
    """(kappa * kappa)(t) with kappa(s) = s mu_hat(k s), by an FFT Gregory rule.

    kappa is sampled from s = 0 with spacing h/r <= H_AUTO/|k|, r a power of
    two (so the fine grid holds every h j exactly); the accuracy does not
    depend on the step h.  One fft_convolve gives the sums of all times and
    the order-8 Gregory end corrections leave rounding-level errors.  The
    samples carry e^{rate s} (rate t_max <= EXP_CAP), exact since
    e^{rate t} (kappa * kappa)(t) is their autoconvolution, so the FFT's
    round-off stays relative in the decaying tail.  Times below 16 spacings,
    and every time of a one-sample grid or of a t_0 off the multiples of h,
    get a direct Gregory sum on their own grid from 0.
    """
    spacing = H_AUTO / abs(k)
    h = (times[-1] - times[0]) / (times.size - 1) if times.size > 1 else 0.0
    first = round(times[0] / h) if h > 0 else -1
    if first < 0 or abs(times[0] - first * h) > 1e-12 * max(1.0, times[0]):
        return np.array([_gregory_autoconvolution(eq, k, t, spacing) for t in times])
    r = 1 << max(0, math.ceil(math.log2(h / spacing) - 1e-9))
    s = (h / r) * np.arange(r * (first + times.size - 1) + 1)
    weight = np.exp(min(rate, EXP_CAP / s[-1]) * s)
    u = weight * s * np.asarray(eq.mu_hat(k * s), dtype=float)
    total = fft_convolve(u, u, s.size)
    for i, w in enumerate(GREGORY_WEIGHTS[: s.size]):
        total[i:] += 2.0 * w * u[i] * u[: s.size - i]
    pick = r * (first + np.arange(times.size))
    out = (h / r) * total[pick] / weight[pick]
    for i in np.flatnonzero(pick < 16):
        out[i] = _gregory_autoconvolution(eq, k, times[i], spacing)
    return out


def _gregory_autoconvolution(eq: Equilibrium, k: int, t: float, spacing: float) -> float:
    """(kappa * kappa)(t) by the Gregory rule on max(16, t / spacing) intervals of [0, t]."""
    m = max(16, math.ceil(t / spacing))
    s = t * np.arange(m + 1) / m
    f = s * (t - s) * np.asarray(eq.mu_hat(k * s) * eq.mu_hat(k * (t - s)), dtype=float)
    ends = f[: GREGORY_WEIGHTS.size] + f[: -GREGORY_WEIGHTS.size - 1 : -1]
    return float(t / m * (np.sum(f) + GREGORY_WEIGHTS @ ends))


def _fit_kernel_envelope(ak: int, times: np.ndarray, values: np.ndarray):
    """Least-squares decay rate on local maxima of |K|, then a true bound.

    After the slope fit the amplitude is raised until every usable
    sample sits under C e^{-theta |k| t}, so the returned pair is an
    envelope, not a regression line.  Samples below 1e-12 of the peak
    are excluded throughout: past that point the values reflect contour
    truncation residue, not the kernel.
    """
    mag = np.abs(values)
    scale = float(np.max(mag)) if mag.size else 0.0
    if scale == 0.0:
        return 0.0, 1.0
    usable = mag > max(TRACE_FLOOR, 1e-12 * scale)
    idx = _envelope_indices(mag, usable)
    y = np.log(mag[idx])
    xm = ak * times[idx]
    A = np.column_stack([np.ones(xm.size), -xm])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    theta_fit = float(coef[1])
    sel = np.flatnonzero(usable)
    C_fit = float(np.max(mag[sel] * np.exp(theta_fit * ak * times[sel])))
    return C_fit, theta_fit


def _envelope_indices(mag: np.ndarray, usable: np.ndarray) -> np.ndarray:
    """Usable local maxima of mag, or every usable sample if fewer than 8 are."""
    idx = local_maxima(mag)
    idx = idx[usable[idx]]
    return idx if idx.size >= 8 else np.flatnonzero(usable)


def local_maxima(mag: np.ndarray) -> np.ndarray:
    """Indices of interior samples no smaller than either neighbour."""
    if mag.size < 3:
        return np.array([], dtype=int)
    interior = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:])
    return np.flatnonzero(interior) + 1


def solve_via_kernel(source: DensityTrace, kernel: ResolventKernel) -> DensityTrace:
    """Density of mode kernel.k from the explicit solution rho = S + K * S (trapezoid).

    The source trace's grid must match the kernel's uniform grid.  The
    convolution is one FFT product padded to fft_length (40500 for 20001
    samples), O(N log N); on a one-sample grid it is 0 and the density is the source.
    """
    S = np.asarray(source.values, dtype=complex)
    t = np.asarray(source.times, dtype=float)
    if t.shape != kernel.times.shape or np.max(np.abs(t - kernel.times)) > 1e-12:
        raise ValueError("source and kernel must share one time grid")
    dt = float(t[1] - t[0]) if t.size > 1 else 0.0
    conv = trapezoid_convolve(np.asarray(kernel.values, dtype=complex), S, dt)
    return DensityTrace(k=kernel.k, times=t, values=S + conv)


@dataclass(frozen=True)
class FitResult:
    """Decay-model fit log|E| = log_amplitude - rate * t^gamma."""

    log_amplitude: float
    rate: float
    residual: float
    n_used: int
    gamma: float


def fit_decay(trace: DensityTrace, gamma: float = 1.0, window=None,
              use_envelope=None) -> FitResult:
    """Least squares of log|E_k| against t^gamma on a time window.

    For gamma = 1 (or when use_envelope is set) oscillatory traces are
    fitted on the envelope of local maxima of |E| so the fit does not
    chase the zeros between oscillations; monotone traces fall back to
    every usable sample.  Samples at or below the 1e-14 floor are
    dropped.  Raises if fewer than 8 points remain.
    """
    t = trace.times
    mag = np.abs(trace.field_values)
    if window is None:
        window = (float(t[0]), float(t[-1]))
    mask = (t >= window[0]) & (t <= window[1]) & (mag > TRACE_FLOOR)
    if use_envelope is None:
        use_envelope = gamma == 1.0
    idx = _envelope_indices(mag, mask) if use_envelope else np.flatnonzero(mask)
    if idx.size < 8:
        raise ValueError(f"only {idx.size} usable points in window {window}; need 8")
    x = t[idx] ** gamma
    y = np.log(mag[idx])
    A = np.column_stack([np.ones(x.size), -x])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ coef
    resid = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return FitResult(
        log_amplitude=float(coef[0]), rate=float(coef[1]), residual=resid,
        n_used=int(idx.size), gamma=float(gamma),
    )
