"""Stability certification for the linearized electric response.

The memory kernel of spatial mode k has Laplace symbol
L(k, lambda) = integral_0^inf e^{-lambda t} t mu_hat(k t) dt and the
dispersion function D = 1 + L decides the linear behaviour: a stable
equilibrium keeps |D| bounded away from zero on the closed right
half-plane (the Penrose condition), and the width of a zero-free strip
to the left of the imaginary axis sets the exponential decay rate of
the resolvent kernel.  Since mu_hat is even, s = |k| t gives the scaling
identity L(k, lambda) = L_1(lambda/|k|)/k^2 for the one function L_1 = L(1, .):
mode k's zeros solve L_1(z) = -k^2 at z = lambda/|k|.  This module evaluates
only L_1 and reads mode k off it against the target -k^2 (Penrose's criterion
in Nyquist form), so one contour serves every mode; laplace_symbol alone forms
a mode's symbol.

Everything here is numerical but deterministic.  Quadrature windows
come from the declared transform envelopes, zero-freeness is certified
by winding numbers on rectangles, and the half-plane infimum is reduced
to a boundary scan plus envelope tail bounds once the winding numbers
rule out interior zeros (an analytic function tending to 1 at infinity
with no zeros attains its modulus infimum on the boundary or in the
limit).  The reported margin is a certified scan value, not a claimed
rigorous global infimum; the certification parameters travel with it.

Uniform Im z grids on a vertical line (boundary scan, contour edges, the resolvent
contour) take one O(N log N) chirp-z sum, `symbol_on_line`; every other point keeps
Gauss-Legendre so the roots and the zoomed margin do not depend on it.  On the root
scan's 48 x 48 grid, e^{-z s} = e^{-Re z s} e^{-i Im z s} makes it one matrix product.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .equilibria import Equilibrium
from .spectral import GREGORY_WEIGHTS, chirp_sum, phase_sum

TAIL_TOL = 1e-15
LINE_STEP = 1.0 / 16.0  # s-step of symbol_on_line times the integrand's bandwidth
ROOT_RESIDUAL_TOL = 1e-10
CONTOUR_CLEARANCE = 1e-8
ROOT_WANDER = 8.0  # farthest a Newton iterate may stray from its seed (scan polishes move < 0.2)
OMEGA_MAX = 50.0  # margin's contour and boundary scan cover |Im z| <= OMEGA_MAX


class DomainError(ValueError):
    """Laplace symbol evaluated outside its convergence region."""


class ContourError(RuntimeError):
    """Winding-number contour too close to a zero, or not stabilizing."""


class RootConvergenceError(RuntimeError):
    """Newton iteration failed to locate a dispersion zero."""


class NoStableStripError(RuntimeError):
    """Equilibrium has no zero-free strip (vanishing stability margin)."""


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_strips: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # Equilibrium -> strip_width


def _mode(k: int) -> int:
    """|k|, refusing the mean mode, which has no dispersion function."""
    if k == 0:
        raise ValueError("k must be a nonzero integer")
    return abs(k)


def _cutoff(eq: Equilibrium, rho: float, extra: float = 0.0) -> float:
    """Truncation point S with certified tail of L_1 below TAIL_TOL, plus `extra`.

    rho is the worst exponential growth over the batch, max(-Re z).
    The bound's local decay rate is nondecreasing in s for both envelope
    families (linear and quadratic exponents), so the tail integral
    beyond S is at most bound(S) / rate(S).  Refuses an overflowing e^{rho S}.
    """
    if eq.hat_log_envelope is None and rho >= eq.theta0:
        raise DomainError(f"Re z <= {-eq.theta0:g} is outside the convergence region of L_1 "
                          f"(envelope rate theta0 = {eq.theta0:g})")

    def log_integrand_bound(x: float) -> float:  # of |x mu_hat(x) e^{-z x}|
        envelope = eq.hat_log_envelope
        le = math.log(eq.C0) - eq.theta0 * x if envelope is None else float(envelope(x))
        return math.log(x) + rho * x + le

    h, s = 1e-3, 2.0
    while s <= 1200.0:
        before, log_bound, after = (log_integrand_bound(x) for x in (s - h, s, s + h))
        rate = (before - after) / (2.0 * h)
        if rate > 1e-9 and log_bound < 700.0 and math.exp(log_bound) / rate < TAIL_TOL:
            if rho * (s + extra) > 700.0:
                raise DomainError(f"e^(-z s) overflows on [0, {s + extra:g}] at "
                                  f"max(-Re z) = {rho:g}")
            return s + extra
        s += 0.5
    raise DomainError(f"could not certify a quadrature cutoff with max(-Re z) = {rho:g}")


def _symbol(eq: Equilibrium, z: np.ndarray) -> np.ndarray:
    """L_1 at the batch z by composite 32-node Gauss-Legendre."""
    return phase_sum(-z, *_gauss_panels(eq, z, 1, 0.0))


def laplace_symbol(eq: Equilibrium, k: int, lam):
    """Laplace transform of t mu_hat(k t) at lambda (scalar or array): L_1(lambda/|k|)/k^2.

    Composite 32-node Gauss-Legendre with certified envelope tail below 1e-15.
    Raises DomainError outside the convergence region; with a declared
    super-exponential envelope the symbol is entire and any lambda is accepted.
    """
    ak = _mode(k)
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    out = _symbol(eq, lam_arr / ak) / ak**2
    return complex(out[0]) if np.ndim(lam) == 0 else out


def _gauss_panels(eq: Equilibrium, z: np.ndarray, power: int, extra: float):
    """Composite Gauss-Legendre nodes s and weights w s^power mu_hat(s) on [0, S] for the
    transform of s^power mu_hat(s) at the batch z: S is its certified envelope cutoff plus
    `extra` (power 2 with slack 2 gives -L_1'); panels narrow with the batch's largest
    |Im z| and |Re z| so 32 nodes per panel stay spectrally accurate."""
    S = _cutoff(eq, float(np.max(-z.real)), extra)
    omega_max = float(np.max(np.abs(z.imag)))
    re_max = float(np.max(np.abs(z.real)))
    width = min(1.0, 20.0 / max(omega_max, 20.0), 16.0 / max(re_max, 16.0))
    edges = np.linspace(0.0, S, int(math.ceil(S / width)) + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights * nodes**power * np.asarray(eq.mu_hat(nodes), dtype=float)


def symbol_on_line(eq: Equilibrium, re: float, omega) -> np.ndarray:
    """L_1(re + i omega) for uniform omega (ascending or descending), by one chirp-z sum
    of s mu_hat(s) e^{-re s} on [0, _cutoff], step LINE_STEP over the integrand's
    bandwidth max(|omega|, |re|) + 16, order-8 Gregory weights at s = 0 (the far end
    is already below TAIL_TOL)."""
    S = _cutoff(eq, -re)
    m = math.ceil(S * (max(float(np.max(np.abs(omega))), abs(re)) + 16.0) / LINE_STEP)
    s = (S / m) * np.arange(m + 1)
    f = (S / m) * s * np.asarray(eq.mu_hat(s), dtype=float) * np.exp(-re * s)
    f[: GREGORY_WEIGHTS.size] *= 1.0 + GREGORY_WEIGHTS
    return chirp_sum(omega, -1j * s, f)


def dispersion(eq: Equilibrium, k: int, lam):
    """Dispersion function D(k, lambda) = 1 + L[t mu_hat(kt)](lambda)."""
    return 1.0 + laplace_symbol(eq, k, lam)


def k_tail_threshold(eq: Equilibrium) -> int:
    """Smallest k0 with |L_1(z)| <= k^2/2, so |D| >= 1/2, for all |k| >= k0 on Re z >= -theta0/2:
    there |L_1| <= C0/(theta0 + Re z)^2 <= 4 C0/theta0^2, so k0 = ceil(sqrt(8 C0)/theta0)."""
    return int(math.ceil(math.sqrt(8.0 * eq.C0) / eq.theta0))


def count_zeros(eq: Equilibrium, k: int, rect) -> int:
    """Number of mode-k dispersion zeros in Re lambda in [re_min, re_max], |Im lambda| <=
    im_max, rect = (re_min, re_max, im_max): the winding of L_1 about -k^2 along the
    z-rectangle rect/|k|, the single-target call of _windings and its ContourErrors."""
    a, b, om = rect
    if not (a < b and om > 0):
        raise ValueError(f"degenerate rectangle {rect}")
    ak = _mode(k)
    return _windings(eq, (a / ak, b / ak, om / ak), [ak])[0]


def _windings(eq: Equilibrium, rect, ks) -> list:
    """Winding numbers of L_1 about -k^2 along the z-rectangle rect, for each k in ks:
    mode k's zero counts in the lambda-rectangles k rect.

    The contour is sampled counterclockwise and refined: level j = 1..8 puts 2^j n0
    points on an edge, n0 = max(16, ceil(8 length)), level 0 is level 1's every other
    sample, and each level is one evaluation of L_1 for all targets (chirp-z line sums
    on the vertical edges, Gauss-Legendre on the horizontal ones).  A count settles
    when two consecutive levels agree on an integer with every phase step of
    D = 1 + L_1/k^2 below pi/2.  Raises ContourError when |D| < 1e-8 for an
    unsettled target, or a target has not settled by level 8.
    """
    a, b, om = rect
    k2 = np.square(np.asarray(ks, dtype=float))[:, None]
    counts = previous = np.full(k2.shape[0], np.nan)
    for j in range(1, 9):
        if not np.isnan(counts).any():
            break
        bottom, right, top, left = _rectangle_edges(a, b, om, 1 << j)
        flat = _symbol(eq, np.concatenate([bottom, top]))
        vals = 1.0 + np.concatenate([flat[: bottom.size], symbol_on_line(eq, b, right.imag),
                                     flat[bottom.size :], symbol_on_line(eq, a, left.imag),
                                     flat[:1]]) / k2
        clearance = np.where(np.isnan(counts), np.min(np.abs(vals), axis=1), np.inf)
        if np.min(clearance) < CONTOUR_CLEARANCE:
            i = int(np.argmin(clearance))
            raise ContourError(f"|D| = {clearance[i]:.3e} for k={ks[i]} on the z-contour "
                               f"{rect}; perturb the rectangle away from the zero")
        for level in (vals[:, ::2], vals) if j == 1 else (vals,):
            steps = np.angle(level[:, 1:] / level[:, :-1])
            raw = np.sum(steps, axis=1) / (2.0 * np.pi)
            stable = np.max(np.abs(steps), axis=1) < 0.5 * np.pi
            current = np.where(stable & (np.abs(raw - np.round(raw)) < 0.1), np.round(raw), np.nan)
            counts = np.where(np.isnan(counts) & (current == previous), current, counts)
            previous = current
    if np.isnan(counts).any():
        raise ContourError(f"winding number on the z-contour {rect} did not stabilize for "
                           f"k={[k for k, c in zip(ks, counts) if np.isnan(c)]}; a zero may "
                           f"sit on or near the contour; perturb the rectangle")
    return [int(c) for c in counts]


def _rectangle_edges(a: float, b: float, om: float, scale: int) -> list:
    """Bottom, right, top and left edges, counterclockwise from a - i om, each without its
    end, at scale * max(16, ceil(8 length)) points (every other one is scale / 2's)."""
    c = [a - 1j * om, b - 1j * om, b + 1j * om, a + 1j * om, a - 1j * om]
    n = [scale * max(16, math.ceil(8.0 * abs(z1 - z0))) for z0, z1 in zip(c, c[1:])]
    return [c[i] + (c[i + 1] - c[i]) * (np.arange(n[i]) / n[i]) for i in range(4)]


@dataclass(frozen=True)
class MarginResult:
    """Certified lower bound on |D| over the closed right half-plane.

    kappa0 is the minimum of the boundary scan and the two envelope tail
    bounds; offenders is nonempty (and kappa0 = 0) when a winding number
    found zeros with Re lambda >= 0.
    """

    kappa0: float
    k_at_min: int
    omega_at_min: float
    boundary_min: float
    omega_tail_bound: float
    k_tail_bound: float
    C1_fit: float
    windings: tuple = ()
    offenders: tuple = ()


def margin(eq: Equilibrium, k_max_scan: int = 4, n_omega: int = 10001) -> MarginResult:
    """Scan min_k inf_{Re lambda >= 0} |D(k, lambda)|.

    One winding count of L_1 on the z-rectangle (0, b, OMEGA_MAX) first certifies,
    about each target -k^2, that mode k has no zero in the lambda-rectangle
    k (0, b, OMEGA_MAX) that windings reports (|L_1(z)| <= C0/(theta0 + Re z)^2 keeps
    zeros left of Re z = b); the infimum then lives on Re lambda = 0 or at infinity,
    so a scan of one chirp-z line sum L_1(i y), y in [0, OMEGA_MAX], read by mode k
    at omega = k y and zoomed three times per k by Gauss-Legendre, plus tail bounds
    (fitted C1 for large omega, the envelope for large k) yields the margin.  A
    nonzero winding puts the offending roots in the result, with kappa0 = 0.
    """
    if k_max_scan < 1:
        raise ValueError("k_max_scan must be >= 1")
    b = math.sqrt(2.0 * eq.C0) / eq.theta0 + 1.0
    ks = range(1, k_max_scan + 1)
    counts = _windings(eq, (0.0, b, OMEGA_MAX), ks)
    windings = tuple((k, (0.0, k * b, k * OMEGA_MAX), w) for k, w in zip(ks, counts))
    offenders = tuple((k, *_dominant_root(eq, k, (0.0, k * b, 0.1, k * OMEGA_MAX)))
                      for k, w in zip(ks, counts) if w != 0)
    if offenders:
        k0, lam0, _ = offenders[0]
        return MarginResult(kappa0=0.0, k_at_min=k0, omega_at_min=float(lam0.imag),
                            boundary_min=0.0, omega_tail_bound=0.0, k_tail_bound=0.0,
                            C1_fit=float("nan"), windings=windings, offenders=offenders)

    y = np.linspace(0.0, OMEGA_MAX, n_omega)
    line = symbol_on_line(eq, 0.0, y)
    best, k_at, om_at, C1 = math.inf, 1, 0.0, 0.0
    for k in ks:
        vals = 1.0 + line / k**2
        absD = np.abs(vals)
        C1 = max(C1, float(np.max(np.abs(vals - 1.0) * (1.0 + k**2 + (k * y) ** 2))))
        i0 = int(np.argmin(absD))
        lo, hi = y[max(i0 - 1, 0)], y[min(i0 + 1, n_omega - 1)]
        kmin, ymin_at = float(absD[i0]), float(y[i0])
        for _ in range(3):
            sub = np.linspace(lo, hi, 41)
            sv = np.abs(1.0 + _symbol(eq, 1j * sub) / k**2)
            j = int(np.argmin(sv))
            if sv[j] < kmin:
                kmin, ymin_at = float(sv[j]), float(sub[j])
            lo, hi = sub[max(j - 1, 0)], sub[min(j + 1, 40)]
        if kmin < best:
            best, k_at, om_at = kmin, k, k * ymin_at

    om_tail = 1.0 - C1 / (2.0 + OMEGA_MAX**2)
    k_tail = 1.0 - eq.C0 / (eq.theta0 * (k_max_scan + 1)) ** 2
    if k_tail <= 0.0:
        raise ValueError(
            f"k_max_scan = {k_max_scan} too small: envelope tail bound covers only "
            f"k >= {math.sqrt(eq.C0) / eq.theta0:.2f}"
        )
    return MarginResult(kappa0=min(best, om_tail, k_tail), k_at_min=k_at, omega_at_min=om_at,
                        boundary_min=best, omega_tail_bound=om_tail, k_tail_bound=k_tail,
                        C1_fit=C1, windings=windings)


def strip_width(eq: Equilibrium) -> float:
    """Largest theta <= theta0/2 with D zero-free on Re lambda in [-theta |k|, 0] for all k.

    Bisection to tolerance 1e-3, each probe one winding count of L_1 on the
    z-rectangle (-theta, b, 40) about -k^2, 1 <= k < k_tail_threshold(eq), that covers
    mode k's lambda-rectangle k (-theta, b, 40); from k_tail on, the envelope keeps
    |L| <= 1/2 on Re lambda >= -theta0 |k|/2, so no zeros exist there.  Each
    Equilibrium object is certified once, its width kept while the object lives:
    full_report, contour_parameters and resolvent_kernel share one strip.  Raises
    NoStableStripError, on every call, when a zero sits in the closed right
    half-plane (found by the theta = 0 windings once the widest probe fails) or
    the bisection finds no strip.
    """
    width = _strips.get(eq)
    if width is None:
        width = _strips[eq] = _certify_strip(eq)
    return width


def _certify_strip(eq: Equilibrium) -> float:
    """strip_width's bisection, run on every call."""
    ks = range(1, k_tail_threshold(eq))
    b = math.sqrt(2.0 * eq.C0) / eq.theta0 + 1.0

    def first_winding(theta: float) -> int | None:
        return next((k for k, w in zip(ks, _windings(eq, (-theta, b, 40.0), ks)) if w), None)

    hi = 0.5 * eq.theta0
    if first_winding(hi) is None:
        return hi
    k0 = first_winding(0.0)
    if k0 is not None:
        raise NoStableStripError(
            f"{eq.name} has zeros in the closed right half-plane "
            f"(first at k = {k0}); no stable strip exists"
        )
    lo = 0.0
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if first_winding(mid) is None:
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise NoStableStripError(f"no zero-free strip found for {eq.name}")
    return lo


def find_root(eq: Equilibrium, k: int, seed: complex):
    """Newton iteration for a dispersion zero, L_1(z) = -k^2 at z = lambda/|k|, from the seed.

    Returns (lambda_star, residual) with |D| < 1e-10, or raises RootConvergenceError after
    50 iterations, and when an iterate leaves the symbol's domain, or is not finite or
    within ROOT_WANDER of the seed.  D' = L_1'(z)/|k|^3, L_1' the transform of -s^2 mu_hat(s).
    """
    ak = _mode(k)
    lam = complex(seed)
    for _ in range(50):
        try:
            d = dispersion(eq, k, lam)
            if abs(d) < ROOT_RESIDUAL_TOL:
                return lam, abs(d)
            z = np.array([lam / ak])
            dp = -complex(phase_sum(-z, *_gauss_panels(eq, z, 2, 2.0))[0]) / ak**3
        except DomainError as exc:
            raise RootConvergenceError(f"iterate {lam:.6g} (k={k}): {exc}") from exc
        if abs(dp) < 1e-14:
            raise RootConvergenceError(
                f"vanishing dispersion derivative at {lam:.6g} (k={k}); "
                f"no zero nearby (|D| = {abs(d):.3e})"
            )
        lam = lam - d / dp
        if not abs(lam - seed) <= ROOT_WANDER:
            raise RootConvergenceError(f"iterate {lam:.6g} (k={k}) is not finite or "
                                       f"farther than {ROOT_WANDER:g} from seed {seed:.6g}")
    raise RootConvergenceError(
        f"no convergence after 50 iterations from seed {complex(seed):.6g} "
        f"(k={k}, last |D| = {abs(d):.3e})"
    )


def _dominant_root(eq: Equilibrium, k: int, rect):
    """Dispersion zero seeded by a 48 x 48 scan of |D| over a rectangle.

    rect = (re_min, re_max, im_min, im_max) in lambda.  The scan is one product
    (e^{-Re z s} w) @ e^{-i Im z s} over L_1's nodes s for the grid's z = lambda/|k|.
    Every local minimum of |D| right of Re = -(one grid step) is
    polished, the lowest row counting as an edge open towards the real axis,
    and the growing root with the largest Re lambda is returned, Im >= 0.
    Without one, the root polished from the least |D| of the scan is
    returned; that need not be the least damped root in the rectangle.
    """
    ak = _mode(k)
    a, b, i0, i1 = rect
    re, om = np.linspace(a, b, 48), np.linspace(i0, i1, 48)
    lam = re[:, None] + 1j * om[None, :]
    s, f = _gauss_panels(eq, lam / ak, 1, 0.0)
    L = (np.exp(-np.outer(re / ak, s)) * f) @ np.exp(-1j * np.outer(s, om / ak))
    mag = np.abs(1.0 + L / ak**2)
    pad = np.pad(mag, 1, constant_values=-np.inf)
    pad[:, 0] = np.inf
    near = np.minimum.reduce([pad[:-2, 1:-1], pad[2:, 1:-1], pad[1:-1, :-2], pad[1:-1, 2:]])
    growing = []
    for seed in lam[(mag <= near) & (re[:, None] >= re[0] - re[1])]:
        try:
            root, res = find_root(eq, k, seed)
        except RootConvergenceError:
            continue
        if root.real > 0.0:
            growing.append((complex(root.real, abs(root.imag)), res))
    if growing:
        return max(growing, key=lambda r: r[0].real)
    return find_root(eq, k, lam.flat[np.argmin(mag)])


def landau_root(eq: Equilibrium, k: int):
    """Dispersion zero for mode k, seeded from a coarse grid scan.

    The zero solves L_1(z) = -k^2 at z = lambda / |k|.  Scans a rectangle sized
    from the equilibrium envelope, with Im lambda from 0.2 up, so no seed lies
    on the real axis: damped roots have -theta0 |k| < Re < 0 for generic
    envelopes, deeper for super-exponential ones; unstable roots sit at Re > 0,
    and the one with the largest Re wins.  A damped root is the one polished
    from the scan's least |D|, not necessarily the least damped: for
    two_stream(3), k = 1 it is -1.13286 + 1.19286i, though -1.13186 + 4.79348i
    in the same rectangle is less damped, and for streams at +-1 of width 0.6
    it is -0.41368 + 2.32595i, though the real zero -0.13374 is less damped.
    """
    re0 = -2.95 * abs(k) if eq.hat_log_envelope is not None else -0.95 * eq.theta0 * abs(k)
    return _dominant_root(eq, k, (re0, 1.0, 0.2, 2.5 * abs(k) + 3.0))


@dataclass(frozen=True)
class DispersionReport:
    """Summary of the stability certification for one equilibrium.

    kappa0: half-plane margin (0 when unstable); theta1: zero-free strip
    width per |k|; k_tail: mode threshold beyond which the envelope tail
    bound applies; roots: (k, lambda, |D|) triples for located zeros;
    windings: (k, lambda-rect, count) of margin's one contour, read for mode k.
    """

    equilibrium: str
    kappa0: float
    theta1: float
    k_tail: int
    roots: tuple = ()
    windings: tuple = ()
    scan: dict = field(default_factory=dict)


def full_report(eq: Equilibrium, k_max_scan: int = 4, n_omega: int = 10001) -> DispersionReport:
    """Run margin, strip width, and the k = 1, 2 root location; collect one report."""
    m = margin(eq, k_max_scan=k_max_scan, n_omega=n_omega)
    roots = list(m.offenders)
    if m.kappa0 > 0.0:
        theta1 = strip_width(eq)
        for k in (1, 2):
            try:
                lam, res = landau_root(eq, k)
            except (RootConvergenceError, DomainError):
                continue
            roots.append((k, lam, res))
    else:
        theta1 = 0.0
    scan = dict(k_max_scan=k_max_scan, omega_max=OMEGA_MAX, n_omega=n_omega,
                boundary_min=m.boundary_min, omega_tail_bound=m.omega_tail_bound,
                k_tail_bound=m.k_tail_bound, C1_fit=m.C1_fit, k_at_min=m.k_at_min,
                omega_at_min=m.omega_at_min)
    return DispersionReport(equilibrium=eq.name, kappa0=m.kappa0, theta1=theta1,
                            k_tail=k_tail_threshold(eq), roots=tuple(roots),
                            windings=m.windings, scan=scan)
