"""Stability certification for the linearized electric response.

The memory kernel of spatial mode k has Laplace symbol
L(k, lambda) = integral_0^inf e^{-lambda t} t mu_hat(k t) dt and the
dispersion function D = 1 + L decides the linear behaviour: a stable
equilibrium keeps |D| bounded away from zero on the closed right
half-plane (the Penrose condition), and the width of a zero-free strip
to the left of the imaginary axis sets the exponential decay rate of
the resolvent kernel.

Everything here is numerical but deterministic.  Quadrature windows
come from the declared transform envelopes, zero-freeness is certified
by winding numbers on rectangles, and the half-plane infimum is reduced
to a boundary scan plus envelope tail bounds once the winding numbers
rule out interior zeros (an analytic function tending to 1 at infinity
with no zeros attains its modulus infimum on the boundary or in the
limit).  The reported margin is a certified scan value, not a claimed
rigorous global infimum; the certification parameters travel with it.

Uniform Im lambda grids on a vertical line (boundary scan, contour edges, the
resolvent contour) take one O(N log N) chirp-z sum, `symbol_on_line`; every other
point keeps Gauss-Legendre so the roots and the zoomed margin do not depend on it.
On the root scan's 48 x 48 grid, e^{-lambda t} = e^{-Re lambda t} e^{-i Im lambda t}
makes the sum over those nodes one matrix product.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .equilibria import Equilibrium
from .spectral import GREGORY_WEIGHTS, chirp_sum, phase_sum

TAIL_TOL = 1e-15
LINE_STEP = 1.0 / 16.0  # t-step of symbol_on_line times the integrand's bandwidth
ROOT_RESIDUAL_TOL = 1e-10
CONTOUR_CLEARANCE = 1e-8
ROOT_WANDER = 8.0  # farthest a Newton iterate may stray from its seed (scan polishes move < 0.2)
OMEGA_MAX = 50.0  # margin's windings and boundary scan cover |Im lambda| <= OMEGA_MAX


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


def _log_integrand_bound(eq: Equilibrium, ak: float, rho: float, t: float) -> float:
    """log of the certified bound on |t mu_hat(k t) e^{-lambda t}|."""
    if eq.hat_log_envelope is not None:
        le = float(eq.hat_log_envelope(ak * t))
    else:
        le = math.log(eq.C0) - eq.theta0 * ak * t
    return math.log(t) + rho * t + le


def _cutoff(eq: Equilibrium, k: int, rho: float, extra: float = 0.0) -> float:
    """Truncation time T with certified Laplace tail below TAIL_TOL, plus `extra`.

    rho is the worst exponential growth over the batch, max(-Re lambda).
    The bound's local decay rate is nondecreasing in t for both envelope
    families (linear and quadratic exponents), so the tail integral
    beyond T is at most bound(T) / rate(T).  Refuses k = 0 and an overflowing e^{rho T}.
    """
    if k == 0:
        raise ValueError("k must be a nonzero integer")
    ak = abs(k)
    if eq.hat_log_envelope is None and rho >= eq.theta0 * ak:
        raise DomainError(
            f"Re lambda <= {-eq.theta0 * ak:g} is outside the convergence "
            f"region of the k={k} symbol (envelope rate theta0*|k| = {eq.theta0 * ak:g})"
        )
    h = 1e-3
    t = 2.0
    while t <= 1200.0:
        rate = -(
            _log_integrand_bound(eq, ak, rho, t + h) - _log_integrand_bound(eq, ak, rho, t - h)
        ) / (2.0 * h)
        log_bound = _log_integrand_bound(eq, ak, rho, t)
        if rate > 1e-9 and log_bound < 700.0 and math.exp(log_bound) / rate < TAIL_TOL:
            if rho * (t + extra) > 700.0:
                raise DomainError(f"e^(-lambda t) overflows on [0, {t + extra:g}] at "
                                  f"max(-Re lambda) = {rho:g}")
            return t + extra
        t += 0.5
    raise DomainError(
        f"could not certify a quadrature cutoff for k={k} with max(-Re lambda) = {rho:g}"
    )


def laplace_symbol(eq: Equilibrium, k: int, lam):
    """Laplace transform of t mu_hat(k t) at lambda (scalar or array).

    Composite 32-node Gauss-Legendre on [0, T] with T chosen so the
    certified envelope tail is below 1e-15.  Raises DomainError outside
    the convergence region; for equilibria with a declared
    super-exponential envelope the symbol is entire and any lambda is
    accepted.
    """
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    out = phase_sum(-lam_arr, *_gauss_panels(eq, k, lam_arr, 1, 0.0))
    return complex(out[0]) if np.ndim(lam) == 0 else out


def _gauss_panels(eq: Equilibrium, k: int, lam: np.ndarray, power: int, extra: float):
    """Composite Gauss-Legendre nodes t and weights w t^power mu_hat(k t) on [0, T] for the
    transform of t^power mu_hat(k t) at the batch lam: T is its certified envelope cutoff plus
    `extra` (power 2 with slack 2 gives -d/dlambda of laplace_symbol); panels narrow with |k|
    and its largest |Im lambda| and |Re lambda| so 32 nodes per panel stay spectrally accurate."""
    T = _cutoff(eq, k, float(np.max(-lam.real)), extra)
    omega_max = float(np.max(np.abs(lam.imag)))
    re_max = float(np.max(np.abs(lam.real)))
    width = min(1.0, 4.0 / abs(k), 20.0 / max(omega_max, 20.0), 16.0 / max(re_max, 16.0))
    edges = np.linspace(0.0, T, int(math.ceil(T / width)) + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights * nodes**power * np.asarray(eq.mu_hat(k * nodes), dtype=float)


def symbol_on_line(eq: Equilibrium, k: int, re: float, omega) -> np.ndarray:
    """L(k, re + i omega) for uniform omega (ascending or descending), by one chirp-z sum
    of t mu_hat(k t) e^{-re t} on [0, _cutoff], step LINE_STEP over the integrand's
    bandwidth max(|omega|, |re|) + 16|k|, order-8 Gregory weights at t = 0 (the far end
    is already below TAIL_TOL)."""
    T = _cutoff(eq, k, -re)
    m = math.ceil(T * (max(float(np.max(np.abs(omega))), abs(re)) + 16.0 * abs(k)) / LINE_STEP)
    t = (T / m) * np.arange(m + 1)
    f = (T / m) * t * np.asarray(eq.mu_hat(k * t), dtype=float) * np.exp(-re * t)
    f[: GREGORY_WEIGHTS.size] *= 1.0 + GREGORY_WEIGHTS
    return chirp_sum(omega, -1j * t, f)


def dispersion(eq: Equilibrium, k: int, lam):
    """Dispersion function D(k, lambda) = 1 + L[t mu_hat(kt)](lambda)."""
    return 1.0 + laplace_symbol(eq, k, lam)


def k_tail_threshold(eq: Equilibrium) -> int:
    """Smallest k0 with |L| <= 1/2 for all |k| >= k0 on Re lambda >= -theta0|k|/2.

    From |L| <= C0 / (theta0 |k| + Re lambda)^2 and Re lambda >= -theta0|k|/2:
    |L| <= 4 C0 / (theta0 k)^2, which is <= 1/2 once k >= sqrt(8 C0) / theta0.
    """
    return int(math.ceil(math.sqrt(8.0 * eq.C0) / eq.theta0))


def count_zeros(eq: Equilibrium, k: int, rect) -> int:
    """Number of dispersion zeros inside a rectangle, by winding number.

    rect = (re_min, re_max, im_max) describes Re in [re_min, re_max],
    Im in [-im_max, im_max].  The contour is sampled counterclockwise and refined
    (density doubling) until two consecutive refinements agree on the same integer with
    all phase increments below pi/2: level j = 1..8 puts 2^j n0 points on an edge, n0 =
    max(16, ceil(8 length)), and level 0 is level 1's every other sample, so each level is
    one evaluation.  The vertical edges take the chirp-z line sum, the horizontal ones
    Gauss-Legendre.  Raises ContourError if |D| dips under 1e-8 on the contour.
    """
    a, b, om = rect
    if not (a < b and om > 0):
        raise ValueError(f"degenerate rectangle {rect}")

    previous: Optional[int] = None
    for j in range(1, 9):
        bottom, right, top, left = _rectangle_edges(a, b, om, 1 << j)
        flat = laplace_symbol(eq, k, np.concatenate([bottom, top]))
        vals = 1.0 + np.concatenate([flat[: bottom.size], symbol_on_line(eq, k, b, right.imag),
                                     flat[bottom.size :], symbol_on_line(eq, k, a, left.imag),
                                     flat[:1]])
        clearance = float(np.min(np.abs(vals)))
        if clearance < CONTOUR_CLEARANCE:
            raise ContourError(f"|D| = {clearance:.3e} on the k={k} contour {rect}; "
                               f"perturb the rectangle away from the zero")
        for level in (vals[::2], vals) if j == 1 else (vals,):
            steps = np.angle(level[1:] / level[:-1])
            raw = float(np.sum(steps) / (2.0 * np.pi))
            stable = np.max(np.abs(steps)) < 0.5 * np.pi and abs(raw - round(raw)) < 0.1
            current = round(raw) if stable else None
            if current is not None and current == previous:
                return current
            previous = current
    raise ContourError(f"winding number on {rect} did not stabilize for k={k}; a zero may "
                       f"sit on or near the contour; perturb the rectangle")


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

    Winding numbers on [0, b] x [-OMEGA_MAX, OMEGA_MAX] first certify
    that D is zero-free in the right half-plane for each scanned k (the
    envelope bound |L| <= C0/(theta0 k + Re lambda)^2 confines any zero
    to Re lambda < b); the infimum then lives on the boundary Re = 0 or
    at infinity, so a refined scan over lambda = i omega plus tail
    bounds (fitted C1 for large omega, certified envelope for large k)
    yields the margin.  The scan is one chirp-z line sum per k; its three
    41-point zooms keep Gauss-Legendre, like the roots.  If a winding is
    nonzero the result carries the offending roots and kappa0 = 0.
    """
    if k_max_scan < 1:
        raise ValueError("k_max_scan must be >= 1")
    b = math.sqrt(2.0 * eq.C0) / eq.theta0 + 1.0

    windings = []
    offenders = []
    for k in range(1, k_max_scan + 1):
        w = count_zeros(eq, k, (0.0, b, OMEGA_MAX))
        windings.append((k, (0.0, b, OMEGA_MAX), w))
        if w != 0:
            lam, res = _dominant_root(eq, k, (0.0, b, 0.1, OMEGA_MAX))
            offenders.append((k, lam, res))
    if offenders:
        k0, lam0, _ = offenders[0]
        return MarginResult(
            kappa0=0.0, k_at_min=k0, omega_at_min=float(lam0.imag), boundary_min=0.0,
            omega_tail_bound=0.0, k_tail_bound=0.0, C1_fit=float("nan"),
            windings=tuple(windings), offenders=tuple(offenders),
        )

    omega = np.linspace(0.0, OMEGA_MAX, n_omega)
    best = math.inf
    k_at, om_at = 1, 0.0
    C1 = 0.0
    for k in range(1, k_max_scan + 1):
        vals = 1.0 + symbol_on_line(eq, k, 0.0, omega)
        absD = np.abs(vals)
        C1 = max(C1, float(np.max(np.abs(vals - 1.0) * (1.0 + k**2 + omega**2))))
        i0 = int(np.argmin(absD))
        lo = omega[max(i0 - 1, 0)]
        hi = omega[min(i0 + 1, n_omega - 1)]
        kmin, omin_at = float(absD[i0]), float(omega[i0])
        for _ in range(3):
            sub = np.linspace(lo, hi, 41)
            sv = np.abs(1.0 + laplace_symbol(eq, k, 1j * sub))
            j = int(np.argmin(sv))
            if sv[j] < kmin:
                kmin, omin_at = float(sv[j]), float(sub[j])
            lo, hi = sub[max(j - 1, 0)], sub[min(j + 1, 40)]
        if kmin < best:
            best, k_at, om_at = kmin, k, omin_at

    om_tail = 1.0 - C1 / (2.0 + OMEGA_MAX**2)
    k_next = k_max_scan + 1
    k_tail = 1.0 - eq.C0 / (eq.theta0 * k_next) ** 2
    if k_tail <= 0.0:
        raise ValueError(
            f"k_max_scan = {k_max_scan} too small: envelope tail bound covers only "
            f"k >= {math.sqrt(eq.C0) / eq.theta0:.2f}"
        )
    kappa0 = min(best, om_tail, k_tail)
    return MarginResult(
        kappa0=kappa0, k_at_min=k_at, omega_at_min=om_at, boundary_min=best,
        omega_tail_bound=om_tail, k_tail_bound=k_tail, C1_fit=C1,
        windings=tuple(windings),
    )


def strip_width(eq: Equilibrium) -> float:
    """Largest theta <= theta0/2 with D zero-free on Re lambda in [-theta |k|, 0] for all k.

    Bisection to tolerance 1e-3, each probe certified by winding numbers
    over 1 <= k < k_tail_threshold(eq): from k_tail on, the envelope keeps
    |L| <= 1/2 on Re lambda >= -theta0 |k|/2, which holds every probe
    rectangle, so no zeros exist there.  Each Equilibrium object is certified
    once, its width kept while the object lives: full_report,
    contour_parameters and resolvent_kernel share one strip.  Raises
    NoStableStripError, on every call, when a zero sits in the closed right
    half-plane (found by the theta = 0 windings once the widest probe fails)
    or the bisection finds no strip.
    """
    width = _strips.get(eq)
    if width is None:
        width = _strips[eq] = _certify_strip(eq)
    return width


def _certify_strip(eq: Equilibrium) -> float:
    """strip_width's bisection, run on every call."""
    ks = range(1, k_tail_threshold(eq))
    b = math.sqrt(2.0 * eq.C0) / eq.theta0 + 1.0

    def first_winding(theta: float) -> Optional[int]:
        return next((k for k in ks if count_zeros(eq, k, (-theta * k, b, 40.0)) != 0), None)

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
    """Newton iteration for a dispersion zero from the given seed.

    Returns (lambda_star, residual) with |D| < 1e-10, or raises
    RootConvergenceError after 50 iterations, and when an iterate leaves
    the analyticity region or the symbol's domain, or is not finite or
    within ROOT_WANDER of the seed.  The derivative is the transform of
    -t^2 mu_hat(kt), obtained by differentiating under the integral.
    """
    lam = complex(seed)
    for _ in range(50):
        try:
            d = dispersion(eq, k, lam)
            if abs(d) < ROOT_RESIDUAL_TOL:
                return lam, abs(d)
            t, f = _gauss_panels(eq, k, np.array([lam]), 2, 2.0)
            dp = -complex(phase_sum(np.array([-lam]), t, f)[0])
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

    rect = (re_min, re_max, im_min, im_max).  The scan is one product
    (e^{-Re lambda t} w) @ e^{-i Im lambda t} over laplace_symbol's nodes t for
    the grid.  Every local minimum of |D| right of Re = -(one grid step) is
    polished, the lowest row counting as an edge open towards the real axis,
    and the growing root with the largest Re lambda is returned, Im >= 0.
    Without one, the root polished from the least |D| of the scan is
    returned; that need not be the least damped root in the rectangle.
    """
    a, b, i0, i1 = rect
    re, om = np.linspace(a, b, 48), np.linspace(i0, i1, 48)
    lam = re[:, None] + 1j * om[None, :]
    t, f = _gauss_panels(eq, k, lam, 1, 0.0)
    mag = np.abs(1.0 + (np.exp(-np.outer(re, t)) * f) @ np.exp(-1j * np.outer(t, om)))
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

    Scans a rectangle sized from the equilibrium envelope, with Im lambda
    from 0.2 up, so no seed lies on the real axis: damped roots have
    -theta0 |k| < Re < 0 for generic envelopes, deeper for
    super-exponential ones; unstable roots sit at Re > 0, and the one with
    the largest Re wins.  A damped root is the one polished from the
    scan's least |D|, not necessarily the least damped: for two_stream(3),
    k = 1 it is -1.13286 + 1.19286i, though -1.13186 + 4.79348i in the same
    rectangle is less damped, and for streams at +-1 of width 0.6 it is
    -0.41368 + 2.32595i, though the real zero -0.13374 is less damped.
    """
    if eq.hat_log_envelope is not None:
        re0 = -2.95 * abs(k)
    else:
        re0 = -0.95 * eq.theta0 * abs(k)
    return _dominant_root(eq, k, (re0, 1.0, 0.2, 2.5 * abs(k) + 3.0))


@dataclass(frozen=True)
class DispersionReport:
    """Summary of the stability certification for one equilibrium.

    kappa0: half-plane margin (0 when unstable); theta1: zero-free strip
    width per |k|; k_tail: mode threshold beyond which the envelope tail
    bound applies; roots: (k, lambda, |D|) triples for located zeros;
    windings: (k, rect, integer) of every contour used.
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
    return DispersionReport(
        equilibrium=eq.name,
        kappa0=m.kappa0,
        theta1=theta1,
        k_tail=k_tail_threshold(eq),
        roots=tuple(roots),
        windings=m.windings,
        scan={
            "k_max_scan": k_max_scan,
            "omega_max": OMEGA_MAX,
            "n_omega": n_omega,
            "boundary_min": m.boundary_min,
            "omega_tail_bound": m.omega_tail_bound,
            "k_tail_bound": m.k_tail_bound,
            "C1_fit": m.C1_fit,
            "k_at_min": m.k_at_min,
            "omega_at_min": m.omega_at_min,
        },
    )
