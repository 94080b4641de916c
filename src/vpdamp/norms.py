"""Generator-function norms and the inequality battery built on them.

Two functionals drive every estimate downstream: a velocity-space one,

    G[g](z) = sum_k deta * sum_m e^{2 z <k,eta>^gamma} (|ghat|^2 + |d_eta ghat|^2) <k,eta>^{2 sigma},

and a density one,

    F[rho](t,z) = sup_{k != 0} e^{z <k,kt>^gamma} |rho_k(t)| <k,kt>^sigma,

with the japanese bracket <k,eta> = sqrt(1 + k^2 + eta^2).  The checks in
this module monitor, on computed trajectories, the differential inequality
coupling G and F, the pointwise domination F <= sqrt(G), the shrinking-radius
contraction condition, the Fourier-multiplier comparison against d_z G, and
the propagator bound satisfied by linear density traces.  Inequalities whose
constants the theory leaves unquantified are handled by fitting the smallest
admissible constant, never by asserting a magic number.

Every G is one weighted sum, _G_radii, of a FoldedMass: a state's eta-mass
(spectral.eta_mass) folded onto (|k|, |eta|), the weights' only arguments.
Radii z + j dz take cumulative products with e^{2 dz <k,eta>^gamma} >= 1, so
profile rows are exactly nondecreasing in z; the folded sums agree with the
per-mode quadrature to 1e-13 relative.  The checks accept the FoldedMass
norm_profile hands on, and fit_FG1 reads a NormProfile already tabulated.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# to_eta and eta_derivative stay bound here for perfbench's tracer; the norms use eta_mass.
from .spectral import eta_derivative, eta_mass, require, same_time, to_eta  # noqa: F401

# Below this, a fitted-ratio denominator is treated as exactly zero.
RATIO_FLOOR = 1e-300


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class WeightParams:
    """Exponents and radii for the weights, validated on construction."""

    gamma: float
    sigma: float
    delta: float
    lam0: float
    lam1: float

    def __post_init__(self):
        values = {"gamma": self.gamma, "sigma": self.sigma, "delta": self.delta,
                  "lambda0": self.lam0, "lambda1": self.lam1}
        require(*((math.isfinite(x), f"need a finite {name}, got {name} = {x}")
                  for name, x in values.items()))
        require((1.0 / 3.0 < self.gamma <= 1.0, f"need 1/3 < gamma <= 1, got gamma = {self.gamma}"),
                (3.0 * self.gamma > 1.0 + 2.0 * self.delta,
                 f"need 3*gamma > 1 + 2*delta, got 3*{self.gamma} <= 1 + 2*{self.delta}"),
                (self.delta > 0.0, f"need delta > 0, got delta = {self.delta}"),
                (self.sigma > 3.0 + self.delta,
                 f"need sigma > 3 + delta, got sigma = {self.sigma} <= {3.0 + self.delta}"),
                (self.lam0 > 0.0, f"need lambda0 > 0, got lambda0 = {self.lam0}"),
                (self.lam0 <= self.lam1 / 4.0,
                 f"need lambda0 <= lambda1/4, got {self.lam0} > {self.lam1 / 4.0}"))

    @property
    def z_grid(self) -> np.ndarray:
        """33 evenly spaced radii on [0, lam1]; every centered z-difference uses its spacing."""
        return np.linspace(0.0, self.lam1, 33)


def bracket(k, eta) -> np.ndarray:
    """<k,eta> = sqrt(1 + k^2 + eta^2)."""
    k = _as_float_array(k)
    eta = _as_float_array(eta)
    return np.sqrt(1.0 + k * k + eta * eta)


def _weight_tables(grid, params: WeightParams):
    """b**gamma and b**(2 sigma) of the bracket b = <k,eta>, folded onto k = 0..k_max and
    eta = m deta, m = 0..N_v/2 (the weights depend on |k| and |eta| only)."""
    b = bracket(np.arange(grid.k_max + 1.0)[:, None], grid.deta * np.arange(grid.N_v // 2 + 1))
    return b**params.gamma, b ** (2.0 * params.sigma)


@dataclass(frozen=True)
class FoldedMass:
    """A state's eta-mass times <k,eta>^{2 sigma}, its entries at +-k and +-eta summed onto the
    weight tables' layout (eta = -N_v/2 deta has no mirror); bg is <k,eta>^gamma there."""

    t: float
    params: WeightParams
    deta: float
    bg: np.ndarray
    values: np.ndarray


def _folded(state, params: WeightParams, tables=None) -> FoldedMass:
    """The FoldedMass of a SpectralState (one eta_mass), or state itself if it is one."""
    if isinstance(state, FoldedMass):
        require((state.params == params, "need the weight params the mass was folded with"))
        return state
    grid, (bg, bs) = state.grid, tables or _weight_tables(state.grid, params)
    mass, K, h = eta_mass(state), grid.k_max, grid.N_v // 2
    values = np.zeros_like(bg)
    values[:, :h] = mass[K:, h:]
    values[1:, :h] += mass[K - 1::-1, h:]
    values[:, 1:] += mass[K:, h - 1::-1]
    values[1:, 1:] += mass[K - 1::-1, h - 1::-1]
    values *= bs
    return FoldedMass(t=state.t, params=params, deta=grid.deta, bg=bg, values=values)


def _G_radii(mass: FoldedMass, z: float, dz: float = 0.0, n: int = 1, step=None) -> np.ndarray:
    """G = deta sum e^{2 z b^gamma} mass.values at the radii z + j dz, j < n: one exponential
    table for z (none at z = 0), then cumulative products with step = e^{2 dz b^gamma} (given
    when n > 1), each factor >= 1.  Refuses a top radius whose largest weight exponent would
    overflow."""
    top_z, b_max = z + (n - 1) * dz, float(mass.bg[-1, -1])
    top = 2.0 * top_z * b_max + 2.0 * mass.params.sigma / mass.params.gamma * math.log(b_max)
    if not top < 700.0:
        raise ValueError(f"overflow guard: need 2 z <k,eta>**gamma + 2 sigma log<k,eta> < 700 "
                         f"at k_max, eta_max, got {top:.4g} at z = {top_z}")
    term = mass.values * np.exp(2.0 * z * mass.bg) if z else mass.values.copy()
    G = np.empty(n)
    for j in range(n):
        if j:
            term *= step
        G[j] = mass.deta * np.sum(term)
    return G


def eta_tail_fraction(state, z: float, params: WeightParams) -> float:
    """Weighted mass fraction in the outer tenth of the eta-grid.

    The discrete sum sees nothing beyond |eta| = pi/dv; this reports how
    much of the weighted integrand already sits near that edge, i.e. how
    badly the true integral over the line is being under-counted.  state
    may be a FoldedMass.
    """
    mass = _folded(state, params)
    total = float(_G_radii(mass, z)[0])
    if total == 0.0:
        return 0.0
    eta = mass.deta * np.arange(mass.values.shape[1])
    outer = replace(mass, values=mass.values * (eta >= 0.9 * eta[-1]))
    return float(_G_radii(outer, z)[0]) / total


def gen_F(rho, t: float, z: float, params: WeightParams) -> float:
    """The weighted density sup along the streaming line eta = kt.

    rho maps mode number to coefficient (dict or (k, value) pairs); the
    k = 0 entry never contributes.  Evaluated in log-space so large weights
    cannot overflow intermediate products.
    """
    return _F_from_terms(_F_terms(rho, t, params), z)


def _F_terms(rho, t: float, params: WeightParams) -> list:
    """Per nonzero mode: (<k,kt>^gamma, sigma log <k,kt>, log |rho_k|), the z-free parts of F."""
    terms = []
    for k, val in (rho.items() if hasattr(rho, "items") else rho):
        a = abs(complex(val))
        if int(k) != 0 and a != 0.0:
            b = float(bracket(int(k), int(k) * t))
            terms.append((b**params.gamma, params.sigma * math.log(b), math.log(a)))
    return terms


def _F_from_terms(terms: list, z: float) -> float:
    if z < 0.0:
        raise ValueError(f"need z >= 0, got z = {z}")
    if not terms:
        return 0.0
    best = max(z * bg + log_w + log_a for bg, log_w, log_a in terms)
    return math.exp(best) if best < 709.0 else math.inf


def radius(t, params: WeightParams):
    """Shrinking analyticity radius lambda(t) = lam0 + lam0 (1+t)^{-delta}."""
    t = _as_float_array(t)
    return params.lam0 + params.lam0 * (1.0 + t) ** (-params.delta)


def radius_derivative(t, params: WeightParams):
    """d/dt of radius; strictly negative, used by the contraction check."""
    t = _as_float_array(t)
    return -params.delta * params.lam0 * (1.0 + t) ** (-params.delta - 1.0)


@dataclass(frozen=True)
class NormProfile:
    """G, F, and the radius tabulated on (snapshot times) x (z-grid)."""

    times: np.ndarray
    z_grid: np.ndarray
    G: np.ndarray  # shape (n_times, n_z)
    F: np.ndarray  # shape (n_times, n_z)
    lam: np.ndarray  # radius(times)

    def __post_init__(self):
        if np.any(self.G < 0.0) or np.any(self.F < 0.0):
            raise ValueError("G and F must be nonnegative")
        slack = 1e-12
        if np.any(np.diff(self.G, axis=1) < -slack * np.maximum(self.G[:, 1:], 1.0)):
            raise ValueError("G must be nondecreasing in z")
        if np.any(np.diff(self.F, axis=1) < -slack * np.maximum(self.F[:, 1:], 1.0)):
            raise ValueError("F must be nondecreasing in z")


def snapshot_density(output, t: float):
    """Mode -> coefficient dict from the recorded traces at time t."""
    times = output.times
    i = int(np.searchsorted(times, t))
    for j in (i, i - 1, i + 1):
        if 0 <= j < times.size and same_time(times[j], t):
            return {k: tr.values[j] for k, tr in output.traces.items()}
    raise ValueError(f"traces were not recorded at snapshot time t = {t:g}")


def norm_profile(output, params: WeightParams, each=None) -> NormProfile:
    """Tabulate G and F over a RunRecord's snapshots and params.z_grid; each(i, mass), if
    given, sees each snapshot's FoldedMass, built once, before the next snapshot is read."""
    zs = params.z_grid
    grid = output.grid
    times = np.empty(len(output.snapshots))
    G = np.empty((times.size, zs.size))
    F = np.empty_like(G)
    tables = _weight_tables(grid, params)
    dz = float(zs[1] - zs[0])
    step = np.exp(2.0 * dz * tables[0])
    for i, snap in enumerate(output.snapshots):
        times[i] = snap.t
        mass = _folded(snap.to_state(grid), params, tables)
        G[i] = _G_radii(mass, 0.0, dz, zs.size, step)
        terms = _F_terms(snapshot_density(output, snap.t), snap.t, params)
        F[i] = [_F_from_terms(terms, float(z)) for z in zs]
        if each is not None:
            each(i, mass)
    return NormProfile(times=times, z_grid=zs, G=G, F=F,
                       lam=radius(times, params))


@dataclass(frozen=True)
class FG1Report:
    """Smallest constant closing the G-F differential inequality."""

    C0: float
    max_violation: float
    at: tuple  # (t, z) where the fitted ratio is tight
    n_samples: int


def check_FG1(output, params: WeightParams) -> FG1Report:
    """fit_FG1 on the norm profile of the run's snapshots, refusing too few before tabulating."""
    require_snapshots(len(output.snapshots))
    return fit_FG1(norm_profile(output, params))


def require_snapshots(n: int) -> None:
    """Refuse fewer snapshots than fit_FG1's centered time differences need."""
    require((n >= 3, "need at least 3 snapshots for centered time differencing"))


def fit_FG1(prof: NormProfile) -> FG1Report:
    """Fit the smallest C0 with  d_t G <= C0 F G^{1/2} + C0 (1+t) F d_z G.

    Time and z derivatives are centered differences on the snapshot times
    and the z-grid; only interior sample points constrain the fit.
    """
    require_snapshots(prof.times.size)
    if prof.z_grid.size < 3:
        raise ValueError("need at least 3 z-grid points for centered z differencing")
    inner = (slice(1, -1), slice(1, -1))
    lhs = np.gradient(prof.G, prof.times, axis=0)[inner]
    dG_dz = np.gradient(prof.G, prof.z_grid, axis=1)[inner]
    F = prof.F[inner]
    rhs = F * np.sqrt(prof.G[inner]) + (1.0 + prof.times[1:-1, None]) * F * dG_dz
    grows = lhs > 0.0
    violation = float(np.max(lhs[grows & (rhs <= RATIO_FLOOR)], initial=0.0))
    ratio = _ratios(lhs, rhs, grows & (rhs > RATIO_FLOOR))
    i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
    C0 = float(ratio[i, j])
    i, j = (i + 1, j + 1) if C0 > 0.0 else (0, 0)  # nothing fitted: the grid origin
    return FG1Report(C0=C0, max_violation=violation,
                     at=(float(prof.times[i]), float(prof.z_grid[j])), n_samples=ratio.size)


def _ratios(num: np.ndarray, den: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """num / den where keep, else 0."""
    return np.where(keep, num / np.where(keep, den, 1.0), 0.0)


@dataclass(frozen=True)
class SqrtGMargin:
    """G^{1/2} - F at one (state, density, z) sample."""

    margin: float
    floor: float
    ok: bool


def check_F_le_sqrtG(state, rho, z, params: WeightParams):
    """Pointwise domination of the density norm by the generator functional.

    state (or its FoldedMass) is folded once; z is one radius, or a sequence
    of radii answered with one SqrtGMargin each; a radius whose weight would
    overflow is refused, not answered with nan.  The margin may dip below zero
    only by the quadrature floor: the discrete G under-counts eta-tail mass.
    """
    mass = _folded(state, params)
    terms = _F_terms(rho, mass.t, params)
    out = []
    for x in np.atleast_1d(z):
        sq = math.sqrt(_G_radii(mass, float(x))[0])
        margin = sq - _F_from_terms(terms, float(x))
        floor = 1e-8 * max(1.0, sq)
        out.append(SqrtGMargin(margin=margin, floor=floor, ok=margin >= -floor))
    return out[0] if np.ndim(z) == 0 else out


@dataclass(frozen=True)
class ContractionReport:
    """Per-time status of  lambda'(t) + C0 (1+t) F(t, lambda(t)) <= 0."""

    times: np.ndarray
    satisfied: np.ndarray  # booleans
    first_failure: Optional[float]


def check_contraction(output, params: WeightParams, C0: float) -> ContractionReport:
    """Check the radius schedule absorbs the density forcing at every time."""
    times = output.times
    ok = np.empty(times.size, dtype=bool)
    for i, t in enumerate(times):
        lam = float(radius(t, params))
        rho = {k: tr.values[i] for k, tr in output.traces.items()}
        f = gen_F(rho, float(t), lam, params)
        ok[i] = float(radius_derivative(t, params)) + C0 * (1.0 + float(t)) * f <= 0.0
    bad = np.flatnonzero(~ok)
    first = float(times[bad[0]]) if bad.size else None
    return ContractionReport(times=times, satisfied=ok, first_failure=first)


@dataclass(frozen=True)
class MultiplierReport:
    """Margins of d_z G over G of the half-derivative-weighted state."""

    x_margin: float
    v_margin: float
    h: float
    floor: float
    ok: bool


def check_multiplier(state, z: float, params: WeightParams,
                     h: Optional[float] = None) -> MultiplierReport:
    """Compare G of the half-derivative of the state against d_z G.

    Both the x-multiplier |k|^{gamma/2} and the v-multiplier |eta|^{gamma/2}
    versions must sit below the centered z-difference of G, whose step h
    (the z-grid spacing by default) must be positive and finite; z has to be
    interior to the difference stencil.  state may be a FoldedMass.
    """
    zg = params.z_grid
    if h is None:
        h = float(np.min(np.diff(zg)))
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"h: need a positive, finite z-step, got h = {h}")
    if z - h < zg[0] - 1e-12 or z + h > zg[-1] + 1e-12:
        raise ValueError(
            f"z = {z} with step h = {h} is not interior to the z-grid "
            f"[{zg[0]}, {zg[-1]}]"
        )
    mass = _folded(state, params)
    dG = float(_G_radii(mass, z + h)[0] - _G_radii(mass, max(z - h, 0.0))[0]) / (2.0 * h)
    # G with the integrand multiplied by |k|^gamma or |eta|^gamma
    n_k, n_eta = mass.values.shape
    k_factor = np.arange(float(n_k))[:, None] ** params.gamma
    eta_factor = (mass.deta * np.arange(n_eta))[None, :] ** params.gamma
    x_margin = dG - float(_G_radii(replace(mass, values=k_factor * mass.values), z)[0])
    v_margin = dG - float(_G_radii(replace(mass, values=eta_factor * mass.values), z)[0])
    floor = 1e-8 * max(1.0, abs(dG))
    return MultiplierReport(x_margin=x_margin, v_margin=v_margin, h=h, floor=floor,
                            ok=x_margin >= -floor and v_margin >= -floor)


@dataclass(frozen=True)
class PropagatorFit:
    """Smallest constant closing the linear-trace propagator bound."""

    C: float
    at: tuple  # (t, z) of the tight sample
    n_samples: int


def check_propagator(k: int, times: np.ndarray, rho_values: np.ndarray,
                     source_values: np.ndarray, theta1: float,
                     params: WeightParams) -> PropagatorFit:
    """Fit the smallest C with
    F[rho](t,z) <= F[S](t,z) + C int_0^t e^{-theta1 (t-s)/4} F[S](s,z) ds
    over the trace grid and every z in params.z_grid not exceeding theta1/2.
    """
    times = _as_float_array(times)
    rho_values = np.asarray(rho_values)
    source_values = np.asarray(source_values)
    if times.ndim != 1 or rho_values.shape != times.shape or \
            source_values.shape != times.shape:
        raise ValueError("times, rho_values, source_values need matching shapes")
    zs = params.z_grid[params.z_grid <= theta1 / 2.0 + 1e-15]
    if zs.size == 0:
        raise ValueError(f"no z-grid points inside [0, theta1/2] = [0, {theta1 / 2:g}]")
    if times.size < 2:
        raise ValueError("need at least 2 time samples")
    dt = np.diff(times)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
        raise ValueError("trace must be on a uniform time grid")

    b = bracket(k, k * times)
    log_w = np.log(b) * params.sigma
    decay = np.exp(-theta1 * times / 4.0)
    grow = np.exp(theta1 * times / 4.0)
    C, at = 0.0, (float(times[0]), float(zs[0]))
    for z in zs:
        A = np.exp(z * b**params.gamma + log_w)
        F_S = A * np.abs(source_values)
        # trapezoid of e^{-theta1 (t-s)/4} F_S(s) ds, one pass per z
        integrand = grow * F_S
        integral = np.zeros_like(integrand)
        np.cumsum(0.5 * dt * (integrand[:-1] + integrand[1:]), out=integral[1:])
        integral *= decay
        num = A * np.abs(rho_values) - F_S
        ratio = _ratios(num, integral, (num > 0.0) & (integral > RATIO_FLOOR))
        i = int(np.argmax(ratio))
        if ratio[i] > C:
            C, at = float(ratio[i]), (float(times[i]), float(z))
    return PropagatorFit(C=C, at=at, n_samples=times.size * zs.size)
