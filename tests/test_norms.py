"""Tests for the generator-function norms and inequality checks."""

import collections
import copy
import dataclasses
import math
import types

import numpy as np
import pytest

from vpdamp import norms
from vpdamp.equilibria import gaussian
from vpdamp.linear import DensityTrace, cosine_initial_hat, source_from_initial
from vpdamp.nonlinear import RunConfig, RunRecord, Snapshot, run
from vpdamp.norms import (
    NormProfile,
    WeightParams,
    bracket,
    check_F_le_sqrtG,
    check_FG1,
    check_contraction,
    check_multiplier,
    check_propagator,
    eta_tail_fraction,
    fit_FG1,
    gen_F,
    norm_profile,
    radius,
    radius_derivative,
    snapshot_density,
)
from norm_oracles import gen_G, standard_params, weight
from vpdamp.penrose import strip_width
from vpdamp.spectral import BoundaryDecayError, Grid, SpectralState, eta_derivative, to_eta

# radius at t = 1 with delta = 0.1, lam0 = 0.05: 0.05 (1 + 2^{-0.1}),
# frozen from independent arithmetic.
RADIUS_AT_1 = 0.09665164957684037

EQ = gaussian()
GRID = Grid(k_max=4, V=8.0, N_v=256)
PARAMS = standard_params()


def raw_params(**kw):
    """Parameter carrier for formula checks outside the validated domain."""
    base = dict(gamma=1.0, sigma=0.0, delta=0.1, lam0=0.05, lam1=0.2,
                z_grid=np.linspace(0.0, 0.2, 33))
    base.update(kw)
    return types.SimpleNamespace(**base)


def gaussian_mode_state(eps=1e-3, k=1, grid=None):
    g = grid if grid is not None else Grid(k_max=2, V=8.0, N_v=256)
    st = SpectralState(g, np.zeros((g.n_modes, g.N_v)))
    st.data[g.mode_index(k)] = eps * np.exp(-0.5 * g.v**2)
    return st


@pytest.fixture(scope="module")
def linear_run():
    cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=6.0, modes=((1, 1e-3, 0.0),),
                    quadratic_term=False, snapshot_stride=10)
    return run(cfg)


@pytest.fixture(scope="module")
def zero_run():
    cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=2.0, modes=((1, 0.0, 0.0),),
                    snapshot_stride=10)
    return run(cfg)


class TestWeightParams:
    def test_default_z_grid(self):
        p = WeightParams(gamma=1.0, sigma=3.2, delta=0.1, lam0=0.05, lam1=0.2)
        assert p.z_grid.shape == (33,)
        assert p.z_grid[0] == 0.0
        assert p.z_grid[-1] == pytest.approx(0.2)

    @pytest.mark.parametrize("kw,msg", [
        (dict(gamma=0.3), "1/3 < gamma"),
        (dict(gamma=1.2), "1/3 < gamma"),
        (dict(gamma=0.5, delta=0.3, sigma=3.5), r"3\*gamma > 1 \+ 2\*delta"),
        (dict(delta=0.0), "delta > 0"),
        (dict(sigma=3.05), r"sigma > 3 \+ delta"),
        (dict(lam0=0.0), "lambda0 > 0"),
        (dict(lam0=0.06), "lambda0 <= lambda1/4"),
    ], ids=["kw0-gamma_too_small", "kw1-gamma_too_large", "kw2-3gamma_vs_1+2delta",
            "kw3-delta_positive", "kw4-sigma_vs_3+delta", "kw5-lambda0_positive",
            "kw6-lambda0_vs_lambda1/4"])
    def test_invariant_violations(self, kw, msg):
        base = dict(gamma=1.0, sigma=3.2, delta=0.1, lam0=0.05, lam1=0.2)
        base.update(kw)
        with pytest.raises(ValueError, match=msg):
            WeightParams(**base)

    def test_multiple_violations_all_reported(self):
        with pytest.raises(ValueError, match="gamma.*lambda0") as exc:
            WeightParams(gamma=0.2, sigma=3.2, delta=0.1, lam0=0.0, lam1=0.2)
        assert ";" in str(exc.value)

    @pytest.mark.parametrize("field", ["gamma", "sigma", "delta", "lam0", "lam1"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, field, bad):
        name = field.replace("lam", "lambda")  # the config-file names
        with pytest.raises(ValueError, match=rf"^need a finite {name}, got {name} = {bad}$"):
            dataclasses.replace(PARAMS, **{field: bad})

    def test_value_type_with_derived_z_grid(self):
        # five floats: equal points compare equal and hash alike, and the z-grid
        # follows lambda1 instead of keeping the radius it was built with
        assert len(dataclasses.fields(WeightParams)) == 5
        assert standard_params() == standard_params()
        assert hash(standard_params()) == hash(standard_params())
        wider = dataclasses.replace(standard_params(), lam1=0.4)
        assert wider != standard_params()
        assert wider.z_grid[-1] == 0.4
        assert np.array_equal(wider.z_grid, np.linspace(0.0, 0.4, 33))


class TestWeight:
    def test_submultiplicative_envelope(self):
        # A_{k,eta} <= 2^sigma A_{k',eta'} A_{k-k',eta-eta'} since the
        # bracket is subadditive and x^gamma is concave for gamma <= 1
        rng = np.random.default_rng(7)
        k = rng.integers(-8, 9, size=10_000)
        kp = rng.integers(-8, 9, size=10_000)
        eta = rng.uniform(-30, 30, size=10_000)
        etap = rng.uniform(-30, 30, size=10_000)
        z = 0.15
        lhs = weight(k, eta, z, PARAMS)
        rhs = weight(kp, etap, z, PARAMS) * weight(k - kp, eta - etap, z, PARAMS)
        fitted = np.max(lhs / rhs)
        assert 0.0 < fitted <= 2.0**PARAMS.sigma * (1 + 1e-12)
        assert np.all(lhs <= 2.0**PARAMS.sigma * rhs * (1 + 1e-12))


class TestGenG:
    def test_zero_state(self):
        g = Grid(k_max=2, V=8.0, N_v=128)
        st = SpectralState(g, np.zeros((g.n_modes, g.N_v)))
        assert gen_G(st, 0.1, PARAMS) == 0.0

    def test_single_mode_closed_form(self):
        # ghat(eta) = eps sqrt(2 pi) e^{-eta^2/2}, so with flat weights
        # G = int (1 + eta^2) 2 pi eps^2 e^{-eta^2} deta = 3 pi^{3/2} eps^2
        eps = 1e-3
        st = gaussian_mode_state(eps)
        got = gen_G(st, 0.0, raw_params())
        assert got == pytest.approx(3.0 * math.pi**1.5 * eps**2, rel=1e-12)

    def test_against_independent_quadrature(self):
        eps = 1e-3
        st = gaussian_mode_state(eps)
        got = gen_G(st, 0.0, raw_params())
        etas = np.linspace(-60.0, 60.0, 200_001)
        ghat = eps * math.sqrt(2 * math.pi) * np.exp(-0.5 * etas**2)
        oracle = np.trapezoid(ghat**2 + (etas * ghat) ** 2, etas)
        assert abs(got - oracle) / oracle < 1e-6

    def test_monotone_in_z(self, linear_run):
        st = linear_run.snapshots[3].to_state(GRID)
        assert gen_G(st, 0.1, PARAMS) >= gen_G(st, 0.05, PARAMS)

    def test_quadratic_homogeneity(self):
        st = gaussian_mode_state(1e-3)
        st4 = gaussian_mode_state(4e-3)
        assert gen_G(st4, 0.1, PARAMS) == pytest.approx(
            16.0 * gen_G(st, 0.1, PARAMS), rel=1e-13)

    def test_overflow_guard(self):
        st = gaussian_mode_state()
        with pytest.raises(ValueError, match="overflow guard"):
            gen_G(st, 50.0, PARAMS)

    def test_overflow_guard_bounds_the_weight_exponent(self):
        # z eta_max = 500 passes a z eta_max**gamma < 700 bound, but the weight is
        # e^{2 z <k,eta>^gamma} <k,eta>^{2 sigma} ~ e^{1038}: inf, and inf * 0 = nan
        g = Grid(k_max=2, V=8.0, N_v=2048)
        params = dataclasses.replace(PARAMS, lam1=4.0)
        st = gaussian_mode_state(grid=g)
        z = 500.0 / float(np.max(np.abs(g.eta)))
        for call in (lambda: gen_G(st, z, params), lambda: eta_tail_fraction(st, z, params),
                     lambda: check_F_le_sqrtG(st, {1: 1e-3}, z, params),
                     lambda: check_multiplier(st, z, params)):
            with pytest.raises(ValueError, match="overflow guard"):
                call()

    def test_boundary_decay_enforced(self):
        g = Grid(k_max=1, V=4.0, N_v=64)
        st = SpectralState(g, np.zeros((g.n_modes, g.N_v)))
        st.data[g.mode_index(1)] = np.exp(-0.1 * g.v**2)  # fat tails
        with pytest.raises(BoundaryDecayError):
            gen_G(st, 0.0, PARAMS)

    def test_tail_fraction(self):
        st = gaussian_mode_state()
        frac = eta_tail_fraction(st, 0.1, PARAMS)
        assert 0.0 <= frac < 0.05
        g = Grid(k_max=1, V=8.0, N_v=128)
        zero = SpectralState(g, np.zeros((g.n_modes, g.N_v)))
        assert eta_tail_fraction(zero, 0.1, PARAMS) == 0.0


class TestGenF:
    def test_zero_density(self):
        assert gen_F({}, 1.0, 0.1, PARAMS) == 0.0
        assert gen_F({1: 0.0, 2: 0.0}, 1.0, 0.1, PARAMS) == 0.0

    def test_single_mode_at_origin(self):
        c = 0.3 - 0.4j
        want = abs(c) * 2.0 ** (PARAMS.sigma / 2.0)
        assert gen_F({1: c}, 0.0, 0.0, PARAMS) == pytest.approx(want, rel=1e-14)

    def test_mean_mode_ignored(self):
        assert gen_F({0: 5.0}, 1.0, 0.1, PARAMS) == 0.0

    def test_absolute_homogeneity(self):
        rho = {1: 2e-3 + 1e-3j, 2: -5e-4j}
        a = gen_F(rho, 1.5, 0.1, PARAMS)
        scaled = {k: -3.0 * v for k, v in rho.items()}
        assert gen_F(scaled, 1.5, 0.1, PARAMS) == pytest.approx(3.0 * a, rel=1e-14)

    def test_pair_sequence_accepted(self):
        assert gen_F([(1, 1e-3)], 0.0, 0.0, PARAMS) == \
            gen_F({1: 1e-3}, 0.0, 0.0, PARAMS)

    def test_monotone_in_z(self):
        rho = {1: 1e-3, 3: 2e-4}
        assert gen_F(rho, 2.0, 0.2, PARAMS) >= gen_F(rho, 2.0, 0.1, PARAMS)


class TestRadius:
    def test_initial_value(self):
        assert float(radius(0.0, PARAMS)) == pytest.approx(2 * PARAMS.lam0, rel=1e-15)

    def test_strictly_decreasing_to_lam0(self):
        t = np.linspace(0.0, 50.0, 101)
        lam = radius(t, PARAMS)
        assert np.all(np.diff(lam) < 0)
        assert np.all(lam > PARAMS.lam0)
        assert np.all(lam <= 2 * PARAMS.lam0)
        assert 2 * PARAMS.lam0 <= PARAMS.lam1 / 2.0

    def test_limit_at_large_time(self):
        p = WeightParams(gamma=1.0, sigma=4.0, delta=0.9, lam0=0.05, lam1=0.2)
        assert abs(float(radius(1e6, p)) - p.lam0) < 1e-5 * p.lam0

    def test_frozen_value(self):
        got = float(radius(1.0, PARAMS))
        assert got == pytest.approx(RADIUS_AT_1, abs=1e-15)
        assert got == pytest.approx(0.05 * (1 + 2.0**-0.1), rel=1e-15)

    def test_derivative_matches_difference(self):
        h = 1e-6
        for t in (0.0, 1.0, 7.5):
            want = (float(radius(t + h, PARAMS)) - float(radius(max(t - h, 0.0), PARAMS)))
            want /= (2 * h if t > 0 else h)
            got = float(radius_derivative(t, PARAMS))
            assert got < 0
            assert got == pytest.approx(want, rel=1e-4)


class TestProfile:
    def test_shapes_and_invariants(self, linear_run):
        prof = norm_profile(linear_run, PARAMS)
        nt = len(linear_run.snapshots)
        assert prof.G.shape == (nt, PARAMS.z_grid.size)
        assert prof.F.shape == prof.G.shape
        assert np.all(prof.G >= 0) and np.all(prof.F >= 0)
        assert np.all(np.diff(prof.G, axis=1) >= 0)
        assert np.all(np.diff(prof.F, axis=1) >= 0)
        assert np.allclose(prof.lam, radius(prof.times, PARAMS))

    def test_rejects_decreasing_columns(self):
        t = np.array([0.0, 1.0])
        z = np.array([0.0, 0.1, 0.2])
        good = np.ones((2, 3))
        bad = np.array([[1.0, 0.5, 0.4], [1.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match="nondecreasing in z"):
            NormProfile(times=t, z_grid=z, G=bad, F=good, lam=radius(t, PARAMS))

    def test_rejects_negative_values(self):
        t = np.array([0.0, 1.0])
        z = np.array([0.0, 0.1, 0.2])
        good = np.ones((2, 3))
        with pytest.raises(ValueError, match="nonnegative"):
            NormProfile(times=t, z_grid=z, G=good, F=-good, lam=radius(t, PARAMS))


class TestFG1:
    def test_zero_perturbation(self, zero_run):
        rep = check_FG1(zero_run, PARAMS)
        assert rep.C0 == 0.0
        assert rep.max_violation == 0.0

    def test_fit_stable_under_dt_halving(self, linear_run):
        coarse = check_FG1(linear_run, PARAMS)
        cfg = RunConfig(eq=EQ, grid=GRID, dt=5e-3, t_final=6.0, modes=((1, 1e-3, 0.0),),
                        quadratic_term=False, snapshot_stride=20)
        fine = check_FG1(run(cfg), PARAMS)
        assert coarse.C0 > 0
        assert abs(coarse.C0 - fine.C0) / fine.C0 < 0.10

    def test_nonlinear_run_no_violation(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=6.0, modes=((1, 1e-3, 0.0),),
                        snapshot_stride=10)
        rep = check_FG1(run(cfg), PARAMS)
        assert np.isfinite(rep.C0) and rep.C0 > 0
        assert rep.max_violation == 0.0
        assert rep.n_samples > 0

    def test_insufficient_snapshots(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=0.5, modes=((1, 1e-3, 0.0),))
        with pytest.raises(ValueError, match="3 snapshots"):
            check_FG1(run(cfg), PARAMS)

    def test_insufficient_snapshots_refused_before_the_profile(self, monkeypatch):
        # a 1-snapshot run is refused up front, without tabulating its norm profile
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=0.5, modes=((1, 1e-3, 0.0),))
        out = run(cfg)
        assert len(out.snapshots) == 1
        monkeypatch.setattr(norms, "norm_profile", lambda *a: pytest.fail("profile tabulated"))
        with pytest.raises(ValueError, match="3 snapshots"):
            check_FG1(out, PARAMS)


class TestSqrtGDomination:
    def test_zero_state(self):
        g = Grid(k_max=2, V=8.0, N_v=128)
        rep = check_F_le_sqrtG(SpectralState(g, np.zeros((g.n_modes, g.N_v))), {}, 0.1, PARAMS)
        assert rep.margin == 0.0
        assert rep.ok

    def test_run_snapshots(self, linear_run):
        for snap in linear_run.snapshots[::3]:
            st = snap.to_state(GRID)
            i = int(round(snap.t / 1e-2))
            rho = {k: tr.values[i] for k, tr in linear_run.traces.items()}
            for z in (0.0, 0.05, 0.1):
                rep = check_F_le_sqrtG(st, rho, z, PARAMS)
                assert rep.ok
                assert rep.margin >= -1e-8

    def test_sequence_of_radii_builds_tables_once(self, linear_run, monkeypatch):
        snap = linear_run.snapshots[-1]
        st = snap.to_state(GRID)
        rho = {k: tr.values[-1] for k, tr in linear_run.traces.items()}
        zs = (0.0, 0.05, 0.1)
        single = [check_F_le_sqrtG(st, rho, z, PARAMS) for z in zs]
        builds = []
        mass = norms.eta_mass
        monkeypatch.setattr(norms, "eta_mass", lambda state: builds.append(1) or mass(state))
        assert check_F_le_sqrtG(st, rho, zs, PARAMS) == single
        assert len(builds) == 1
        with pytest.raises(ValueError, match="z >= 0"):
            check_F_le_sqrtG(st, rho, (0.0, -0.1), PARAMS)

    def test_single_mode_hand_quadrature(self):
        # flat weights: sqrt(G) = eps sqrt(3 pi^{3/2}), F = eps sqrt(2 pi)
        eps = 1e-3
        st = gaussian_mode_state(eps)
        rho1 = st.grid.dv * np.sum(st.mode(1))
        rep = check_F_le_sqrtG(st, {1: rho1}, 0.0, raw_params())
        want = eps * (math.sqrt(3.0 * math.pi**1.5) - math.sqrt(2.0 * math.pi))
        assert rep.margin == pytest.approx(want, rel=1e-6)
        assert rep.margin > 0


class TestContraction:
    def test_zero_perturbation_holds(self, zero_run):
        rep = check_contraction(zero_run, PARAMS, C0=100.0)
        assert rep.satisfied.all()
        assert rep.first_failure is None

    def test_small_amplitude_holds(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=10.0, modes=((1, 1e-7, 0.0),),
                        quadratic_term=False)
        out = run(cfg)
        rep = check_contraction(out, PARAMS, C0=72.0)
        assert rep.satisfied.all()
        assert rep.first_failure is None

    def test_inflated_forcing_fails_early(self):
        cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=2.0, modes=((1, 1e-7, 0.0),),
                        quadratic_term=False)
        out = run(cfg)
        rep = check_contraction(out, PARAMS, C0=72.0 * 1e6)
        assert not rep.satisfied.all()
        assert rep.first_failure == 0.0


class TestMultiplier:
    def test_zero_state(self):
        g = Grid(k_max=2, V=8.0, N_v=128)
        rep = check_multiplier(SpectralState(g, np.zeros((g.n_modes, g.N_v))), 0.1, PARAMS)
        assert rep.x_margin == 0.0 and rep.v_margin == 0.0
        assert rep.ok

    def test_single_mode_positive_margins(self):
        st = gaussian_mode_state()
        rep = check_multiplier(st, 0.1, PARAMS)
        assert rep.x_margin > 0
        assert rep.v_margin > 0
        assert rep.ok

    def test_margin_shrinks_with_step_but_stays_bounded(self):
        st = gaussian_mode_state()
        margins = [check_multiplier(st, 0.1, PARAMS, h=h).x_margin
                   for h in (0.004, 0.002, 0.001)]
        assert margins[0] >= margins[1] >= margins[2]
        assert margins[-1] >= -1e-8

    @pytest.mark.parametrize("h", [0.0, -0.002, math.nan, math.inf])
    def test_degenerate_step_rejected(self, h):
        with pytest.raises(ValueError, match=rf"h: need a positive, finite z-step, got h = {h}"):
            check_multiplier(gaussian_mode_state(), 0.1, PARAMS, h=h)

    def test_requires_interior_z(self):
        st = gaussian_mode_state()
        with pytest.raises(ValueError, match="interior"):
            check_multiplier(st, 0.0, PARAMS)
        with pytest.raises(ValueError, match="interior"):
            check_multiplier(st, PARAMS.z_grid[-1], PARAMS)


# Per-mode reference: the table build and functionals as they were before the
# batched transforms and folded weights.  The module sums the same quadrature over
# folded (|k|, |eta|) pairs by cumulative weight products: G agrees to 1e-13 relative.
def ref_state_tables(state):
    g = state.grid
    b = np.empty((g.n_modes, g.N_v))
    mass = np.empty((g.n_modes, g.N_v))
    for k in g.modes:
        i = g.mode_index(int(k))
        b[i] = bracket(float(k), g.eta)
        mass[i] = np.abs(to_eta(state, int(k))) ** 2 + np.abs(eta_derivative(state, int(k))) ** 2
    return b, mass


def ref_G_from_tables(b, mass, z, deta, params):
    w = np.exp(2.0 * z * b**params.gamma) * b ** (2.0 * params.sigma)
    return float(deta * np.sum(w * mass))


def ref_G(state, z, params, factor=1.0):
    b, mass = ref_state_tables(state)
    return ref_G_from_tables(b, factor * mass, z, state.grid.deta, params)


def ref_F(rho, t, z, params):
    best = None
    for k, val in rho.items():
        if k == 0 or abs(val) == 0.0:
            continue
        b = float(bracket(k, k * t))
        log_term = z * b**params.gamma + params.sigma * math.log(b) + math.log(abs(val))
        best = log_term if best is None else max(best, log_term)
    if best is None:
        return 0.0
    return math.exp(best) if best < 709.0 else math.inf


@pytest.fixture(scope="module")
def coupled_run():
    # quadratic coupling fills every mode of the K = 4 grid
    cfg = RunConfig(eq=EQ, grid=GRID, dt=1e-2, t_final=3.0,
                    modes=((1, 1e-3, 0.0), (2, 5e-4, 0.3)), snapshot_stride=10)
    return run(cfg)


class TestOnePassTables:
    def test_profile_and_fit_bit_identical(self, coupled_run):
        prof = norm_profile(coupled_run, PARAMS)
        assert np.all(np.abs(coupled_run.snapshots[-1].data[0]) > 0)
        zs = PARAMS.z_grid
        G = np.empty((len(coupled_run.snapshots), zs.size))
        F = np.empty_like(G)
        for i, snap in enumerate(coupled_run.snapshots):
            state = snap.to_state(GRID)
            b, mass = ref_state_tables(state)
            rho = {k: tr.values[10 * i] for k, tr in coupled_run.traces.items()}
            for j, z in enumerate(zs):
                G[i, j] = ref_G_from_tables(b, mass, float(z), GRID.deta, PARAMS)
                F[i, j] = ref_F(rho, snap.t, float(z), PARAMS)
        np.testing.assert_allclose(prof.G, G, rtol=1e-13, atol=0)
        assert np.array_equal(prof.F, F)
        ref = NormProfile(times=prof.times, z_grid=zs, G=G, F=F, lam=prof.lam)
        got, want = check_FG1(coupled_run, PARAMS), fit_FG1(ref)
        assert got.C0 == pytest.approx(want.C0, rel=1e-13, abs=0)
        assert got.max_violation == want.max_violation
        assert (got.at, got.n_samples) == (want.at, want.n_samples)

    def test_state_functionals_bit_identical(self, coupled_run):
        snap = coupled_run.snapshots[-1]
        state = snap.to_state(GRID)
        rho = {k: tr.values[-1] for k, tr in coupled_run.traces.items()}
        for z in (0.0, 0.05, 0.1):
            assert gen_G(state, z, PARAMS) == pytest.approx(ref_G(state, z, PARAMS),
                                                            rel=1e-13, abs=0)
            assert gen_F(rho, snap.t, z, PARAMS) == ref_F(rho, snap.t, z, PARAMS)
            sq = math.sqrt(ref_G(state, z, PARAMS))
            margin = sq - ref_F(rho, snap.t, z, PARAMS)
            assert check_F_le_sqrtG(state, rho, z, PARAMS).margin == \
                pytest.approx(margin, rel=0, abs=1e-13 * sq)
        b, mass = ref_state_tables(state)
        w = np.exp(2.0 * 0.05 * b**PARAMS.gamma) * b ** (2.0 * PARAMS.sigma) * mass
        outer = np.abs(GRID.eta) >= 0.9 * np.max(np.abs(GRID.eta))
        assert eta_tail_fraction(state, 0.05, PARAMS) == \
            pytest.approx(float(np.sum(w[:, outer])) / float(np.sum(w)), rel=1e-13, abs=0)

    def test_multiplier_bit_identical(self, coupled_run):
        state = coupled_run.snapshots[-1].to_state(GRID)
        z = 0.1
        rep = check_multiplier(state, z, PARAMS)
        h = rep.h
        dG = (ref_G(state, z + h, PARAMS) - ref_G(state, z - h, PARAMS)) / (2.0 * h)
        k_factor = np.abs(GRID.modes.astype(float))[:, None] ** PARAMS.gamma
        eta_factor = np.abs(GRID.eta)[None, :] ** PARAMS.gamma
        assert rep.x_margin == pytest.approx(dG - ref_G(state, z, PARAMS, k_factor),
                                             rel=0, abs=1e-13 * abs(dG))
        assert rep.v_margin == pytest.approx(dG - ref_G(state, z, PARAMS, eta_factor),
                                             rel=0, abs=1e-13 * abs(dG))

    def test_fit_without_growth_reports_origin(self, zero_run):
        rep = check_FG1(zero_run, PARAMS)
        assert rep.C0 == 0.0 and rep.at == (0.0, 0.0)
        assert rep.n_samples == (len(zero_run.snapshots) - 2) * (PARAMS.z_grid.size - 2)

    def test_fit_needs_three_times(self, coupled_run):
        prof = norm_profile(coupled_run, PARAMS)
        short = NormProfile(times=prof.times[:2], z_grid=prof.z_grid, G=prof.G[:2],
                            F=prof.F[:2], lam=prof.lam[:2])
        with pytest.raises(ValueError, match="3 snapshots"):
            fit_FG1(short)


def synthetic_record(grid, seed, n=3):
    """Random decayed states at t = 0, 0.1, ...: no symmetry in k or eta for a
    mirrored weight view to hide behind, and every mode nonzero."""
    rng = np.random.default_rng(seed)
    times = 0.1 * np.arange(n)
    shape = (grid.n_modes, grid.N_v)
    snaps = []
    for t in times:
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        data *= np.exp(-0.5 * grid.v**2)
        snaps.append(Snapshot(t=float(t), data=data.astype(np.complex64)))
    traces = {k: DensityTrace(k=k, times=times, values=rng.standard_normal(n) + 1j)
              for k in range(1, grid.k_max + 1)}
    return RunRecord(grid=grid, times=times, traces=traces, snapshots=snaps)


class _CountingNumpy:
    """numpy, with the elements passed to exp and power tallied in counts."""

    def __init__(self, counts):
        self.counts = counts

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("exp", "power"):
            return attr

        def counted(x, *args, **kwargs):
            self.counts[name] += np.size(x)
            return attr(x, *args, **kwargs)
        return counted


# (k_max, N_v, gamma, delta): Gevrey weights, an N_v that is not a power of two, K = 16
FOLD_POINTS = [(3, 1000, 0.6, 0.1), (16, 2048, 1.0, 0.1), (2, 256, 0.45, 0.05),
               (8, 2048, 0.6, 0.1)]


class TestFoldedTables:
    @pytest.mark.parametrize("k_max, n_v, gamma, delta", FOLD_POINTS)
    def test_profile_bit_identical(self, k_max, n_v, gamma, delta):
        grid = Grid(k_max=k_max, V=8.0, N_v=n_v)
        params = dataclasses.replace(PARAMS, gamma=gamma, delta=delta)
        record = synthetic_record(grid, seed=k_max)
        prof = norm_profile(record, params)
        for i, snap in enumerate(record.snapshots):
            b, mass = ref_state_tables(snap.to_state(grid))
            want = [ref_G_from_tables(b, mass, float(z), grid.deta, params)
                    for z in params.z_grid]
            np.testing.assert_allclose(prof.G[i], want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("k_max, n_v, gamma, delta", FOLD_POINTS)
    def test_state_functionals_bit_identical(self, k_max, n_v, gamma, delta):
        grid = Grid(k_max=k_max, V=8.0, N_v=n_v)
        params = dataclasses.replace(PARAMS, gamma=gamma, delta=delta)
        record = synthetic_record(grid, seed=k_max + 1)
        state = record.snapshots[-1].to_state(grid)
        rho = snapshot_density(record, state.t)
        for z in (0.0, 0.05, 0.1):
            sq = math.sqrt(ref_G(state, z, params))
            margin = sq - ref_F(rho, state.t, z, params)
            assert check_F_le_sqrtG(state, rho, z, params).margin == \
                pytest.approx(margin, rel=0, abs=1e-13 * sq)
        rep = check_multiplier(state, 0.1, params)
        dG = (ref_G(state, 0.1 + rep.h, params) - ref_G(state, 0.1 - rep.h, params)) / (2 * rep.h)
        k_factor = np.abs(grid.modes.astype(float))[:, None] ** gamma
        eta_factor = np.abs(grid.eta)[None, :] ** gamma
        assert rep.x_margin == pytest.approx(dG - ref_G(state, 0.1, params, k_factor),
                                             rel=0, abs=1e-13 * abs(dG))
        assert rep.v_margin == pytest.approx(dG - ref_G(state, 0.1, params, eta_factor),
                                             rel=0, abs=1e-13 * abs(dG))
        b, mass = ref_state_tables(state)
        w = np.exp(2.0 * 0.05 * b**gamma) * b ** (2.0 * params.sigma) * mass
        outer = np.abs(grid.eta) >= 0.9 * np.max(np.abs(grid.eta))
        assert eta_tail_fraction(state, 0.05, params) == \
            pytest.approx(float(np.sum(w[:, outer])) / float(np.sum(w)), rel=1e-13, abs=0)

    def test_one_weight_exponential_per_folded_entry(self, coupled_run, monkeypatch):
        # the weights depend on |k| and |eta| only: (K+1)(N_v/2+1) distinct values
        counts = collections.Counter()
        monkeypatch.setattr(norms, "np", _CountingNumpy(counts))
        prof = norm_profile(coupled_run, PARAMS)
        folded = (GRID.k_max + 1) * (GRID.N_v // 2 + 1)
        assert counts["exp"] <= 2 * folded  # whatever the snapshot count
        assert counts["power"] <= 2 * folded

    @pytest.mark.parametrize("k_max, n_v, gamma, delta", FOLD_POINTS)
    def test_profile_rows_nondecreasing_exactly(self, k_max, n_v, gamma, delta):
        # cumulative products with factors e^{2 dz <k,eta>^gamma} >= 1: no slack needed
        grid = Grid(k_max=k_max, V=8.0, N_v=n_v)
        params = dataclasses.replace(PARAMS, gamma=gamma, delta=delta)
        prof = norm_profile(synthetic_record(grid, seed=k_max), params)
        assert np.all(np.diff(prof.G, axis=1) >= 0.0)


@pytest.fixture(scope="module")
def fitted():
    from vpdamp.linear import volterra_solve
    hat0 = cosine_initial_hat(EQ, ((1, 1e-3, 0.0),))
    theta1 = strip_width(EQ)
    fits = {}
    for dt in (1e-2, 5e-3):
        tr = volterra_solve(EQ, 1, lambda ts: source_from_initial(hat0, 1, ts),
                            dt, 20.0)
        src = source_from_initial(hat0, 1, tr.times)
        fits[dt] = check_propagator(1, tr.times, tr.values, src, theta1, PARAMS)
    return fits


class TestPropagator:
    def test_constant_is_modest_and_stable(self, fitted):
        for rep in fitted.values():
            assert 0 < rep.C < 10.0
            assert rep.n_samples > 0
        a, b = (fitted[1e-2].C, fitted[5e-3].C)
        assert abs(a - b) / b < 0.10

    def test_inequality_holds_with_fitted_constant(self, fitted):
        # by construction of the fit, but recheck on the coarse trace with
        # an explicit sweep at one z
        from vpdamp.linear import volterra_solve
        hat0 = cosine_initial_hat(EQ, ((1, 1e-3, 0.0),))
        theta1 = strip_width(EQ)
        tr = volterra_solve(EQ, 1, lambda ts: source_from_initial(hat0, 1, ts),
                            1e-2, 20.0)
        src = np.asarray(source_from_initial(hat0, 1, tr.times))
        C = fitted[1e-2].C
        z = 0.1
        b = bracket(1, tr.times)
        A = np.exp(z * b**PARAMS.gamma) * b**PARAMS.sigma
        F_rho = A * np.abs(tr.values)
        F_S = A * np.abs(src)
        dt = tr.times[1] - tr.times[0]
        kern = np.exp(-theta1 * tr.times / 4.0)
        conv = np.convolve(kern, F_S)[: tr.times.size] * dt
        assert np.all(F_rho <= F_S + C * conv + 1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            check_propagator(1, np.zeros(5), np.zeros(4), np.zeros(5), 0.5, PARAMS)

    def test_requires_uniform_grid(self):
        t = np.array([0.0, 0.1, 0.3])
        with pytest.raises(ValueError, match="uniform"):
            check_propagator(1, t, np.zeros(3), np.zeros(3), 0.5, PARAMS)

    def test_requires_reachable_z(self):
        t = np.linspace(0, 1, 11)
        with pytest.raises(ValueError, match="theta1/2"):
            check_propagator(1, t, np.zeros(11), np.zeros(11), -1.0, PARAMS)


class TestRunRecord:
    def test_copied_record_gives_the_same_diagnostics(self, coupled_run):
        # the CLI rebuilds only these fields from stored traces and snapshots
        record = RunRecord(**{f.name: copy.deepcopy(getattr(coupled_run, f.name))
                              for f in dataclasses.fields(RunRecord)})
        got, want = norm_profile(record, PARAMS), norm_profile(coupled_run, PARAMS)
        for f in dataclasses.fields(NormProfile):
            assert np.all(getattr(got, f.name) == getattr(want, f.name))
        got = check_contraction(record, PARAMS, C0=72.0)
        want = check_contraction(coupled_run, PARAMS, C0=72.0)
        assert np.all(got.times == want.times) and np.all(got.satisfied == want.satisfied)
        assert got.first_failure == want.first_failure
