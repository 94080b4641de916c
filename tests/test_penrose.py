import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

from vpdamp import penrose
from vpdamp.equilibria import gaussian, two_stream, zero
from vpdamp.linear import contour_parameters
from vpdamp.penrose import (
    ContourError,
    DomainError,
    RootConvergenceError,
    NoStableStripError,
    count_zeros,
    dispersion,
    find_root,
    full_report,
    k_tail_threshold,
    landau_root,
    laplace_symbol,
    margin,
    strip_width,
)
from vpdamp.spectral import GREGORY_WEIGHTS

# Reference roots from an independent trapezoid-quadrature Newton oracle,
# frozen; the module must reproduce them through its own quadrature.
GAUSSIAN_ROOT_K1 = -0.8513304555998186 + 2.045904868820431j
GAUSSIAN_ROOT_K2 = -2.827200262773465 + 3.1891361967787177j

# Purely growing root of NARROW at k = 1 (D is real on the real axis and
# changes sign there), frozen from the Newton root finder.
NARROW_ROOT_K1 = 0.2064671569837391


def narrow_two_stream():
    """Streams at +-1 of width 0.3: mu_hat = cos(eta) e^{-0.045 eta^2}, unstable at k = 1."""
    return dataclasses.replace(
        two_stream(1.0), theta0=0.3,
        mu_hat=lambda eta: np.cos(np.asarray(eta, float)) * np.exp(-0.045 * np.asarray(eta, float) ** 2),
        hat_log_envelope=lambda eta: -0.045 * np.asarray(eta, float) ** 2)


def wide_two_stream():
    """Streams at +-1 of width 0.6: mu_hat = cos(eta) e^{-0.18 eta^2}, stable, with a real
    k = 1 zero inside the widest strip probed, Re lambda > -theta0/2."""
    return dataclasses.replace(
        two_stream(1.0), theta0=0.6,
        mu_hat=lambda eta: np.cos(np.asarray(eta, float)) * np.exp(-0.18 * np.asarray(eta, float) ** 2),
        hat_log_envelope=lambda eta: -0.18 * np.asarray(eta, float) ** 2)


# Recorded boundary-scan reference (regression pin, not an external truth).
GAUSSIAN_KAPPA0 = 0.7509172785917717


class TestLaplaceSymbol:
    def test_gaussian_closed_forms(self):
        ga = gaussian()
        # integral of t e^{-k^2 t^2/2} is 1/k^2
        assert laplace_symbol(ga, 1, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert laplace_symbol(ga, 2, 0.0) == pytest.approx(0.25, abs=1e-12)
        for k in range(1, 7):
            assert laplace_symbol(ga, k, 0.0) == pytest.approx(1.0 / k**2, abs=1e-12)

    def test_decay_at_large_real_lambda(self):
        assert abs(laplace_symbol(gaussian(), 1, 100.0)) < 1e-3

    def test_array_matches_scalars(self):
        ga = gaussian()
        lam = np.array([0.1 + 2j, -0.3 + 0.5j, 1.0, 4j])
        batch = laplace_symbol(ga, 1, lam)
        single = np.array([laplace_symbol(ga, 1, z) for z in lam])
        assert np.max(np.abs(batch - single)) < 1e-12

    def test_conjugate_symmetry(self):
        ga = gaussian()
        for z in (0.3 + 2.0j, -0.4 + 1.1j, 5j):
            a = laplace_symbol(ga, 1, z)
            b = laplace_symbol(ga, 1, np.conj(z))
            assert a == pytest.approx(np.conj(b), abs=1e-13)

    def test_even_profile_symmetric_in_k(self):
        ga = gaussian()
        z = 0.2 + 1.5j
        assert laplace_symbol(ga, -2, z) == pytest.approx(laplace_symbol(ga, 2, z), abs=1e-13)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            laplace_symbol(gaussian(), 0, 0.0)

    def test_domain_error_for_generic_envelope(self):
        # the stub declares only the exponential envelope, so evaluation
        # left of -theta0 |k| must refuse
        with pytest.raises(DomainError):
            laplace_symbol(zero(), 1, -1.5)

    def test_zero_stub_vanishes(self):
        assert laplace_symbol(zero(), 1, 0.5 + 3j) == 0.0

    def test_panels_narrow_with_k(self):
        # mu_hat(k t) varies on the scale 1/|k|: with unit panels two_stream(5), k = 16,
        # Re = -8 missed the dense reference by 1.8e-12
        eq = two_stream(5.0)
        omega = np.linspace(40.0, -40.0, 81)
        got = laplace_symbol(eq, 16, -8.0 + 1j * omega)
        assert np.max(np.abs(got - dense_line_reference(eq, 16, -8.0, omega))) <= 1e-15


def dense_line_reference(eq, k, re, omega, n=40000):
    """L(k, re + i omega) by a dense fine-step trapezoid sum on [0, cutoff + 1].

    Both ends carry the order-8 Gregory corrections; one phase row per omega,
    no FFT, and a step far below the line sum's.
    """
    T = penrose._cutoff(eq, -re / k) / k + 1.0
    t = np.linspace(0.0, T, n + 1)
    f = (T / n) * t * eq.mu_hat(k * t) * np.exp(-re * t)
    f[:8] *= 1.0 + GREGORY_WEIGHTS
    f[-8:] *= 1.0 + GREGORY_WEIGHTS[::-1]
    return np.array([np.exp(-1j * w * t) @ f for w in omega])


LINE_EQUILIBRIA = {"gaussian": gaussian(), "two_stream-3": two_stream(3.0),
                   "two_stream-5": two_stream(5.0)}


class TestSymbolOnLine:
    """The chirp-z line sum of L_1, read by mode k at z = lambda/k against k^2 L, the
    Gauss-Legendre symbol and a dense reference in t."""

    @pytest.mark.parametrize("eq", LINE_EQUILIBRIA.values(), ids=LINE_EQUILIBRIA.keys())
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_laplace_symbol(self, eq, k):
        omega = np.linspace(0.0, 50.0, 10001)
        line = penrose.symbol_on_line(eq, 0.0, omega / k) / k**2
        assert np.max(np.abs(line - laplace_symbol(eq, k, 1j * omega))) <= 1e-14
        # the chirp sum answers at omega_0 + n h exactly; a step of 1/8 makes those
        # the grid's own floats (with a step of 0.1, linspace's points sit up to an
        # ulp of 40 off that lattice, and |dL/domega| ~ 3 turns that into 1.3e-14)
        re = -0.5 * eq.theta0
        down = np.linspace(40.0, -40.0, 641)
        line = penrose.symbol_on_line(eq, re, down)
        assert np.max(np.abs(line - laplace_symbol(eq, 1, re + 1j * down))) <= 1e-14
        assert np.max(np.abs(line / k**2 - laplace_symbol(eq, k, k * (re + 1j * down)))) <= 1e-14

    @pytest.mark.parametrize("eq", LINE_EQUILIBRIA.values(), ids=LINE_EQUILIBRIA.keys())
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_laplace_symbol_on_the_resolvent_contour(self, eq, k):
        # resolvent_kernel's own line: Re z = -theta_hat1 at omega/k, omega = linspace(0,
        # 100, n_quad) on the criterion-2 grid (t_max = 20), and the remainder -L^3/(1+L)
        # it integrates
        theta_hat1, Omega, n_quad = contour_parameters(eq, k, 20.0)
        omega = np.linspace(0.0, Omega, n_quad)
        line = penrose.symbol_on_line(eq, -theta_hat1, omega / k) / k**2
        dense = laplace_symbol(eq, k, -theta_hat1 * k + 1j * omega)
        assert np.max(np.abs(line - dense)) <= 1e-14
        assert np.max(np.abs(line**3 / (1.0 + line) - dense**3 / (1.0 + dense))) <= 1e-14

    @pytest.mark.parametrize("eq", LINE_EQUILIBRIA.values(), ids=LINE_EQUILIBRIA.keys())
    @pytest.mark.parametrize("k", [8, 16])
    def test_matches_dense_reference_at_large_k(self, eq, k):
        # the dense reference sums t mu_hat(k t) in t, so this checks L(k, lambda) =
        # L_1(lambda/k)/k^2 on the boundary scan's and the strip probes' lines
        omega = np.linspace(0.0, 50.0, 10001)
        line = penrose.symbol_on_line(eq, 0.0, omega / k) / k**2
        sub = slice(None, None, 100)
        assert np.max(np.abs(line[sub] - dense_line_reference(eq, k, 0.0, omega[sub]))) <= 1e-15
        re = -0.5 * eq.theta0
        down = np.linspace(40.0, -40.0, 81)
        line = penrose.symbol_on_line(eq, re, down / k) / k**2
        assert np.max(np.abs(line - dense_line_reference(eq, k, re * k, down))) <= 1e-15


class TestDispersion:
    def test_values_at_origin(self):
        ga = gaussian()
        assert dispersion(ga, 1, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert dispersion(ga, 3, 0.0) == pytest.approx(1.0 + 1.0 / 9.0, abs=1e-12)

    def test_limit_at_infinity(self):
        assert dispersion(gaussian(), 1, 1e6j) == pytest.approx(1.0, abs=1e-5)


class TestWinding:
    def test_gaussian_right_half_plane_clear(self):
        assert count_zeros(gaussian(), 1, (0.0, 5.0, 20.0)) == 0

    def test_stub_clear(self):
        assert count_zeros(zero(), 1, (0.0, 5.0, 20.0)) == 0

    def test_conjugate_pair_counted(self):
        # rectangle straddling both conjugate damped roots of mode 1
        assert count_zeros(gaussian(), 1, (-1.2, -0.05, 3.0)) == 2

    def test_left_edge_left_of_the_axis(self, monkeypatch):
        # Re lambda < 0 throughout, so the left edge's samples grow like e^{1.2 t}
        lines = []
        line_sum = penrose.symbol_on_line
        monkeypatch.setattr(penrose, "symbol_on_line",
                            lambda eq, re, om: lines.append(re) or line_sum(eq, re, om))
        assert count_zeros(gaussian(), 1, (-1.2, -0.5, 3.0)) == 2
        assert -1.2 in lines and -0.5 in lines
        # the roots sit at Im = +-2.04590: the same rectangle cut to |Im| <= 1.5 holds none
        assert count_zeros(gaussian(), 1, (-1.2, -0.5, 1.5)) == 0

    def test_zero_on_contour_detected(self):
        ga = gaussian()
        rect = (GAUSSIAN_ROOT_K1.real, 0.0, 5.0)
        with pytest.raises(ContourError, match="perturb"):
            count_zeros(ga, 1, rect)

    def test_degenerate_rect_rejected(self):
        with pytest.raises(ValueError):
            count_zeros(gaussian(), 1, (1.0, 1.0, 2.0))

    def test_one_contour_evaluation_per_level(self, monkeypatch):
        # level 1's every other sample is the density-8 contour: when the first two
        # windings agree, one evaluation (two vertical line sums) settles the count
        lines = []
        line_sum = penrose.symbol_on_line
        monkeypatch.setattr(penrose, "symbol_on_line",
                            lambda eq, re, om: lines.append(re) or line_sum(eq, re, om))
        eq = gaussian()
        b = math.sqrt(2.0 * eq.C0) / eq.theta0 + 1.0
        assert [count_zeros(eq, k, (0.0, b, 50.0)) for k in range(1, 5)] == [0] * 4
        assert len(lines) == 8

    @pytest.mark.parametrize("eq, want", [(two_stream(3.0), [0] * 4),
                                          (narrow_two_stream(), [1, 0, 0, 0])],
                             ids=["two_stream3", "narrow"])
    def test_margin_rectangle_windings(self, eq, want):
        # gaussian()'s are pinned above, the wide two-stream's strip probes in TestStripWidth
        b = math.sqrt(2.0 * eq.C0) / eq.theta0 + 1.0
        assert [count_zeros(eq, k, (0.0, b, 50.0)) for k in range(1, 5)] == want

    @pytest.mark.parametrize("a", [-1.1330, -1.1325, -1.1320, -1.1315])
    def test_refuses_left_edges_by_the_damped_roots(self, a):
        # the k = 1 zeros -1.13286 + 1.19286i and -1.13186 + 4.79348i sit by these
        # left edges; finer levels past density 2048 would return a count there
        with pytest.raises(ContourError):
            count_zeros(two_stream(3.0), 1, (a, 1.0, 5.5))


class TestMargin:
    def test_gaussian_positive_margin(self):
        m = margin(gaussian())
        assert m.kappa0 > 0.0
        assert m.kappa0 == pytest.approx(GAUSSIAN_KAPPA0, rel=1e-6)
        assert m.k_at_min == 1
        assert all(w == 0 for (_, _, w) in m.windings)
        assert m.offenders == ()
        # boundary scan is the binding bound for the Gaussian
        assert m.boundary_min == m.kappa0

    def test_stub_margin_is_one(self):
        m = margin(zero())
        assert m.kappa0 == pytest.approx(1.0, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            margin(gaussian(), k_max_scan=0)

    def test_k_tail_bound_must_cover_the_unscanned_modes(self):
        # 1 - C0/(theta0 k)^2 > 0 needs k >= sqrt(40) ~ 6.32 > k_max_scan + 1 = 5
        with pytest.raises(ValueError, match=r"too small: envelope tail bound covers only k >= 6\.32"):
            margin(dataclasses.replace(gaussian(), C0=40.0), k_max_scan=4)


class TestOneDispersionFunction:
    """Every mode reads the one function L_1 at z = lambda/k against -k^2: margin and each
    strip probe evaluate one contour per refinement level, whatever the number of modes."""

    def test_margin_evaluates_one_contour_and_one_line(self, monkeypatch):
        edges, line_sum = penrose._rectangle_edges, penrose.symbol_on_line
        eq = two_stream(3.0)
        b = math.sqrt(2.0 * eq.C0) / eq.theta0 + 1.0
        seen = {}
        for k_max_scan in (1, 4, 8):
            levels, lines = [], []
            monkeypatch.setattr(penrose, "_rectangle_edges",
                                lambda *args: levels.append(args) or edges(*args))
            monkeypatch.setattr(penrose, "symbol_on_line", lambda eq, re, om: lines.append(
                (re, om.size)) or line_sum(eq, re, om))
            margin(eq, k_max_scan=k_max_scan, n_omega=2001)
            # one (0, b, OMEGA_MAX) contour, density doubling per level, two vertical line
            # sums per level, then the one boundary line sum
            assert levels == [(0.0, b, penrose.OMEGA_MAX, 2 << j) for j in range(len(levels))]
            assert [re for re, _ in lines] == [b, 0.0] * len(levels) + [0.0]
            assert lines[-1] == (0.0, 2001)
            seen[k_max_scan] = (levels, lines)
        assert seen[1] == seen[4] == seen[8]

    def test_each_strip_probe_is_one_contour(self, monkeypatch):
        calls = []
        windings = penrose._windings
        monkeypatch.setattr(penrose, "_windings", lambda eq, rect, ks: calls.append(
            (rect, tuple(ks))) or windings(eq, rect, ks))
        eq = wide_two_stream()
        assert penrose._certify_strip(eq) == pytest.approx(0.1335937, abs=1e-7)
        ks = tuple(range(1, k_tail_threshold(eq)))
        b = math.sqrt(2.0 * eq.C0) / eq.theta0 + 1.0
        thetas = [-rect[0] for rect, _ in calls]
        # theta0/2, the closed right half-plane, then nine bisection steps to 1e-3
        assert len(calls) == 11 and len(set(thetas)) == 11 and thetas[:2] == [0.3, 0.0]
        assert all(rect == (-theta, b, 40.0) and got == ks
                   for (rect, got), theta in zip(calls, thetas))


def stream_pair_mu(u, w):
    """Streams at +-u of width w: mu(v) = [M((v - u)/w) + M((v + u)/w)] / (2 w)."""
    def mu(v):
        v = np.asarray(v, float)
        return 0.5 * (np.exp(-0.5 * ((v - u) / w) ** 2)
                      + np.exp(-0.5 * ((v + u) / w) ** 2)) / (w * math.sqrt(2.0 * math.pi))
    return mu


def penrose_P0(mu, n=16000, R=40.0):
    """Penrose's P(0) = integral (mu(v) - mu(0)) / v^2 dv for an even profile, numpy only.

    Trapezoid on [-R, R] with order-8 Gregory ends, the centre value mu''(0)/2 from a
    second difference, and the exact tail -2 mu(0)/R (mu is negligible beyond R).
    """
    v = np.linspace(-R, R, n + 1)
    h, mu0, d = 2.0 * R / n, float(mu(0.0)), 1e-3
    g = np.full(v.size, 0.5 * (float(mu(d)) - 2.0 * mu0 + float(mu(-d))) / d**2)
    off = v != 0.0
    g[off] = (mu(v[off]) - mu0) / v[off] ** 2
    w = np.full(v.size, h)
    w[: GREGORY_WEIGHTS.size] *= 1.0 + GREGORY_WEIGHTS
    w[-GREGORY_WEIGHTS.size :] *= 1.0 + GREGORY_WEIGHTS[::-1]
    return float(w @ g) - 2.0 * mu0 / R


# (equilibrium, its profile, P(0) where recorded, margin's windings for k = 1..8)
CRITERION_CASES = {
    "gaussian": (gaussian(), stream_pair_mu(0.0, 1.0), -1.0, [0] * 8),
    "two_stream-1.5": (two_stream(1.5), stream_pair_mu(1.5, 1.0), 0.1282043150, [0] * 8),
    "two_stream-3": (two_stream(3.0), stream_pair_mu(3.0, 1.0), 0.1795006375, [0] * 8),
    "two_stream-5": (two_stream(5.0), stream_pair_mu(5.0, 1.0), 0.0462287860, [0] * 8),
    "narrow": (narrow_two_stream(), stream_pair_mu(1.0, 0.3), None, [1] + [0] * 7),
    "wide": (wide_two_stream(), stream_pair_mu(1.0, 0.6), None, [0] * 8),
}


class TestPenroseCriterion:
    """L_1 against Penrose's criterion: D(k, 0) = 1 - P(0)/k^2 at the critical point v = 0
    of an even profile, and mode k is unstable exactly when P(0) > k^2 there (O. Penrose,
    Phys. Fluids 3, 258 (1960)); v = 0 is the only local minimum of these pairs."""

    @pytest.mark.parametrize("name", list(CRITERION_CASES)[:4])
    def test_symbol_at_origin_is_minus_P0(self, name):
        eq, mu, want, _ = CRITERION_CASES[name]
        v = np.linspace(-9.0, 9.0, 37)
        np.testing.assert_allclose(mu(v), eq.mu(v), rtol=1e-15, atol=0.0)
        P = penrose_P0(mu)
        assert -laplace_symbol(eq, 1, 0.0) == pytest.approx(P, abs=1e-7)
        assert P == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("name", list(CRITERION_CASES))
    def test_margin_windings_are_the_criterion(self, name):
        eq, mu, _, pinned = CRITERION_CASES[name]
        P = penrose_P0(mu)
        windings = [w for _, _, w in margin(eq, k_max_scan=8, n_omega=2001).windings]
        assert windings == [int(P > k**2) for k in range(1, 9)] == pinned

    def test_two_stream_P0_stays_below_one(self):
        # unit-width streams never destabilize mode 1 on the 2 pi torus: the largest P(0)
        # over u is 0.28475, near u = 2.125
        P = [penrose_P0(stream_pair_mu(u, 1.0)) for u in np.linspace(0.0, 8.0, 129)]
        assert max(P) <= 0.2848 and max(P) == pytest.approx(0.28475, abs=1e-5)


class TestStripWidth:
    def test_gaussian_hits_cap(self):
        # the k=1 roots sit at Re ~ -0.85, deeper than theta0/2
        assert strip_width(gaussian()) == pytest.approx(0.5)

    def test_stub_vacuous(self):
        assert strip_width(zero()) == pytest.approx(0.5)

    def test_bisection_stops_below_the_real_zero(self):
        # theta0/2 = 0.3 holds the real k = 1 zero, so the widest probe winds and the
        # bisection narrows the strip to within 1e-3 of that zero, for every k scanned
        eq = wide_two_stream()
        s = strip_width(eq)
        assert s == pytest.approx(0.1335937, abs=1e-7) and s < 0.5 * eq.theta0
        b = math.sqrt(2.0 * eq.C0) / eq.theta0 + 1.0
        assert [count_zeros(eq, k, (-s * k, b, 40.0)) for k in range(1, 7)] == [0] * 6
        assert count_zeros(eq, 1, (-(s + 1e-3), b, 40.0)) == 1
        lam, res = find_root(eq, 1, -0.13)
        assert res < 1e-10 and lam.imag == 0.0
        assert lam.real == pytest.approx(-0.1337420, abs=1e-7) and -(s + 1e-3) < lam.real < -s


class TestFindRoot:
    def test_gaussian_k1_reference(self):
        lam, res = landau_root(gaussian(), 1)
        assert res < 1e-10
        assert abs(lam - GAUSSIAN_ROOT_K1) < 1e-7
        assert -gaussian().theta0 < lam.real < 0.0

    def test_gaussian_k2_reference(self):
        lam, res = landau_root(gaussian(), 2)
        assert res < 1e-10
        assert abs(lam - GAUSSIAN_ROOT_K2) < 1e-7

    def test_conjugate_root(self):
        lam, _ = find_root(gaussian(), 1, np.conj(GAUSSIAN_ROOT_K1) + 0.05)
        assert abs(lam - np.conj(GAUSSIAN_ROOT_K1)) < 1e-7

    def test_growing_root_wins_over_damped(self):
        # a damped root -0.0538 + 1.948i sits near the imaginary axis too
        lam, res = landau_root(narrow_two_stream(), 1)
        assert res < 1e-10
        assert abs(lam.real - NARROW_ROOT_K1) < 1e-6
        assert abs(lam.imag) < 1e-6

    def test_margin_offender_is_the_growing_root(self):
        m = margin(narrow_two_stream())
        assert m.kappa0 == 0.0
        assert [k for k, _, _ in m.offenders] == [1]
        lam = m.offenders[0][1]
        assert abs(lam.real - NARROW_ROOT_K1) < 1e-6 and abs(lam.imag) < 1e-6

    def test_stub_has_no_roots(self):
        with pytest.raises(RootConvergenceError):
            find_root(zero(), 1, 0.5 + 1j)

    def test_poor_seed_raises_its_own_error(self):
        # From this seed the Newton steps run off towards -9.3 - 25.6i, where
        # e^{-lambda t} overflows; the refusal must come before that evaluation.
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RootConvergenceError, match="farther than 8 from seed"):
                find_root(narrow_two_stream(), 1, -2.36 + 4.33j)
        assert time.perf_counter() - t0 < 1.0

    def test_domain_error_inside_iteration_becomes_convergence_error(self):
        # the overflow guard of the symbol itself, reached from a seed deep in Re < 0
        with pytest.raises(DomainError, match="overflows"):
            laplace_symbol(narrow_two_stream(), 1, -9.0 + 0.0j)
        with pytest.raises(RootConvergenceError, match="overflows"):
            find_root(narrow_two_stream(), 1, -9.0 + 0.0j)


def dense_scan_root(eq, k, rect):
    """_dominant_root with the 48 x 48 scan as one dense laplace_symbol batch: (root, |D| grid)."""
    a, b, i0, i1 = rect
    re = np.linspace(a, b, 48)
    lam = re[:, None] + 1j * np.linspace(i0, i1, 48)[None, :]
    mag = np.abs(1.0 + laplace_symbol(eq, k, lam.ravel())).reshape(lam.shape)
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
        return max(growing, key=lambda r: r[0].real), mag
    return find_root(eq, k, lam.flat[np.argmin(mag)]), mag


class TestRootScan:
    """landau_root's scan as one separable product against the dense batch it replaced."""

    @pytest.mark.parametrize("eq, k", [(gaussian(), 1), (gaussian(), 2), (two_stream(3.0), 1),
                                       (narrow_two_stream(), 1)],
                             ids=["gaussian-k1", "gaussian-k2", "two_stream3-k1", "narrow-k1"])
    def test_matches_dense_scan(self, monkeypatch, eq, k):
        re0 = -2.95 * k if eq.hat_log_envelope is not None else -0.95 * eq.theta0 * k
        rect = (re0, 1.0, 0.2, 2.5 * k + 3.0)
        grids, pad = [], np.pad

        def spy(array, *args, **kwargs):
            grids.append(np.array(array))
            return pad(array, *args, **kwargs)

        monkeypatch.setattr(np, "pad", spy)
        got = penrose._dominant_root(eq, k, rect)
        monkeypatch.setattr(np, "pad", pad)
        ref, dense = dense_scan_root(eq, k, rect)
        assert got == ref
        assert got == landau_root(eq, k)
        assert grids[0].shape == dense.shape == (48, 48)
        # Both sums round off on the scale 1 + sum_j e^{-Re lambda t_j} |w_j|; on
        # narrow's Re = -2.95 rows that is up to 1e13 |D|, and neither carries digits.
        re = np.linspace(rect[0], rect[1], 48)
        lam = re[:, None] + 1j * np.linspace(rect[2], rect[3], 48)[None, :]
        s, w = penrose._gauss_panels(eq, lam / k, 1, 0.0)
        scale = (1.0 + np.exp(-np.outer(re / k, s)) @ np.abs(w) / k**2)[:, None]
        err = np.abs(grids[0] - dense)
        assert np.all(err <= 1e-14 * scale)
        kept = scale <= 1e3 * dense
        assert np.all(err[kept] <= 1e-12 * dense[kept])
        assert kept.all() or eq.hat_log_envelope is not None


class TestReport:
    def test_gaussian_report(self):
        rep = full_report(gaussian(), n_omega=2001)
        assert rep.kappa0 > 0.0
        assert rep.theta1 == pytest.approx(0.5)
        assert rep.theta1 <= 0.5 * gaussian().theta0
        assert rep.k_tail == 4
        ks = [k for (k, _, _) in rep.roots]
        assert ks == [1, 2]
        assert all(res < 1e-10 for (_, _, res) in rep.roots)
        assert all(isinstance(w, int) for (_, _, w) in rep.windings)

    def test_k_tail_threshold_value(self):
        # ceil(sqrt(8 e^{1/2})) = ceil(3.63...) = 4
        assert k_tail_threshold(gaussian()) == 4


class TestUnstableBranch:
    """The refusals for an equilibrium with a growing mode, on narrow_two_stream."""

    def test_strip_width_names_the_winding_mode(self):
        with pytest.raises(NoStableStripError, match="first at k = 1"):
            strip_width(narrow_two_stream())

    def test_contour_parameters_refuses_through_certified_strip(self):
        with pytest.raises(NoStableStripError, match="first at k = 1"):
            contour_parameters(narrow_two_stream(), 1, 10.0)

    def test_full_report_records_the_offender(self):
        rep = full_report(narrow_two_stream())
        assert rep.kappa0 == 0.0 and rep.theta1 == 0.0
        assert [k for k, _, _ in rep.roots] == [1]
        lam = rep.roots[0][1]
        assert abs(lam.real - NARROW_ROOT_K1) < 1e-6 and abs(lam.imag) < 1e-6


class TestStripEnvelope:
    def test_fitted_envelope_constant_stable(self):
        # |L| <= C1 / (1 + k^2 + omega^2) on Re = -theta1 |k|: fit C1 on a
        # coarse and a refined grid; the fit must be grid-stable
        ga = gaussian()
        theta1 = 0.5

        def fit(n):
            c = 0.0
            for k in (1, 2, 3, 4):
                om = np.linspace(0.0, 40.0, n)
                vals = laplace_symbol(ga, k, -theta1 * k + 1j * om)
                c = max(c, float(np.max(np.abs(vals) * (1.0 + k**2 + om**2))))
            return c

        c_coarse, c_fine = fit(801), fit(1601)
        assert c_fine > 0.0
        assert abs(c_fine - c_coarse) < 0.1 * c_fine


class TestTwoStreamClaims:
    """Negative-control family: the catalog claims two_stream(3) destabilizes
    mode 1.  On the 2 pi torus the smallest wavenumber is 1, which is above
    the bimodal instability threshold for every separation u at unit stream
    width, so these checks fail; measured values are in the assertion
    messages and the analysis is in the decisions ledger.  They are kept
    red on purpose rather than weakened.
    """

    def test_margin_vanishes(self):
        m = margin(two_stream(3.0), n_omega=4001)
        assert m.kappa0 == 0.0 and m.offenders, (
            f"two_stream(3) measured kappa0 = {m.kappa0:.6f} > 0 "
            f"(boundary min {m.boundary_min:.6f} at k={m.k_at_min}); stable"
        )

    def test_unstable_root_count(self):
        w = count_zeros(two_stream(3.0), 1, (0.0, 5.0, 20.0))
        assert w >= 1, f"winding number measured {w}: no zeros with Re >= 0"

    def test_no_stable_strip(self):
        with pytest.raises(NoStableStripError):
            strip_width(two_stream(3.0))

    def test_growth_rate_root(self):
        lam, res = landau_root(two_stream(3.0), 1)
        assert lam.real > 0.0, (
            f"dominant root measured {lam:.6g} (residual {res:.1e}): damped"
        )

    def test_margin_transition_in_separation(self):
        # claimed: margin drops to zero as the separation grows
        m = margin(two_stream(5.0), n_omega=2001)
        assert m.kappa0 == 0.0, (
            f"two_stream(5) measured kappa0 = {m.kappa0:.6f}; no transition "
            f"(minimum over u is ~0.717 near u = 2.2)"
        )
