import numpy as np
import pytest

from vpdamp.spectral import (
    BoundaryDecayError,
    Grid,
    ResolutionError,
    SpectralState,
    boundary_floors,
    check_resolution,
    eta_derivative,
    eta_mass,
    fft_convolve,
    fft_length,
    record_steps,
    required_nv,
    time_steps,
    to_eta,
    trapezoid_convolve,
)

SQRT2PI = np.sqrt(2.0 * np.pi)


def mode_one_state(grid, vals):
    """State with g_1 = vals, g_-1 = conj(vals) and every other mode zero."""
    st = SpectralState(grid, np.zeros((grid.n_modes, grid.N_v)))
    st.data[grid.mode_index(1)] = vals
    st.data[grid.mode_index(-1)] = np.conj(vals)
    return st


def decayed_state(grid, seed=0):
    """Random smooth-ish state with Gaussian velocity decay."""
    rng = np.random.default_rng(seed)
    shape = (grid.n_modes, grid.N_v)
    data = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.exp(
        -0.5 * grid.v**2
    )
    return SpectralState(grid, data)


class TestGrid:
    def test_spacings(self):
        g = Grid(k_max=4, V=10.0, N_v=128)
        assert g.dv == pytest.approx(20.0 / 128)
        assert g.deta == pytest.approx(np.pi / 10.0)
        assert g.dv * g.deta == pytest.approx(2.0 * np.pi / g.N_v)

    def test_velocity_nodes(self):
        g = Grid(k_max=1, V=5.0, N_v=10)
        assert g.v[0] == -5.0
        assert g.v[-1] == pytest.approx(5.0 - g.dv)
        assert np.all(np.diff(g.v) > 0)

    def test_eta_nodes_ascending_and_centred(self):
        g = Grid(k_max=1, V=8.0, N_v=64)
        assert np.all(np.diff(g.eta) > 0)
        assert g.eta[g.N_v // 2] == 0.0
        assert g.eta[0] == pytest.approx(-g.deta * g.N_v / 2)

    def test_mode_indexing(self):
        g = Grid(k_max=3, V=1.0, N_v=4)
        assert g.n_modes == 7
        assert g.mode_index(-3) == 0
        assert g.mode_index(0) == 3
        assert g.mode_index(3) == 6
        with pytest.raises(ValueError):
            g.mode_index(4)

    @pytest.mark.parametrize("kwargs", [
        dict(k_max=0, V=1.0, N_v=4),
        dict(k_max=1, V=0.0, N_v=4),
        dict(k_max=1, V=1.0, N_v=5),
        dict(k_max=1, V=float("nan"), N_v=4),
        dict(k_max=1, V=float("inf"), N_v=4),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Grid(**kwargs)

    def test_required_nv(self):
        # resolution rule N_v >= (2V/pi) k_max t
        assert required_nv(8.0, 8, 20.0) >= 2 * 8.0 / np.pi * 8 * 20.0
        assert required_nv(8.0, 1, 5.0) <= required_nv(8.0, 1, 10.0)


class TestTransform:
    def test_gaussian_closed_form(self):
        g = Grid(k_max=1, V=12.0, N_v=256)
        st = mode_one_state(g, np.exp(-0.5 * g.v**2))
        got = to_eta(st, 1)
        want = SQRT2PI * np.exp(-0.5 * g.eta**2)
        assert np.max(np.abs(got - want)) < 1e-12 * SQRT2PI

    def test_parseval_exact(self):
        # discrete identity, no decay assumptions beyond the boundary gate
        g = Grid(k_max=1, V=9.0, N_v=64)
        st = decayed_state(g, seed=3)
        row = st.mode(0)
        lhs = g.dv * np.sum(np.abs(row) ** 2)
        rhs = g.deta * np.sum(np.abs(to_eta(st, 0)) ** 2) / (2.0 * np.pi)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_eta_derivative_closed_form(self):
        g = Grid(k_max=1, V=12.0, N_v=256)
        st = mode_one_state(g, np.exp(-0.5 * g.v**2))
        got = eta_derivative(st, 1)
        want = -g.eta * SQRT2PI * np.exp(-0.5 * g.eta**2)
        assert np.max(np.abs(got - want)) < 1e-11

    def test_boundary_gate(self):
        g = Grid(k_max=1, V=6.0, N_v=64)
        st = mode_one_state(g, np.ones(g.N_v))
        with pytest.raises(BoundaryDecayError, match="enlarge V"):
            to_eta(st, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_fails_gate(self, bad):
        # a decayed Gaussian with one bad sample away from the edges: NaN compares
        # False with every edge tolerance, so the gate must test finiteness itself
        g = Grid(k_max=1, V=8.0, N_v=64)
        st = mode_one_state(g, np.exp(-0.5 * g.v**2))
        st.data[g.mode_index(1), g.N_v // 2] = bad
        for transform in (lambda: to_eta(st, 1), lambda: to_eta(st, 0),
                          lambda: eta_derivative(st, 1), lambda: eta_mass(st)):
            with pytest.raises(BoundaryDecayError, match="the state is not finite"):
                transform()

    def test_zero_state_passes_gate(self):
        g = Grid(k_max=1, V=6.0, N_v=64)
        st = SpectralState(g, np.zeros((g.n_modes, g.N_v)))
        assert np.all(to_eta(st, 0) == 0.0)


class TestEtaTables:
    @pytest.mark.parametrize("k_max, n_v", [(2, 256), (3, 1000), (8, 2048), (16, 2048)])
    def test_rows_equal_per_mode_transforms(self, k_max, n_v):
        g = Grid(k_max=k_max, V=8.0, N_v=n_v)
        st = decayed_state(g, seed=k_max)
        mass = eta_mass(st)
        for i, k in enumerate(g.modes):
            want = np.abs(to_eta(st, int(k))) ** 2 + np.abs(eta_derivative(st, int(k))) ** 2
            assert np.array_equal(mass[i], want)

    def test_boundary_error_names_first_mode(self):
        g = Grid(k_max=3, V=10.0, N_v=64)
        st = decayed_state(g, seed=3)
        st.data[g.mode_index(2), -1] = 1e-3
        st.data[g.mode_index(-1), 0] = 1e-4
        expected = None
        for k in g.modes:
            try:
                to_eta(st, int(k))
            except BoundaryDecayError as exc:
                expected = str(exc)
                break
        assert "k=-1" in expected
        with pytest.raises(BoundaryDecayError) as err:
            eta_mass(st)
        assert str(err.value) == expected

    def test_zero_state(self):
        g = Grid(k_max=2, V=6.0, N_v=64)
        mass = eta_mass(SpectralState(g, np.zeros((g.n_modes, g.N_v))))
        assert mass.shape == (g.n_modes, g.N_v)
        assert np.all(mass == 0.0)


class TestState:
    def test_shape_check(self):
        g = Grid(k_max=1, V=8.0, N_v=64)
        with pytest.raises(ValueError, match="shape"):
            SpectralState(g, np.zeros((2, 64)))

    def test_boundary_floor(self):
        g = Grid(k_max=1, V=6.0, N_v=64)
        st = decayed_state(g)
        assert 0.0 < np.max(boundary_floors(np.abs(st.data) ** 2)) < 1e-6
        assert np.max(boundary_floors(np.zeros((g.n_modes, g.N_v)))) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_boundary_floors_of_a_non_finite_state_are_nan(self, bad):
        # an inf max would make every finite edge's ratio 0 and pass the state
        a2 = np.abs(decayed_state(Grid(k_max=1, V=8.0, N_v=64)).data) ** 2
        a2[2, 32] = bad
        assert np.all(np.isnan(boundary_floors(a2)))

    def test_boundary_floors_are_per_mode_against_the_state_max(self):
        a2 = np.array([[4.0, 16.0, 1.0], [0.0, 1.0, 0.0], [1e-2, 2.0, 0.0]])
        want = np.sqrt(np.array([4.0, 0.0, 1e-2]) / 16.0)
        np.testing.assert_array_equal(boundary_floors(a2), want)

    def test_one_refusal_message(self):
        g = Grid(k_max=1, V=6.0, N_v=64)
        st = SpectralState(g, np.zeros((g.n_modes, g.N_v)))
        st.data[g.mode_index(-1), -1], st.data[g.mode_index(0), 10] = 1e-3, 1.0
        with pytest.raises(BoundaryDecayError, match=r"^mode k=-1 has boundary floor 1\.000e-03 "
                           r"at \|v\| = V \(tolerance 1e-12\); enlarge V$"):
            eta_mass(st)


def smooth_235(n):
    """Brute-force smallest m >= max(n, 1) with no prime factor above 5."""
    m = max(n, 1)
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


class TestFFTConvolve:
    def test_fft_length_is_the_smallest_235_smooth_bound(self):
        assert [fft_length(n) for n in range(1, 5001)] == [smooth_235(n) for n in range(1, 5001)]
        # the criterion-2 grid's products and top Volterra split; 81 = 3^4 is its own length
        assert (fft_length(40001), fft_length(29999), fft_length(81)) == (40500, 30000, 81)

    @pytest.mark.parametrize("sizes", [(3, 5), (500, 502), (20001, 20001)],
                             ids=["7", "1001", "40001"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_direct_convolution(self, sizes, dtype):
        # linear-convolution lengths 7, 1001 and 40001 pad to 8, 1024 and 40500, not 2^k
        rng = np.random.default_rng(11)
        a = rng.normal(size=sizes[0]) + (1j * rng.normal(size=sizes[0]) if dtype is complex else 0)
        b = rng.normal(size=sizes[1])
        ref = np.convolve(a, b)
        got = fft_convolve(a, b, ref.size)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.iscomplexobj(got) == (dtype is complex)


class TestTrapezoidConvolve:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_direct_sum(self, dtype):
        rng = np.random.default_rng(7)
        a = rng.normal(size=300).astype(dtype)
        b = rng.normal(size=300) + (1j * rng.normal(size=300) if dtype is complex else 0.0)
        ref = 0.01 * (np.convolve(a, b)[:300] - 0.5 * a * b[0] - 0.5 * a[0] * b)
        got = trapezoid_convolve(a, b, 0.01)
        assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))
        assert np.iscomplexobj(got) == np.iscomplexobj(ref)

    def test_exact_integral_of_linear_product(self):
        # int_0^t (t - s) ds = t^2 / 2: the trapezoid rule is exact on lines
        t = 0.05 * np.arange(41)
        got = trapezoid_convolve(t, np.ones_like(t), 0.05)
        assert np.max(np.abs(got - 0.5 * t**2)) < 1e-14


class TestRunRules:
    def test_time_steps(self):
        assert time_steps(0.1, 1.0) == 10
        assert time_steps(1e-3, 0.0) == 0  # a one-sample grid

    def test_time_steps_names_every_failure(self):
        with pytest.raises(ValueError) as err:
            time_steps(0.0, -1.0)
        parts = str(err.value).split("; ")
        assert [p.split(":")[0] for p in parts] == ["dt", "T"]
        assert "positive" in parts[0] and "T >= 0" in parts[1]
        for dt, T in ((1e-9, 100.0), (1e-300, 1e300)):  # the second overflows T/dt
            with pytest.raises(ValueError, match="1e7 steps"):
                time_steps(dt, T)

    def test_record_steps_end_with_the_last_step(self):
        assert record_steps(10, 3) == [0, 3, 6, 9, 10]
        assert record_steps(10, 5) == [0, 5, 10]
        assert record_steps(0, 4) == [0]

    def test_check_resolution(self):
        need = required_nv(8.0, 4, 20.0)
        check_resolution(8.0, 4, need, 20.0)
        with pytest.raises(ResolutionError, match=r"N_v >= 2\*V\*k_max\*T/pi \+ 1"):
            check_resolution(8.0, 4, need - 1, 20.0)
