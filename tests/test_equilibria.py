import dataclasses

import numpy as np
import pytest

from vpdamp.equilibria import gaussian, two_stream, zero


def transform_quad(mu, eta, v_cut=24.0, dv=0.02):
    """Independent trapezoid transform for cross-checking closed forms."""
    v = np.arange(-v_cut, v_cut + 0.5 * dv, dv)
    f = mu(v).astype(complex)
    f[0] *= 0.5
    f[-1] *= 0.5
    return dv * np.exp(-1j * np.outer(np.atleast_1d(eta), v)) @ f


class TestGaussian:
    def test_point_values(self):
        eq = gaussian()
        assert eq.mu_hat(0.0) == pytest.approx(1.0, abs=1e-15)
        assert eq.mu_hat(1.0) == pytest.approx(0.6065306597126334, abs=1e-12)
        assert eq.mu(0.0) == pytest.approx(0.3989422804014327, abs=1e-12)

    def test_unit_mass(self):
        eq = gaussian()
        v = np.linspace(-20.0, 20.0, 40001)
        assert np.trapezoid(eq.mu(v), v) == pytest.approx(1.0, abs=1e-10)

    def test_transform_matches_quadrature(self):
        eq = gaussian()
        eta = np.linspace(-20.0, 20.0, 81)
        got = transform_quad(eq.mu, eta)
        assert np.max(np.abs(got - eq.mu_hat(eta))) < 1e-10

    def test_mu_prime_matches_difference(self):
        eq = gaussian()
        v = np.linspace(-5.0, 5.0, 101)
        h = 1e-5
        fd = (eq.mu(v + h) - eq.mu(v - h)) / (2.0 * h)
        assert np.max(np.abs(fd - eq.mu_prime(v))) < 1e-9

    def test_envelope(self):
        # |mu_hat| e^{theta0 |eta|} / C0 = e^{-(|eta| - 1)^2 / 2} peaks at exactly 1 at eta = 1
        eq = gaussian()
        eta = np.linspace(0.0, 40.0, 4001)
        ratio = np.abs(eq.mu_hat(eta)) * np.exp(eq.theta0 * eta) / eq.C0
        assert np.max(ratio) == pytest.approx(1.0, abs=1e-12)
        assert eta[np.argmax(ratio)] == pytest.approx(1.0, abs=1e-2)


class TestTwoStream:
    def test_zero_separation_degenerates(self):
        # one stream construction: at u = 0 every value is the Gaussian's, sign bits included
        ts, ga = two_stream(0.0), gaussian()
        v = np.linspace(-8.0, 8.0, 321)
        eta = np.linspace(-10.0, 10.0, 201)
        for f, x in (("mu", v), ("mu_prime", v), ("mu_hat", eta)):
            a, b = getattr(ts, f)(x), getattr(ga, f)(x)
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), f
        assert ts.C0 == ga.C0 and ts.theta0 == ga.theta0

    def test_point_values(self):
        eq = two_stream(3.0)
        assert eq.mu_hat(0.0) == pytest.approx(1.0, abs=1e-15)
        assert eq.params["u"] == 3.0
        # bumps of half mass at +-u
        assert eq.mu(3.0) == pytest.approx(0.5 * 0.3989422804014327, rel=1e-6)

    def test_unit_mass(self):
        eq = two_stream(3.0)
        v = np.linspace(-25.0, 25.0, 50001)
        assert np.trapezoid(eq.mu(v), v) == pytest.approx(1.0, abs=1e-10)

    def test_transform_matches_quadrature(self):
        eq = two_stream(3.0)
        eta = np.linspace(-20.0, 20.0, 81)
        got = transform_quad(eq.mu, eta)
        assert np.max(np.abs(got - eq.mu_hat(eta))) < 1e-10

    def test_mu_prime_matches_difference(self):
        eq = two_stream(2.0)
        v = np.linspace(-6.0, 6.0, 121)
        h = 1e-5
        fd = (eq.mu(v + h) - eq.mu(v - h)) / (2.0 * h)
        assert np.max(np.abs(fd - eq.mu_prime(v))) < 1e-9

    def test_negative_separation_rejected(self):
        with pytest.raises(ValueError):
            two_stream(-1.0)

    @pytest.mark.parametrize("u", [np.nan, np.inf])
    def test_non_finite_separation_rejected(self, u):
        with pytest.raises(ValueError, match="finite and >= 0"):
            two_stream(u)


class TestZeroStub:
    def test_identically_zero(self):
        eq = zero()
        v = np.linspace(-5.0, 5.0, 11)
        assert np.all(eq.mu(v) == 0.0)
        assert np.all(eq.mu_hat(v) == 0.0)
        assert np.all(eq.mu_prime(v) == 0.0)


CATALOG = {"gaussian": gaussian(), **{f"two_stream-{u:g}": two_stream(u) for u in (0, 1, 3, 5)},
           "zero": zero()}


@pytest.mark.parametrize("eq", CATALOG.values(), ids=CATALOG.keys())
def test_catalog_envelope(eq):
    """The declared bounds hold on a grid: |mu_hat| <= C0 e^{-theta0 |eta|}, and
    log|mu_hat| <= hat_log_envelope where one is declared (penrose._cutoff relies on it)."""
    eta = np.linspace(-40.0, 40.0, 8001)
    mag = np.abs(np.asarray(eq.mu_hat(eta), dtype=complex))
    assert np.all(mag <= eq.C0 * np.exp(-eq.theta0 * np.abs(eta)) * (1.0 + 1e-12))
    if eq.hat_log_envelope is not None:
        normal = mag >= np.finfo(float).tiny  # subnormal values carry too few digits for a log
        bound = eq.hat_log_envelope(eta[normal])
        assert np.all(np.log(mag[normal]) <= bound + 1e-12 * np.maximum(1.0, np.abs(bound)))


class TestEvenness:
    """Every layer reads mu_hat as real and even: construction refuses anything else."""

    def test_drifting_maxwellian_refused(self):
        # mu(v) = M(v - 1), mu_hat = e^{-i eta} e^{-eta^2/2}: the Galilean image of gaussian()
        ga = gaussian()
        drifted_hat = lambda eta: np.exp(-1j * np.asarray(eta, float)) * ga.mu_hat(eta)  # noqa: E731
        with pytest.raises(ValueError, match=r"must be even.*mu\(v\) = mu\(-v\)"):
            dataclasses.replace(ga, mu=lambda v: ga.mu(np.asarray(v, float) - 1.0),
                                mu_hat=drifted_hat)
        with pytest.raises(ValueError, match=r"real transform.*mu_hat\(eta\) = mu_hat\(-eta\)"):
            dataclasses.replace(ga, mu_hat=drifted_hat)

    def test_uneven_real_transform_refused(self):
        with pytest.raises(ValueError, match="must be even"):
            dataclasses.replace(gaussian(),
                                mu_hat=lambda eta: np.exp(-0.5 * (np.asarray(eta) - 0.1) ** 2))

    @pytest.mark.parametrize("eq", CATALOG.values(), ids=CATALOG.keys())
    def test_catalog_and_replaced_pairs_build(self, eq):
        # the stream pairs of the penrose and linear tests are built through replace
        pair = dataclasses.replace(
            eq, theta0=0.3, mu_hat=lambda eta: np.cos(np.asarray(eta, float))
            * np.exp(-0.045 * np.asarray(eta, float) ** 2))
        assert pair.theta0 == 0.3 and dataclasses.replace(eq).mu is eq.mu
