"""Homogeneous velocity equilibria with closed-form Fourier transforms.

Transform convention: mu_hat(eta) = integral e^{-i eta v} mu(v) dv, so a
unit-mass profile has mu_hat(0) = 1.  Every equilibrium declares a
certified exponential envelope |mu_hat(eta)| <= C0 exp(-theta0 |eta|).
Downstream code (Laplace truncation, contour placement) treats these two
numbers as the only facts it knows about the transform tail, which keeps
all truncation choices deterministic.  Profiles whose transform decays
super-exponentially also expose the sharper bound through
hat_log_envelope, so quadrature windows do not have to pay for the
loose envelope.

The transform of the weighted profile (1 + v^2) mu(v) appears in tail
estimates as well; its peak can exceed C0 (for the Gaussian it reaches
2 at eta = 0 while C0 = e^{1/2} ~ 1.649), so it carries its own
certified constant C0_w instead of reusing C0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .spectral import phase_sum

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Equilibrium:
    """A spatially homogeneous background profile mu(v).

    Attributes
    ----------
    name : str
        Catalog name, also used by the CLI config.
    mu, mu_prime, mu_hat : callables
        Profile, its v-derivative, and its closed-form transform.  All
        vectorized over numpy arrays.
    weighted_hat : callable
        Closed-form transform of (1 + v^2) mu(v).
    C0, theta0 : float
        Certified envelope |mu_hat(eta)| <= C0 exp(-theta0 |eta|).
    C0_w : float
        Certified constant for |weighted_hat(eta)| <= C0_w exp(-theta0 |eta|).
    params : dict
        Family parameters (e.g. stream separation u).
    hat_log_envelope : callable, optional
        Sharper certified bound log|mu_hat(eta)| <= hat_log_envelope(eta),
        when one exists.  None means only the exponential envelope holds.
    """

    name: str
    mu: Callable
    mu_prime: Callable
    mu_hat: Callable
    weighted_hat: Callable
    C0: float
    theta0: float
    C0_w: float
    params: dict = field(default_factory=dict)
    hat_log_envelope: Optional[Callable] = None

    def __repr__(self):
        ps = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"Equilibrium({self.name}{', ' + ps if ps else ''})"


def gaussian() -> Equilibrium:
    """Unit-mass Gaussian, mu(v) = (2 pi)^{-1/2} e^{-v^2 / 2}.

    The transform e^{-eta^2/2} decays super-exponentially; the declared
    envelope constants (theta0, C0) = (1, e^{1/2}) give the valid but
    deliberately loose bound e^{-eta^2/2} <= e^{1/2} e^{-|eta|} (the
    exponent -eta^2/2 + |eta| - 1/2 = -(|eta| - 1)^2 / 2 is <= 0).
    """

    def mu(v):
        v = np.asarray(v, dtype=float)
        return np.exp(-0.5 * v**2) / _SQRT2PI

    def mu_prime(v):
        v = np.asarray(v, dtype=float)
        return -v * np.exp(-0.5 * v**2) / _SQRT2PI

    def mu_hat(eta):
        eta = np.asarray(eta, dtype=float)
        return np.exp(-0.5 * eta**2)

    def weighted_hat(eta):
        # transform of (1 + v^2) mu: mu_hat minus its second derivative
        eta = np.asarray(eta, dtype=float)
        return (2.0 - eta**2) * np.exp(-0.5 * eta**2)

    return Equilibrium(
        name="gaussian",
        mu=mu,
        mu_prime=mu_prime,
        mu_hat=mu_hat,
        weighted_hat=weighted_hat,
        C0=math.exp(0.5),
        theta0=1.0,
        # sup_eta |2 - eta^2| e^{|eta| - eta^2/2} ~ 2.5490, below e
        C0_w=math.e,
        hat_log_envelope=lambda eta: -0.5 * np.asarray(eta, dtype=float) ** 2,
    )


def two_stream(u: float) -> Equilibrium:
    """Symmetric bimodal profile: unit-width Gaussians centred at +-u.

    mu(v) = [M(v - u) + M(v + u)] / 2 with M the unit-mass Gaussian, so
    mu_hat(eta) = cos(u eta) e^{-eta^2/2}.  Since |cos| <= 1 the Gaussian
    envelope constants remain valid for every separation u.
    """
    if u < 0:
        raise ValueError(f"stream separation must be nonnegative, got {u}")
    u = float(u)

    def mu(v):
        v = np.asarray(v, dtype=float)
        return 0.5 * (np.exp(-0.5 * (v - u) ** 2) + np.exp(-0.5 * (v + u) ** 2)) / _SQRT2PI

    def mu_prime(v):
        v = np.asarray(v, dtype=float)
        return (
            -0.5
            * ((v - u) * np.exp(-0.5 * (v - u) ** 2) + (v + u) * np.exp(-0.5 * (v + u) ** 2))
            / _SQRT2PI
        )

    def mu_hat(eta):
        eta = np.asarray(eta, dtype=float)
        return np.cos(u * eta) * np.exp(-0.5 * eta**2)

    def weighted_hat(eta):
        eta = np.asarray(eta, dtype=float)
        c = np.cos(u * eta)
        s = np.sin(u * eta)
        return ((2.0 + u**2 - eta**2) * c - 2.0 * u * eta * s) * np.exp(-0.5 * eta**2)

    return Equilibrium(
        name="two_stream",
        mu=mu,
        mu_prime=mu_prime,
        mu_hat=mu_hat,
        weighted_hat=weighted_hat,
        C0=math.exp(0.5),
        theta0=1.0,
        C0_w=_weighted_envelope_constant(weighted_hat, theta0=1.0),
        params={"u": u},
        hat_log_envelope=lambda eta: -0.5 * np.asarray(eta, dtype=float) ** 2,
    )


def zero() -> Equilibrium:
    """Vanishing background: the density equation loses its memory term.

    A stub, not a probability profile (mass 0, not 1).  Used to isolate
    free transport in linear solves and echo experiments.
    """

    def z(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    # any positive C0 certifies a zero transform; a tiny one tells the
    # envelope tail bounds downstream that there is nothing out there
    return Equilibrium(
        name="zero",
        mu=z,
        mu_prime=z,
        mu_hat=z,
        weighted_hat=z,
        C0=1e-12,
        theta0=1.0,
        C0_w=1e-12,
    )


def _weighted_envelope_constant(weighted_hat, theta0, eta_max=40.0, n=20001) -> float:
    """Grid sup of |weighted_hat| e^{theta0 |eta|}, padded 2% for off-grid peaks."""
    eta = np.linspace(0.0, eta_max, n)
    return 1.02 * float(np.max(np.abs(weighted_hat(eta)) * np.exp(theta0 * eta)))


@dataclass(frozen=True)
class DecayReport:
    """Worst-case envelope ratios measured on an eta-grid.

    max_ratio is sup |mu_hat| e^{theta0 |eta|} / C0 over the grid; a valid
    equilibrium keeps it at or below 1.  The weighted entries repeat the
    check for the transform of (1 + v^2) mu against C0_w, computed by
    quadrature of the profile rather than from the closed form.
    """

    max_ratio: float
    worst_eta: float
    max_ratio_weighted: float
    worst_eta_weighted: float
    closed_form_error: float

    @property
    def ok(self) -> bool:
        # 1e-12 headroom: the Gaussian ratio touches 1 exactly at eta = 1
        # and grid evaluation may land an ulp above
        return self.max_ratio <= 1.0 + 1e-12 and self.max_ratio_weighted <= 1.0 + 1e-12

    def __str__(self):
        flag = "ok" if self.ok else "VIOLATED"
        return (
            f"decay envelope {flag}: ratio {self.max_ratio:.6f} at eta = "
            f"{self.worst_eta:.3f}; weighted ratio {self.max_ratio_weighted:.6f} "
            f"at eta = {self.worst_eta_weighted:.3f}"
        )


def verify_decay(eq: Equilibrium, eta_max: float = 40.0, n_samples: int = 4001) -> DecayReport:
    """Check the certified decay envelopes of an equilibrium on a grid.

    Evaluates |mu_hat(eta)| e^{theta0 eta} / C0 on eta in [0, eta_max]
    (all catalog transforms are even) and the analogous ratio for the
    (1 + v^2)-weighted transform against C0_w.  The weighted transform is
    computed by direct quadrature of the profile, so the check does not
    lean on the closed form it is meant to vet; the discrepancy between
    quadrature and closed form is reported as closed_form_error.
    """
    if eta_max <= 0:
        raise ValueError(f"eta_max must be positive, got {eta_max}")
    eta = np.linspace(0.0, eta_max, n_samples)
    growth = np.exp(eq.theta0 * eta)

    ratio = np.abs(np.asarray(eq.mu_hat(eta), dtype=complex)) * growth / eq.C0
    i = int(np.argmax(ratio))

    # The quadrature carries a roundoff floor of about 1e-13; multiplying
    # it by e^{theta0 eta} would swamp the ratio wherever the envelope
    # itself sits below that floor.  Check quadrature values only where
    # the bound is resolvable and fall back on the closed form elsewhere.
    w_quad = _transform_by_quadrature(eq, eta)
    w_closed = np.asarray(eq.weighted_hat(eta), dtype=complex)
    resolvable = eq.C0_w / growth >= 1e-12
    ratio_w = np.abs(w_closed) * growth / eq.C0_w
    ratio_w[resolvable] = np.abs(w_quad[resolvable]) * growth[resolvable] / eq.C0_w
    j = int(np.argmax(ratio_w))

    return DecayReport(
        max_ratio=float(ratio[i]),
        worst_eta=float(eta[i]),
        max_ratio_weighted=float(ratio_w[j]),
        worst_eta_weighted=float(eta[j]),
        closed_form_error=float(np.max(np.abs(w_quad - w_closed))),
    )


def _transform_by_quadrature(eq: Equilibrium, eta: np.ndarray) -> np.ndarray:
    """Trapezoid transform of (1 + v^2) mu(v) at the given frequencies.

    The velocity window is sized from the catalog profiles (Gaussian
    bumps of unit width at offsets |u| <= few): integrand below 1e-60 at
    the cut.  Spacing 0.05 puts the first alias beyond |eta| + 80, where
    the transform is long dead.
    """
    u = abs(float(eq.params.get("u", 0.0)))
    v_cut = u + 18.0
    dv = 0.05
    v = np.arange(-v_cut, v_cut + 0.5 * dv, dv)
    f = (1.0 + v**2) * np.asarray(eq.mu(v), dtype=float)
    f[0] *= 0.5
    f[-1] *= 0.5
    return phase_sum(-1j * eta, v, f) * dv
