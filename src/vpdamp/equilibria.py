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

The Maxwellian and the symmetric two-stream profile are one family,
mu_hat(eta) = cos(u eta) e^{-eta^2/2}, built by one construction
(_streams): gaussian() is two_stream at u = 0, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class Equilibrium:
    """A spatially homogeneous, even background profile mu(v) = mu(-v).

    Construction, dataclasses.replace too, refuses a mu or mu_hat that is not real and
    even to 1e-14 relative at +-3 probes (values that are not finite are left to the
    solvers): every layer relies on a real, even mu_hat.

    Equality and hashing are by identity, and penrose.strip_width keys its
    widths by the object: value equality would compare the closures by
    identity anyway, and the params dict has no hash.

    Attributes
    ----------
    name : str
        Catalog name, also used by the CLI config.
    mu, mu_prime, mu_hat : callables
        Profile, its v-derivative, and its closed-form transform.  All
        vectorized over numpy arrays.
    C0, theta0 : float
        Certified envelope |mu_hat(eta)| <= C0 exp(-theta0 |eta|).
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
    C0: float
    theta0: float
    params: dict = field(default_factory=dict)
    hat_log_envelope: Optional[Callable] = None

    def __post_init__(self):
        probes = np.array([0.3, 1.1, 2.7])
        for f, label in ((self.mu, "mu(v) = mu(-v)"), (self.mu_hat, "mu_hat(eta) = mu_hat(-eta)")):
            plus, minus = np.asarray(f(probes)), np.asarray(f(-probes))
            if np.any(np.abs(plus - minus) > 1e-14 * np.abs(plus)) or np.any(np.imag(plus) != 0):
                raise ValueError(f"{self.name}: an equilibrium must be even, with a real "
                                 f"transform; {label} in real values fails at +-{probes}")

    def __repr__(self):
        ps = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"Equilibrium({self.name}{', ' + ps if ps else ''})"


def _streams(name: str, u: float, params: dict) -> Equilibrium:
    """The stream pair mu(v) = [M(v - u) + M(v + u)] / 2, M the unit-mass Gaussian.

    mu_hat(eta) = cos(u eta) e^{-eta^2/2}, with no cosine taken at u = 0.  The
    transform decays super-exponentially; the declared envelope constants
    (theta0, C0) = (1, e^{1/2}) give the valid but deliberately loose bound
    |mu_hat(eta)| <= e^{1/2} e^{-|eta|} for every u, since |cos| <= 1 and the
    exponent -eta^2/2 + |eta| - 1/2 = -(|eta| - 1)^2 / 2 is <= 0.  At u = 0, mu and
    mu_prime equal the single Gaussian's e / sqrt(2 pi) and -v e / sqrt(2 pi) exactly,
    since 0.5 (e + e) = e and -0.5 (2 v e) = -v e involve no rounding.
    """

    def mu(v):
        v = np.asarray(v, dtype=float)
        return 0.5 * (np.exp(-0.5 * (v - u) ** 2) + np.exp(-0.5 * (v + u) ** 2)) / _SQRT2PI

    def mu_prime(v):
        v = np.asarray(v, dtype=float)
        a, b = v - u, v + u
        return -0.5 * (a * np.exp(-0.5 * a**2) + b * np.exp(-0.5 * b**2)) / _SQRT2PI

    def mu_hat(eta):
        eta = np.asarray(eta, dtype=float)
        gauss = np.exp(-0.5 * eta**2)
        return np.cos(u * eta) * gauss if u else gauss

    return Equilibrium(name=name, mu=mu, mu_prime=mu_prime, mu_hat=mu_hat, C0=math.exp(0.5),
                       theta0=1.0, params=params,
                       hat_log_envelope=lambda eta: -0.5 * np.asarray(eta, dtype=float) ** 2)


def gaussian() -> Equilibrium:
    """Unit-mass Gaussian, mu(v) = (2 pi)^{-1/2} e^{-v^2 / 2}: the stream pair at u = 0."""
    return _streams("gaussian", 0.0, {})


def two_stream(u: float) -> Equilibrium:
    """Symmetric bimodal profile: unit-width Gaussians centred at +-u (see _streams)."""
    u = float(u)
    if not (u >= 0 and math.isfinite(u)):
        raise ValueError(f"stream separation must be finite and >= 0, got {u}")
    return _streams("two_stream", u, {"u": u})


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
        C0=1e-12,
        theta0=1.0,
    )

