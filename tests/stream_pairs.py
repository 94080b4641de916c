"""Test-local stream pairs of a chosen width (the catalog's two_stream(u) has unit width).

Streams at +-u of width w: mu(v) = [M((v - u)/w) + M((v + u)/w)] / (2 w), M the
unit-mass Gaussian, with mu_hat(eta) = cos(u eta) e^{-w^2 eta^2 / 2}.  Each pair
carries the mu, mu' and mu_hat of its own width.
"""

import dataclasses
import math

import numpy as np

from vpdamp.equilibria import two_stream


def stream_pair_mu(u, w):
    """Streams at +-u of width w: mu(v) = [M((v - u)/w) + M((v + u)/w)] / (2 w)."""
    def mu(v):
        v = np.asarray(v, float)
        return 0.5 * (np.exp(-0.5 * ((v - u) / w) ** 2)
                      + np.exp(-0.5 * ((v + u) / w) ** 2)) / (w * math.sqrt(2.0 * math.pi))
    return mu


def stream_pair_mu_prime(u, w):
    """The derivative of stream_pair_mu(u, w)."""
    def mu_prime(v):
        v = np.asarray(v, float)
        a, b = (v - u) / w, (v + u) / w
        return -0.5 * (a * np.exp(-0.5 * a**2)
                       + b * np.exp(-0.5 * b**2)) / (w * w * math.sqrt(2.0 * math.pi))
    return mu_prime


def _pair_at_one(w, a):
    """Streams at +-1 of width w, a = w^2/2: mu_hat = cos(eta) e^{-a eta^2}, theta0 = w."""
    def mu_hat(eta):
        eta = np.asarray(eta, float)
        return np.cos(eta) * np.exp(-a * eta**2)

    return dataclasses.replace(
        two_stream(1.0), theta0=w,
        mu=stream_pair_mu(1.0, w), mu_prime=stream_pair_mu_prime(1.0, w), mu_hat=mu_hat,
        hat_log_envelope=lambda eta: -a * np.asarray(eta, float) ** 2)


def narrow_two_stream():
    """Streams at +-1 of width 0.3: mu_hat = cos(eta) e^{-0.045 eta^2}, unstable at k = 1
    (growth rate 0.206)."""
    return _pair_at_one(0.3, 0.045)


def wide_two_stream():
    """Streams at +-1 of width 0.6: mu_hat = cos(eta) e^{-0.18 eta^2}, stable, with a real
    k = 1 zero inside the widest strip probed, Re lambda > -theta0/2."""
    return _pair_at_one(0.6, 0.18)
