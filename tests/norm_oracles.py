"""Test-side references for the weighted norms: the default weight point, the
pointwise weight and G of one state at one radius."""

import numpy as np

from vpdamp import norms
from vpdamp.cli import ExperimentConfig


def standard_params() -> norms.WeightParams:
    """The weight point every diagnostic defaults to: the config defaults."""
    return ExperimentConfig(eq_name="gaussian").weights()


def weight(k, eta, z: float, params):
    """A_{k,eta} = e^{z <k,eta>^gamma} <k,eta>^sigma."""
    b = norms.bracket(k, eta)
    return np.exp(z * b**params.gamma) * b**params.sigma


def gen_G(state, z: float, params) -> float:
    """The velocity-side generator functional at analyticity radius z."""
    return float(norms._G_radii(norms._folded(state, params), z)[0])
