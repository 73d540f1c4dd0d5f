"""Free Klein-Gordon plane waves split into matter/antimatter components.

A free mode Phi = exp(i(k z - omega t)) with omega = sqrt(k^2 + 1) decomposes
into theta = (1 + omega) Phi and chi = (1 - omega) Phi.  The hidden-antimatter
ratio of a mode moving at beta (so omega = gamma) is

    R_KG(beta) = ((1 - sqrt(1 - beta^2)) / (1 + sqrt(1 - beta^2)))^2
               = ((gamma - 1) / (gamma + 1))^2.
"""

from __future__ import annotations

import math

import numpy as np

from .units import RatioResult, gamma_factor


def kg_component_amplitudes(k):
    """Vectorized (theta, chi) amplitudes for free modes; chi uses the
    cancellation-free form 1 - omega = -k^2 / (1 + omega)."""
    k = np.asarray(k, dtype=float)
    omega = np.sqrt(1.0 + k * k)
    theta = 1.0 + omega
    chi = -(k * k) / (1.0 + omega)
    return theta, chi


def kg_free_ratio(beta) -> RatioResult:
    """|chi/theta|^2 of a free mode carried at velocity beta.

    abs_error_estimate is the a-priori rounding bound 17 eps R.  With
    eps = 2^-53, the relative errors in units of eps, to first order and in
    the order evaluated: g = sqrt((1 - b)(1 + b)) 5/2 (half of its
    argument's three roundings, plus the root's own); 1 + g 9/4 (its own
    rounding plus at most half of g's error, as g <= 1); t = b / (1 + g)
    13/4; t * t 15/2; r * r 16.  One more eps covers the terms of order
    eps^2 and taking the bound on the computed R.  It holds while R is a
    normal float, beta > 1e-76.
    """
    b = float(beta)
    gamma_factor(b)  # domain check: 0 <= beta < 1
    # t * t = (gamma - 1)/(gamma + 1) without low-speed cancellation; r * r, not
    # r ** 2 (libm pow can be an ulp off), keeps this the exact Dirac ratio squared
    t = b / (1.0 + math.sqrt((1.0 - b) * (1.0 + b)))
    r = t * t
    value = r * r
    return RatioResult(value=value, method="closed_form", abs_error_estimate=17.0 * 2.0**-53 * value)
