"""Free Klein-Gordon plane waves split into matter/antimatter components.

A free mode Phi = exp(i(k z - omega t)) with omega = sqrt(k^2 + 1) decomposes
into theta = (1 + omega) Phi and chi = (1 - omega) Phi.  The hidden-antimatter
ratio of a mode moving at beta (so omega = gamma) is

    R_KG(beta) = ((1 - sqrt(1 - beta^2)) / (1 + sqrt(1 - beta^2)))^2
               = ((gamma - 1) / (gamma + 1))^2.
"""

from __future__ import annotations

import numpy as np

from .units import RatioResult, checked_beta, half_angle_tangent


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
    the order evaluated: t = half_angle_tangent(b) 13/4 and t * t 15/2 (as
    derived there); r * r 16.  One more eps covers the terms of order eps^2
    and taking the bound on the computed R.  It holds while R is a normal
    float, beta > 1e-76.
    """
    b = checked_beta(beta)
    t = half_angle_tangent(b)
    r = t * t
    # r * r, not r ** 2 (libm pow can be an ulp off), keeps this the exact
    # Dirac ratio squared
    value = r * r
    return RatioResult(value=value, method="closed_form", abs_error_estimate=17.0 * 2.0**-53 * value)
