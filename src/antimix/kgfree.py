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
    """|chi/theta|^2 of a free mode carried at velocity beta."""
    b = float(beta)
    gamma_factor(b)  # domain check: 0 <= beta < 1
    root = math.sqrt((1.0 - b) * (1.0 + b))
    q = (1.0 - root) / (1.0 + root)
    # q * q, not q ** 2: libm pow can be an ulp off the rounded square,
    # which would break the exact square relation with the Dirac ratio
    return RatioResult(value=q * q, method="closed_form")
