"""Free Dirac plane waves: large/small spinor components for spin-up motion along +z.

With omega = sqrt(k^2 + 1) the normalized positive-energy spinor has
upper = sqrt((omega + 1) / (2 omega)) and lower = k / sqrt(2 omega (omega + 1)),
so the hidden-antimatter ratio of a mode moving at beta (omega = gamma) is

    R_Dirac(beta) = (lower/upper)^2 = (gamma - 1) / (gamma + 1),

exactly the square root of the Klein-Gordon ratio at the same speed.
"""

from __future__ import annotations

import math

import numpy as np

from .units import RatioResult, gamma_factor


def dirac_component_amplitudes(k):
    """Vectorized (upper, lower) spinor amplitudes with upper^2 + lower^2 = 1."""
    k = np.asarray(k, dtype=float)
    omega = np.sqrt(1.0 + k * k)
    upper = np.sqrt((omega + 1.0) / (2.0 * omega))
    lower = k / np.sqrt(2.0 * omega * (omega + 1.0))
    return upper, lower


def dirac_free_ratio(beta) -> RatioResult:
    """(lower/upper)^2 of a free spin-up mode carried at velocity beta."""
    b = float(beta)
    gamma_factor(b)  # domain check: 0 <= beta < 1
    # t * t = (gamma - 1) / (gamma + 1) without the low-speed cancellation
    t = b / (1.0 + math.sqrt((1.0 - b) * (1.0 + b)))
    return RatioResult(value=t * t, method="closed_form")
