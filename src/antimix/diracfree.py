"""Free Dirac plane waves: large/small spinor components for spin-up motion along +z.

With omega = sqrt(k^2 + 1) the normalized positive-energy spinor has
upper = sqrt((omega + 1) / (2 omega)) and lower = k / sqrt(2 omega (omega + 1)),
so the hidden-antimatter ratio of a mode moving at beta (omega = gamma) is

    R_Dirac(beta) = (lower/upper)^2 = (gamma - 1) / (gamma + 1),

exactly the square root of the Klein-Gordon ratio at the same speed.
"""

from __future__ import annotations

import numpy as np

from .units import RatioResult, checked_beta, half_angle_tangent


def dirac_component_amplitudes(k):
    """Vectorized (upper, lower) spinor amplitudes with upper^2 + lower^2 = 1."""
    k = np.asarray(k, dtype=float)
    omega = np.sqrt(1.0 + k * k)
    upper = np.sqrt((omega + 1.0) / (2.0 * omega))
    lower = k / np.sqrt(2.0 * omega * (omega + 1.0))
    return upper, lower


def dirac_free_ratio(beta) -> RatioResult:
    """(lower/upper)^2 of a free spin-up mode carried at velocity beta.

    abs_error_estimate is the a-priori rounding bound 17/2 eps R, eps = 2^-53:
    t = half_angle_tangent(b) makes R = t * t with relative error 15/2 eps to
    first order (as derived there), and one more eps covers the terms of
    order eps^2 and taking the bound on the computed R.  It holds while R is
    a normal float, beta > 3e-154.
    """
    b = checked_beta(beta)
    t = half_angle_tangent(b)
    value = t * t
    return RatioResult(value=value, method="closed_form", abs_error_estimate=8.5 * 2.0**-53 * value)
