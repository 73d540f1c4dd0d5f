"""Hydrogenlike 1S states and their hidden-antimatter ratios.

Klein-Gordon 1S in a point Coulomb potential V = -zeta/r (natural units):

    y      = sqrt(1/4 - zeta^2)            (exists for zeta < 1/2)
    E      = sqrt(1/2 + y)
    phi(r) ~ r^(y - 1/2) exp(-lambda r),   lambda = zeta E / (y + 1/2)

and the stationary split theta = (1 + E + zeta/r) phi, chi = (1 - E - zeta/r) phi
gives R as a ratio of three Gamma-function moments; the closed form is

    R = 1 - 4 / (2 + (y + 1/2)^(1/2) + (y + 1/2)^(3/2) / (2 y)),

evaluated without the cancellation at weak coupling as (u - 1)^2 (3u + 2) / (2y D),
u = (y + 1/2)^(1/2), D the denominator above, with y = sqrt((1/2 - zeta)(1/2 + zeta)).

Dirac 1S: gamma_exp = sqrt(1 - zeta^2), large g ~ r^(gamma_exp - 1) exp(-zeta r),
small f = -c g with c = (1 - gamma_exp)/zeta = half_angle_tangent(zeta), so
R = c^2 = (1 - gamma_exp)/(1 + gamma_exp).  dirac_1s_energy returns two energy
conventions side by side because they disagree at O(zeta^4): the primary
(1 + zeta^2/sqrt(1 - zeta^2))^(-1/2) and the standard Sommerfeld value
sqrt(1 - zeta^2).

The quadrature ratio paths integrate numerator and denominator as two rows
of one smooth factor on shared nodes, in a single integrate_radial call.
Neither is an independent check of its closed form: the Klein-Gordon rows
are quadratics in r, which the Gauss rule integrates exactly, so it checks
the closed form's three-moment algebra; the Dirac rows are the constants
c^2 and 1 under one weight, so it returns c^2 whatever the quadrature does
(ROADMAP item 3 plans an independent solver).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quad import integrate_radial
from .units import (
    DIRAC_CRITICAL_ZETA,
    KG_CRITICAL_ZETA,
    ModelKind,
    RatioResult,
    StateClass,
    half_angle_tangent,
)

CLASSIFY_TOL = 1e-9

# quadrature zeta domain: the one tested and benchmarked, which is why it
# stops here (the 4-node rule costs the same at any zeta); widening it
# toward the closed forms' domains changes the documented contract
QUADRATURE_ZETA_MIN = 1e-4
QUADRATURE_ZETA_MARGIN = 1e-6

# bound_scan approaches both ends of its normalized charge axis to this margin
SCAN_AXIS_MARGIN = 1e-4
DEFAULT_SCAN_SAMPLES = 512  # fig2 and fig4, and scan unless --samples says otherwise
# bound_scan refuses more samples than this: `scan --model dirac` at 2**20
# samples takes ~5 s, peaks at ~340 MiB and writes ~97 MiB (2-vCPU Xeon)
MAX_SCAN_SAMPLES = 2**20


def _check_zeta(zeta, critical: float, what: str) -> float:
    z = float(zeta)
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError(f"zeta must be positive, got {zeta}")
    if z >= critical:
        raise DomainError(f"zeta = {z:g} is at or above the {what} critical coupling {critical:g}")
    return z


# ---------------------------------------------------------------------------
# Klein-Gordon 1S
# ---------------------------------------------------------------------------

def _kg_y(z: float) -> float:
    """y = sqrt(1/4 - zeta^2), factored so that it keeps its digits as zeta -> 1/2."""
    return math.sqrt((0.5 - z) * (0.5 + z))


def kg_1s_energy(zeta) -> float:
    """1S energy sqrt(1/2 + sqrt(1/4 - zeta^2)); reaches 1/sqrt(2) at zeta = 1/2."""
    z = float(zeta)
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError(f"zeta must be positive, got {zeta}")
    if z > KG_CRITICAL_ZETA:
        raise DomainError(f"zeta = {z:g} exceeds the Klein-Gordon critical coupling 1/2")
    return math.sqrt(0.5 + _kg_y(z))


def _kg_radial(z: float) -> tuple[float, float, float]:
    """y, E and the decay constant lambda = zeta E / (y + 1/2) at a checked zeta."""
    y = _kg_y(z)
    energy = math.sqrt(0.5 + y)
    return y, energy, z * energy / (y + 0.5)


def kg_1s_ratio_closed(zeta) -> RatioResult:
    """Closed-form R; abs_error_estimate is the a-priori rounding bound 34 eps R.

    With eps = 2^-53, the relative errors in units of eps, to first order
    and in the order evaluated: y 5/2 (half of its argument's three
    roundings, plus the root's own); s = y + 1/2 9/4 (y <= 1/2); u = sqrt(s)
    17/8; u + 1 33/16; u - 1 = -zeta^2 / (s (u + 1)) 117/16; s u / (2y) 71/8;
    d = (2 + u) + that 79/8 (a sum of positive terms); 3u + 2 23/8;
    (u - 1)^2 (3u + 2) 39/2; 2y d 107/8; R, their quotient, 271/8.
    Rounding 271/8 up to 34 covers the terms of order eps^2.  It holds
    while R is a normal float, zeta > 1e-76.
    """
    z = _check_zeta(zeta, KG_CRITICAL_ZETA, "Klein-Gordon")
    y = _kg_y(z)
    s = y + 0.5
    u = math.sqrt(s)
    # 1 - 4/D = (u - 1)^2 (3u + 2) / (2y D) with D = 2 + u + s u/(2y), since
    # y = u^2 - 1/2; u - 1 = -zeta^2 / (s (u + 1)) does not cancel as zeta -> 0
    u_minus_1 = -z * z / (s * (u + 1.0))
    d = 2.0 + u + s * u / (2.0 * y)
    r = u_minus_1 * u_minus_1 * (3.0 * u + 2.0) / (2.0 * y * d)
    return RatioResult(value=r, method="closed_form", abs_error_estimate=34.0 * 2.0**-53 * r)


def _quadrature_ratio(rows, power: float, decay: float) -> RatioResult:
    """R = row 0 / row 1 of one radial quadrature of a (2, N) smooth factor;
    its estimate adds 2^-53 R, the rounding of the quotient, to the rows'."""
    value, err, _ = integrate_radial(rows, power, decay)
    (num, den), (num_err, den_err) = value.tolist(), err.tolist()
    ratio = num / den
    return RatioResult(value=ratio, method="quadrature",
                       abs_error_estimate=(num_err + ratio * den_err) / den + 2.0**-53 * ratio)


def _clamp_quadrature_zeta(zeta, critical: float) -> float:
    z = float(zeta)
    if not (QUADRATURE_ZETA_MIN <= z <= critical - QUADRATURE_ZETA_MARGIN):
        raise DomainError(
            f"quadrature path supports zeta in [{QUADRATURE_ZETA_MIN:g}, "
            f"{critical - QUADRATURE_ZETA_MARGIN:g}], got {z:g}"
        )
    return z


def kg_1s_ratio_quadrature(zeta) -> RatioResult:
    """R from direct radial quadrature of the stationary component split.

    Numerator and denominator are the integrals of (1 - E - zeta/r)^2 phi^2 r^2
    and (1 + E + zeta/r)^2 phi^2 r^2 with phi^2 = r^(2y - 1) exp(-2 decay r).
    With r^2 multiplied through they are one integrate_radial call of power
    2y - 1 on the smooth rows (r (1 - E) - zeta)^2 and (r (1 + E) + zeta)^2,
    which stay finite down to r = 0.  1 - E is taken as
    zeta^2 / ((1/2 + y)(1 + E)), which does not cancel at weak coupling.
    """
    z = _clamp_quadrature_zeta(zeta, KG_CRITICAL_ZETA)
    y, energy, decay = _kg_radial(z)
    slope = np.array([[z * z / ((0.5 + y) * (1.0 + energy))], [1.0 + energy]])
    offset = np.array([[-z], [z]])

    def rows(r):
        w = slope * r
        w += offset
        w *= w
        return w

    return _quadrature_ratio(rows, 2.0 * y - 1.0, decay)


# ---------------------------------------------------------------------------
# Dirac 1S
# ---------------------------------------------------------------------------

def _dirac_gamma_exp(z: float) -> float:
    """gamma_exp = sqrt(1 - zeta^2), factored so that it keeps its digits as zeta -> 1."""
    return math.sqrt((1.0 - z) * (1.0 + z))


def dirac_1s_energy(zeta) -> tuple[float, float]:
    """Both 1S energy conventions as (primary, sommerfeld).

    primary = (1 + zeta^2 / sqrt(1 - zeta^2))^(-1/2), sommerfeld = sqrt(1 - zeta^2).
    Both tend to 1 as zeta -> 0 and to 0 as zeta -> 1; they differ at O(zeta^4)
    and visibly so at strong coupling (0.156 apart at zeta = 0.9).
    """
    z = _check_zeta(zeta, DIRAC_CRITICAL_ZETA, "Dirac")
    g = _dirac_gamma_exp(z)
    return (1.0 + z * z / g) ** -0.5, g


def dirac_1s_ratio_closed(zeta) -> RatioResult:
    """(1 - gamma_exp) / (1 + gamma_exp) = t * t, t = half_angle_tangent(zeta).

    abs_error_estimate is the a-priori rounding bound 17/2 eps R, eps = 2^-53,
    the same count as dirac_free_ratio's.  It holds while R is a normal
    float, zeta > 3e-154.
    """
    z = _check_zeta(zeta, DIRAC_CRITICAL_ZETA, "Dirac")
    t = half_angle_tangent(z)
    value = t * t
    return RatioResult(value=value, method="closed_form", abs_error_estimate=8.5 * 2.0**-53 * value)


def dirac_1s_ratio_quadrature(zeta) -> RatioResult:
    """R = int f^2 r^2 dr / int g^2 r^2 dr via one radial quadrature.

    g^2 r^2 = r^(2 gamma_exp) exp(-2 zeta r) and f = -c g with
    c = half_angle_tangent(zeta), so the smooth rows are the constants c^2 and 1.
    Both rows integrate the same weight, so the ratio is c^2 whatever the
    quadrature does: this is not an independent check of the closed form
    (see ROADMAP item 3).
    """
    z = _clamp_quadrature_zeta(zeta, DIRAC_CRITICAL_ZETA)
    c = half_angle_tangent(z)
    coefficients = np.array([[c * c], [1.0]])
    return _quadrature_ratio(lambda r: np.repeat(coefficients, r.size, axis=1),
                             2.0 * _dirac_gamma_exp(z), z)


# ---------------------------------------------------------------------------
# Classification and scans
# ---------------------------------------------------------------------------

def classify_state(ratio) -> StateClass:
    """R < 1: net matter (Particle); R > 1: net antimatter; R = 1 within CLASSIFY_TOL: Boundary."""
    value = ratio.value if isinstance(ratio, RatioResult) else float(ratio)
    if not math.isfinite(value) or value < 0.0:
        raise DomainError(f"ratio must be finite and nonnegative, got {value}")
    if value < 1.0 - CLASSIFY_TOL:
        return StateClass.PARTICLE
    if value > 1.0 + CLASSIFY_TOL:
        return StateClass.ANTIPARTICLE
    return StateClass.BOUNDARY


@dataclass(frozen=True)
class BoundScan:
    """Closed-form 1S scan over the open coupling domain.

    axis is the nuclear-charge axis in units of the critical charge at
    alpha = 1/137 exactly: 2*zeta (Z/68.5) for Klein-Gordon, zeta (Z/137)
    for Dirac.  energy_sommerfeld is None for Klein-Gordon.
    """

    model: ModelKind
    zeta: np.ndarray
    axis: np.ndarray
    energy: np.ndarray
    ratio: np.ndarray
    energy_sommerfeld: np.ndarray | None = None


def bound_scan(model: ModelKind, samples: int = DEFAULT_SCAN_SAMPLES) -> BoundScan:
    """Uniform scan of E and R with the axis endpoints approached to SCAN_AXIS_MARGIN.

    samples must lie in [2, MAX_SCAN_SAMPLES]; it is checked before any array is built.
    """
    if not 2 <= samples <= MAX_SCAN_SAMPLES:
        raise DomainError(f"scan needs 2 to {MAX_SCAN_SAMPLES} samples, got {samples}")
    axis = np.linspace(SCAN_AXIS_MARGIN, 1.0 - SCAN_AXIS_MARGIN, samples)
    if model is ModelKind.KLEIN_GORDON:
        zetas = 0.5 * axis
        energy = np.array([kg_1s_energy(z) for z in zetas])
        ratio = np.array([kg_1s_ratio_closed(z).value for z in zetas])
        somm = None
    elif model is ModelKind.DIRAC:
        zetas = axis.copy()
        pairs = [dirac_1s_energy(z) for z in zetas]
        energy = np.array([p[0] for p in pairs])
        somm = np.array([p[1] for p in pairs])
        ratio = np.array([dirac_1s_ratio_closed(z).value for z in zetas])
    else:
        raise DomainError(f"unknown model {model}")
    # deeper binding and larger antimatter admixture with stronger coupling
    if not (np.all(np.diff(energy) < 0.0) and np.all(np.diff(ratio) > 0.0)):
        raise DomainError("bound scan lost monotonicity; refine the sampling")
    if somm is not None and not np.all(np.diff(somm) < 0.0):
        raise DomainError("bound scan lost monotonicity; refine the sampling")
    return BoundScan(model=model, zeta=zetas, axis=axis, energy=energy,
                     ratio=ratio, energy_sommerfeld=somm)
