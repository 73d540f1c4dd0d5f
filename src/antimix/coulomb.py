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
small f = -((1 - gamma_exp)/zeta) g, R = (1 - gamma_exp)/(1 + gamma_exp).
Two energy conventions are carried side by side because they disagree at
O(zeta^4): energy_primary = (1 + zeta^2/sqrt(1 - zeta^2))^(-1/2) and the
standard Sommerfeld value energy_sommerfeld = sqrt(1 - zeta^2).

The quadrature ratio paths integrate numerator and denominator as two rows
of one smooth factor on shared nodes, in a single integrate_radial call that
applies the r^p exp(-2 decay r) weight itself.  The Klein-Gordon one shares
only the radial parameters with its closed form, so it is an independent
check.  The Dirac one is not: its rows are the constants small_coefficient^2
and 1 under one weight, so it returns small_coefficient^2 whatever the
quadrature does (ROADMAP item 3 plans an independent solver).
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
)

CLASSIFY_TOL = 1e-9

# quadrature zeta domain, the one tested and benchmarked: toward the
# critical coupling the transform order m = ceil(5/(p+1)), and the node count
# with it, grow like (critical - zeta)^(-1/2) for KG (32769 nodes at the
# margin, the 2e6-node cap near 1e-10 from 1/2); at weak coupling the closed
# forms already keep every digit, and Dirac1S refuses zeta below ~1e-8,
# where its energies round to 1
QUADRATURE_ZETA_MIN = 1e-4
QUADRATURE_ZETA_MARGIN = 1e-6

# bound_scan approaches both ends of its normalized charge axis to this margin
SCAN_AXIS_MARGIN = 1e-4


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

@dataclass(frozen=True)
class Kg1S:
    """Parameters of the Klein-Gordon 1S solution at coupling zeta."""

    zeta: float
    y: float
    energy: float
    decay: float  # exponential decay constant of the radial profile

    def __post_init__(self):
        if abs(self.decay**2 - (1.0 - self.energy**2)) > 1e-12:
            raise DomainError("inconsistent 1S parameters: decay^2 must equal 1 - E^2")


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


def kg_1s_state(zeta) -> Kg1S:
    z = _check_zeta(zeta, KG_CRITICAL_ZETA, "Klein-Gordon")
    y = _kg_y(z)
    energy = math.sqrt(0.5 + y)
    decay = z * energy / (y + 0.5)
    return Kg1S(zeta=z, y=y, energy=energy, decay=decay)


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


def _quadrature_ratio(rows, power: float, decay: float, rel_tol: float) -> RatioResult:
    """R = row 0 / row 1 of one radial quadrature of a (2, N) smooth factor."""
    (num, den), (num_err, den_err), _ = integrate_radial(rows, power, decay, rel_tol)
    value = num / den
    err = (num_err + value * den_err) / den
    return RatioResult(value=float(value), method="quadrature", abs_error_estimate=float(err))


def _clamp_quadrature_zeta(zeta, critical: float) -> float:
    z = float(zeta)
    if not (QUADRATURE_ZETA_MIN <= z <= critical - QUADRATURE_ZETA_MARGIN):
        raise DomainError(
            f"quadrature path supports zeta in [{QUADRATURE_ZETA_MIN:g}, "
            f"{critical - QUADRATURE_ZETA_MARGIN:g}], got {z:g}"
        )
    return z


def kg_1s_ratio_quadrature(state: Kg1S, rel_tol: float = 1e-10) -> RatioResult:
    """R from direct radial quadrature of the stationary component split.

    Numerator and denominator are the integrals of (1 - E - zeta/r)^2 phi^2 r^2
    and (1 + E + zeta/r)^2 phi^2 r^2 with phi^2 = r^(2y - 1) exp(-2 decay r).
    With r^2 multiplied through they are one integrate_radial call of power
    2y - 1 on the smooth rows (r (1 - E) - zeta)^2 and (r (1 + E) + zeta)^2,
    which stay finite down to r = 0.  1 - E is taken as
    zeta^2 / ((1/2 + y)(1 + E)), which does not cancel at weak coupling.
    """
    st = state if isinstance(state, Kg1S) else kg_1s_state(state)
    z = _clamp_quadrature_zeta(st.zeta, KG_CRITICAL_ZETA)
    if rel_tol < 1e-12:
        raise DomainError("rel_tol below 1e-12 is not resolvable in double precision")
    slope = np.array([[z * z / ((0.5 + st.y) * (1.0 + st.energy))], [1.0 + st.energy]])
    offset = np.array([[-z], [z]])

    def rows(r):
        w = slope * r + offset
        return w * w

    return _quadrature_ratio(rows, 2.0 * st.y - 1.0, st.decay, rel_tol)


# ---------------------------------------------------------------------------
# Dirac 1S
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dirac1S:
    """Parameters of the Dirac 1S solution at coupling zeta.

    Two energy conventions are carried because they agree only through
    O(zeta^4); see dirac_1s_energy.
    """

    zeta: float
    gamma_exp: float
    energy_primary: float
    energy_sommerfeld: float
    decay: float

    def __post_init__(self):
        if not (0.0 < self.energy_primary < 1.0 and 0.0 < self.energy_sommerfeld < 1.0):
            raise DomainError("1S energies must lie strictly between 0 and 1")
        if self.zeta <= 0.3:
            gap = abs(self.energy_primary - self.energy_sommerfeld)
            if gap > 0.25 * self.zeta**4 + 1e-12:
                raise DomainError("energy conventions must agree to zeta^4/4 at weak coupling")

    @property
    def small_coefficient(self) -> float:
        """Ratio f/g of the radial components, -zeta/(1 + gamma_exp) = -(1 - gamma_exp)/zeta.

        The large component is g ~ r^(gamma_exp - 1) exp(-decay r).
        """
        return -(self.zeta / (1.0 + self.gamma_exp))


def dirac_1s_energy(zeta) -> tuple[float, float]:
    """Both 1S energy conventions as (primary, sommerfeld).

    primary = (1 + zeta^2 / sqrt(1 - zeta^2))^(-1/2), sommerfeld = sqrt(1 - zeta^2).
    Both tend to 1 as zeta -> 0 and to 0 as zeta -> 1; they differ at O(zeta^4)
    and visibly so at strong coupling (0.156 apart at zeta = 0.9).
    """
    z = _check_zeta(zeta, DIRAC_CRITICAL_ZETA, "Dirac")
    g = math.sqrt((1.0 - z) * (1.0 + z))
    return (1.0 + z * z / g) ** -0.5, g


def dirac_1s_state(zeta) -> Dirac1S:
    z = _check_zeta(zeta, DIRAC_CRITICAL_ZETA, "Dirac")
    primary, somm = dirac_1s_energy(z)
    return Dirac1S(zeta=z, gamma_exp=math.sqrt((1.0 - z) * (1.0 + z)),
                   energy_primary=primary, energy_sommerfeld=somm, decay=z)


def dirac_1s_ratio_closed(zeta) -> RatioResult:
    z = _check_zeta(zeta, DIRAC_CRITICAL_ZETA, "Dirac")
    # (1 - g) / (1 + g) = t * t, since 1 - g = zeta^2 / (1 + g) does not cancel
    t = z / (1.0 + math.sqrt((1.0 - z) * (1.0 + z)))
    return RatioResult(value=t * t, method="closed_form")


def dirac_1s_ratio_quadrature(zeta, rel_tol: float = 1e-10) -> RatioResult:
    """R = int f^2 r^2 dr / int g^2 r^2 dr via one adaptive radial quadrature.

    g^2 r^2 = r^(2 gamma_exp) exp(-2 zeta r) and f = c g with
    c = small_coefficient, so the smooth rows are the constants c^2 and 1.
    Both rows integrate the same weight, so the ratio is c^2 whatever the
    quadrature does: this is not an independent check of the closed form
    (see ROADMAP item 3).
    """
    z = _clamp_quadrature_zeta(zeta, DIRAC_CRITICAL_ZETA)
    if rel_tol < 1e-12:
        raise DomainError("rel_tol below 1e-12 is not resolvable in double precision")
    st = dirac_1s_state(z)
    c = st.small_coefficient
    coefficients = np.array([[c * c], [1.0]])
    return _quadrature_ratio(lambda r: coefficients * np.ones_like(r),
                             2.0 * st.gamma_exp, st.decay, rel_tol)


# ---------------------------------------------------------------------------
# Classification and scans
# ---------------------------------------------------------------------------

def classify_state(ratio, tol: float = CLASSIFY_TOL) -> StateClass:
    """R < 1: net matter (Particle); R > 1: net antimatter; R = 1 within tol: Boundary."""
    value = ratio.value if isinstance(ratio, RatioResult) else float(ratio)
    if not math.isfinite(value) or value < 0.0:
        raise DomainError(f"ratio must be finite and nonnegative, got {value}")
    if value < 1.0 - tol:
        return StateClass.PARTICLE
    if value > 1.0 + tol:
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


def bound_scan(model: ModelKind, samples: int = 512) -> BoundScan:
    """Uniform scan of E and R with the axis endpoints approached to SCAN_AXIS_MARGIN."""
    if samples < 2:
        raise DomainError(f"scan needs at least 2 samples, got {samples}")
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
