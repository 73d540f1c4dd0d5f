"""Hydrogenlike 1S states and their hidden-antimatter ratios.

Klein-Gordon 1S in a point Coulomb potential V = -zeta/r (natural units):

    y      = sqrt(1/4 - zeta^2)            (exists for zeta < 1/2)
    E      = sqrt(1/2 + y)
    phi(r) ~ r^(y - 1/2) exp(-lambda r),   lambda = zeta E / (y + 1/2)

and the stationary split theta = (1 + E + zeta/r) phi, chi = (1 - E - zeta/r) phi
gives R as a ratio of three Gamma-function moments; the closed form used here is

    R = 1 - 4 / (2 + (y + 1/2)^(1/2) + (y + 1/2)^(3/2) / (2 y)).

Dirac 1S: gamma_exp = sqrt(1 - zeta^2), large g ~ r^(gamma_exp - 1) exp(-zeta r),
small f = -((1 - gamma_exp)/zeta) g, R = (1 - gamma_exp)/(1 + gamma_exp).
Two energy conventions are carried side by side because they disagree at
O(zeta^4): energy_primary = (1 + zeta^2/sqrt(1 - zeta^2))^(-1/2) and the
standard Sommerfeld value energy_sommerfeld = sqrt(1 - zeta^2).

The quadrature ratio paths integrate the radial profiles numerically and share
nothing with the closed forms beyond the radial parameters, so they act as an
independent check.
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

# quadrature zeta domain is clamped away from the endpoints: the r^(2y-1)
# singularity (KG) concentrates integrand mass below the float64 range as
# y -> 0, and zeta -> 0 leaves nothing to resolve
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


def schroedinger_binding(zeta, n: int = 1) -> float:
    """Nonrelativistic binding energy zeta^2 / (2 n^2) of level n."""
    z = float(zeta)
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError(f"zeta must be positive, got {zeta}")
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"principal quantum number must be a positive integer, got {n}")
    return z * z / (2.0 * n * n)


# ---------------------------------------------------------------------------
# Klein-Gordon 1S
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kg1S:
    """Parameters of the Klein-Gordon 1S solution at coupling zeta."""

    zeta: float
    y: float
    energy: float
    lprime: float  # effective radial exponent y - 1/2
    decay: float  # exponential decay constant of the radial profile

    def __post_init__(self):
        if abs(self.decay**2 - (1.0 - self.energy**2)) > 1e-12:
            raise DomainError("inconsistent 1S parameters: decay^2 must equal 1 - E^2")
        if abs(self.lprime - (self.y - 0.5)) > 1e-12:
            raise DomainError("inconsistent 1S parameters: lprime must equal y - 1/2")

    def radial(self, r):
        """Unnormalized radial profile r^lprime exp(-decay r)."""
        r = np.asarray(r, dtype=float)
        return r**self.lprime * np.exp(-self.decay * r)


def kg_1s_energy(zeta) -> float:
    """1S energy sqrt(1/2 + sqrt(1/4 - zeta^2)); reaches 1/sqrt(2) at zeta = 1/2."""
    z = float(zeta)
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError(f"zeta must be positive, got {zeta}")
    if z > KG_CRITICAL_ZETA:
        raise DomainError(f"zeta = {z:g} exceeds the Klein-Gordon critical coupling 1/2")
    return math.sqrt(0.5 + math.sqrt(0.25 - z * z))


def kg_1s_state(zeta) -> Kg1S:
    z = _check_zeta(zeta, KG_CRITICAL_ZETA, "Klein-Gordon")
    y = math.sqrt(0.25 - z * z)
    energy = math.sqrt(0.5 + y)
    decay = z * energy / (y + 0.5)
    return Kg1S(zeta=z, y=y, energy=energy, lprime=y - 0.5, decay=decay)


def kg_1s_ratio_closed(zeta) -> RatioResult:
    z = _check_zeta(zeta, KG_CRITICAL_ZETA, "Klein-Gordon")
    y = math.sqrt(0.25 - z * z)
    s = y + 0.5
    r = 1.0 - 4.0 / (2.0 + s**0.5 + s**1.5 / (2.0 * y))
    return RatioResult(value=r, method="closed_form")


def _clamp_quadrature_zeta(zeta, critical: float) -> float:
    z = float(zeta)
    if not (QUADRATURE_ZETA_MIN <= z <= critical - QUADRATURE_ZETA_MARGIN):
        raise DomainError(
            f"quadrature path supports zeta in [{QUADRATURE_ZETA_MIN:g}, "
            f"{critical - QUADRATURE_ZETA_MARGIN:g}], got {z:g}"
        )
    return z


def kg_1s_ratio_quadrature(state: Kg1S, rel_tol: float = 1e-10,
                           radial_scale: float = 1.0) -> RatioResult:
    """R from direct radial quadrature of the stationary component split.

    Numerator and denominator integrands are (1 - E - zeta/r)^2 phi^2 r^2 and
    (1 + E + zeta/r)^2 phi^2 r^2; both behave like r^(2y - 1) near the origin.
    radial_scale multiplies phi and must cancel exactly in the ratio.
    """
    st = state if isinstance(state, Kg1S) else kg_1s_state(state)
    z = _clamp_quadrature_zeta(st.zeta, KG_CRITICAL_ZETA)
    if rel_tol < 1e-12:
        raise DomainError("rel_tol below 1e-12 is not resolvable in double precision")
    scale = float(radial_scale)

    def numerator(r):
        phi = scale * st.radial(r)
        return (1.0 - st.energy - z / r) ** 2 * phi * phi * r * r

    def denominator(r):
        phi = scale * st.radial(r)
        return (1.0 + st.energy + z / r) ** 2 * phi * phi * r * r

    floor = 2.0 * st.y - 1.0
    num, num_err, _ = integrate_radial(numerator, floor, st.decay, rel_tol)
    den, den_err, _ = integrate_radial(denominator, floor, st.decay, rel_tol)
    value = num / den
    err = (num_err + value * den_err) / den
    return RatioResult(value=value, method="quadrature", abs_error_estimate=err)


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

    def large(self, r):
        """Unnormalized large radial component r^(gamma_exp - 1) exp(-decay r)."""
        r = np.asarray(r, dtype=float)
        return r ** (self.gamma_exp - 1.0) * np.exp(-self.decay * r)

    def small(self, r):
        """Small radial component, -((1 - gamma_exp)/zeta) times the large one."""
        return -((1.0 - self.gamma_exp) / self.zeta) * self.large(r)


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
    g = math.sqrt((1.0 - z) * (1.0 + z))
    return RatioResult(value=(1.0 - g) / (1.0 + g), method="closed_form")


def dirac_1s_ratio_quadrature(zeta, rel_tol: float = 1e-10, radial_scale: float = 1.0) -> RatioResult:
    """R = int f^2 r^2 dr / int g^2 r^2 dr via adaptive radial quadrature."""
    z = _clamp_quadrature_zeta(zeta, DIRAC_CRITICAL_ZETA)
    if rel_tol < 1e-12:
        raise DomainError("rel_tol below 1e-12 is not resolvable in double precision")
    st = dirac_1s_state(z)
    scale = float(radial_scale)

    def numerator(r):
        f = scale * st.small(r)
        return f * f * r * r

    def denominator(r):
        g = scale * st.large(r)
        return g * g * r * r

    floor = 2.0 * st.gamma_exp
    num, num_err, _ = integrate_radial(numerator, floor, st.decay, rel_tol)
    den, den_err, _ = integrate_radial(denominator, floor, st.decay, rel_tol)
    value = num / den
    err = (num_err + value * den_err) / den
    return RatioResult(value=value, method="quadrature", abs_error_estimate=err)


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
