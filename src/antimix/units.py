"""Natural-unit conventions and shared vocabulary.

Everything downstream works in hbar = c = m0 = 1: energies are E/(m0 c^2),
wavenumbers are hbar k/(m0 c), velocities are v/c, and the Coulomb coupling
is the dimensionless zeta = Z*alpha.  Critical couplings: zeta = 1/2 for the
Klein-Gordon 1S state, zeta = 1 for the Dirac 1S state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import DomainError

# CODATA 2018 fine-structure constant; zeta_from_z and the CLI's --alpha take another.
CODATA_ALPHA = 1.0 / 137.035999084

KG_CRITICAL_ZETA = 0.5
DIRAC_CRITICAL_ZETA = 1.0


class ModelKind(Enum):
    KLEIN_GORDON = "kg"
    DIRAC = "dirac"

    @classmethod
    def from_name(cls, name: str) -> "ModelKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise DomainError(f"unknown model {name!r}; expected one of kg, dirac")

    @property
    def critical_zeta(self) -> float:
        return KG_CRITICAL_ZETA if self is ModelKind.KLEIN_GORDON else DIRAC_CRITICAL_ZETA


class StateClass(Enum):
    PARTICLE = "Particle"
    ANTIPARTICLE = "Antiparticle"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class RatioResult:
    """A hidden-antimatter ratio R together with how it was obtained."""

    value: float
    method: str  # "closed_form" or "quadrature"
    abs_error_estimate: float = 0.0
    is_limit: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.method not in ("closed_form", "quadrature"):
            raise DomainError(f"method must be closed_form or quadrature, got {self.method!r}")
        if not math.isfinite(self.value) or self.value < 0.0:
            raise DomainError(f"ratio must be finite and nonnegative, got {self.value}")
        if self.abs_error_estimate < 0.0:
            raise DomainError("abs_error_estimate must be nonnegative")


def gamma_factor(beta) -> float:
    """Lorentz factor 1/sqrt(1-beta^2)."""
    b = float(beta)
    if not (0.0 <= b < 1.0) or not math.isfinite(b):
        raise DomainError(f"beta must satisfy 0 <= beta < 1 (limiting speed c), got {beta}")
    # (1-b)*(1+b) keeps precision for beta close to 1
    return 1.0 / math.sqrt((1.0 - b) * (1.0 + b))


def half_angle_tangent(x: float) -> float:
    """t = x / (1 + sqrt((1 - x)(1 + x))), that is tan(arcsin(x) / 2), for 0 <= x < 1.

    With g = sqrt(1 - x^2), t * t = (1 - g) / (1 + g) = (gamma - 1) / (gamma + 1)
    for x = beta, without the cancellation of 1 - g as x -> 0.  The caller
    checks the domain.  Rounding, with eps = 2^-53 and relative errors in
    units of eps, to first order and in the order evaluated: g 5/2 (half of
    its argument's three roundings, plus the root's own); 1 + g 9/4 (its own
    rounding plus at most half of g's error, as g <= 1); t 13/4; so t * t
    carries 15/2.
    """
    return x / (1.0 + math.sqrt((1.0 - x) * (1.0 + x)))


def beta_from_gamma(gamma: float) -> float:
    """Inverse of gamma_factor on gamma >= 1."""
    g = float(gamma)
    if not (g >= 1.0) or not math.isfinite(g):
        raise DomainError(f"gamma must satisfy gamma >= 1, got {gamma}")
    return math.sqrt((g - 1.0) * (g + 1.0)) / g


def zeta_from_z(z, alpha=CODATA_ALPHA) -> float:
    """Coupling zeta = Z*alpha for nuclear charge number Z."""
    zn = float(z)
    if zn <= 0 or not math.isfinite(zn):
        raise DomainError(f"nuclear charge Z must be positive, got {z}")
    a = float(alpha)
    if not (0.0 < a < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return zn * a
