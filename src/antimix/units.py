"""Natural-unit conventions and shared vocabulary.

Everything downstream works in hbar = c = m0 = 1: energies are E/(m0 c^2),
wavenumbers are hbar k/(m0 c), velocities are v/c, and the Coulomb coupling
is the dimensionless zeta = Z*alpha.  Critical couplings: zeta = 1/2 for the
Klein-Gordon 1S state, zeta = 1 for the Dirac 1S state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum

from .errors import DomainError

# CODATA 2018 fine-structure constant, the alpha of zeta_from_z and of the CLI's --z.
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


@dataclass(frozen=True, init=False, slots=True)
class RatioResult:
    """A hidden-antimatter ratio R together with how it was obtained."""

    value: float
    method: str  # "closed_form" or "quadrature"
    abs_error_estimate: float = 0.0
    is_limit: bool = field(default=False, compare=False)

    def __init__(self, value: float, method: str, abs_error_estimate: float = 0.0,
                 is_limit: bool = False):
        if method not in ("closed_form", "quadrature"):
            raise DomainError(f"method must be closed_form or quadrature, got {method!r}")
        if not (math.isfinite(value) and value >= 0.0):
            raise DomainError(f"ratio must be finite and nonnegative, got {value}")
        # JSON has no nan or inf for ratio --json to print
        if not (math.isfinite(abs_error_estimate) and abs_error_estimate >= 0.0):
            raise DomainError(
                f"abs_error_estimate must be finite and nonnegative, got {abs_error_estimate}")
        _set_value(self, value)
        _set_method(self, method)
        _set_abs_error_estimate(self, abs_error_estimate)
        _set_is_limit(self, is_limit)


# each field's slot setter: a frozen dataclass's own __init__ would go through
# object.__setattr__ once a field, which is most of a closed-form ratio call
_set_value, _set_method, _set_abs_error_estimate, _set_is_limit = (
    getattr(RatioResult, f.name).__set__ for f in fields(RatioResult))


def checked_beta(beta) -> float:
    """float(beta), refused with DomainError unless 0 <= beta < 1."""
    b = float(beta)
    if not (0.0 <= b < 1.0):
        raise DomainError(f"beta must satisfy 0 <= beta < 1 (limiting speed c), got {beta}")
    return b


# Dekker's split and product, no fma.  The same operations serve Python
# floats here and whole float64 arrays in _floattext.
_SPLIT = 134217729.0  # 2^27 + 1: splits a float into two 26-bit halves


def _split(a):
    """a = hi + lo exactly, each with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _product_error(a, b_hi, b_lo, prod):
    """a b - prod exactly, for prod = fl(a b) and b = b_hi + b_lo from _split."""
    a_hi, a_lo = _split(a)
    return ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _two_product(a: float, b: float) -> tuple[float, float]:
    """(p, e) with p = fl(a b) and p + e = a b exactly."""
    p = a * b
    return p, _product_error(a, *_split(b), p)


def gamma_factor(beta) -> float:
    """Lorentz factor 1/sqrt(1-beta^2), correctly rounded.

    1 - beta^2 = (1 - beta)(1 + beta) is carried as a float pair s + s_err,
    exact but for a term of order eps^2 relative: both factors come with
    their rounding errors (Fast2Sum) and their product with its own
    (Dekker's product).  From y = 1/sqrt(s), one Newton step on
    gamma^2 (1 - beta^2) = 1 adds y r / 2, where the residual
    r = 1 - y^2 (1 - beta^2) is a few eps and is formed from exact products,
    so the sum lands within O(eps^2) of gamma before its final rounding.
    Against 50-digit decimal it is within half an ulp except where gamma
    lies within ~eps^2 of a rounding midpoint (beta a few ulps below 1).
    Storing gamma still costs a small beta its digits: gamma - 1 ~ beta^2 / 2
    keeps only those that fit next to 1, so beta_from_gamma recovers beta to
    about ulp(1) / (2 beta).
    """
    b = checked_beta(beta)
    lo, hi = 1.0 - b, 1.0 + b
    s, s_err = _two_product(lo, hi)
    s_err += lo * (b - (hi - 1.0)) + (-b - (lo - 1.0)) * hi  # the rounding of 1 + b and 1 - b
    y = 1.0 / math.sqrt(s)
    p, p_err = _two_product(y, y)
    q, q_err = _two_product(p, s)
    r = (1.0 - q) - q_err - p_err * s - p * s_err  # 1 - q is exact: q is within a few ulps of 1
    return y + 0.5 * y * r


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


def zeta_from_z(z) -> float:
    """Coupling zeta = Z*alpha for nuclear charge number Z, alpha = CODATA_ALPHA."""
    try:
        zn = float(z)
    except OverflowError:  # an integer past the float range; not formatted, it may be huge
        raise DomainError("nuclear charge Z exceeds the float range") from None
    if zn <= 0 or not math.isfinite(zn):
        raise DomainError(f"nuclear charge Z must be positive, got {z}")
    return zn * CODATA_ALPHA
