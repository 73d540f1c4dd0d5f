"""Unit-system primitives: validated scalars, gamma factor, model metadata."""

import decimal
import math
import random
from dataclasses import FrozenInstanceError, asdict, replace
from decimal import Decimal

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from antimix.errors import DomainError
from antimix.units import (
    CODATA_ALPHA,
    DIRAC_CRITICAL_ZETA,
    KG_CRITICAL_ZETA,
    ModelKind,
    RatioResult,
    StateClass,
    beta_from_gamma,
    gamma_factor,
    zeta_from_z,
)


def test_codata_alpha_value():
    assert CODATA_ALPHA == pytest.approx(1.0 / 137.035999084, rel=0, abs=0)


def test_critical_couplings():
    assert KG_CRITICAL_ZETA == 0.5
    assert DIRAC_CRITICAL_ZETA == 1.0
    assert ModelKind.KLEIN_GORDON.critical_zeta == 0.5
    assert ModelKind.DIRAC.critical_zeta == 1.0


def test_model_from_name():
    assert ModelKind.from_name("kg") is ModelKind.KLEIN_GORDON
    assert ModelKind.from_name("dirac") is ModelKind.DIRAC
    with pytest.raises(DomainError):
        ModelKind.from_name("schroedinger")


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.inf, math.nan])
def test_beta_rejects_out_of_range(bad):
    with pytest.raises(DomainError):
        gamma_factor(bad)


def test_gamma_factor_oracle_values():
    # exact rationals: gamma(0.8) = 5/3, gamma(0.6) = 5/4
    assert gamma_factor(0.8) == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert gamma_factor(0.6) == pytest.approx(1.25, rel=1e-15)
    # near-luminal value computed with 60-digit arithmetic from the exact
    # binary64 input 0.99999
    assert gamma_factor(0.99999) == pytest.approx(223.60735676957849, rel=1e-14)
    assert gamma_factor(0.0) == 1.0


def test_gamma_factor_is_correctly_rounded():
    # 2000 seeded beta, half log- and half uniform-spaced over [1e-8, 1 - 1e-6],
    # against 1/sqrt(1 - beta^2) in 50-digit decimal, rounded once to float
    rng = random.Random(2026)
    ctx = decimal.Context(prec=50)
    for i in range(2000):
        if i % 2:
            beta = math.exp(rng.uniform(math.log(1e-8), math.log(1.0 - 1e-6)))
        else:
            beta = rng.uniform(1e-8, 1.0 - 1e-6)
        d = Decimal(beta)
        exact = ctx.divide(1, ctx.sqrt(ctx.subtract(1, ctx.multiply(d, d))))
        assert gamma_factor(beta) == float(exact), beta


@example(5.275981635453409e-06)
@given(st.floats(min_value=1e-6, max_value=0.999999, allow_nan=False))
def test_gamma_beta_round_trip(beta):
    # gamma is stored to half an ulp: at most 2^-53 below gamma = 2 and
    # 2^-53 gamma above.  beta = sqrt(1 - 1/gamma^2) moves by dgamma /
    # (gamma^3 beta), so by at most 2^-53 / beta = ulp(1) / (2 beta) to first
    # order; the second order adds at most a relative 2^-53 / beta^2.
    # beta_from_gamma's own roundings (gamma + 1, the product, the root, the
    # quotient; gamma - 1 is exact) add 3 * 2^-53 beta, 4 with their second
    # order.
    # Below beta ~ 1e-8 the round trip loses the velocity entirely, since
    # gamma - 1 ~ beta^2 / 2 rounds away against the stored 1.0
    g = gamma_factor(beta)
    assert g >= 1.0
    bound = 2.0**-53 * ((1.0 + 2.0**-53 / beta**2) / beta + 4.0 * beta)
    assert abs(beta_from_gamma(g) - beta) <= bound


@given(st.floats(min_value=1e-6, max_value=0.999999))
def test_gamma_factor_against_naive_formula(beta):
    # (1-b)(1+b) ordering only improves conditioning, so the naive 1-b^2
    # form agrees to its own (worse) conditioning, not to the ulp
    assert gamma_factor(beta) == pytest.approx(1.0 / math.sqrt(1.0 - beta * beta), rel=1e-9)


def test_zeta_from_z_uses_codata_default():
    assert zeta_from_z(1) == pytest.approx(CODATA_ALPHA, rel=0)
    assert zeta_from_z(68) == pytest.approx(68 * CODATA_ALPHA, rel=1e-15)


@pytest.mark.parametrize("bad", [0, -1, math.inf, math.nan])
def test_zeta_from_z_rejects_nonpositive_charge(bad):
    with pytest.raises(DomainError, match="nuclear charge Z must be positive"):
        zeta_from_z(bad)


@pytest.mark.parametrize("huge", [10**400, 10**5000], ids=["1e400", "1e5000"])
def test_zeta_from_z_refuses_an_integer_past_the_float_range(huge):
    # float(huge) raises OverflowError, and str(10**5000) passes Python's
    # integer-string limit, so the message must not format it
    with pytest.raises(DomainError, match="exceeds the float range"):
        zeta_from_z(huge)


def test_ratio_result_fields():
    r = RatioResult(value=0.25, method="closed_form")
    assert r.value == 0.25
    assert r.method == "closed_form"
    assert r.abs_error_estimate == 0.0
    assert not r.is_limit


@pytest.mark.parametrize("estimate", [math.nan, math.inf, -math.inf, -1e-300, -1.0])
def test_ratio_result_refuses_a_non_finite_or_negative_estimate(estimate):
    # ratio --json would print NaN or Infinity, which JSON does not have
    with pytest.raises(DomainError, match="abs_error_estimate"):
        RatioResult(value=1.0, method="quadrature", abs_error_estimate=estimate)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_ratio_result_refuses_a_non_finite_or_negative_value(value):
    with pytest.raises(DomainError, match="ratio"):
        RatioResult(value=value, method="closed_form")


def test_ratio_result_refuses_an_unknown_method():
    with pytest.raises(DomainError, match="method"):
        RatioResult(value=0.5, method="guess")


def test_ratio_result_record_contract():
    r = RatioResult(0.25, "quadrature", 1e-12)
    assert (r.value, r.method, r.abs_error_estimate, r.is_limit) == (0.25, "quadrature", 1e-12, False)
    with pytest.raises(FrozenInstanceError):
        r.value = 0.5
    # equality and the hash ignore is_limit
    twin = RatioResult(value=0.25, method="quadrature", abs_error_estimate=1e-12, is_limit=True)
    assert r == twin and hash(r) == hash(twin)
    assert r != RatioResult(0.25, "closed_form", 1e-12)
    assert asdict(twin) == {"value": 0.25, "method": "quadrature",
                            "abs_error_estimate": 1e-12, "is_limit": True}
    moved = replace(twin, value=0.5)
    assert (moved.value, moved.is_limit) == (0.5, True)
    with pytest.raises(DomainError):
        replace(r, abs_error_estimate=math.nan)


def test_state_class_labels():
    assert StateClass.PARTICLE.value == "Particle"
    assert StateClass.ANTIPARTICLE.value == "Antiparticle"
    assert StateClass.BOUNDARY.value == "Boundary"
