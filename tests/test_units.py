"""Unit-system primitives: validated scalars, gamma factor, model metadata."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from antimix.errors import DomainError
from antimix.units import (
    CODATA_ALPHA,
    DIRAC_CRITICAL_ZETA,
    KG_CRITICAL_ZETA,
    Beta,
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
        Beta(bad)


def test_beta_accepts_zero_and_interior():
    assert float(Beta(0.0)) == 0.0
    assert float(Beta(0.99999)) == 0.99999


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5])
def test_fine_structure_rejects_out_of_range(bad):
    with pytest.raises(DomainError):
        zeta_from_z(1, alpha=bad)


def test_gamma_factor_oracle_values():
    # exact rationals: gamma(0.8) = 5/3, gamma(0.6) = 5/4
    assert gamma_factor(0.8) == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert gamma_factor(0.6) == pytest.approx(1.25, rel=1e-15)
    # near-luminal value computed with 60-digit arithmetic from the exact
    # binary64 input 0.99999
    assert gamma_factor(0.99999) == pytest.approx(223.60735676957849, rel=1e-14)
    assert gamma_factor(0.0) == 1.0


@given(st.floats(min_value=1e-6, max_value=0.999999, allow_nan=False))
def test_gamma_beta_round_trip(beta):
    # below beta ~ 1e-8 the round trip loses the velocity entirely, since
    # gamma - 1 ~ beta^2 / 2 underflows against the stored 1.0
    g = gamma_factor(beta)
    assert g >= 1.0
    assert beta_from_gamma(g) == pytest.approx(beta, abs=1e-16 / beta + 1e-12)


@given(st.floats(min_value=1e-6, max_value=0.999999))
def test_gamma_factor_against_naive_formula(beta):
    # (1-b)(1+b) ordering only improves conditioning, so the naive 1-b^2
    # form agrees to its own (worse) conditioning, not to the ulp
    assert gamma_factor(beta) == pytest.approx(1.0 / math.sqrt(1.0 - beta * beta), rel=1e-9)


def test_zeta_from_z_uses_codata_default():
    assert zeta_from_z(1) == pytest.approx(CODATA_ALPHA, rel=0)
    assert zeta_from_z(68) == pytest.approx(68 * CODATA_ALPHA, rel=1e-15)


def test_zeta_from_z_accepts_alpha_override():
    assert zeta_from_z(137, alpha=1.0 / 137.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError):
        zeta_from_z(0)


def test_ratio_result_fields():
    r = RatioResult(value=0.25, method="closed_form")
    assert r.value == 0.25
    assert r.method == "closed_form"
    assert r.abs_error_estimate == 0.0
    assert not r.is_limit


def test_state_class_labels():
    assert StateClass.PARTICLE.value == "Particle"
    assert StateClass.ANTIPARTICLE.value == "Antiparticle"
    assert StateClass.BOUNDARY.value == "Boundary"
