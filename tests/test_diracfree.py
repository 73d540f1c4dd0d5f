"""Free-particle spinor split: large and small components of a boosted mode."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from antimix.diracfree import dirac_component_amplitudes, dirac_free_ratio
from antimix.errors import DomainError
from antimix.kgfree import kg_free_ratio
from antimix.units import gamma_factor


def test_rest_spinor_is_pure_upper():
    upper, lower = dirac_component_amplitudes(0.0)
    assert upper == 1.0
    assert lower == 0.0


def test_spinor_is_unit_normalized():
    k = np.linspace(-10.0, 10.0, 101)
    upper, lower = dirac_component_amplitudes(k)
    assert np.allclose(upper**2 + lower**2, 1.0, rtol=0, atol=1e-14)


def test_component_sign_follows_momentum():
    upper, lower = dirac_component_amplitudes(2.0)
    assert lower > 0.0
    upper_m, lower_m = dirac_component_amplitudes(-2.0)
    assert lower_m < 0.0
    assert upper_m == upper


def test_ratio_zero_at_rest():
    assert dirac_free_ratio(0.0).value == 0.0


@pytest.mark.parametrize("beta,expected", [
    # (gamma - 1) / (gamma + 1), 50-digit arithmetic
    (0.5, 0.07179676972449083),
    (0.8, 0.25),
    (0.9, 0.3928644583850189),
    (0.99999, 0.9910955721630423),
])
def test_ratio_oracle_values(beta, expected):
    assert dirac_free_ratio(beta).value == pytest.approx(expected, rel=1e-12)


def test_ratio_gamma_form():
    g = gamma_factor(0.8)
    assert g == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert dirac_free_ratio(0.8).value == pytest.approx((g - 1.0) / (g + 1.0), rel=1e-14)


def test_ratio_rejects_luminal():
    with pytest.raises(DomainError):
        dirac_free_ratio(1.0)


@given(st.floats(min_value=0.0, max_value=0.99999))
def test_kg_ratio_is_square_of_dirac_ratio(beta):
    # both closed forms route through the same square root, so the square
    # law holds to the last ulp, not merely approximately
    rd = dirac_free_ratio(beta).value
    rk = kg_free_ratio(beta).value
    assert rk == rd * rd


def test_ratio_strictly_increasing():
    betas = np.linspace(0.0, 0.999, 200)
    vals = [dirac_free_ratio(b).value for b in betas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_ratio_below_kg_everywhere():
    # x^2 < x on (0, 1): the spinless ratio sits below the spinor ratio
    for beta in np.linspace(0.05, 0.999, 50):
        assert kg_free_ratio(beta).value < dirac_free_ratio(beta).value