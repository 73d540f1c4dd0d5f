"""Free-particle channel split for the second-order wave equation."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from antimix.errors import DomainError
from antimix.kgfree import kg_component_amplitudes, kg_free_ratio
from antimix.units import gamma_factor


def test_rest_mode_is_pure_matter():
    theta, chi = kg_component_amplitudes(0.0)
    assert theta == 2.0
    assert chi == 0.0


def test_amplitudes_on_shell():
    k = np.array([0.0, 0.5, 1.0, 3.0, -2.0])
    theta, chi = kg_component_amplitudes(k)
    omega = np.sqrt(1.0 + k * k)
    assert np.allclose(theta, 1.0 + omega, rtol=1e-15)
    assert np.allclose(chi, 1.0 - omega, rtol=0, atol=1e-15)


def test_chi_amplitude_avoids_cancellation():
    # 1 - omega loses digits for small k; the stable form -k^2/(1+omega)
    # must match the 60-digit value at k = 1e-6
    _, chi = kg_component_amplitudes(1e-6)
    assert chi == pytest.approx(-5.0e-13, rel=1e-9)


def test_ratio_zero_at_rest():
    res = kg_free_ratio(0.0)
    assert res.value == 0.0
    assert res.method == "closed_form"


@pytest.mark.parametrize("beta,expected", [
    # ((1 - sqrt(1-b^2)) / (1 + sqrt(1-b^2)))^2, 50-digit arithmetic
    (0.5, 0.005154776142871562),
    (0.8, 0.0625),
    (0.9, 0.15434248266215423),
    (0.99999, 0.9822704331611881),
])
def test_ratio_oracle_values(beta, expected):
    assert kg_free_ratio(beta).value == pytest.approx(expected, rel=1e-12)


def test_ratio_approaches_one():
    assert kg_free_ratio(0.99999).value > 0.98


def test_ratio_rejects_luminal():
    with pytest.raises(DomainError):
        kg_free_ratio(1.0)
    with pytest.raises(DomainError):
        kg_free_ratio(-0.2)


@given(st.floats(min_value=1e-4, max_value=0.99999))
@example(1e-4)
def test_ratio_equals_gamma_form(beta):
    # same quantity through the boost factor: ((gamma-1)/(gamma+1))^2, with
    # gamma - 1 = gamma^2 beta^2 / (gamma + 1) so the oracle does not cancel
    g = gamma_factor(beta)
    alt = (g * g * beta * beta / (g + 1.0) ** 2) ** 2
    assert kg_free_ratio(beta).value == pytest.approx(alt, rel=1e-10)


def test_ratio_strictly_increasing():
    betas = np.linspace(0.0, 0.999, 200)
    vals = [kg_free_ratio(b).value for b in betas]
    assert all(b > a for a, b in zip(vals, vals[1:]))
