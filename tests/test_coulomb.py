"""Hydrogenlike 1S bound states: energies, channel ratios, scans.

Closed-form ratios are cross-checked against a Gamma-function moment formula
evaluated at 50 digits (frozen below) and against the package's own radial
quadrature, which shares only the orbital parameters with the closed forms.
"""

import math
import time
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antimix.coulomb
from antimix.coulomb import (
    bound_scan,
    classify_state,
    dirac_1s_energy,
    dirac_1s_ratio_closed,
    dirac_1s_ratio_quadrature,
    kg_1s_energy,
    kg_1s_ratio_closed,
    kg_1s_ratio_quadrature,
)
from antimix.errors import DomainError
from antimix.quad import integrate_radial
from antimix.units import ModelKind, RatioResult, StateClass, half_angle_tangent


# ---------------------------------------------------------------------------
# Klein-Gordon 1S
# ---------------------------------------------------------------------------

def test_kg_energy_at_critical_coupling():
    # E(1/2) = 1/sqrt(2) exactly, the endpoint of the bound branch
    assert abs(kg_1s_energy(0.5) - 1.0 / math.sqrt(2.0)) < 1e-12


@pytest.mark.parametrize("zeta,energy", [
    # E = sqrt(1/2 + sqrt(1/4 - zeta^2)), 50-digit arithmetic
    (0.1, 0.9949361530051241),
    (0.3, 0.9486832980505138),
    (0.45, 0.84731632061293),
    (0.49, 0.7742730420921692),
])
def test_kg_energy_oracle_values(zeta, energy):
    assert kg_1s_energy(zeta) == pytest.approx(energy, rel=1e-14)


def test_kg_energy_rejects_supercritical():
    with pytest.raises(DomainError):
        kg_1s_energy(0.500001)
    with pytest.raises(DomainError):
        kg_1s_energy(0.0)


@pytest.mark.parametrize("zeta", (0.5 - np.geomspace(1e-12, 1e-2, 25)).tolist()
                         + [0.3, 1e-4])
def test_kg_energy_matches_decimal_reference(zeta):
    # 1/4 - zeta^2 cancels as zeta -> 1/2 (1.3e-14 off at 0.4999999);
    # (1/2 - zeta)(1/2 + zeta) does not, and the radial parameters carry the same E
    with localcontext(Context(prec=50)):
        z = Decimal(zeta)
        ref = (Decimal(1) / 2 + (Decimal(1) / 4 - z * z).sqrt()).sqrt()
        err = abs(Decimal(kg_1s_energy(zeta)) - ref) / ref
    assert float(err) < 2e-16
    assert kg_1s_energy(zeta) == antimix.coulomb._kg_radial(zeta)[1]


@given(st.floats(min_value=1e-3, max_value=0.4999))
def test_kg_energy_identity(zeta):
    # algebraic identity: 1 + zeta^2/(y + 1/2)^2 = 1/(y + 1/2), hence the
    # inverse-square-root form equals sqrt(1/2 + y) exactly
    y = math.sqrt(0.25 - zeta * zeta)
    s = y + 0.5
    alt = (1.0 + zeta * zeta / (s * s)) ** -0.5
    assert abs(kg_1s_energy(zeta) - alt) < 1e-12


def test_kg_state_fields():
    y, energy, decay = antimix.coulomb._kg_radial(0.3)
    assert y == pytest.approx(0.4, rel=1e-15)
    assert energy == pytest.approx(math.sqrt(0.9), rel=1e-15)
    assert decay == pytest.approx(math.sqrt(0.1), rel=1e-14)


@pytest.mark.parametrize("zeta,ratio", [
    # closed form, independently reproduced by the Gamma-moment formula
    # num/den with M_n = Gamma(2y + n)/(2 lam)^(2y+n) at 50 digits
    (0.1, 3.261368355770532e-05),
    (0.3, 0.003972161102559273),
    (0.45, 0.05725145928411885),
    (0.49, 0.21673734844340303),
])
def test_kg_ratio_closed_oracle_values(zeta, ratio):
    res = kg_1s_ratio_closed(zeta)
    assert res.method == "closed_form"
    assert res.value == pytest.approx(ratio, rel=1e-12)


def kg_ratio_reference(zeta):
    """R = 1 - 4 / (2 + u + u^3 / (2y)), u = sqrt(1/2 + y), at 50 digits."""
    with localcontext(Context(prec=50)):
        z = Decimal(zeta)
        y = (Decimal(1) / 4 - z * z).sqrt()
        u = (Decimal(1) / 2 + y).sqrt()
        return 1 - 4 / (2 + u + u**3 / (2 * y))


@pytest.mark.parametrize("zeta", np.geomspace(1e-8, 0.4999999, 40).tolist())
def test_kg_ratio_closed_matches_decimal_reference(zeta):
    # 1 - 4/D cancels to nothing as zeta -> 0, and 1/4 - zeta^2 loses y's
    # digits as zeta -> 1/2
    ref = kg_ratio_reference(zeta)
    err = abs(Decimal(kg_1s_ratio_closed(zeta).value) - ref) / ref
    assert float(err) < 2e-15


@pytest.mark.parametrize("zeta", np.geomspace(1e-4, 0.4995, 24).tolist()
                         + np.linspace(0.49, 0.4995, 6).tolist()
                         + np.linspace(0.4990, 0.499999, 200).tolist())
def test_kg_ratio_quadrature_error_within_its_estimate(zeta):
    # the estimate bounds the real error, also at weak coupling, where
    # 1 - E - zeta/r cancelled, and near zeta = 1/2, where r^(2y - 1)
    # formed by the caller overflowed at the smallest nodes
    res = kg_1s_ratio_quadrature(zeta)
    err = abs(Decimal(res.value) - kg_ratio_reference(zeta))
    assert float(err) <= res.abs_error_estimate + 4.0 * np.spacing(res.value)


@pytest.mark.parametrize("zeta", [0.49815383536204083, 0.4995509671638007, 0.499675])
def test_kg_ratio_quadrature_estimate_covers_rounding(zeta):
    # without a rounding term the estimate missed the first two by 0.2 and
    # 27 ulps; the third missed it while r was formed at subnormal nodes
    res = kg_1s_ratio_quadrature(zeta)
    err = abs(Decimal(res.value) - kg_ratio_reference(zeta))
    assert float(err) <= res.abs_error_estimate


def test_kg_ratio_closed_error_within_its_rounding_bound():
    # the a-priori bound 34 eps R must hold with no ulp allowance; the old
    # estimate of 0 missed 59 of these 2000 arguments by more than 4 ulps
    rng = np.random.default_rng(7)
    lo, hi = 1e-4, 0.5 - 1e-6
    zetas = np.concatenate((np.exp(rng.uniform(np.log(lo), np.log(hi), 1000)),
                            rng.uniform(lo, hi, 1000)))
    for zeta in zetas.tolist():
        res = kg_1s_ratio_closed(zeta)
        assert abs(Decimal(res.value) - kg_ratio_reference(zeta)) <= Decimal(res.abs_error_estimate)


def test_kg_ratio_quadrature_matches_closed():
    start = time.perf_counter()
    for zeta in np.linspace(0.01, 0.49, 20):
        closed = kg_1s_ratio_closed(zeta).value
        quad = kg_1s_ratio_quadrature(zeta)
        assert quad.method == "quadrature"
        assert abs(quad.value - closed) <= 1e-8
    assert time.perf_counter() - start < 5.0


def test_kg_ratio_increasing_in_zeta():
    zetas = np.linspace(0.01, 0.499, 60)
    vals = [kg_1s_ratio_closed(z).value for z in zetas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Dirac 1S
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("zeta,primary,somm", [
    # 50-digit arithmetic; primary = (1 + z^2/sqrt(1-z^2))^(-1/2)
    (0.1, 0.9950123752296863, 0.99498743710662),
    (0.6, 0.8304547985373997, 0.8),
    (0.9, 0.5914915825854654, 0.43588989435406733),
    (0.999, 0.20707190740376413, 0.04471017781221631),
])
def test_dirac_energy_oracle_values(zeta, primary, somm):
    ep, es = dirac_1s_energy(zeta)
    assert ep == pytest.approx(primary, rel=1e-13)
    assert es == pytest.approx(somm, rel=1e-13)


def test_dirac_energy_conventions_split_at_strong_coupling():
    ep, es = dirac_1s_energy(0.9)
    assert ep - es == pytest.approx(0.155601688231398, rel=1e-10)
    assert ep - es > 0.1


@given(st.floats(min_value=1e-3, max_value=0.3))
def test_dirac_energy_gap_quartic_bound(zeta):
    ep, es = dirac_1s_energy(zeta)
    assert abs(ep - es) <= 0.25 * zeta**4 + 1e-12


def test_dirac_energy_rejects_supercritical():
    with pytest.raises(DomainError):
        dirac_1s_energy(1.0)
    with pytest.raises(DomainError):
        dirac_1s_energy(1.5)


@pytest.mark.parametrize("zeta,ratio", [
    # (1 - gamma)/(1 + gamma) at 50 digits
    (0.1, 0.002512578676009053),
    (0.6, 0.1111111111111111),
    (0.9, 0.3928644583850189),
    (0.999, 0.9144065430551346),
])
def test_dirac_ratio_closed_oracle_values(zeta, ratio):
    assert dirac_1s_ratio_closed(zeta).value == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize("zeta", sorted(set(np.geomspace(1e-12, 1.0 - 1e-6, 40).tolist()
                                             + np.geomspace(1e-4, 1.0 - 1e-6, 30).tolist())))
def test_dirac_closed_forms_match_decimal_reference(zeta):
    # R = (1 - g)/(1 + g) and the small/large coefficient (1 - g)/zeta, with
    # g = sqrt(1 - zeta^2), both cancel at weak coupling if evaluated as written;
    # the whole documented domain 0 < zeta < 1 is checked, down to 1e-12
    with localcontext(Context(prec=50)):
        z = Decimal(zeta)
        g = (1 - z * z).sqrt()
        ratio_ref, coeff_ref = (1 - g) / (1 + g), (1 - g) / z
        ratio_err = abs(Decimal(dirac_1s_ratio_closed(zeta).value) - ratio_ref) / ratio_ref
        coeff = half_angle_tangent(zeta)
        coeff_err = abs(Decimal(coeff) - coeff_ref) / coeff_ref
    assert float(ratio_err) < 1e-15
    assert float(coeff_err) < 1e-15


def test_dirac_ratio_closed_error_within_its_rounding_bound():
    # the a-priori bound 17/2 eps R must hold with no ulp allowance; every
    # one of these 2000 results is off its reference, which the old
    # estimate of 0 claimed it was not
    rng = np.random.default_rng(13)
    lo, hi = 1e-6, 1.0 - 1e-6
    zetas = np.concatenate((np.exp(rng.uniform(np.log(lo), np.log(hi), 1000)),
                            rng.uniform(lo, hi, 1000)))
    for zeta in zetas.tolist():
        res = dirac_1s_ratio_closed(zeta)
        with localcontext(Context(prec=50)):
            g = (1 - Decimal(zeta) ** 2).sqrt()
            ref = (1 - g) / (1 + g)
        assert abs(Decimal(res.value) - ref) <= Decimal(res.abs_error_estimate)


def test_dirac_ratio_quadrature_matches_closed():
    start = time.perf_counter()
    for zeta in np.linspace(0.02, 0.98, 20):
        closed = dirac_1s_ratio_closed(zeta).value
        quad = dirac_1s_ratio_quadrature(zeta)
        assert abs(quad.value - closed) <= 1e-8
    assert time.perf_counter() - start < 5.0


def count_integrand_calls(monkeypatch):
    """Record (integrand calls, node_count) of every integrate_radial call in coulomb."""
    record = []

    def counted(f, *args):
        calls = [0]

        def g(r):
            calls[0] += 1
            return f(r)

        out = integrate_radial(g, *args)
        record.append((calls[0], out[2]))
        return out

    monkeypatch.setattr(antimix.coulomb, "integrate_radial", counted)
    return record


@pytest.mark.parametrize("ratio,zeta", [
    (lambda z: kg_1s_ratio_quadrature(z), 0.01),
    (lambda z: kg_1s_ratio_quadrature(z), 0.49),
    (dirac_1s_ratio_quadrature, 0.02),
    (dirac_1s_ratio_quadrature, 0.98),
])
def test_ratio_quadrature_evaluates_its_integrand_once(monkeypatch, ratio, zeta):
    # numerator and denominator share one quadrature, and one integrand
    # call covers every level up to 1025 nodes
    record = count_integrand_calls(monkeypatch)
    ratio(zeta)
    assert len(record) == 1
    calls, node_count = record[0]
    assert node_count <= 1025
    assert calls == 1


def test_quadrature_rejects_unreachable_zeta():
    with pytest.raises(DomainError):
        kg_1s_ratio_quadrature(0.4999999)
    with pytest.raises(DomainError):
        dirac_1s_ratio_quadrature(1e-6)


def test_weak_coupling_ratio_ordering():
    # at weak coupling the spinless ratio is quartic in zeta while the
    # spinor one is quadratic, so it sits below; the ordering flips only
    # close to the spinless critical point 1/2
    for zeta in (0.1, 0.2, 0.3, 0.4):
        assert kg_1s_ratio_closed(zeta).value < dirac_1s_ratio_closed(zeta).value
    assert kg_1s_ratio_closed(0.49).value > dirac_1s_ratio_closed(0.49).value


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_state_examples():
    assert classify_state(0.25) is StateClass.PARTICLE
    assert classify_state(4.0) is StateClass.ANTIPARTICLE
    assert classify_state(1.0) is StateClass.BOUNDARY
    assert classify_state(1.0 + 5e-10) is StateClass.BOUNDARY
    assert classify_state(1.0 + 5e-9) is StateClass.ANTIPARTICLE
    assert classify_state(RatioResult(value=0.1, method="closed_form")) is StateClass.PARTICLE


def test_classify_rejects_negative():
    with pytest.raises(DomainError):
        classify_state(-0.1)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def test_kg_scan_structure_and_monotonicity():
    scan = bound_scan(ModelKind.KLEIN_GORDON, samples=200)
    assert len(scan.axis) == 200
    # axis = 2 zeta: at axis -> 1 the coupling reaches its critical 1/2
    assert np.allclose(scan.zeta, scan.axis / 2.0, rtol=1e-14)
    assert np.all(np.diff(scan.energy) < 0.0)
    assert np.all(np.diff(scan.ratio) > 0.0)
    assert scan.energy_sommerfeld is None


def test_kg_scan_endpoint_limits():
    scan = bound_scan(ModelKind.KLEIN_GORDON, samples=512)
    assert abs(scan.energy[-1] - 1.0 / math.sqrt(2.0)) < 0.01
    assert scan.ratio[-1] > 0.85
    assert scan.energy[0] == pytest.approx(1.0, abs=1e-6)
    assert scan.ratio[0] == pytest.approx(0.0, abs=1e-6)


def test_dirac_scan_structure_and_monotonicity():
    scan = bound_scan(ModelKind.DIRAC, samples=200)
    assert np.allclose(scan.zeta, scan.axis, rtol=1e-14)
    assert np.all(np.diff(scan.energy) < 0.0)
    assert np.all(np.diff(scan.energy_sommerfeld) < 0.0)
    assert np.all(np.diff(scan.ratio) > 0.0)


def test_dirac_scan_endpoint_limits():
    scan = bound_scan(ModelKind.DIRAC, samples=512)
    # both energy conventions collapse to zero at the critical coupling
    assert scan.energy[-1] < 0.12
    assert scan.energy_sommerfeld[-1] < 0.02
    assert scan.ratio[-1] > 0.97
