"""Quadrature layer: Simpson grids, radial integrals, spectral synthesis.

The radial integrator, which applies the weight r^p exp(-lam r) itself, is
checked against the moment identity
int_0^inf r^p exp(-lam r) dr = Gamma(p+1) / lam^(p+1), with the reference
values taken from scipy.special.gamma, which shares no code with the
integrator under test, and its Gauss-Laguerre nodes and weights against
scipy.special.roots_genlaguerre.  The chirp-z synthesis kernel is checked
against a direct Simpson-weighted mode sum written here and against
scipy.signal.czt.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import czt
from scipy.special import gamma as scipy_gamma
from scipy.special import roots_genlaguerre

from antimix.errors import DomainError, TailLeakageError
from antimix.packets import PacketSpec, mode_coefficients
from antimix.quad import (
    Grid1D,
    SpectralCoefficients,
    integrate_grid,
    _gauss_laguerre_pair,
    integrate_radial,
    simpson_weights,
    synthesize,
)
from antimix.units import ModelKind


# ---------------------------------------------------------------------------
# Grid1D
# ---------------------------------------------------------------------------

def test_grid_symmetric_contains_endpoints():
    g = Grid1D.symmetric(10.0, 101)
    assert g.start == -10.0
    assert g.stop == pytest.approx(10.0, rel=1e-15)
    assert g.count == 101
    pts = g.points
    assert pts[0] == -10.0
    assert pts[-1] == pytest.approx(10.0, rel=1e-15)


def test_grid_from_span_matches_linspace():
    g = Grid1D.from_span(-3.0, 7.0, 41)
    assert np.allclose(g.points, np.linspace(-3.0, 7.0, 41), rtol=0, atol=1e-14)


def test_grid_rejects_degenerate():
    with pytest.raises(DomainError):
        Grid1D.from_span(1.0, 1.0, 10)
    with pytest.raises(DomainError):
        Grid1D.from_span(0.0, 1.0, 1)


# ---------------------------------------------------------------------------
# Simpson weights and grid integration
# ---------------------------------------------------------------------------

def test_simpson_weights_sum_to_span():
    for count in (2, 3, 4, 5, 6, 9, 10, 101, 1024):
        w = simpson_weights(count, 0.25)
        assert w.sum() == pytest.approx(0.25 * (count - 1), rel=1e-13)


def test_simpson_exact_for_cubics():
    # composite Simpson integrates cubics exactly on odd-count grids
    g = Grid1D.from_span(0.0, 2.0, 21)
    x = g.points
    val = integrate_grid(x**3 - 2.0 * x**2 + x - 1.0, g)
    exact = 2.0**4 / 4 - 2.0 * 2.0**3 / 3 + 2.0**2 / 2 - 2.0
    assert val == pytest.approx(exact, rel=1e-13)


def test_integrate_grid_gaussian_sqrt_pi():
    g = Grid1D.symmetric(8.0, 801)
    val = integrate_grid(np.exp(-g.points**2), g)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_integrate_grid_linearity():
    g = Grid1D.from_span(0.0, 1.0, 33)
    f = np.sin(g.points)
    h = np.cos(3.0 * g.points)
    lhs = integrate_grid(2.0 * f + 0.5 * h, g)
    rhs = 2.0 * integrate_grid(f, g) + 0.5 * integrate_grid(h, g)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_integrate_grid_even_count_tail_rule():
    # even node counts use a 3/8 closing panel; quartic still near-exact
    g = Grid1D.from_span(0.0, 1.0, 32)
    val = integrate_grid(g.points**2, g)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-9)


# ---------------------------------------------------------------------------
# integrate_radial: Gamma-moment oracle
# ---------------------------------------------------------------------------

def one(r):
    return np.ones_like(r)


@pytest.mark.parametrize("alpha", [-0.998, -0.5, 0.0, 1.3, 3.7])
@pytest.mark.parametrize("n", [4, 8, 64])
def test_gauss_laguerre_rule_matches_scipy(alpha, n):
    # decay 1/2 makes r = u, so the Gauss row is the plain generalized
    # Gauss-Laguerre rule; its weights are normalized to sum 1
    nodes, weights = _gauss_laguerre_pair(n, alpha, 0.5)
    ref_nodes, ref_weights = roots_genlaguerre(n, alpha)
    ref_weights /= scipy_gamma(alpha + 1.0)
    np.testing.assert_allclose(nodes[0], ref_nodes, rtol=1e-12)
    np.testing.assert_allclose(weights[0], ref_weights, rtol=0.0, atol=1e-12 * ref_weights.max())
    assert abs(weights.sum(axis=1) - 1.0).max() <= 8 * n * 2.0**-53
    # the anti-Gauss nodes interlace the Gauss ones and stay on the half-line
    assert 0.0 < nodes[1, 0] and np.all(np.diff(nodes[1]) > 0.0)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("lam", [0.2, 1.0, 3.5])
def test_radial_moments_match_gamma(p, lam):
    # the weight is r^p exp(-2 decay r); decay is half the exponential rate
    val, _, _ = integrate_radial(one, power=p, decay=0.5 * lam)
    oracle = float(scipy_gamma(p + 1.0)) / lam ** (p + 1.0)
    assert val == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("p", [-0.5, 0.0, 1.3])
@pytest.mark.parametrize("k", [1, 2, 3.5])
def test_radial_shifted_moments_match_gamma(p, k):
    # f = r^k under the weight r^p e^(-r) is the moment of order p + k
    val, _, _ = integrate_radial(lambda r: r**k, power=p, decay=0.5)
    assert val == pytest.approx(float(scipy_gamma(p + k + 1.0)), rel=1e-9)


def test_radial_handles_integrable_endpoint_singularity():
    # r^-0.5 diverges at r = 0 but is integrable; it is part of the
    # Gauss-Laguerre weight, so no node meets it
    val, _, _ = integrate_radial(one, power=-0.5, decay=0.5)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def nan_past_the_first_call():
    # finite on the first rule's nodes, which do not converge on it; the
    # next rule's nodes hold a nan
    calls = []

    def f(r):
        calls.append(r.size)
        v = 2.0 + np.cos(300.0 * r)
        if len(calls) > 1:
            v[r.size // 2] = np.nan
        return v
    return f


def test_radial_rejects_non_finite_integrand_values():
    # refused as DomainError with no floating-point warning, also where the
    # signs of the infinities differ
    integrands = [
        lambda r: np.where(r < 1.0, np.inf, 1.0),
        lambda r: np.where(r < 1.0, np.inf, -np.inf),
        lambda r: np.where(r < 1.0, -np.inf, 1.0),
        lambda r: np.where(r < 1.0, np.nan, 1.0),
        lambda r: np.stack((np.ones_like(r), np.where(r > 1.0, -np.inf, 1.0))),
        nan_past_the_first_call(),
    ]
    for f in integrands:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                integrate_radial(f, power=0.0, decay=1.0)


def test_radial_warns_when_a_finite_integrand_overflows():
    # the values are finite, but the integral, 1e308 / (2 decay) = 2e308, is
    # not: numpy's overflow warning stays on, and value and error read inf
    with pytest.warns(RuntimeWarning, match="overflow"):
        value, err, _ = integrate_radial(lambda r: np.full_like(r, 1e308), power=0.0, decay=0.25)
    assert value == err == math.inf


@pytest.mark.parametrize("power, decay", [(176.0, 1.0), (191.0, 100.0), (200.0, 100.0),
                                          (240.0, 3.0), (1000.0, 180.0)])
def test_radial_takes_a_power_whose_gamma_overflows(power, decay):
    # Gamma(201) ~ 7.9e374 is past the float range, but the integral of
    # r^200 exp(-200 r), 200! / 200^201 ~ 2.45e-88, is not: the scale is
    # formed from its log, with no OverflowError, and the error estimate
    # covers that log's rounding, ~1e-13 here, against the exact integral
    value, err, _ = integrate_radial(one, power, decay)
    exact = Fraction(math.factorial(int(power))) / Fraction(2.0 * decay) ** (int(power) + 1)
    assert abs(Fraction(value) - exact) <= err <= 1e-11 * value


@pytest.mark.parametrize("f", [one, lambda r: 1.0 + r], ids=["one", "one_plus_r"])
def test_radial_warns_when_a_gamma_overflowing_scale_overflows(f):
    # Gamma(201) / 0.002^201 ~ 1e917 is past the float range: numpy's
    # overflow warning stays on, and value and error read inf, also where the
    # Gauss and anti-Gauss sums agree exactly (inf times a zero change would
    # be a nan error, with an invalid-value warning)
    with pytest.warns(RuntimeWarning) as caught:
        value, err, _ = integrate_radial(f, power=200.0, decay=1e-3)
    assert [str(w.message) for w in caught] == ["overflow encountered in exp"]
    assert value == err == math.inf


def assert_stacked_rows_match_one_row_calls(rows, power, decay):
    singles = [integrate_radial(g, power, decay) for g in rows]
    value, err, count = integrate_radial(lambda r: np.array([g(r) for g in rows]),
                                         power, decay)
    assert value.shape == err.shape == (len(rows),)
    assert count == max(c for _, _, c in singles)
    for i, (v, e, c) in enumerate(singles):
        if c == count:
            assert (value[i], err[i]) == (v, e)
    return [c for _, _, c in singles]


@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("lam", [0.2, 1.0, 3.5])
def test_radial_stacked_rows_match_one_row_calls(p, lam):
    assert_stacked_rows_match_one_row_calls([one, lambda r: r], p, 0.5 * lam)


def test_radial_stacked_rows_at_a_large_transform_order():
    # power -0.98, where the weight's endpoint singularity is strongest in
    # the tested domains; under r^-0.98 e^-r the polynomial rows 1, r, r^2
    # give Gamma(0.02), Gamma(1.02), Gamma(2.02), exactly on the first rule
    rows = [one, lambda r: r, lambda r: r * r]
    counts = assert_stacked_rows_match_one_row_calls(rows, -0.98, 0.5)
    assert counts == [4] * 3
    value, _, _ = integrate_radial(lambda r: np.array([g(r) for g in rows]), -0.98, 0.5)
    assert value == pytest.approx([float(scipy_gamma(x)) for x in (0.02, 1.02, 2.02)], rel=1e-13)


def test_radial_error_estimate_counts_the_rounding_of_signed_integrands():
    # (r - a) e^-r integrates to 1 - a, its magnitude to a - 1 + 2 e^-a: the
    # rounding term scales with the magnitude, not with the cancelled value
    a = 0.9
    value, err, count = integrate_radial(lambda r: r - a, power=0.0, decay=0.5)
    assert abs(value - (1.0 - a)) <= err
    assert err >= 0.99 * count * 2.0**-53 * (a - 1.0 + 2.0 * math.exp(-a))


def test_radial_rejects_bad_parameters():
    with pytest.raises(DomainError):
        integrate_radial(one, power=-1.0, decay=1.0)
    with pytest.raises(DomainError):
        integrate_radial(one, power=0.0, decay=0.0)


@settings(max_examples=25, deadline=None)
@given(p=st.floats(min_value=-0.45, max_value=4.0),
       lam=st.floats(min_value=0.1, max_value=5.0))
def test_radial_moment_property(p, lam):
    val, _, _ = integrate_radial(one, power=p, decay=0.5 * lam)
    oracle = float(scipy_gamma(p + 1.0)) / lam ** (p + 1.0)
    assert val == pytest.approx(oracle, rel=1e-8)


# ---------------------------------------------------------------------------
# spectral synthesis
# ---------------------------------------------------------------------------

def direct_sum(coeffs, zgrid, t=0.0, block=1024):
    """Oracle: sum_k w_k c_k exp(i (k z - omega_k t)) as explicit outer products."""
    k = coeffs.kgrid.points
    weighted = (simpson_weights(coeffs.kgrid.count, coeffs.kgrid.step) * coeffs.values
                * np.exp(-1j * t * np.sqrt(1.0 + k * k)))
    z = zgrid.points
    out = np.empty(zgrid.count, dtype=complex)
    for lo in range(0, zgrid.count, block):
        out[lo:lo + block] = np.exp(1j * np.outer(z[lo:lo + block], k)) @ weighted
    return out


def random_packet_coeffs(mode_count, k_center, k_half_width, seed):
    """Gaussian envelope (edge at exp(-18) of peak) with random mode phases."""
    kgrid = Grid1D.from_span(k_center - k_half_width, k_center + k_half_width, mode_count)
    u = (kgrid.points - k_center) / k_half_width
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, mode_count)
    return SpectralCoefficients(kgrid, np.exp(-18.0 * u * u + 1j * phases))


@settings(max_examples=60, deadline=None)
@given(mode_count=st.integers(min_value=16, max_value=300),
       z_count=st.integers(min_value=16, max_value=300),
       k_center=st.floats(min_value=-3.0, max_value=3.0),
       k_half_width=st.floats(min_value=0.1, max_value=1.5),
       z_step=st.floats(min_value=0.05, max_value=0.5),
       skew=st.floats(min_value=-0.4, max_value=0.4),
       t=st.floats(min_value=0.0, max_value=50.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(mode_count=16, z_count=300, k_center=3.0, k_half_width=1.5, z_step=0.5,
         skew=0.4, t=50.0, seed=0)
@example(mode_count=299, z_count=17, k_center=-2.0, k_half_width=0.1, z_step=0.05,
         skew=-0.4, t=50.0, seed=1)
def test_synthesize_matches_direct_sum(mode_count, z_count, k_center, k_half_width,
                                       z_step, skew, t, seed):
    coeffs = random_packet_coeffs(mode_count, k_center, k_half_width, seed)
    # window tracks the group velocity (z = xi + v t) and sits off center
    velocity = k_center / math.sqrt(1.0 + k_center**2)
    span = (z_count - 1) * z_step
    zgrid = Grid1D(start=velocity * t - (0.5 + skew) * span, step=z_step, count=z_count)
    out = synthesize(coeffs, zgrid, t=t)
    ref = direct_sum(coeffs, zgrid, t=t)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("mode_count", [17, 64, 255])
def test_synthesize_matches_scipy_czt(mode_count):
    # out_j = exp(i j dz k0) sum_n [w_n c_n exp(i z0 k_n)] W^(n j), W = exp(i dz dk)
    coeffs = random_packet_coeffs(mode_count, 1.3, 0.8, seed=mode_count)
    zgrid = Grid1D(start=-17.0, step=0.11, count=201)
    kgrid = coeffs.kgrid
    x = (simpson_weights(kgrid.count, kgrid.step) * coeffs.values
         * np.exp(1j * zgrid.start * kgrid.points))
    j = np.arange(zgrid.count)
    ref = (np.exp(1j * j * zgrid.step * kgrid.start)
           * czt(x, m=zgrid.count, w=np.exp(1j * zgrid.step * kgrid.step), a=1.0))
    out = synthesize(coeffs, zgrid)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_synthesize_full_size_panel_matches_direct_sum():
    # production panel: 8192 window nodes x 2049 modes at beta = 0.99999
    spec = PacketSpec(model=ModelKind.DIRAC, beta=0.99999)
    coeffs, _ = mode_coefficients(spec)
    window = spec.window()
    assert (window.count, coeffs.kgrid.count) == (8192, 2049)
    for out, row in zip(synthesize(coeffs, window), coeffs.values):  # theta, then chi
        ref = direct_sum(SpectralCoefficients(coeffs.kgrid, row), window)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_spectral_coefficients_reject_leaking_tails():
    kgrid = Grid1D.symmetric(2.0, 33)
    vals = np.exp(-kgrid.points**2)  # edge value exp(-4) ~ 1.8e-2 of peak
    with pytest.raises(TailLeakageError):
        SpectralCoefficients(kgrid, vals)


def test_spectral_coefficients_reject_a_stack_whose_second_row_alone_leaks():
    # each row is judged against its own peak: a small chi row whose edges
    # are 1.8e-2 of its peak leaks, though they are 1.8e-8 of theta's peak
    kgrid = Grid1D.symmetric(2.0, 33)
    closed = np.exp(-8.0 * kgrid.points**2)  # edge exp(-32) ~ 1e-14 of peak
    leaking = 1e-6 * np.exp(-kgrid.points**2)
    SpectralCoefficients(kgrid, np.stack([closed, closed]))
    with pytest.raises(TailLeakageError):
        SpectralCoefficients(kgrid, np.stack([closed, leaking]))


@pytest.mark.parametrize("shape", [(), (3,), (2, 32), (1, 2, 33)])
def test_spectral_coefficients_take_one_row_or_a_stack_of_rows(shape):
    with pytest.raises(DomainError, match="does not match grid count 33"):
        SpectralCoefficients(Grid1D.symmetric(2.0, 33), np.zeros(shape))


@pytest.mark.parametrize("model", [ModelKind.KLEIN_GORDON, ModelKind.DIRAC])
@pytest.mark.parametrize("beta, t", [(0.5, 0.0), (0.99999, 0.0), (0.9, 37.5)])
def test_synthesize_stack_gives_the_bits_of_one_row_calls(model, beta, t):
    # a figure panel's two channels (and a moved packet at t != 0) in one
    # pass equal the one-row passes bit for bit
    spec = PacketSpec(model=model, beta=beta, t=t)
    coeffs, _ = mode_coefficients(spec)
    window = spec.window()
    stacked = synthesize(coeffs, window, t=t)
    assert stacked.shape == (2, window.count)
    for out, row in zip(stacked, coeffs.values, strict=True):
        assert np.array_equal(out, synthesize(SpectralCoefficients(coeffs.kgrid, row), window, t=t))


def test_synthesize_single_mode_is_plane_wave():
    # one nonzero coefficient must synthesize c * w * exp(i k z) with the
    # Simpson weight of that node
    kgrid = Grid1D.symmetric(4.0, 9)
    vals = np.zeros(9, dtype=complex)
    vals[4] = 2.0 - 1.0j  # k = 0 node
    coeffs = SpectralCoefficients(kgrid, vals)
    zgrid = Grid1D.symmetric(3.0, 16)
    out = synthesize(coeffs, zgrid)
    w = simpson_weights(9, kgrid.step)[4]
    assert np.allclose(out, (2.0 - 1.0j) * w * np.ones(16), rtol=1e-13)


def test_synthesize_time_phase():
    # a k = 0 mode rotates as exp(-i t) on the mass shell (omega = 1)
    kgrid = Grid1D.symmetric(4.0, 9)
    vals = np.zeros(9, dtype=complex)
    vals[4] = 1.0
    coeffs = SpectralCoefficients(kgrid, vals)
    zgrid = Grid1D.symmetric(1.0, 4)
    t = 0.7
    out = synthesize(coeffs, zgrid, t=t)
    ref = synthesize(coeffs, zgrid) * np.exp(-1j * t)
    assert np.allclose(out, ref, rtol=1e-13)


def test_synthesize_parseval():
    # int |f|^2 dz = 2 pi int |a|^2 dk for a well-resolved gaussian
    sigma = 0.05
    kgrid = Grid1D.symmetric(1.8, 801)
    a = (sigma / math.pi) ** 0.25 * np.exp(-kgrid.points**2 / (2.0 * sigma))
    coeffs = SpectralCoefficients(kgrid, a.astype(complex))
    zgrid = Grid1D.symmetric(60.0, 4001)
    f = synthesize(coeffs, zgrid)
    lhs = integrate_grid(np.abs(f) ** 2, zgrid)
    rhs = 2.0 * math.pi * integrate_grid(np.abs(a) ** 2, kgrid)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_synthesize_linearity():
    kgrid = Grid1D.symmetric(3.0, 65)
    rng = np.random.default_rng(7)
    # envelope squeezes the random edge values safely under the tail check
    a = rng.normal(size=65) * np.exp(-2.0 * kgrid.points**2)
    b = rng.normal(size=65) * np.exp(-2.0 * kgrid.points**2)
    zgrid = Grid1D.symmetric(2.0, 50)
    ca = SpectralCoefficients(kgrid, a.astype(complex))
    cb = SpectralCoefficients(kgrid, b.astype(complex))
    csum = SpectralCoefficients(kgrid, (a + 3.0 * b).astype(complex))
    out = synthesize(csum, zgrid)
    ref = synthesize(ca, zgrid) + 3.0 * synthesize(cb, zgrid)
    assert np.allclose(out, ref, rtol=1e-12, atol=1e-15)
