"""Boosted Gaussian packets: mode maps, synthesis, measured ratios.

Heavier sweeps (full beta grids with timing budgets) live in the acceptance
suite; here each mechanism is pinned at spot values computed independently.
"""

import itertools
import math
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest

from antimix.diracfree import dirac_free_ratio
from antimix.errors import BoundaryLeakageError, DomainError
from antimix.kgfree import kg_free_ratio
from antimix.packets import (
    DEFAULT_SIGMA,
    XI_COUNT,
    ComponentField,
    PacketSpec,
    boost_amplitude,
    boosted_wavenumber,
    default_window_half_width,
    full_width_half_max,
    gaussian_rest_amplitude,
    mode_coefficients,
    packet_report,
    rest_wavenumber,
    synthesize_packet,
)
from antimix.quad import Grid1D, integrate_grid
from antimix.units import ModelKind, gamma_factor


@pytest.fixture(scope="module")
def rest_kg():
    return synthesize_packet(PacketSpec(model=ModelKind.KLEIN_GORDON))


@pytest.fixture(scope="module")
def fast_kg():
    return synthesize_packet(PacketSpec(model=ModelKind.KLEIN_GORDON, beta=0.9))


@pytest.fixture(scope="module")
def fast_dirac():
    return synthesize_packet(PacketSpec(model=ModelKind.DIRAC, beta=0.9))


# ---------------------------------------------------------------------------
# mode maps
# ---------------------------------------------------------------------------

def test_wavenumber_maps_are_inverse():
    k = np.linspace(-0.1, 0.1, 41)
    for beta in (0.0, 0.5, 0.99):
        q = boosted_wavenumber(k, beta)
        assert np.allclose(rest_wavenumber(q, beta), k, rtol=0, atol=1e-12)


@pytest.mark.parametrize("beta", [0.5, 0.99, 0.99999])
def test_rest_wavenumber_matches_decimal_reference(beta):
    # q sits near beta omega_q as beta -> 1, so q - beta omega_q cancels unless
    # it is rearranged; k is judged where it is not itself near zero
    q = boosted_wavenumber(np.linspace(-0.16, 0.16, 641), beta)
    k = rest_wavenumber(q, beta)
    with localcontext(Context(prec=60)):
        b = Decimal(beta)
        g = 1 / (1 - b * b).sqrt()
        exact = [g * (Decimal(v) - b * (1 + Decimal(v) ** 2).sqrt()) for v in q.tolist()]
        rel = [abs((Decimal(got) - ref) / ref)
               for got, ref in zip(k.tolist(), exact) if abs(ref) >= Decimal("0.05")]
    assert len(rel) > 300
    assert max(rel) <= Decimal("1e-14")


def test_rest_wavenumber_is_the_identity_at_rest():
    q = np.linspace(-5.0, 5.0, 101)
    assert np.array_equal(rest_wavenumber(q, 0.0), q)


def test_boosted_carrier_is_gamma_beta():
    # the rest carrier k = 0 maps to q = gamma beta
    for beta in (0.3, 0.5, 0.9):
        g = gamma_factor(beta)
        assert float(boosted_wavenumber(0.0, beta)) == pytest.approx(g * beta, rel=1e-14)


def test_boost_amplitude_identity_at_rest():
    kgrid = Grid1D.symmetric(5.5 * math.sqrt(DEFAULT_SIGMA), 257)
    coeffs = boost_amplitude(0.0, kgrid, DEFAULT_SIGMA)
    assert np.allclose(coeffs.values, gaussian_rest_amplitude(kgrid.points),
                       rtol=1e-14, atol=0)


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.99])
def test_boost_preserves_mode_intensity_integral(beta):
    # int |A|^2 dq = int |a|^2 dk = sigma for the unit-height Gaussian recipe
    sigma = DEFAULT_SIGMA
    k_half = 5.5 * math.sqrt(sigma)
    qgrid = Grid1D.from_span(float(boosted_wavenumber(-k_half, beta)),
                             float(boosted_wavenumber(k_half, beta)), 2049)
    coeffs = boost_amplitude(beta, qgrid, sigma)
    total = integrate_grid(np.abs(coeffs.values) ** 2, qgrid)
    assert total == pytest.approx(sigma, rel=1e-10)


def test_boosted_centroid_is_gamma_beta():
    beta = 0.5
    sigma = DEFAULT_SIGMA
    k_half = 5.5 * math.sqrt(sigma)
    qgrid = Grid1D.from_span(float(boosted_wavenumber(-k_half, beta)),
                             float(boosted_wavenumber(k_half, beta)), 2049)
    coeffs = boost_amplitude(beta, qgrid, sigma)
    w2 = np.abs(coeffs.values) ** 2
    centroid = integrate_grid(qgrid.points * w2, qgrid) / integrate_grid(w2, qgrid)
    assert centroid == pytest.approx(gamma_factor(beta) * beta, rel=1e-3)


def test_mode_coefficients_tails_are_closed():
    spec = PacketSpec(model=ModelKind.KLEIN_GORDON, beta=0.9)
    theta_c, chi_c, tail_mass = mode_coefficients(spec)
    assert tail_mass <= 1e-12
    for coeffs in (theta_c, chi_c):
        mags = np.abs(coeffs.values)
        assert max(mags[0], mags[-1]) <= 1e-6 * mags.max()


@pytest.mark.parametrize("model", [ModelKind.KLEIN_GORDON, ModelKind.DIRAC])
@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.99, 0.99999])
def test_parseval_ratio_matches_position_space(model, beta):
    # Parseval: the channel ratio of the mode intensities equals the ratio of
    # the synthesized position-space intensities
    spec = PacketSpec(model=model, beta=beta)
    theta_c, chi_c, _ = mode_coefficients(spec)
    from_modes = (integrate_grid(np.abs(chi_c.values) ** 2, chi_c.kgrid)
                  / integrate_grid(np.abs(theta_c.values) ** 2, theta_c.kgrid))
    from_fields = synthesize_packet(spec).channel_intensity_ratio()
    assert from_modes == pytest.approx(from_fields, rel=1e-10)


# ---------------------------------------------------------------------------
# synthesized fields
# ---------------------------------------------------------------------------

def test_rest_packet_is_almost_pure_matter(rest_kg):
    # chi carries only the quartic tail of the mode distribution:
    # ratio ~ 3 sigma^2 / 64 ~ 5e-10 at the default sigma
    assert rest_kg.channel_intensity_ratio() < 1e-7


def test_rest_packet_charge_is_8_pi_sigma(rest_kg):
    assert rest_kg.charge == pytest.approx(8.0 * math.pi * DEFAULT_SIGMA, rel=1e-4)


def test_rest_packet_theta_is_twice_the_scalar_field(rest_kg):
    # at rest theta ~ 2 Phi and chi ~ 0, so |theta|^2 integrates to
    # 4 * 2 pi sigma at leading order
    norm = integrate_grid(np.abs(rest_kg.theta) ** 2, rest_kg.grid)
    assert norm == pytest.approx(4.0 * 2.0 * math.pi * DEFAULT_SIGMA, rel=1e-3)


def test_kg_packet_ratio_tracks_closed_form(fast_kg):
    closed = kg_free_ratio(0.9).value
    assert abs(fast_kg.channel_intensity_ratio() - closed) < 1e-3


def test_dirac_packet_ratio_tracks_closed_form(fast_dirac):
    closed = dirac_free_ratio(0.9).value
    assert abs(fast_dirac.channel_intensity_ratio() - closed) < 1e-3


def test_kg_charge_scales_with_gamma(rest_kg, fast_kg):
    # the channel split stores energy: the mode-intensity integral is boost
    # invariant but the charge integral picks up one factor of gamma
    assert fast_kg.charge / rest_kg.charge == pytest.approx(gamma_factor(0.9), rel=1e-6)


def test_dirac_norm_is_boost_invariant(fast_dirac):
    rest = synthesize_packet(PacketSpec(model=ModelKind.DIRAC))
    assert fast_dirac.charge == pytest.approx(rest.charge, rel=1e-8)


def test_fwhm_lorentz_contraction(rest_kg, fast_kg):
    w0 = full_width_half_max(rest_kg.grid, rest_kg.rho)
    w = full_width_half_max(fast_kg.grid, fast_kg.rho)
    assert w * gamma_factor(0.9) / w0 == pytest.approx(1.0, abs=0.02)


def test_rest_fwhm_matches_gaussian_width(rest_kg):
    # rho ~ |theta|^2 ~ exp(-sigma xi^2): fwhm = 2 sqrt(ln 2 / sigma)
    w = full_width_half_max(rest_kg.grid, rest_kg.rho)
    assert w == pytest.approx(2.0 * math.sqrt(math.log(2.0) / DEFAULT_SIGMA), rel=1e-3)


def test_density_positive_inside_window(fast_kg):
    assert np.all(fast_kg.rho > -1e-12 * fast_kg.rho.max())


def test_dirac_density_strictly_positive(fast_dirac):
    assert np.all(fast_dirac.rho > 0.0)


def test_packet_time_translation_preserves_charge():
    early = synthesize_packet(PacketSpec(model=ModelKind.KLEIN_GORDON, beta=0.5))
    late = synthesize_packet(PacketSpec(model=ModelKind.KLEIN_GORDON, beta=0.5, t=25.0))
    assert late.charge == pytest.approx(early.charge, rel=1e-9)
    assert late.channel_intensity_ratio() == pytest.approx(
        early.channel_intensity_ratio(), rel=1e-9)


# ---------------------------------------------------------------------------
# low-speed closed form
# ---------------------------------------------------------------------------

def lowspeed_closed_form(sigma, zgrid, t=0.0):
    """Unit-norm analytic rest packet in the quadratic-dispersion regime.

    (sigma/pi)^(1/4) (1 + i sigma t)^(-1/2) exp(-sigma z^2 / (2 (1 + i sigma t)) - i t),
    valid while sigma t << 1.  A synthesized rest packet matches this after
    dividing out its 2 pi sigma mode normalization.
    """
    z = zgrid.points
    spread = 1.0 + 1j * sigma * t
    return ((sigma / math.pi) ** 0.25 / np.sqrt(spread)
            * np.exp(-sigma * z * z / (2.0 * spread) - 1j * t))


def test_lowspeed_matches_rest_synthesis_at_t0(rest_kg):
    phi = 0.5 * (rest_kg.theta + rest_kg.chi)
    unit = phi / math.sqrt(2.0 * math.pi * DEFAULT_SIGMA)
    ref = lowspeed_closed_form(DEFAULT_SIGMA, rest_kg.grid)
    assert np.max(np.abs(np.abs(unit) - np.abs(ref))) < 1e-3


def test_lowspeed_matches_rest_synthesis_at_t10():
    fld = synthesize_packet(PacketSpec(model=ModelKind.KLEIN_GORDON, t=10.0))
    phi = 0.5 * (fld.theta + fld.chi)
    unit = phi / math.sqrt(2.0 * math.pi * DEFAULT_SIGMA)
    ref = lowspeed_closed_form(DEFAULT_SIGMA, fld.grid, t=10.0)
    assert np.max(np.abs(np.abs(unit) - np.abs(ref))) < 1e-3


def test_lowspeed_is_unit_norm():
    zgrid = Grid1D.symmetric(600.0, 8001)
    vals = lowspeed_closed_form(DEFAULT_SIGMA, zgrid)
    assert integrate_grid(np.abs(vals) ** 2, zgrid) == pytest.approx(1.0, rel=1e-8)


# ---------------------------------------------------------------------------
# validation and reports
# ---------------------------------------------------------------------------

def test_spec_rejects_narrow_window():
    with pytest.raises(DomainError):
        PacketSpec(model=ModelKind.KLEIN_GORDON,
                   zgrid=Grid1D.symmetric(100.0, 1024))  # edge ~ exp(-1) of peak


@pytest.mark.parametrize("half_width", [1e4, 1e20, 1e200])
def test_spec_refuses_a_window_coarser_than_the_packet(half_width):
    # 1024 nodes over +-1e4 are 19.5 apart, wider than the density FWHM of
    # 14.4 at beta = 0.5, sigma = 0.01: no node would resolve the packet
    with pytest.raises(DomainError, match="density FWHM"):
        PacketSpec(model=ModelKind.KLEIN_GORDON, beta=0.5, sigma=0.01,
                   zgrid=Grid1D.symmetric(half_width, 1024))


def test_spec_predicts_the_edge_of_a_huge_window_without_overflow():
    # fine enough to resolve the packet, so only the edge prediction runs;
    # Grid1D holds no nodes, so 10^300 of them cost nothing here
    spec = PacketSpec(model=ModelKind.KLEIN_GORDON, beta=0.5, sigma=0.01,
                      zgrid=Grid1D.symmetric(1e200, 10**300))
    assert spec.window().step < 1e-99


def test_spec_rejects_offcenter_window():
    with pytest.raises(DomainError):
        PacketSpec(model=ModelKind.KLEIN_GORDON,
                   zgrid=Grid1D.from_span(10.0, 900.0, 1024))


def test_spec_rejects_wide_sigma():
    with pytest.raises(DomainError):
        PacketSpec(model=ModelKind.KLEIN_GORDON, sigma=0.02)  # sqrt > 0.1


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_spec_rejects_nonfinite_time(t):
    with pytest.raises(DomainError, match="time t must be finite"):
        PacketSpec(model=ModelKind.KLEIN_GORDON, t=t)


def test_spec_has_no_node_count():
    # a default window has XI_COUNT nodes; any other window is a zgrid
    with pytest.raises(TypeError, match="xi_count"):
        PacketSpec(model=ModelKind.KLEIN_GORDON, beta=0.99999, xi_count=16)


@pytest.mark.parametrize("model", [ModelKind.KLEIN_GORDON, ModelKind.DIRAC])
def test_default_window_resolves_the_packet_at_every_speed(model):
    # the window narrows as 1/gamma with the packet, so its XI_COUNT nodes
    # put ~1200 across the density FWHM from rest to beta = 0.99999
    for beta in (0.0, 0.99999):
        fld = synthesize_packet(PacketSpec(model=model, beta=beta))
        assert fld.grid.count == XI_COUNT
        assert 1150.0 < packet_report(fld).fwhm / fld.grid.step < 1400.0


@pytest.mark.parametrize("model", [ModelKind.KLEIN_GORDON, ModelKind.DIRAC])
def test_default_window_holds_the_packet_at_every_time(model):
    # the window grows by |t| times the drift of the momentum window's slower
    # edge mode; without that term kg at beta 0.5 and 0.9 and Dirac at 0.5,
    # 0.9 and 0.99 leaked at sigma = 0.01, t = +-50.  The widest window still
    # puts 876 nodes across the density FWHM (kg, beta 0.5, sigma 0.01, t 50)
    for beta, sigma, t in itertools.product((0.0, 0.5, 0.9, 0.99, 0.99999),
                                            (1e-6, 1e-4, 0.01), (-50.0, -10.0, 10.0, 50.0)):
        fld = synthesize_packet(PacketSpec(model=model, beta=beta, sigma=sigma, t=t))
        assert packet_report(fld).fwhm / fld.grid.step > 800.0


def test_default_window_shrinks_with_gamma():
    hw0 = default_window_half_width(DEFAULT_SIGMA, 0.0)
    hw9 = default_window_half_width(DEFAULT_SIGMA, 0.9)
    assert hw9 == pytest.approx(hw0 / gamma_factor(0.9), rel=1e-12)
    # at t = 0 the window is that half width, with no drift term
    assert PacketSpec(model=ModelKind.DIRAC, beta=0.9).window().start == -hw9


def test_component_field_flags_hot_edges():
    grid = Grid1D.symmetric(10.0, 64)
    theta = np.exp(-0.05 * grid.points**2).astype(complex)  # edge ~ exp(-5)
    with pytest.raises(BoundaryLeakageError):
        ComponentField(model=ModelKind.KLEIN_GORDON, beta=0.0, sigma=1e-4,
                       t=0.0, grid=grid, theta=theta, chi=np.zeros(64, complex))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("channel", ["theta", "chi"])
def test_component_field_refuses_a_non_finite_sample(bad, channel):
    # an edge test alone passes a nan sample, which would give charge = nan
    grid = Grid1D.symmetric(10.0, 64)
    fields = {"theta": np.exp(-grid.points**2).astype(complex), "chi": np.zeros(64, complex)}
    fields[channel][20] = bad
    with pytest.raises(DomainError, match="fields theta and chi must be finite"):
        ComponentField(model=ModelKind.KLEIN_GORDON, beta=0.0, sigma=1e-4,
                       t=0.0, grid=grid, **fields)


def test_fwhm_of_sampled_gaussian():
    grid = Grid1D.symmetric(6.0, 2001)
    w = full_width_half_max(grid, np.exp(-grid.points**2))
    assert w == pytest.approx(2.0 * math.sqrt(math.log(2.0)), rel=1e-5)


def test_fwhm_rejects_edge_peak():
    grid = Grid1D.from_span(0.0, 5.0, 100)
    with pytest.raises(DomainError):
        full_width_half_max(grid, np.exp(-grid.points))


def test_packet_report_contents(fast_kg):
    rep = packet_report(fast_kg)
    assert rep.model == "kg"
    assert rep.beta == 0.9
    assert rep.gamma == pytest.approx(gamma_factor(0.9), rel=1e-15)
    assert rep.ratio.method == "quadrature"
    assert rep.ratio.abs_error_estimate <= 1e-12
    assert abs(rep.peak_xi) < 0.1  # peak stays at the window center
    doc = rep.to_dict()
    assert set(doc) == {"model", "beta", "gamma", "sigma", "t", "ratio",
                        "fwhm", "peak_rho", "peak_xi", "charge"}
    assert set(doc["ratio"]) == {"value", "method", "abs_error_estimate", "is_limit"}
