"""Boosted Gaussian wave packets split into particle and antiparticle channels.

A rest-frame packet with momentum profile a(k) = (sigma/pi)^(1/4) exp(-k^2/(2 sigma))
is carried to velocity beta by the mode map q = gamma (k + beta omega_k) with
amplitude reweighting A(q) = a(k(q)) sqrt(d k / d q), d k / d q = omega_k / omega_q,
which keeps the mode-intensity integral of |A|^2 fixed.  Each lab mode q then
contributes plane-wave channel amplitudes:

    Klein-Gordon:  theta ~ (1 + omega_q) A(q),   chi ~ (1 - omega_q) A(q)
    Dirac:         theta ~ u(q) A(q),            chi ~ l(q) A(q)

with u, l the unit-spinor components.  Both position-space channels come from
one chirp-z pass of trapezoid quadrature over the modes, on a window that
travels with the packet, xi = z - beta t, so it stays centered at any time.

sigma is the variance of the momentum-space intensity |a|^2 (the rest
position-space intensity envelope is exp(-sigma xi^2)); sqrt(sigma) <= 0.1 is
enforced so the envelope stays nonrelativistic while the carrier itself can
be ultrarelativistic, and sigma >= MIN_SIGMA so the momentum grid stays
resolved in floats.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .diracfree import dirac_component_amplitudes
from .errors import ConvergenceError, DomainError, TailLeakageError
from .kgfree import kg_component_amplitudes
from .quad import Grid1D, SpectralCoefficients, _check_fields, integrate_grid, synthesize
from .units import ModelKind, RatioResult, gamma_factor

DEFAULT_SIGMA = 1e-4
XI_COUNT = 8192  # nodes of the default window
MODE_COUNT = 2049  # momentum grid nodes
MAX_SQRT_SIGMA = 0.1
# below this the momentum grid step dq ~ 11 sqrt(sigma) / 2048 falls toward the
# float resolution of the carrier (it keeps dq at least ~2^11 ulps of it)
MIN_SIGMA = 1e-20

# intensity |theta|^2 + |chi|^2 at the window edge must stay below this
# fraction of its peak, otherwise the window is too narrow for the packet
BOUNDARY_INTENSITY_TOL = 1e-10
# the default window half width targets an edge intensity of 1e-14
_WINDOW_INTENSITY_FLOOR = 1e-14

# momentum half width in units of sqrt(sigma): starts where the dropped
# Gaussian tail mass erfc(x) is 7.4e-15 and widens until both channels'
# endpoint coefficients clear the spectral tail threshold
_MODE_HALF_WIDTH_START = 5.5
_MODE_HALF_WIDTH_STEP = 0.5
_MODE_HALF_WIDTH_MAX = 16.0


def _check_sigma(sigma: float) -> float:
    s = float(sigma)
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    if s < MIN_SIGMA:
        raise DomainError(f"sigma = {s:g} is below {MIN_SIGMA:g}, where the momentum grid "
                          "step nears the float resolution of the carrier")
    if math.sqrt(s) > MAX_SQRT_SIGMA:
        raise DomainError(
            f"sqrt(sigma) = {math.sqrt(s):.3g} exceeds {MAX_SQRT_SIGMA}; "
            "the narrow-packet regime is required"
        )
    return s


def gaussian_rest_amplitude(k, sigma: float = DEFAULT_SIGMA):
    """Rest-frame momentum profile; integral of |a|^2 over k equals sigma."""
    s = _check_sigma(sigma)
    k = np.asarray(k, dtype=float)
    return (s / math.pi) ** 0.25 * np.exp(-k * k / (2.0 * s))


def boosted_wavenumber(k, beta: float):
    """Mode map k -> q = gamma (k + beta omega_k)."""
    g = gamma_factor(beta)
    b = float(beta)
    k = np.asarray(k, dtype=float)
    return g * (k + b * np.sqrt(1.0 + k * k))


def rest_wavenumber(q, beta: float):
    """Inverse mode map q -> k = gamma (q - beta omega_q).

    For q >= 0, q - beta omega_q is evaluated as q (1 - beta) - beta / (omega_q + q),
    which does not cancel as beta -> 1 (q ~ beta omega_q there); for q < 0 the
    direct form does not cancel.
    """
    g = gamma_factor(beta)
    b = float(beta)
    q = np.asarray(q, dtype=float)
    omega = np.sqrt(1.0 + q * q)
    return g * np.where(q >= 0.0, q * (1.0 - b) - b / (omega + np.abs(q)), q - b * omega)


def boost_amplitude(beta: float, kgrid: Grid1D, sigma: float) -> SpectralCoefficients:
    """Lab-frame coefficients A(q) = a(k(q)) sqrt(omega_k / omega_q) on kgrid,
    a = gaussian_rest_amplitude of variance sigma.

    The Jacobian square root preserves the mode-intensity integral: the
    quadrature of |A|^2 over q equals that of |a|^2 over k.  At beta = 0 the
    map is the identity.  Raises TailLeakageError when kgrid fails to cover
    the boosted support.
    """
    q = kgrid.points
    k = rest_wavenumber(q, beta)
    omega_k = np.sqrt(1.0 + k * k)
    omega_q = np.sqrt(1.0 + q * q)
    values = gaussian_rest_amplitude(k, sigma) * np.sqrt(omega_k / omega_q)
    return SpectralCoefficients(kgrid, values)


def default_window_half_width(sigma: float = DEFAULT_SIGMA, beta: float = 0.0) -> float:
    """Half width putting the rest envelope edge intensity at 1e-14 of peak.

    The boosted envelope is the rest one contracted by gamma, so the width
    shrinks accordingly and the edge intensity ratio is preserved.
    """
    s = _check_sigma(sigma)
    return math.sqrt(-math.log(_WINDOW_INTENSITY_FLOOR) / s) / gamma_factor(beta)


@dataclass(frozen=True)
class PacketSpec:
    """Recipe for a synthesized two-component packet.

    zgrid is the comoving window over xi = z - beta t; None picks a default of
    XI_COUNT nodes, wide enough for the boundary invariant with an
    order-of-magnitude margin.  Its width scales as 1/gamma, like the packet,
    plus |t| times the fastest drift of the momentum window's edge modes off
    it.  So the density FWHM spans 1190-1342 nodes at t = 0 and at least 876
    at |t| <= 50, for both models, beta from 0 to 0.99999 and sigma from 1e-6
    to 0.01.  A zgrid coarser than the density FWHM 2 sqrt(ln 2 / sigma) /
    gamma is refused.
    """

    model: ModelKind
    beta: float = 0.0
    sigma: float = DEFAULT_SIGMA
    t: float = 0.0
    zgrid: Grid1D | None = None

    def __post_init__(self):
        g = gamma_factor(self.beta)  # domain check: 0 <= beta < 1
        _check_sigma(self.sigma)
        if not math.isfinite(self.t):
            raise DomainError(f"time t must be finite, got {self.t}")
        if self.zgrid is not None:
            if self.zgrid.start > 0.0 or self.zgrid.stop < 0.0:
                raise DomainError("window must contain the packet center xi = 0")
            fwhm = 2.0 * math.sqrt(math.log(2.0) / self.sigma) / g  # of the density envelope
            if self.zgrid.step > fwhm:
                raise DomainError(f"window step {self.zgrid.step:.3g} exceeds the packet's "
                                  f"density FWHM {fwhm:.3g}; use more nodes")
            # Gaussian-envelope prediction of the edge intensity ratio, exp(-sigma
            # (gamma xi)^2) < 1e-10 at both edges; 0 for a huge edge, no OverflowError
            edge = g * min(abs(self.zgrid.start), abs(self.zgrid.stop))
            predicted = math.exp(-self.sigma * edge * edge)
            if predicted >= BOUNDARY_INTENSITY_TOL:
                raise DomainError(
                    f"window too narrow: predicted edge intensity {predicted:.2e} "
                    f"of peak (must be < {BOUNDARY_INTENSITY_TOL:.0e})"
                )

    def window(self) -> Grid1D:
        if self.zgrid is not None:
            return self.zgrid
        # of the rest-frame edge modes k = +-5.5 sqrt(sigma), u = k / omega_k, moving at
        # (u +- beta) / (1 +- u beta), the slower drifts off at u (1 - beta^2) / (1 - u beta)
        k = _MODE_HALF_WIDTH_START * math.sqrt(self.sigma)
        u = k / math.hypot(1.0, k)
        drift = u * (1.0 - self.beta) * (1.0 + self.beta) / (1.0 - u * self.beta)
        hw = default_window_half_width(self.sigma, self.beta) + abs(self.t) * drift
        return Grid1D.symmetric(hw, XI_COUNT)


def mode_coefficients(spec: PacketSpec):
    """(coeffs, tail_mass_bound): the boosted packet's channels as one (2, MODE_COUNT)
    stack of coefficient rows, theta and chi, each the carrier times its amplitude.

    The momentum window spans +-x sqrt(sigma) around the carrier in the rest
    frame, mapped through the boost; x grows from 5.5 in steps of 0.5 until
    the endpoint amplitudes of both rows fall below the spectral tail
    threshold (the chi row, growing polynomially off center, binds), and
    tail_mass_bound is the dropped Gaussian tail mass erfc(x), at most 7.4e-15.
    """
    if spec.model is ModelKind.KLEIN_GORDON:
        channel_amplitudes = kg_component_amplitudes
    elif spec.model is ModelKind.DIRAC:
        channel_amplitudes = dirac_component_amplitudes
    else:
        raise DomainError(f"unknown model {spec.model}")
    x = _MODE_HALF_WIDTH_START
    last_err: Exception | None = None
    while x <= _MODE_HALF_WIDTH_MAX:
        k_half = x * math.sqrt(spec.sigma)
        q_lo = float(boosted_wavenumber(-k_half, spec.beta))
        q_hi = float(boosted_wavenumber(k_half, spec.beta))
        qgrid = Grid1D.from_span(q_lo, q_hi, MODE_COUNT)
        try:
            carrier = boost_amplitude(spec.beta, qgrid, spec.sigma)
            values = np.stack(channel_amplitudes(qgrid.points)) * carrier.values
            return SpectralCoefficients(qgrid, values), math.erfc(x)
        except TailLeakageError as err:
            last_err = err
            x += _MODE_HALF_WIDTH_STEP
    raise ConvergenceError(
        f"momentum window would not close below {_MODE_HALF_WIDTH_MAX:g} sqrt(sigma)"
    ) from last_err


@dataclass(frozen=True)
class ComponentField:
    """Synthesized theta and chi samples on a comoving window."""

    model: ModelKind
    beta: float
    sigma: float
    t: float
    grid: Grid1D  # comoving coordinate xi = z - beta t
    theta: np.ndarray
    chi: np.ndarray
    tail_mass_bound: float = 0.0  # dropped momentum-tail mass fraction

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=complex)
        ch = np.asarray(self.chi, dtype=complex)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "chi", ch)
        if th.shape != (self.grid.count,) or ch.shape != (self.grid.count,):
            raise DomainError("component arrays must match the window grid")
        peak = _check_fields(th, ch, BOUNDARY_INTENSITY_TOL, "widen the window")
        if not math.isfinite(peak):
            raise DomainError("fields theta and chi overflow: their peak intensity "
                              "|theta|^2 + |chi|^2 exceeds the float range")
        if peak > 0.0 and self.charge <= 0.0:
            raise DomainError("synthesized packet carries nonpositive total charge")

    @property
    def rho(self) -> np.ndarray:
        """Density: |theta|^2 - |chi|^2 (Klein-Gordon charge) or + (Dirac norm)."""
        t2 = np.abs(self.theta) ** 2
        c2 = np.abs(self.chi) ** 2
        return t2 - c2 if self.model is ModelKind.KLEIN_GORDON else t2 + c2

    @property
    def charge(self) -> float:
        return float(integrate_grid(self.rho, self.grid))

    def channel_intensity_ratio(self) -> float:
        """Integrated |chi|^2 over integrated |theta|^2."""
        num = float(integrate_grid(np.abs(self.chi) ** 2, self.grid))
        den = float(integrate_grid(np.abs(self.theta) ** 2, self.grid))
        return num / den


def synthesize_packet(spec: PacketSpec) -> ComponentField:
    """Build mode coefficients and synthesize both channels on the window.

    The trapezoid mode sum repeats every 2 pi/dq in z (dq the momentum grid
    step): a wider window is refused (DomainError).
    """
    coeffs, tail_mass = mode_coefficients(spec)
    window = spec.window()
    span, bound = (window.count - 1) * window.step, 2.0 * math.pi / coeffs.kgrid.step
    if span > bound:
        raise DomainError(
            f"window span {span:.4g} at t = {spec.t:g} exceeds 2 pi/dq = {bound:.4g}, the period "
            f"of the {coeffs.kgrid.count}-mode momentum grid's sum; use a smaller |t| or window")
    # evaluate at lab positions z = xi + beta t so the window tracks the packet
    zgrid = Grid1D(start=window.start + spec.beta * spec.t, step=window.step,
                   count=window.count)
    theta, chi = synthesize(coeffs, zgrid, t=spec.t)
    return ComponentField(model=spec.model, beta=spec.beta, sigma=spec.sigma,
                          t=spec.t, grid=window, theta=theta, chi=chi,
                          tail_mass_bound=tail_mass)


def full_width_half_max(grid: Grid1D, values) -> float:
    """FWHM of a sampled peaked curve with linear interpolation at the crossings.

    The peak must sit in the grid interior and both half-level crossings must
    exist inside the window.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.count,):
        raise DomainError("sample length does not match the grid")
    i = int(np.argmax(v))
    if i <= 0 or i >= grid.count - 1:
        raise DomainError("peak sits on the window edge; widen the window")
    half = 0.5 * v[i]
    z = grid.points

    j = i
    while j > 0 and v[j - 1] > half:
        j -= 1
    if j == 0 and v[0] > half:
        raise DomainError("left half-level crossing lies outside the window")
    frac = (half - v[j - 1]) / (v[j] - v[j - 1])
    left = z[j - 1] + frac * grid.step

    j = i
    while j < grid.count - 1 and v[j + 1] > half:
        j += 1
    if j == grid.count - 1 and v[-1] > half:
        raise DomainError("right half-level crossing lies outside the window")
    frac = (half - v[j + 1]) / (v[j] - v[j + 1])
    right = z[j + 1] - frac * grid.step

    return right - left


@dataclass(frozen=True)
class PacketReport:
    """Measured summary of a synthesized packet."""

    model: str
    beta: float
    gamma: float
    sigma: float
    t: float
    ratio: RatioResult  # integrated |chi|^2 / |theta|^2
    fwhm: float  # of the density profile rho
    peak_rho: float
    peak_xi: float
    charge: float

    def __post_init__(self):
        if not self.fwhm > 0.0:
            raise DomainError(f"fwhm must be positive, got {self.fwhm}")
        if self.model == ModelKind.KLEIN_GORDON.value and not self.peak_rho > 0.0:
            raise DomainError("Klein-Gordon density peak must be positive")

    def to_dict(self) -> dict:
        return asdict(self)


def packet_report(fld: ComponentField) -> PacketReport:
    """Measure the density profile of a synthesized field."""
    rho = fld.rho
    width = full_width_half_max(fld.grid, rho)
    peak_idx = int(np.argmax(rho))
    ratio = RatioResult(value=fld.channel_intensity_ratio(), method="quadrature",
                        abs_error_estimate=fld.tail_mass_bound)
    return PacketReport(
        model=fld.model.value,
        beta=fld.beta,
        gamma=gamma_factor(fld.beta),
        sigma=fld.sigma,
        t=fld.t,
        ratio=ratio,
        fwhm=width,
        peak_rho=float(rho[peak_idx]),
        peak_xi=float(fld.grid.points[peak_idx]),
        charge=fld.charge,
    )
