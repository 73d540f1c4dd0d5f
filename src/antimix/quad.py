"""Quadrature and spectral synthesis on uniform grids.

Grid integrals use composite Simpson weights (exact for cubics).  Half-line
radial integrals r^p * exp(-2*lambda*r) * smooth are handled by normalizing
the decay with u = 2*lambda*r, absorbing a fractional or negative endpoint
power with u = t^m, and then doubling the Simpson node count until successive
refinements agree.  Packet synthesis is the Simpson-weighted sum over
momentum modes, evaluated as a chirp-z transform with numpy's FFT, so an
8192 x 2049 panel costs a few milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, TailLeakageError

# relative endpoint amplitude above which spectral coefficients are considered truncated
TAIL_THRESHOLD = 1e-6

_RADIAL_MAX_DOUBLINGS = 15  # caps the finest grid near 2e6 nodes
_RADIAL_START_COUNT = 65


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid: nodes start + i*step for i in range(count)."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        if not (self.step > 0.0) or not math.isfinite(self.step):
            raise DomainError(f"grid step must be positive, got {self.step}")
        if self.count < 2:
            raise DomainError(f"grid needs at least 2 nodes, got {self.count}")
        if not math.isfinite(self.start):
            raise DomainError("grid start must be finite")

    @classmethod
    def from_span(cls, start: float, stop: float, count: int) -> "Grid1D":
        if count < 2:
            raise DomainError(f"grid needs at least 2 nodes, got {count}")
        if not stop > start:
            raise DomainError("grid stop must exceed start")
        return cls(start=float(start), step=(float(stop) - float(start)) / (count - 1), count=int(count))

    @classmethod
    def symmetric(cls, half_width: float, count: int) -> "Grid1D":
        return cls.from_span(-float(half_width), float(half_width), count)

    @property
    def stop(self) -> float:
        return self.start + (self.count - 1) * self.step

    @property
    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    def is_symmetric(self, tol: float = 1e-9) -> bool:
        return abs(self.start + self.stop) <= tol * self.step


@dataclass(frozen=True)
class SpectralCoefficients:
    """Complex mode amplitudes sampled on a momentum grid.

    The grid must cover the support: endpoint amplitudes above
    TAIL_THRESHOLD * max|values| raise TailLeakageError.
    """

    kgrid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.kgrid.count,):
            raise DomainError(f"coefficient array length {vals.shape} does not match grid count {self.kgrid.count}")
        if not np.all(np.isfinite(vals.view(float))):
            raise DomainError("spectral coefficients must be finite")
        peak = float(np.max(np.abs(vals)))
        if peak > 0.0:
            edge = max(abs(vals[0]), abs(vals[-1]))
            if edge > TAIL_THRESHOLD * peak:
                raise TailLeakageError(
                    f"momentum grid does not cover the packet: endpoint amplitude "
                    f"{edge:.3e} exceeds {TAIL_THRESHOLD:.1e} of peak {peak:.3e}"
                )


def simpson_weights(count: int, step: float) -> np.ndarray:
    """Composite Simpson weights on a uniform grid; exact for cubics.

    Odd counts use plain composite Simpson.  Even counts >= 4 close the last
    three intervals with the 3/8 rule, which keeps cubic exactness.  count == 2
    falls back to the trapezoid (nothing better exists on two nodes).
    """
    if count < 2:
        raise DomainError("need at least 2 nodes")
    h = float(step)
    if count == 2:
        return np.array([0.5 * h, 0.5 * h])
    w = np.zeros(count)
    if count % 2 == 1:
        w[0] = w[-1] = h / 3.0
        w[1:-1:2] = 4.0 * h / 3.0
        w[2:-1:2] = 2.0 * h / 3.0
    elif count == 4:
        w[:] = np.array([3.0, 9.0, 9.0, 3.0]) * h / 8.0
    else:
        # Simpson over the first count-3 nodes, 3/8 rule over the final 3 intervals
        body = count - 3
        w[0] = w[body - 1] = h / 3.0
        w[1:body - 1:2] = 4.0 * h / 3.0
        w[2:body - 1:2] = 2.0 * h / 3.0
        w[body - 1] += 3.0 * h / 8.0
        w[body] += 9.0 * h / 8.0
        w[body + 1] += 9.0 * h / 8.0
        w[body + 2] += 3.0 * h / 8.0
    return w


def integrate_grid(samples, grid: Grid1D) -> float | complex:
    """Integral of samples over the grid with composite Simpson weights."""
    vals = np.asarray(samples)
    if vals.shape != (grid.count,):
        raise DomainError(f"sample length {vals.shape} does not match grid count {grid.count}")
    total = np.dot(simpson_weights(grid.count, grid.step), vals)
    if np.iscomplexobj(vals):
        return complex(total)
    return float(total)


def _radial_transform_order(power_floor: float) -> int:
    """Exponent m for u = t^m: the mapped integrand goes like t^(m(p+1)-1).

    Choosing m(p+1) >= 5 makes the integrand and three derivatives vanish at
    t = 0, so skipping the origin node is exact and Simpson keeps h^4.
    """
    p = float(power_floor)
    return max(1, math.ceil(5.0 / (p + 1.0)))


def _radial_nodes_value(f, power_floor: float, decay: float, m: int, t_upper: float, count: int) -> float:
    t = np.linspace(0.0, t_upper, count)
    r = t**m / (2.0 * decay)
    vals = np.zeros(count)
    live = r > 0.0
    fv = np.asarray(f(r[live]), dtype=float)
    if not np.all(np.isfinite(fv)):
        raise DomainError("radial integrand returned non-finite values away from r = 0")
    # jacobian of r = t^m / (2 lambda); the t = 0 endpoint limit is 0 since m*(p+1) >= 5
    vals[live] = fv * (m * t[live] ** (m - 1) / (2.0 * decay))
    return float(np.dot(simpson_weights(count, t[1] - t[0]), vals))


def integrate_radial(f: Callable, power_floor: float, decay: float,
                     rel_tol: float = 1e-10) -> tuple[float, float, int]:
    """Adaptive integral of f over (0, inf) for f ~ r^power_floor near 0, ~exp(-2*decay*r) at infinity.

    Returns (value, abs_error, node_count): the error estimate is the last
    refinement's change over 15 (Richardson for h^4) plus the dropped tail,
    and node_count is the size of the finest Simpson grid.  f is called with
    numpy arrays of strictly positive r and never at r = 0.
    """
    p = float(power_floor)
    lam = float(decay)
    if not (p > -1.0):
        raise DomainError(f"power_floor must exceed -1 for integrability, got {power_floor}")
    if not (lam > 0.0) or not math.isfinite(lam):
        raise DomainError(f"decay constant must be positive, got {decay}")
    if not (0.0 < rel_tol < 1.0):
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol}")

    m = _radial_transform_order(p)
    u_upper = 75.0 + 10.0 * max(p, 0.0)  # u^p e^-u is ~1e-30 of peak out here
    t_upper = u_upper ** (1.0 / m)

    count = _RADIAL_START_COUNT
    prev = _radial_nodes_value(f, p, lam, m, t_upper, count)
    for _ in range(_RADIAL_MAX_DOUBLINGS):
        count = 2 * count - 1
        cur = _radial_nodes_value(f, p, lam, m, t_upper, count)
        delta = abs(cur - prev)
        scale = max(abs(cur), 1e-300)
        if delta <= rel_tol * scale:
            tail = (u_upper ** max(p, 0.0)) * math.exp(-u_upper) / (2.0 * lam) ** (p + 1.0)
            return cur, delta / 15.0 + tail, count
        prev = cur
    raise ConvergenceError(
        f"radial quadrature did not converge to rel_tol={rel_tol:g} within "
        f"{_RADIAL_MAX_DOUBLINGS} doublings (power_floor={p:g})"
    )


def synthesize(coeffs: SpectralCoefficients, zgrid: Grid1D, t: float = 0.0) -> np.ndarray:
    """Field samples sum_k w_k values(k) exp(i (k z - omega_k t)) on zgrid.

    w_k are Simpson weights, so this is the quadrature of the mode integral,
    with omega_k = sqrt(k^2 + 1).  Both grids are uniform, so the sum is a
    chirp-z transform (Bluestein): with a = dz dk and node indices j, n
    counted from each grid's middle node, j n = (j^2 + n^2 - (j - n)^2) / 2
    makes it a convolution with the chirp exp(-i a m^2 / 2), done as a
    zero-padded FFT convolution of length L >= N + M - 1 in O(L log L).
    Rounding of the chirp phases (up to a (N + M)^2 / 8 radians) sets the
    error, of order a N^2 eps relative to the largest sample: ~1e-14 on the
    figure panels, the size of the direct sum's own rounding error.
    """
    kgrid = coeffs.kgrid
    m_count, n_count = kgrid.count, zgrid.count
    a = zgrid.step * kgrid.step
    n = np.arange(m_count) - m_count // 2
    j = np.arange(n_count) - n_count // 2
    z_mid = zgrid.points[n_count // 2]
    k_mid = kgrid.points[m_count // 2]
    omega = np.sqrt(1.0 + kgrid.points ** 2)
    x = (simpson_weights(m_count, kgrid.step) * coeffs.values
         * np.exp(1j * (z_mid * kgrid.step * n + 0.5 * a * (n * n) - float(t) * omega)))
    size = 1 << (n_count + m_count - 2).bit_length()
    # circular slot i holds the chirp at j - n for array-index difference i
    # (i < n_count) or i - size (negative differences)
    lags = (np.concatenate([np.arange(n_count), np.arange(n_count - size, 0)])
            - (n_count // 2 - m_count // 2))
    chirp = np.exp(-0.5j * a * (lags * lags))
    conv = np.fft.ifft(np.fft.fft(x, size) * np.fft.fft(chirp))[:n_count]
    return np.exp(1j * (k_mid * zgrid.points + 0.5 * a * (j * j))) * conv
