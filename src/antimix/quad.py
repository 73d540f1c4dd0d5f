"""Quadrature and spectral synthesis on uniform grids.

Grid integrals use composite Simpson weights (exact for cubics).  Half-line
radial integrals r^p * exp(-2*lambda*r) * f(r) take only the smooth factor f:
the decay is normalized with u = 2*lambda*r, a fractional or negative
endpoint power is absorbed with u = t^m, the weight is evaluated from t alone
(no power of r is formed), and the Simpson node count doubles until
successive refinements agree.  The Simpson levels nest, so no node is
evaluated twice: one call of f on 1025 nodes gives the levels 65 ... 1025 at
once, as one batched product with a level matrix made at import, and a
later doubling evaluates only its new midpoints.  f may return a stack of
rows (numerator and denominator, say) that share the nodes.  The error
estimate's rounding term bounds the rounding of a sum in any order, so it
holds for the BLAS product too.

Packet synthesis is the Simpson-weighted sum over momentum modes, evaluated
as a chirp-z transform with numpy's FFT, so an 8192 x 2049 panel costs a few
milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundaryLeakageError, ConvergenceError, DomainError, TailLeakageError

# relative endpoint amplitude above which spectral coefficients are considered truncated
TAIL_THRESHOLD = 1e-6

_RADIAL_REL_TOL = 1e-10  # successive Simpson levels must agree this closely
_RADIAL_MAX_DOUBLINGS = 15  # caps the finest grid near 2e6 nodes
_RADIAL_START_COUNT = 65
_RADIAL_FIRST_COUNT = 1025  # one integrand call serves every Simpson level up to here
_UNIT_ROUNDOFF = 2.0**-53


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


def _check_fields(theta: np.ndarray, chi: np.ndarray, edge_tol: float | None,
                  advice: str) -> float:
    """Peak intensity of a field pair; refuses non-finite fields (DomainError) and,
    unless edge_tol is None, an edge intensity above edge_tol of the peak
    (BoundaryLeakageError, with advice as its remedy).

    One pass over the intensity Re(theta conj theta) + Re(chi conj chi): its
    peak is finite exactly when every component is, unless finite fields
    square past the float range.  Only a non-finite peak pays for the
    per-component isfinite scan; overflowed finite fields pass, because no
    edge intensity exceeds edge_tol of an infinite peak, and the squares that
    overflow do so without a warning.
    """
    with np.errstate(over="ignore"):
        intensity = np.square(theta.real)
        intensity += np.square(theta.imag)
        intensity += np.square(chi.real)
        intensity += np.square(chi.imag)
    peak = float(np.maximum.reduce(intensity))
    if not math.isfinite(peak):
        if not (np.isfinite(theta).all() and np.isfinite(chi).all()):
            raise DomainError("fields theta and chi must be finite")
        return peak
    if edge_tol is not None:
        edge = float(max(intensity[0], intensity[-1]))
        if peak > 0.0 and edge > edge_tol * peak:
            raise BoundaryLeakageError(
                f"edge intensity {edge:.3e} exceeds {edge_tol:.1e} of peak {peak:.3e}; {advice}")
    return peak


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


def _radial_transform_order(power: float) -> int:
    """Exponent m for u = t^m: the weight becomes m t^(m(p+1)-1) e^(-t^m).

    Choosing m(p+1) >= 5 makes the mapped integrand and three derivatives
    vanish at t = 0, so Simpson keeps h^4 with the origin as a node.
    """
    return max(1, math.ceil(5.0 / (float(power) + 1.0)))


def _radial_levels() -> np.ndarray:
    """The level matrix: one row of weights a level, on the _RADIAL_FIRST_COUNT nodes of [0, 1].

    Rows 0-4 are the Simpson weights on 65, 129, ..., 1025 nodes, which are
    those of (4 T_2n - T_n) / 3 with T_n the trapezoid rule on n intervals;
    row 5 is the trapezoid on 1025 nodes, which later doublings start from.
    It is the transpose of a (1025, 6) matrix of columns, stored as rows
    because the product measured faster in this layout.
    """
    finest = _RADIAL_FIRST_COUNT - 1
    rows = []
    n = _RADIAL_START_COUNT - 1
    while n <= finest:
        w = np.zeros(_RADIAL_FIRST_COUNT)
        w[::finest // n] = simpson_weights(n + 1, 1.0 / n)
        rows.append(w)
        n *= 2
    trapezoid = np.full(_RADIAL_FIRST_COUNT, 1.0 / finest)
    trapezoid[0] = trapezoid[-1] = 0.5 / finest
    return np.array(rows + [trapezoid])


# linspace(0, 1, N) * t_upper is bit-identical to linspace(0, t_upper, N)
# because N - 1 is a power of two: both round i * t_upper / (N - 1) once
_RADIAL_FIRST_NODES = np.linspace(0.0, 1.0, _RADIAL_FIRST_COUNT)
_RADIAL_LEVELS = _radial_levels()


def _mapped_integrand(f, t: np.ndarray, m: int, p: float, decay: float) -> np.ndarray:
    """f(r) m t^(m(p+1)-1) e^(-t^m) at r = t^m / (2 decay), nodes t >= 0.

    The weight depends on t alone, so no power of r is formed and nothing
    overflows or loses digits where r is tiny or 0.  The result has f's
    leading axes followed by t's.  f's values are checked by the sum of
    their squares, one BLAS pass that is finite whenever they all are, bar
    values above ~1e154; only a sum that is not finite pays for the
    elementwise scan.
    """
    u = t**m
    fv = np.asarray(f(u / (2.0 * decay)), dtype=float)
    if not math.isfinite(np.vdot(fv, fv)) and not np.isfinite(fv).all():
        raise DomainError("radial integrand returned non-finite values")
    weight = t ** (m * (p + 1.0) - 1.0)
    weight *= m
    weight *= np.exp(np.negative(u, out=u), out=u)
    return fv * weight


def _level_change(coarse, fine) -> list[float] | None:
    """|fine - coarse| per row when every row agrees to _RADIAL_REL_TOL of |fine|, else None."""
    change = []
    for a, b in zip(coarse, fine):
        d = abs(b - a)
        if not d <= _RADIAL_REL_TOL * max(abs(b), 1e-300):
            return None
        change.append(d)
    return change


def integrate_radial(f: Callable, power: float,
                     decay: float) -> tuple[float | np.ndarray, float | np.ndarray, int]:
    """Adaptive integral of r^power exp(-2 decay r) f(r) over (0, inf) for a smooth f.

    The weight r^p exp(-2 decay r) is applied analytically: with u = 2 decay r
    = t^m, r^p e^(-2 decay r) dr = (2 decay)^-(p+1) m t^(m(p+1)-1) e^(-t^m) dt,
    so callers pass only the smooth factor f.  f is called with a numpy array
    of r >= 0 (r = 0 included) and returns an (N,) array, giving float
    results, or a (k, N) array of k integrands on the same nodes, giving
    length-k value and error arrays.

    Returns (value, abs_error, node_count).  Simpson sums on 65, 129, 257, ...
    nodes of the mapped variable t are compared level by level, and the first
    level whose change |S_n - S_n/2| is within _RADIAL_REL_TOL = 1e-10 of
    |S_n| on every row is returned: abs_error is that change over 15
    (Richardson for h^4) plus the dropped tail plus a rounding term, and
    node_count is the size of that grid.

    The levels nest, so each node is evaluated once.  One call of f on 1025
    nodes serves every level up to 1025: one batched product of the level
    matrix (see _radial_levels) with the mapped samples gives the Simpson
    sums on 65, ..., 1025 nodes and the trapezoid sum T on 1025, and one
    pass over the five Simpson sums finds the first level that passes.
    Each later doubling evaluates only its new midpoints, with
    T_2n = T_n / 2 + h_2n * sum(new) and S_2n = (4 T_2n - T_n) / 3.  The
    product is batched, levels @ vals[..., None], so every row of a stack
    goes through the same kernel as a one-row call and gives the same bits.

    The rounding term is node_count * u * h * sum |mapped integrand|, with
    u = 2^-53, the sum over the finest level evaluated and h its node
    spacing.  It is the classical bound on the rounding of a sum of
    node_count terms (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 4.2), which holds for any order of summation,
    so it covers the BLAS product as well as numpy's pairwise sums; it also
    covers a few ulps of rounding in each integrand value.
    """
    p = float(power)
    lam = float(decay)
    if not (p > -1.0):
        raise DomainError(f"power must exceed -1 for integrability, got {power}")
    if not (lam > 0.0) or not math.isfinite(lam):
        raise DomainError(f"decay constant must be positive, got {decay}")

    m = _radial_transform_order(p)
    u_upper = 75.0 + 10.0 * max(p, 0.0)  # u^p e^-u is ~1e-30 of peak out here
    t_upper = u_upper ** (1.0 / m)
    scale = (2.0 * lam) ** -(p + 1.0)  # dr/du times the (2 decay)^-p of r^p

    vals = _mapped_integrand(f, t_upper * _RADIAL_FIRST_NODES, m, p, lam)
    shape = vals.shape[:-1]
    # per row: Simpson on 65, 129, ..., 1025 nodes, then the trapezoid on 1025
    sums = (scale * t_upper) * (_RADIAL_LEVELS @ vals[..., None])[..., 0]
    *levels, trap = zip(*sums.reshape(-1, sums.shape[-1]).tolist())
    abs_sum = np.abs(vals, out=vals).sum(axis=-1)  # sum |mapped integrand| over the finest level
    n = _RADIAL_FIRST_COUNT - 1
    count, change = _RADIAL_START_COUNT, None
    # one pass over the first levels; if none passes, value is the 1025-node
    # sum that the doublings below refine, each evaluating only new midpoints
    for coarse, value in zip(levels, levels[1:]):
        count = 2 * count - 1
        change = _level_change(coarse, value)
        if change is not None:
            break
    while change is None:
        if n == (_RADIAL_START_COUNT - 1) << _RADIAL_MAX_DOUBLINGS:
            raise ConvergenceError(
                f"radial quadrature did not converge to relative tolerance {_RADIAL_REL_TOL:g} "
                f"within {_RADIAL_MAX_DOUBLINGS} doublings (power={p:g})"
            )
        n *= 2
        h = t_upper / n
        new = _mapped_integrand(f, np.arange(1, n, 2) * h, m, p, lam)
        finer = [0.5 * a + (scale * h) * b for a, b in zip(trap, new.sum(axis=-1).reshape(-1).tolist())]
        coarse, value = value, [(4.0 * b - a) / 3.0 for a, b in zip(trap, finer)]
        trap = finer
        abs_sum = abs_sum + np.abs(new, out=new).sum(axis=-1)
        count = n + 1
        change = _level_change(coarse, value)
    tail = scale * u_upper ** max(p, 0.0) * math.exp(-u_upper)
    rounding = count * _UNIT_ROUNDOFF * scale * t_upper / n
    err = [d / 15.0 + tail + rounding * s for d, s in zip(change, abs_sum.reshape(-1).tolist())]
    if not shape:
        return value[0], err[0], count
    return np.array(value).reshape(shape), np.array(err).reshape(shape), count


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
