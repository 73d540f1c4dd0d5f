"""Quadrature and spectral synthesis.

Grid integrals use composite Simpson weights on a uniform grid (exact for
cubics).  Half-line radial integrals r^p * exp(-2*lambda*r) * f(r) take only
the smooth factor f: the weight is classical, so a Gauss-Laguerre rule
applies it exactly.  The nodes and weights of the n-node Gauss rule and of
its anti-Gauss partner come from one eigh of their two Jacobi matrices
(Golub-Welsch), f is called once on both node sets, and the difference of
the two sums estimates the truncation error; n doubles from 4 until the
sums agree.  Both rules integrate a polynomial f of degree up to 7 exactly
on 4 nodes.  f may return a stack of rows (numerator and denominator, say)
that share the nodes.  The sums that the error estimate needs are also the
finite check of f's values, so no other pass over them is made.

Packet synthesis is the Simpson-weighted sum over momentum modes, evaluated
as a chirp-z transform with numpy's FFT: an 8192 x 2049 panel costs a few
milliseconds, and a stack of coefficient rows on one grid shares one chirp.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundaryLeakageError, ConvergenceError, DomainError, TailLeakageError

# relative endpoint amplitude above which spectral coefficients are considered truncated
TAIL_THRESHOLD = 1e-6

_RADIAL_REL_TOL = 1e-10  # the Gauss and anti-Gauss sums must agree this closely
_RADIAL_FIRST_NODES = 4  # exact for a polynomial integrand of degree up to 7
_RADIAL_MAX_NODES = 512
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
    """Complex mode amplitudes on a momentum grid: one row (M,) or a (k, M) stack.

    The grid must cover every row's support: an endpoint amplitude above
    TAIL_THRESHOLD * max|row| raises TailLeakageError.
    """

    kgrid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.ndim not in (1, 2) or vals.shape[-1] != self.kgrid.count:
            raise DomainError(f"coefficient array shape {vals.shape} does not match grid count {self.kgrid.count}")
        if not np.all(np.isfinite(vals.view(float))):
            raise DomainError("spectral coefficients must be finite")
        for row in np.abs(vals).reshape(-1, self.kgrid.count):
            peak, edge = float(row.max()), float(max(row[0], row[-1]))
            if edge > TAIL_THRESHOLD * peak:
                raise TailLeakageError(
                    f"momentum grid does not cover the packet: endpoint amplitude "
                    f"{edge:.3e} exceeds {TAIL_THRESHOLD:.1e} of peak {peak:.3e}"
                )


def _check_fields(theta: np.ndarray, chi: np.ndarray, edge_tol: float | None,
                  advice: str, band: int = 1) -> float:
    """Peak intensity of a field pair; refuses non-finite fields (DomainError) and,
    unless edge_tol is None, an intensity above edge_tol of the peak within
    band nodes of either edge (BoundaryLeakageError, with advice as its remedy).

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
        edge = float(max(np.maximum.reduce(intensity[:band]), np.maximum.reduce(intensity[-band:])))
        if peak > 0.0 and edge > edge_tol * peak:
            where = f"intensity within {band} nodes of the edge" if band > 1 else "edge intensity"
            raise BoundaryLeakageError(
                f"{where} {edge:.3e} exceeds {edge_tol:.1e} of peak {peak:.3e}; {advice}")
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


def _gauss_laguerre_pair(n: int, power: float, decay: float) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the n-node Gauss and anti-Gauss rules for r^power e^(-2 decay r), each (2, n).

    Golub-Welsch: the generalized Laguerre Jacobi matrix (diagonal
    2k + p + 1, off-diagonal sqrt(k (k + p))) over 2 decay has the Gauss
    nodes in r as its eigenvalues, and the squares of its eigenvectors'
    first components are the weights, which sum to 1 (the rule's are
    Gamma(p + 1) (2 decay)^-(p+1) times these).  The anti-Gauss matrix has
    its last off-diagonal times sqrt(2) (Laurie, Math. Comp. 65, 739
    (1996)).  One eigh of the (2, n, n) stack gives both; it reads only
    the lower triangle, the one filled.
    """
    h = 0.5 / decay
    jacobi = np.zeros((2, n, n))
    flat = jacobi.reshape(2, n * n)
    flat[:, ::n + 1] = [(2.0 * k + power + 1.0) * h for k in range(n)]
    flat[:, n::n + 1] = [math.sqrt(k * (k + power)) * h for k in range(1, n)]
    jacobi[1, -1, -2] *= math.sqrt(2.0)
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, np.square(vectors[:, 0, :])


def integrate_radial(f: Callable, power: float,
                     decay: float) -> tuple[float | np.ndarray, float | np.ndarray, int]:
    """Integral of r^power exp(-2 decay r) f(r) over (0, inf) for a smooth f.

    The weight is classical, so a Gauss-Laguerre rule applies it and callers
    pass only f.  f is called with a numpy array of r > 0 and returns an
    (N,) array, giving float results, or a (k, N) array of k integrands on
    the same nodes, giving length-k value and error arrays.

    Returns (value, abs_error, node_count).  The Gauss rules G_n of n = 4,
    8, ..., 512 nodes are tried in turn, each with the anti-Gauss rule A_n
    (see _gauss_laguerre_pair) from one call of f on both rules' 2n nodes.
    A_n's error is about minus that of G_(n-1), so |G_n - A_n|
    overestimates G_n's.  The first n with |G_n - A_n| within
    _RADIAL_REL_TOL of |G_n| on every row gives value G_n, abs_error
    |G_n - A_n| plus a rounding term, and node_count n; past 512 nodes
    ConvergenceError is raised.  Both rules are exact for a polynomial f of
    degree below 2n.  A fractional power of r in f converges slowly: r^3.5
    takes 32 to 512 nodes, and r^0.48 under power -0.98 does not converge.

    The rounding term is 4 n u S, u = 2^-53, S the scaled sum of |w f| over
    G_n's nodes: one n u S each for the n products and their sum (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.1), for
    the weights and for the nodes, which eigh gives to O(n u) of the
    largest, and for the scale Gamma(p + 1) (2 decay)^-(p+1), four
    roundings.  With n u S in place of 4 n u S it misses the real error of
    some KG ratios (tests/test_coulomb.py).  Past p ~ 170.6, where Gamma(p + 1)
    overflows, the scale is the exp of lgamma(p + 1) - (p + 1) log(2 decay),
    each term good to a few ulps of itself: 4 (|lgamma| + |(p + 1) log|) u S more.

    The sums, formed in Python floats, are f's finite check: the weights
    are positive, so an inf or nan of f makes a sum inf or nan (inf times
    a weight that underflowed to 0 is a quiet nan), and only then is f
    scanned.  The scale multiplies the sum and change + 4 n u S as one
    numpy product, so an integral past the float range warns overflow and
    reads inf, and its error is inf, with no nan where G_n = A_n.
    """
    p = float(power)
    lam = float(decay)
    if not (p > -1.0):
        raise DomainError(f"power must exceed -1 for integrability, got {power}")
    if not (lam > 0.0) or not math.isfinite(lam):
        raise DomainError(f"decay constant must be positive, got {decay}")

    n = _RADIAL_FIRST_NODES
    while True:
        nodes, weights = _gauss_laguerre_pair(n, p, lam)
        fv = np.asarray(f(nodes.reshape(-1)), dtype=float)
        shape = fv.shape[:-1]
        w_gauss, w_anti = weights.tolist()
        gauss, change, magnitude = [], [], []  # G_n, |G_n - A_n| and S per row of f
        for row in fv.reshape(-1, 2 * n).tolist():
            terms = list(map(operator.mul, w_gauss, row[:n]))
            g = sum(terms)
            gauss.append(g)
            change.append(abs(g - sum(map(operator.mul, w_anti, row[n:]))))
            magnitude.append(sum(map(abs, terms)))
        if not math.isfinite(sum(gauss) + sum(change) + sum(magnitude)) and not np.isfinite(fv).all():
            raise DomainError("radial integrand returned non-finite values")
        if all(d <= _RADIAL_REL_TOL * abs(g) for g, d in zip(gauss, change)):
            break
        if n == _RADIAL_MAX_NODES:
            raise ConvergenceError(
                f"radial quadrature did not converge to relative tolerance {_RADIAL_REL_TOL:g} "
                f"within {_RADIAL_MAX_NODES} nodes (power={p:g})"
            )
        n *= 2
    if p < 170.0:
        scale = math.gamma(p + 1.0) * np.float64(2.0 * lam) ** -(p + 1.0)
        rounding = 4 * n * _UNIT_ROUNDOFF
    else:
        log_gamma, log_power = math.lgamma(p + 1.0), (p + 1.0) * math.log(2.0 * lam)
        scale = np.exp(np.float64(log_gamma - log_power))
        rounding = (4 * n + 4.0 * (abs(log_gamma) + abs(log_power))) * _UNIT_ROUNDOFF
    rows = (gauss, [d + rounding * s for d, s in zip(change, magnitude)])
    value, err = scale * np.array(rows).reshape((2,) + shape)
    if not math.isfinite(float(scale) * max(magnitude)):  # only then can a value overflow
        err = np.where(np.isfinite(value), err, math.inf)  # an overflowed value keeps no digit
    if not shape:
        return float(value), float(err), n
    return value, err, n


def synthesize(coeffs: SpectralCoefficients, zgrid: Grid1D, t: float = 0.0) -> np.ndarray:
    """Field samples sum_k w_k values(k) exp(i (k z - omega_k t)) on zgrid.

    w_k are Simpson weights, so this is the quadrature of the mode integral,
    with omega_k = sqrt(k^2 + 1).  Both grids are uniform, so the sum is a
    chirp-z transform (Bluestein): with a = dz dk and node indices j, n
    counted from each grid's middle node, j n = (j^2 + n^2 - (j - n)^2) / 2
    makes it a convolution with the chirp exp(-i a m^2 / 2), done as a
    zero-padded FFT convolution of length L >= N + M - 1 in O(L log L).  A
    (k, M) stack of rows gives (k, N) fields, each row the bits of its own call.
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
    conv = np.fft.ifft(np.fft.fft(x, size) * np.fft.fft(chirp))[..., :n_count]
    return np.exp(1j * (k_mid * zgrid.points + 0.5 * a * (j * j))) * conv
