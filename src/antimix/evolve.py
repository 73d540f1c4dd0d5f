"""Time evolution of the coupled first-order particle/antiparticle system.

The fields advance under

    i d theta / dt = (V + 1) theta - (1/2) L (theta + chi)
    i d chi   / dt = (V - 1) chi   + (1/2) L (theta + chi)

with L the fourth-order periodic finite-difference Laplacian.  Three exact
discrete properties anchor the tests:

  * a plane wave exp(i k z) is an eigenmode of the semidiscrete system with
    frequencies +- omega_d, omega_d = sqrt(1 + k_d^2) built from the stencil
    symbol k_d^2 (the channel pair (1 + omega_d, 1 - omega_d) rotates at
    + omega_d, the swapped pair at - omega_d);
  * the charge sum dz * sum(|theta|^2 - |chi|^2) is conserved exactly by the
    semidiscrete flow for any real potential (RK4 adds only O(dt^5) per step);
  * reflecting the fields, swapping the channels, flipping the potential sign
    and running time backwards reproduces the forward solution exactly,
    including through whole RK4 steps.

One function, _generator, applies the time-independent generator G in plain
array expressions, a fresh array a call: coupled_rhs is G y and each Horner
stage a scaled G.  run() validates its inputs once, then advances raw (2, N)
arrays on one of two paths, chosen from the potential alone, and checks them
with quad._check_fields, as packet synthesis does.  Where V is identically
zero each Fourier mode evolves exactly under G's stencil symbol (the
Feshbach-Villars free propagator, _free_evolution).  Any nonzero V takes
classical RK4 with dt <= dz^2 / 2, a conservative bound that step() enforces
and run() keeps to: RK4 is stable here up to dt ~ 2 sqrt(2) / omega_max, about
1.22 dz with V = 0.  One step is r(dt G) y, r(x) = 1 + x + x^2/2 + x^3/6 +
x^4/24 the Taylor polynomial of exp(x) to fourth order, so count steps are the
one polynomial r(dt G)^count.  _rk4_stepper evaluates it by Horner's rule,
truncated where its terms fall below 2^-53 of a bound rho on G's spectral
radius (_radius; Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488 (2011));
run() takes its steps a chunk at a time, one polynomial between field checks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, astuple, dataclass, replace

import numpy as np

from .errors import DomainError
from .quad import Grid1D, _check_fields

BOUNDARY_INTENSITY_TOL = 1e-8
_EDGE_ADVICE = "enlarge the box or stop earlier"
_DT_FRACTION = 0.9  # run()'s longest RK4 step, as a fraction of stability_limit
# run()'s longest RK4 chunk, count * dt, in units of 1 / rho: Horner's roundoff
# in the chunk polynomial grows as exp(count dt rho), e^4 ~ 55 ulps at the cap;
# coulomb_soft's 19-step chunks span 2.82
_CHUNK_REACH = 4.0
# run() refuses more sub-snapshot steps an interval than this: ~1200 times the
# 81 RK4 steps of coulomb_soft, room for a grid 32 times finer.  At ~0.05 ms an
# RK4 step on 1024 nodes, taken in coulomb_soft's chunks of 19 (2-vCPU Xeon),
# one interval at the cap takes ~5 s.
MAX_SUBSTEPS = 100_000
# run() refuses to keep more field samples, snapshots times nodes, than this:
# 2**24 (theta, chi) complex128 pairs are 512 MiB, 780 times a shipped scenario's
# 21 x 1024; a cadence of 1e-7 over 10 would ask for 1e8 snapshots.
MAX_SNAPSHOT_SAMPLES = 2**24
_EDGE_EXCLUDE_DEFAULT = 2  # stencil half width; wrap-contaminated nodes per side


# Fourth-order stencils as pair weights, -12 dz^2 (L f)_i = sum_k c_k (f_{i-k} + f_{i+k} - 2 f_i)
# (centre weight -2 (c1 + c2) = 30 exactly) and 12 dz (D f)_i = sum_k d_k (f_{i+k} - f_{i-k})
_LAP4 = (-16.0, 1.0)
_D1 = (8.0, -1.0)


def _d1_periodic(f: np.ndarray, dz: float) -> np.ndarray:
    """Fourth-order central first derivative with periodic wrap."""
    d1, d2 = _D1
    p, n = np.concatenate((f[-2:], f, f[:2])), f.shape[0]
    return (-d2 * p[:n] - d1 * p[1:n + 1] + d1 * p[3:n + 3] + d2 * p[4:]) / (12.0 * dz)


def laplacian_symbol(k, dz: float):
    """k_d^2: the eigenvalue of -L on exp(i k z) for stencil-resolved modes."""
    k = np.asarray(k, dtype=float)
    c1, c2 = _LAP4
    return (-2.0 * (c1 + c2) + 2.0 * c1 * np.cos(k * dz)
            + 2.0 * c2 * np.cos(2.0 * k * dz)) / (12.0 * dz * dz)


def derivative_symbol(k, dz: float):
    """k_d: the first-derivative stencil acting on exp(i k z) gives i k_d."""
    k = np.asarray(k, dtype=float)
    d1, d2 = _D1
    return (d1 * np.sin(k * dz) + d2 * np.sin(2.0 * k * dz)) / (6.0 * dz)


@dataclass(frozen=True)
class EvolutionState:
    """Field pair with its grid, potential samples and clock time.

    localized states must keep their edge intensity below 1e-8 of peak; set
    localized=False for extended (plane-wave) configurations.
    """

    grid: Grid1D
    theta: np.ndarray
    chi: np.ndarray
    potential: np.ndarray | None = None
    time: float = 0.0
    localized: bool = True

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=complex)
        ch = np.asarray(self.chi, dtype=complex)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "chi", ch)
        n = self.grid.count
        pot = np.zeros(n) if self.potential is None else np.asarray(self.potential, dtype=float)
        object.__setattr__(self, "potential", pot)
        if th.shape != (n,) or ch.shape != (n,) or pot.shape != (n,):
            raise DomainError("field and potential arrays must match the grid")
        if not np.all(np.isfinite(pot)):
            raise DomainError("potential must be finite")
        if not math.isfinite(self.time):
            raise DomainError(f"time must be finite, got {self.time}")
        _check_fields(th, ch, BOUNDARY_INTENSITY_TOL if self.localized else None, _EDGE_ADVICE)

    @property
    def rho(self) -> np.ndarray:
        return np.abs(self.theta) ** 2 - np.abs(self.chi) ** 2


def charge(state: EvolutionState) -> float:
    """Total charge as the uniform periodic quadrature dz * sum(rho).

    On a periodic grid the uniform sum is spectrally accurate, it is the
    quantity the semidiscrete flow conserves exactly, and it makes charge
    antisymmetry under inversion_transform exact; Simpson weighting would
    break both exactness properties at the quadrature-error level.
    """
    return float(np.sum(state.rho)) * state.grid.step


def _generator(potential: np.ndarray, dz: float):
    """(z, c) -> c G z: the semidiscrete generator G, scaled by c, on (2, N) pairs z.

    G z = -i ((V + 1) theta - L s / 2, (V - 1) chi + L s / 2), s = theta + chi.
    The diagonal -i (V +- 1) and the stencil weights, with the -i, the 1/2
    and 1/(12 dz^2) folded in, are made once for every c; G z is then scaled
    by the real c, component by component, so c = 1.0 changes no bit.  s goes
    into one wrapped buffer (s[-2:], s, s[:2]) kept across calls; each call
    returns a fresh (2, N) array.  L is read as the pair sums s[i-k] + s[i+k]
    - 2 s[i]: their rounding is the same at mirrored nodes, so inversion
    symmetry holds through a step to roundoff at most, and weights that sum
    to zero keep roundoff from acting like a constant potential.
    """
    n = potential.shape[0]
    diagonal = -1j * np.stack((potential + 1.0, potential - 1.0))
    p = np.empty(n + 4, dtype=complex)  # (s[-2:], s, s[:2])
    s = p[2:n + 2]
    w1, w2 = (0.5j / (12.0 * dz * dz)) * np.array(_LAP4)

    def apply(z: np.ndarray, c: float) -> np.ndarray:
        np.add(z[0], z[1], out=s)
        p[:2], p[n + 2:] = s[-2:], s[:2]
        centre = s + s
        split = (p[:n] + p[4:] - centre) * w2
        split += (p[1:n + 1] + p[3:n + 3] - centre) * w1  # -i (1/2) L s
        out = diagonal * z
        out[0] -= split
        out[1] += split
        parts = out.view(float)  # real and imaginary parts, so c scales each exactly
        parts *= c
        return out

    return apply


def coupled_rhs(state: EvolutionState) -> np.ndarray:
    """(d theta / dt, d chi / dt) of the coupled system, as a (2, N) array."""
    return _generator(state.potential, state.grid.step)(np.stack((state.theta, state.chi)), 1.0)


def _radius(potential: np.ndarray, dz: float) -> float:
    """rho = sqrt(1 + 16 / (3 dz^2)) + max|V|, a bound on the spectral radius of G.

    sqrt(1 + K) is the largest V = 0 frequency, at the stencil's top symbol
    K = 16 / (3 dz^2) (k dz = pi); the potential shifts both channels by at
    most max|V|.  A dense eig at V = 0 meets the bound exactly.
    """
    return math.hypot(1.0, 4.0 / (math.sqrt(3.0) * dz)) + float(np.max(np.abs(potential)))


# (24 r)(x) = 24 + 24 x + 12 x^2 + 4 x^3 + x^4, r the RK4 step polynomial
_RK4_TIMES_24 = (24, 24, 12, 4, 1)


def _rk4_stepper(potential: np.ndarray, dz: float, dt: float, count: int = 1):
    """y -> count classical RK4 steps of size dt of the stacked pair y = (theta, chi).

    y' = G y is linear and G is constant in time (V is fixed), so one RK4 step
    is exactly r(dt G) y with r(x) = 1 + x + x^2/2 + x^3/6 + x^4/24, and count
    steps are r(dt G)^count y: one polynomial of degree 4 count with Taylor
    coefficients a_n, taken exactly as the integers b_n = 24^count a_n of
    (24 r)^count from Miller's power recurrence
    n b_0 b_n = sum_i ((count + 1) i - n) (24 r)_i b_{n-i}.  Terms are kept up to
    the first degree J >= 4 whose next term a_{J+1} (|dt| rho)^{J+1} is at most
    2^-53, rho = _radius; never past 4 count.  The polynomial is evaluated by
    Horner's rule, y + c_1 G(y + c_2 G(... (y + c_J G y))), c_n = dt a_n / a_{n-1}
    rounded once, every stage on one generator: no stage vectors kept, each
    stage's (2, N) result freed by the next.  count = 1 has J = 4 and c_n =
    dt, dt/2, dt/3, dt/4, the classical step.  Horner's roundoff grows as exp(count |dt| rho),
    so run() keeps that product within _CHUNK_REACH.  Every call returns a
    fresh array.
    """
    h = abs(dt) * _radius(potential, dz)
    b, term = [24 ** count], 1.0
    while len(b) <= 4 * count:
        n = len(b)
        b_n = sum(((count + 1) * i - n) * _RK4_TIMES_24[i] * b[n - i]
                  for i in range(1, min(n, 4) + 1)) // (24 * n)
        term *= h * (b_n / b[-1])  # a_n h^n; inf, not OverflowError, past the float range
        if n > 4 and term <= 2.0 ** -53:
            break
        b.append(b_n)
    p, q = abs(dt).as_integer_ratio()
    scale = [math.copysign(p * b_n / (q * b_prev), dt) for b_prev, b_n in zip(b, b[1:])]
    *inner, last = reversed(scale)
    apply = _generator(potential, dz)

    def advance(y: np.ndarray) -> np.ndarray:
        z = y
        for c in inner:
            z = apply(z, c)
            np.add(y, z, out=z)
        return y + apply(z, last)

    return advance


def _free_evolution(y: np.ndarray, dz: float):
    """t -> y(t), the exact V = 0 solution of the semidiscrete system from y(0) = y.

    The periodic stencil is diagonal under the DFT (-L -> K = k_d^2 on mode k),
    so each mode evolves under M = [[1 + K/2, K/2], [-K/2, -1 - K/2]].  M^2 =
    (1 + K) I gives exp(-i M t) = cos(omega t) I - i sin(omega t) / omega M with
    omega = sqrt(1 + K) (Feshbach and Villars, Rev. Mod. Phys. 30, 24 (1958)).
    """
    big_k = laplacian_symbol(2.0 * math.pi * np.fft.fftfreq(y.shape[1], dz), dz)
    omega = np.sqrt(1.0 + big_k)
    yh = np.fft.fft(y)
    half = 0.5 * big_k * (yh[0] + yh[1])
    m_yh = np.stack((yh[0] + half, -yh[1] - half)) / omega  # M yh / omega

    def at(t: float) -> np.ndarray:
        return np.fft.ifft(np.cos(omega * t) * yh - 1j * np.sin(omega * t) * m_yh)

    return at


def _snapshot(state: EvolutionState, y: np.ndarray, time: float) -> EvolutionState:
    """state with fields y at time, without replace()'s __post_init__ scan.

    Only for arrays that run() has just checked; a caller's own replace() of
    the result validates as usual.
    """
    snap = object.__new__(EvolutionState)
    snap.__dict__.update(vars(state), theta=y[0], chi=y[1], time=time)
    return snap


def stability_limit(grid: Grid1D) -> float:
    """The enforced RK4 step bound dz^2 / 2; conservative, RK4 is stable to ~1.22 dz here."""
    return 0.5 * grid.step * grid.step


def step(state: EvolutionState, dt: float) -> EvolutionState:
    """One classical RK4 step; dt may be negative for time-reversed runs.

    The step is the Horner form y + hG(y + (h/2)G(y + (h/3)G(y + (h/4)G y)))
    of the fourth-order Taylor polynomial of exp(hG), which is what the
    k1..k4 stages of classical RK4 compute for a linear system with a
    time-independent generator G: _rk4_stepper at count = 1.  run() applies
    the same steps a chunk at a time, as one polynomial r(dt G)^count, so a
    loop over step() with run()'s dt reproduces its snapshots to roundoff
    (~1e-14 of peak on coulomb_soft), not bit for bit.
    A |dt| above stability_limit(grid) is refused (DomainError).
    """
    if abs(dt) > stability_limit(state.grid) * (1.0 + 1e-12):
        raise DomainError(
            f"|dt| = {abs(dt):.3e} exceeds the stability limit "
            f"{stability_limit(state.grid):.3e} for dz = {state.grid.step:.3e}"
        )
    y = _rk4_stepper(state.potential, state.grid.step, dt)(np.stack((state.theta, state.chi)))
    return replace(state, theta=y[0], chi=y[1], time=state.time + dt)


def check_run(grid: Grid1D, duration: float, snapshot_interval: float | None = None,
              free: bool = False) -> tuple[int, float, int]:
    """(snapshot intervals, snapshot interval, steps an interval) of a run, or DomainError.

    The checks run() makes before its first step, from the grid's size and
    spacing alone, so a caller can make them before it builds any field:
    the duration and interval, at most MAX_SNAPSHOT_SAMPLES field samples
    over all snapshots, and at most MAX_SUBSTEPS steps an interval, of at
    most dz on the free path (free: the potential is identically zero) and
    _DT_FRACTION times the stability limit on the RK4 path.
    """
    if not (duration > 0.0 and math.isfinite(duration)):
        raise DomainError(f"duration must be positive, got {duration}")
    if snapshot_interval is None:
        snapshot_interval = duration
    if not (0.0 < snapshot_interval <= duration):
        raise DomainError("snapshot interval must lie in (0, duration]")
    intervals = duration / snapshot_interval  # inf for a subnormal interval
    if (intervals + 1.0) * grid.count > MAX_SNAPSHOT_SAMPLES:
        raise DomainError(f"{intervals + 1.0:.6g} snapshots of {grid.count} nodes "
                          f"exceed {MAX_SNAPSHOT_SAMPLES} field samples; lengthen the cadence")
    n_snap = round(intervals)
    if abs(n_snap * snapshot_interval - duration) > 1e-9 * duration:
        raise DomainError("snapshot interval must divide the duration")
    longest = grid.step if free else _DT_FRACTION * stability_limit(grid)
    # compared as a product: the quotient overflows, or divides by an
    # underflowed zero, at the extremes this refuses
    if not snapshot_interval <= MAX_SUBSTEPS * longest:
        raise DomainError(
            f"snapshot interval {snapshot_interval:g} needs more than {MAX_SUBSTEPS} steps of at "
            f"most {longest:.3e}; coarsen the grid or shorten the cadence")
    return n_snap, snapshot_interval, max(1, math.ceil(snapshot_interval / longest))


def run(state: EvolutionState, duration: float,
        snapshot_interval: float | None = None) -> list[EvolutionState]:
    """Advance for duration, returning snapshots every snapshot_interval.

    The returned list starts with the initial state; snapshot k is stamped
    state.time + k * snapshot_interval.  Arguments and initial state are
    validated once, then the fields advance as raw arrays on one of two paths:

      * potential identically zero: the exact free propagator, evaluated at
        sub-snapshot times interval / ceil(interval / dz) apart.
      * any nonzero potential: RK4 with a step that divides the snapshot
        interval exactly, at most _DT_FRACTION times the stability limit.
        The steps between two field checks are one chunk, applied as the
        one polynomial r(dt G)^count that they make (_rk4_stepper): for
        coulomb_soft, 119 generator applications an interval where 81
        single steps take 324.  One stepper is made a run for each chunk
        size, with its constants and its generator's wrapped buffer.

    More than MAX_SUBSTEPS sub-snapshot steps an interval, or snapshots
    holding more than MAX_SNAPSHOT_SAMPLES field samples in all, are refused
    before the first step (DomainError, from check_run).

    The fields are checked for finite values and, when localized, edge
    leakage (DomainError / BoundaryLeakageError, as from step()) after
    every chunk of max(1, floor(reach / dt)) sub-snapshot steps of size dt
    and at every snapshot; reach is dz, or on the RK4 path
    min(dz, _CHUNK_REACH / rho).  So the states checked are at most dz apart
    in time, and the same states as with single steps unless the potential
    is deep enough (max|V| dz > ~1.7) for the reach to cut the chunks.  On this
    stencil |d omega / dk| <= 1, so no packet moves more than one node
    between two checks and none crosses the box edge unseen.
    """
    free = not state.potential.any()
    n_snap, snapshot_interval, substeps = check_run(state.grid, duration, snapshot_interval, free)
    edge_tol = BOUNDARY_INTENSITY_TOL if state.localized else None
    _check_fields(state.theta, state.chi, edge_tol, _EDGE_ADVICE)
    dz = state.grid.step
    dt = snapshot_interval / substeps
    # steps between checks: at most dz in time, and on the RK4 path at most
    # _CHUNK_REACH in dt * rho; the float min keeps an infinite quotient from floor()
    reach = dz if free else min(dz, _CHUNK_REACH / _radius(state.potential, dz))
    stride = max(1, math.floor(min(substeps, reach / dt)))
    full, rest = divmod(substeps, stride)
    chunks = [stride] * full + [rest] * (rest > 0)
    y = np.stack((state.theta, state.chi))
    if free:
        at = _free_evolution(y, dz)

        def advance(y, count, t):
            return at(t)
    else:
        steppers = {count: _rk4_stepper(state.potential, dz, dt, count) for count in set(chunks)}

        def advance(y, count, t):
            return steppers[count](y)
    out = [state]
    for k in range(1, n_snap + 1):
        j = 0
        for count in chunks:
            j += count
            y = advance(y, count, (k - 1 + j / substeps) * snapshot_interval)
            _check_fields(y[0], y[1], edge_tol, _EDGE_ADVICE)
        # stamp the snapshot clock directly so summed dt roundoff never builds up
        out.append(_snapshot(state, y, state.time + k * snapshot_interval))
    return out


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------

def _window_slice(count: int, window) -> slice:
    if window is None:
        window = _EDGE_EXCLUDE_DEFAULT
    try:
        width = operator.index(window)
    except TypeError:  # not an integer: an index pair
        try:
            lo, hi = map(operator.index, window)
        except (TypeError, ValueError):
            raise DomainError(f"window {window!r} is not an integer or an index pair") from None
        if not (0 <= lo < hi <= count):
            raise DomainError(f"window ({lo}, {hi}) is not a valid index range")
        return slice(lo, hi)
    if width < 0 or 2 * width >= count:
        raise DomainError(f"window exclusion {width} leaves no interior nodes")
    return slice(width, count - width) if width else slice(None)


@dataclass(frozen=True)
class ResidualNorms:
    """Windowed mismatch between supplied time derivatives and the stencil RHS."""

    max_residual: float
    l2_residual: float
    interior_count: int


def coupled_residual(state: EvolutionState, time_derivatives=None, window=None) -> ResidualNorms:
    """How well the state satisfies the system.

    time_derivatives is a (d theta/dt, d chi/dt) pair; for a stationary state
    with energy E that is (-i E theta, -i E chi).  When omitted, the spectral
    right-hand side stands in, coupled_rhs plus the symbol gap
    +-(i/2) ifft((k_d^2 - k^2) s^), s = theta + chi, that trades each mode's
    -k_d^2 for the exact -k^2: the residual then measures pure stencil
    truncation.  The window (integer node count per side, or an index pair)
    excludes wrap-contaminated or singular regions.
    """
    rhs, dz = coupled_rhs(state), state.grid.step
    if time_derivatives is None:
        k = 2.0 * math.pi * np.fft.fftfreq(state.grid.count, dz)
        s_hat = np.fft.fft(state.theta + state.chi)
        gap = 0.5j * np.fft.ifft((laplacian_symbol(k, dz) - k * k) * s_hat)
        time_derivatives = rhs + np.stack((gap, -gap))
    dth, dch = time_derivatives
    dth = np.asarray(dth, dtype=complex)
    dch = np.asarray(dch, dtype=complex)
    if dth.shape != (state.grid.count,) or dch.shape != (state.grid.count,):
        raise DomainError("time derivative arrays must match the grid")
    rth, rch = rhs
    sel = _window_slice(state.grid.count, window)
    diff = np.concatenate([(dth - rth)[sel], (dch - rch)[sel]])
    max_res = float(np.max(np.abs(diff)))
    l2_res = float(np.sqrt(np.mean(np.abs(diff) ** 2)))
    return ResidualNorms(max_residual=max_res, l2_residual=l2_res,
                       interior_count=diff.size // 2)


def current_density(state: EvolutionState) -> np.ndarray:
    """Conserved current of the coupled system.

    j = (i/2) [ theta d theta* - theta* d theta + chi d chi* - chi* d chi
              + theta d chi* - chi* d theta + chi d theta* - theta* d chi ]

    which is Im[(theta+chi)* d(theta+chi)], computed as that with one
    stencil: d has real coefficients, so d(f*) = (d f)*.
    """
    s = state.theta + state.chi
    return (np.conj(s) * _d1_periodic(s, state.grid.step)).imag


@dataclass(frozen=True)
class ContinuityReport:
    """Discrete continuity check d rho / dt + d j / dz over a snapshot sequence.

    charge_drift is relative, worst |Q(t) - Q(0)| / |Q(0)| (absolute when the
    initial charge is zero).
    """

    max_residual: float
    l2_residual: float
    charge_drift: float

    def __post_init__(self):
        # the report is written as JSON, which has no nan or inf
        if not all(math.isfinite(v) and v >= 0.0 for v in astuple(self)):
            raise DomainError(f"residual norms must be finite and nonnegative, got {self}")

    def to_dict(self) -> dict:
        return asdict(self)


def continuity_check(states: list[EvolutionState]) -> ContinuityReport:
    """Centered-in-time continuity residual across equally spaced snapshots.

    Needs at least three snapshots; d rho/dt at snapshot k uses neighbors
    k-1 and k+1 (second order in the snapshot interval), d j/dz the
    fourth-order stencil.  The residual skips the stencil half width of
    wrap-contaminated nodes at each end.  charge_drift is the worst
    |Q(t) - Q(0)|.
    """
    if len(states) < 3:
        raise DomainError("continuity check needs at least 3 snapshots")
    times = np.array([s.time for s in states])
    dts = np.diff(times)
    dt = float(dts[0])
    if not (dt != 0.0 and math.isfinite(dt) and np.allclose(dts, dt, rtol=1e-9, atol=0.0)):
        raise DomainError("snapshots must be equally spaced in time, a nonzero finite step apart")
    grid = states[0].grid
    for s in states[1:]:
        if s.grid != grid:
            raise DomainError("snapshots must share one grid")
    sel = _window_slice(grid.count, _EDGE_EXCLUDE_DEFAULT)
    max_res = 0.0
    sq_sum = 0.0
    n_sum = 0
    for k in range(1, len(states) - 1):
        drho_dt = (states[k + 1].rho - states[k - 1].rho) / (2.0 * dt)
        dj_dz = _d1_periodic(current_density(states[k]), grid.step)
        res = (drho_dt + dj_dz)[sel]
        max_res = max(max_res, float(np.max(np.abs(res))))
        sq_sum += float(np.sum(res * res))
        n_sum += res.size
    q0 = charge(states[0])
    drift = max(abs(charge(s) - q0) for s in states)
    if abs(q0) > 0.0:
        drift /= abs(q0)
    return ContinuityReport(max_residual=max_res,
                            l2_residual=math.sqrt(sq_sum / n_sum),
                            charge_drift=drift)


# ---------------------------------------------------------------------------
# Inversion symmetry
# ---------------------------------------------------------------------------

def _reflect(arr: np.ndarray) -> np.ndarray:
    # periodic reflection z -> -z: index i maps to (N - i) mod N
    idx = (-np.arange(arr.shape[0])) % arr.shape[0]
    return arr[idx]


def _check_reflection_grid(grid: Grid1D) -> None:
    # a periodic box [-L, L) reflects onto itself when -start == stop + step
    if abs(grid.start + grid.stop + grid.step) > 1e-9 * grid.step:
        raise DomainError("inversion needs a symmetric periodic grid [-L, L)")


def inversion_transform(state: EvolutionState) -> EvolutionState:
    """Swap channels, reflect space, flip the potential sign, negate the clock.

    Applying the transform twice returns the original state.  A transformed
    solution evolved backwards in time matches the forward solution of the
    original system.
    """
    _check_reflection_grid(state.grid)
    return replace(state,
                   theta=_reflect(state.chi),
                   chi=_reflect(state.theta),
                   potential=-_reflect(state.potential),
                   time=-state.time)


def inversion_residual(state: EvolutionState) -> float:
    """Worst pointwise mismatch of the symmetry through one RK4 step.

    Evolves the state by +dt and its transform by -dt, dt half the stability
    limit, maps the latter back, and compares; exact modulo roundoff for any
    real potential.
    """
    dt = 0.5 * stability_limit(state.grid)
    forward = step(state, dt)
    back = inversion_transform(step(inversion_transform(state), -dt))
    return float(max(np.max(np.abs(forward.theta - back.theta)),
                     np.max(np.abs(forward.chi - back.chi))))


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

def softened_coulomb(z, zeta: float, softening: float = 0.1) -> np.ndarray:
    """Attractive -zeta / sqrt(z^2 + a^2); finite at the origin."""
    if not (zeta > 0.0 and math.isfinite(zeta)):
        raise DomainError(f"zeta must be positive, got {zeta}")
    if not (softening > 0.0 and math.isfinite(softening)):
        raise DomainError(f"softening must be positive, got {softening}")
    z = np.asarray(z, dtype=float)
    return -zeta / np.sqrt(z * z + softening * softening)


def odd_gaussian_potential(z, amplitude: float = 0.1, width: float = 5.0) -> np.ndarray:
    """V0 z exp(-(z/w)^2); odd, so it maps onto itself under inversion."""
    if not (width > 0.0 and math.isfinite(width)):
        raise DomainError(f"width must be positive, got {width}")
    z = np.asarray(z, dtype=float)
    return amplitude * z * np.exp(-((z / width) ** 2))
