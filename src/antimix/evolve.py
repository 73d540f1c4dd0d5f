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

run() validates its inputs once, then advances raw (2, N) arrays on one of
two paths, chosen from the potential alone.  Where V is identically zero the
system is diagonal in Fourier space and run() propagates it exactly (the
Feshbach-Villars free propagator, _free_evolution); any nonzero V takes
explicit RK4, which needs dt <= dz^2 / 2 here, a bound step() and run()
enforce.  The system is linear with a generator G that does not depend on
time, so an RK4 step of size h is exactly the Taylor polynomial of exp(hG)
to fourth order; _rk4_stepper evaluates it in Horner form,
y + hG(y + (h/2)G(y + (h/3)G(y + (h/4)G y))), on buffers it reuses.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BoundaryLeakageError, DomainError, StabilityError
from .quad import Grid1D

BOUNDARY_INTENSITY_TOL = 1e-8
# run() refuses more sub-snapshot steps an interval than this.  The shipped
# coulomb_soft scenario takes 81 RK4 steps a snapshot; the cap is ~1200 times
# that, room for a grid 32 times finer (1024 times the steps) at the shipped
# dt_safety.  At ~0.16 ms an RK4 step on 1024 nodes (2-vCPU Xeon) one
# interval at the cap takes ~16 s, while dt_safety = 1e-300 would ask for
# ~7e301 steps and never return.
MAX_SUBSTEPS = 100_000
_EDGE_EXCLUDE_DEFAULT = 2  # stencil half width; wrap-contaminated nodes per side


def _neighbours(f: np.ndarray):
    """f[i-2], f[i-1], f[i+1], f[i+2] with periodic wrap, as slices of one padded copy."""
    p, n = np.concatenate((f[-2:], f, f[:2])), f.shape[0]
    return p[:n], p[1:n + 1], p[3:n + 3], p[4:]


# Fourth-order Laplacian stencil: -12 dz^2 (L f)_i = 30 f_i - 16 (f_{i-1} + f_{i+1})
# + (f_{i-2} + f_{i+2}); its symbol, coupled_rhs and the RK4 stepper all use it.
_LAP4 = (30.0, -16.0, 1.0)


def _lap4_periodic(f: np.ndarray, dz: float) -> np.ndarray:
    """Fourth-order central Laplacian with periodic wrap."""
    m2, m1, p1, p2 = _neighbours(f)
    c0, c1, c2 = _LAP4
    return -(c0 * f + c1 * (m1 + p1) + c2 * (m2 + p2)) / (12.0 * dz * dz)


def _d1_periodic(f: np.ndarray, dz: float) -> np.ndarray:
    """Fourth-order central first derivative with periodic wrap."""
    m2, m1, p1, p2 = _neighbours(f)
    return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * dz)


def laplacian_symbol(k, dz: float):
    """k_d^2: the eigenvalue of -L on exp(i k z) for stencil-resolved modes."""
    k = np.asarray(k, dtype=float)
    c0, c1, c2 = _LAP4
    return (c0 + 2.0 * c1 * np.cos(k * dz) + 2.0 * c2 * np.cos(2.0 * k * dz)) / (12.0 * dz * dz)


def derivative_symbol(k, dz: float):
    """k_d: the first-derivative stencil acting on exp(i k z) gives i k_d."""
    k = np.asarray(k, dtype=float)
    return (8.0 * np.sin(k * dz) - np.sin(2.0 * k * dz)) / (6.0 * dz)


def _check_fields(theta: np.ndarray, chi: np.ndarray, localized: bool) -> None:
    """Refuse non-finite fields and, when localized, intensity at the box edge.

    One pass over the intensity Re(theta conj theta) + Re(chi conj chi): its
    peak is finite exactly when every component is, unless finite fields
    square past the float range.  Only a non-finite peak pays for the
    per-component isfinite scan; overflowed finite fields pass, because no
    edge intensity exceeds 1e-8 of an infinite peak, and the squares that
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
            raise DomainError("fields and potential must be finite")
        return
    if localized:
        edge = float(max(intensity[0], intensity[-1]))
        if peak > 0.0 and edge > BOUNDARY_INTENSITY_TOL * peak:
            raise BoundaryLeakageError(
                f"edge intensity {edge:.3e} exceeds {BOUNDARY_INTENSITY_TOL:.1e} "
                f"of peak {peak:.3e}; enlarge the box or stop earlier"
            )


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
            raise DomainError("fields and potential must be finite")
        _check_fields(th, ch, self.localized)

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


def _rhs(y: np.ndarray, shift: np.ndarray, lap_sum: np.ndarray) -> np.ndarray:
    """Stacked (d theta/dt, d chi/dt) of y; shift = (V + 1, V - 1), lap_sum = L(theta + chi)."""
    half_lap = 0.5 * lap_sum
    d = shift * y
    d[0] -= half_lap
    d[1] += half_lap
    return -1j * d


def _stacked(state: EvolutionState) -> tuple[np.ndarray, np.ndarray]:
    """(theta, chi) and (V + 1, V - 1) of state as (2, N) arrays."""
    v = state.potential
    return np.stack((state.theta, state.chi)), np.stack((v + 1.0, v - 1.0))


def coupled_rhs(state: EvolutionState) -> np.ndarray:
    """(d theta / dt, d chi / dt) of the coupled system, as a (2, N) array."""
    return _rhs(*_stacked(state), _lap4_periodic(state.theta + state.chi, state.grid.step))


def _rk4_stepper(shift: np.ndarray, dz: float, dt: float):
    """y -> one classical RK4 step of size dt of the stacked pair y = (theta, chi).

    y' = G y is linear and G is constant in time (V is fixed), so one RK4 step
    is exactly the Taylor polynomial (I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24) y.
    It is evaluated by Horner's rule, y + hG(y + (h/2)G(y + (h/3)G(y + (h/4)G y))):
    four applications of G, no stage vectors k1..k4 kept.  Each stage c G z
    uses constants, made once here, that fold in -i, c, the 1/2 channel split
    and 1/(12 dz^2).  The pad, the stencil rows and one (2, N) work array are
    allocated once and reused; every call returns a fresh array.

    The stencil is read as the pair sums s[i-k] + s[i+k] - 2 s[i], whose
    rounding is the same at mirrored nodes, so the inversion symmetry holds
    through a step to roundoff at most.
    """
    n = shift.shape[1]
    pad = np.empty(n + 4, dtype=complex)  # (s[-2:], s, s[:2]), s = z[0] + z[1]
    mid, head, tail, lead, trail = pad[2:n + 2], pad[:2], pad[n + 2:], pad[n:n + 2], pad[2:4]
    window = sliding_window_view(pad, n)  # rows s[i-2], s[i-1], s[i], s[i+1], s[i+2]
    low, high = window[:3], window[:1:-1]
    rows = np.empty((3, n), dtype=complex)
    pairs, centre = rows[:2], rows[2]
    pair2, pair1 = pairs
    split = np.empty(n, dtype=complex)
    work = np.empty((2, n), dtype=complex)
    work0, work1 = work
    # -12 dz^2 L s = c2 (s[i-2] + s[i+2] - 2 s[i]) + c1 (s[i-1] + s[i+1] - 2 s[i]), as
    # c0 = -2 (c1 + c2); weights that sum to zero keep roundoff from acting
    # like a constant potential term that would build up over the steps
    _, c1, c2 = _LAP4
    weights = np.array([[c2], [c1]])
    stages = [(-1j * c * shift, (0.5j * c / (12.0 * dz * dz)) * weights, out)
              for c, out in ((dt / 4.0, work), (dt / 3.0, work), (dt / 2.0, work), (dt, None))]

    def advance(y: np.ndarray) -> np.ndarray:
        z, (z0, z1) = y, y
        for diagonal, laplacian, out in stages:
            np.add(z0, z1, out=mid)
            np.copyto(head, lead)
            np.copyto(tail, trail)
            np.add(low, high, out=rows)  # s[i-2] + s[i+2], s[i-1] + s[i+1], 2 s[i]
            np.subtract(pairs, centre, out=pairs)
            np.multiply(pairs, laplacian, out=pairs)
            np.add(pair2, pair1, out=split)  # -i c (1/2) L s
            np.multiply(diagonal, z, out=work)
            np.subtract(work0, split, out=work0)
            np.add(work1, split, out=work1)
            z = np.add(y, work, out=out)  # the last stage into a fresh array
            z0, z1 = work0, work1
        return z

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
    """Largest stable RK4 step, dz^2 / 2."""
    return 0.5 * grid.step * grid.step


def step(state: EvolutionState, dt: float) -> EvolutionState:
    """One classical RK4 step; dt may be negative for time-reversed runs.

    The step is the Horner form y + hG(y + (h/2)G(y + (h/3)G(y + (h/4)G y)))
    of the fourth-order Taylor polynomial of exp(hG), which is what the
    k1..k4 stages of classical RK4 compute for a linear system with a
    time-independent generator G.  run() uses the same stepper, so a loop
    over step() with run()'s dt reproduces its snapshots bit for bit.
    """
    if abs(dt) > stability_limit(state.grid) * (1.0 + 1e-12):
        raise StabilityError(
            f"|dt| = {abs(dt):.3e} exceeds the stability limit "
            f"{stability_limit(state.grid):.3e} for dz = {state.grid.step:.3e}"
        )
    y, shift = _stacked(state)
    y = _rk4_stepper(shift, state.grid.step, dt)(y)
    return replace(state, theta=y[0], chi=y[1], time=state.time + dt)


def run(state: EvolutionState, duration: float, snapshot_interval: float | None = None,
        dt_safety: float = 0.9) -> list[EvolutionState]:
    """Advance for duration, returning snapshots every snapshot_interval.

    The returned list starts with the initial state; snapshot k is stamped
    state.time + k * snapshot_interval.  Arguments and initial state are
    validated once, then the fields advance as raw arrays on one of two paths:

      * potential identically zero: the exact free propagator, evaluated at
        sub-snapshot times interval / ceil(interval / dz) apart.
      * any nonzero potential: RK4 with a step that divides the snapshot
        interval exactly, at most dt_safety times the stability limit.  The
        step is step()'s Horner form of the Taylor polynomial of exp(dt G),
        exact RK4 for this linear, time-independent system; its constants
        and buffers are made once a run.

    dt_safety sets the RK4 step only, but a value above 1 is refused on both
    paths (StabilityError).  More than MAX_SUBSTEPS sub-snapshot steps an
    interval are refused before the first step (DomainError).

    The fields are checked for finite values and, when localized, edge
    leakage (DomainError / BoundaryLeakageError, as from step()) every
    max(1, floor(dz / dt)) sub-snapshot steps of size dt and at every
    snapshot, so the states checked are at most dz apart in time.  On this
    stencil |d omega / dk| <= 1, so no packet moves more than one node
    between two checks and none crosses the box edge unseen.
    """
    if not (duration > 0.0 and math.isfinite(duration)):
        raise DomainError(f"duration must be positive, got {duration}")
    if snapshot_interval is None:
        snapshot_interval = duration
    if not (0.0 < snapshot_interval <= duration):
        raise DomainError("snapshot interval must lie in (0, duration]")
    if not (dt_safety > 0.0 and math.isfinite(dt_safety)):
        raise DomainError(f"dt_safety must be positive, got {dt_safety}")
    if dt_safety > 1.0:
        # refuse before a single step (the stepping loop does not check dt):
        # the requested dt would sit above the RK4 stability bound dz^2 / 2
        raise StabilityError(
            f"dt_safety = {dt_safety} would exceed the stability limit")
    n_snap = round(duration / snapshot_interval)
    if abs(n_snap * snapshot_interval - duration) > 1e-9 * duration:
        raise DomainError("snapshot interval must divide the duration")
    _check_fields(state.theta, state.chi, state.localized)
    dz = state.grid.step
    free = not state.potential.any()
    longest = dz if free else dt_safety * stability_limit(state.grid)
    # compared as a product: the quotient overflows, or divides by an
    # underflowed zero, at the extremes this refuses
    if not snapshot_interval <= MAX_SUBSTEPS * longest:
        raise DomainError(
            f"snapshot interval {snapshot_interval:g} needs more than {MAX_SUBSTEPS} steps of at "
            f"most {longest:.3e}; raise dt_safety, coarsen the grid or shorten the cadence")
    substeps = max(1, math.ceil(snapshot_interval / longest))
    dt = snapshot_interval / substeps
    stride = max(1, math.floor(dz / dt))
    y, shift = _stacked(state)
    if free:
        at = _free_evolution(y, dz)

        def advance(y, t):
            return at(t)
    else:
        rk4 = _rk4_stepper(shift, dz, dt)

        def advance(y, t):
            return rk4(y)
    out = [state]
    for k in range(1, n_snap + 1):
        for j in range(1, substeps + 1):
            y = advance(y, (k - 1 + j / substeps) * snapshot_interval)
            if j % stride == 0 or j == substeps:
                _check_fields(y[0], y[1], state.localized)
        # stamp the snapshot clock directly so summed dt roundoff never builds up
        out.append(_snapshot(state, y, state.time + k * snapshot_interval))
    return out


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------

def _window_slice(count: int, window) -> slice:
    if window is None:
        window = _EDGE_EXCLUDE_DEFAULT
    if isinstance(window, int):
        if window < 0 or 2 * window >= count:
            raise DomainError(f"window exclusion {window} leaves no interior nodes")
        return slice(window, count - window) if window else slice(None)
    lo, hi = window
    if not (0 <= lo < hi <= count):
        raise DomainError(f"window ({lo}, {hi}) is not a valid index range")
    return slice(lo, hi)


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
    right-hand side stands in, so the residual measures pure stencil
    truncation.  The window (node count per side, or an index pair) excludes
    wrap-contaminated or singular regions.
    """
    if time_derivatives is None:  # the same right-hand side, Laplacian in Fourier space
        k = 2.0 * math.pi * np.fft.fftfreq(state.grid.count, state.grid.step)
        lap_sum = np.fft.ifft(-(k * k) * np.fft.fft(state.theta + state.chi))
        time_derivatives = _rhs(*_stacked(state), lap_sum)
    dth, dch = time_derivatives
    dth = np.asarray(dth, dtype=complex)
    dch = np.asarray(dch, dtype=complex)
    if dth.shape != (state.grid.count,) or dch.shape != (state.grid.count,):
        raise DomainError("time derivative arrays must match the grid")
    rth, rch = coupled_rhs(state)
    sel = _window_slice(state.grid.count, window)
    diff = np.concatenate([(dth - rth)[sel], (dch - rch)[sel]])
    if diff.size == 0:
        raise DomainError("window excludes every node")
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
        if min(self.max_residual, self.l2_residual, self.charge_drift) < 0.0:
            raise DomainError("residual norms must be nonnegative")

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
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise DomainError("snapshots must be equally spaced in time")
    grid = states[0].grid
    for s in states[1:]:
        if s.grid != grid:
            raise DomainError("snapshots must share one grid")
    sel = _window_slice(grid.count, _EDGE_EXCLUDE_DEFAULT)
    dt = float(dts[0])
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
