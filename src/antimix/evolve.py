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

Explicit RK4 needs dt <= dz^2 / 2 here; step() enforces that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BoundaryLeakageError, ConvergenceError, DomainError, StabilityError
from .quad import Grid1D

BOUNDARY_INTENSITY_TOL = 1e-8
_EDGE_EXCLUDE_DEFAULT = 2  # stencil half width; wrap-contaminated nodes per side


def _lap4_periodic(f: np.ndarray, dz: float) -> np.ndarray:
    """Fourth-order central Laplacian with periodic wrap."""
    return (-np.roll(f, 2) + 16.0 * np.roll(f, 1) - 30.0 * f
            + 16.0 * np.roll(f, -1) - np.roll(f, -2)) / (12.0 * dz * dz)


def _d1_periodic(f: np.ndarray, dz: float) -> np.ndarray:
    """Fourth-order central first derivative with periodic wrap."""
    return (np.roll(f, 2) - 8.0 * np.roll(f, 1)
            + 8.0 * np.roll(f, -1) - np.roll(f, -2)) / (12.0 * dz)


def laplacian_symbol(k, dz: float):
    """k_d^2: the eigenvalue of -L on exp(i k z) for stencil-resolved modes."""
    k = np.asarray(k, dtype=float)
    return (30.0 - 32.0 * np.cos(k * dz) + 2.0 * np.cos(2.0 * k * dz)) / (12.0 * dz * dz)


def derivative_symbol(k, dz: float):
    """k_d: the first-derivative stencil acting on exp(i k z) gives i k_d."""
    k = np.asarray(k, dtype=float)
    return (8.0 * np.sin(k * dz) - np.sin(2.0 * k * dz)) / (6.0 * dz)


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
        pot = self.potential
        if pot is None:
            pot = np.zeros(self.grid.count)
        else:
            pot = np.asarray(pot, dtype=float)
        object.__setattr__(self, "potential", pot)
        n = self.grid.count
        if th.shape != (n,) or ch.shape != (n,) or pot.shape != (n,):
            raise DomainError("field and potential arrays must match the grid")
        if not (np.all(np.isfinite(th.view(float))) and np.all(np.isfinite(ch.view(float)))
                and np.all(np.isfinite(pot))):
            raise DomainError("fields and potential must be finite")
        if self.localized:
            intensity = np.abs(th) ** 2 + np.abs(ch) ** 2
            peak = float(np.max(intensity))
            edge = float(max(intensity[0], intensity[-1]))
            if peak > 0.0 and edge > BOUNDARY_INTENSITY_TOL * peak:
                raise BoundaryLeakageError(
                    f"edge intensity {edge:.3e} exceeds {BOUNDARY_INTENSITY_TOL:.1e} "
                    f"of peak {peak:.3e}; enlarge the box or stop earlier"
                )

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


def coupled_rhs(state: EvolutionState):
    """(d theta / dt, d chi / dt) of the coupled system."""
    lap_sum = _lap4_periodic(state.theta + state.chi, state.grid.step)
    v = state.potential
    dtheta = -1j * ((v + 1.0) * state.theta - 0.5 * lap_sum)
    dchi = -1j * ((v - 1.0) * state.chi + 0.5 * lap_sum)
    return dtheta, dchi


def _spectral_rhs(state: EvolutionState):
    """Same right-hand side with the Laplacian applied in Fourier space."""
    k = 2.0 * math.pi * np.fft.fftfreq(state.grid.count, state.grid.step)
    total = state.theta + state.chi
    lap_sum = np.fft.ifft(-(k * k) * np.fft.fft(total))
    v = state.potential
    dtheta = -1j * ((v + 1.0) * state.theta - 0.5 * lap_sum)
    dchi = -1j * ((v - 1.0) * state.chi + 0.5 * lap_sum)
    return dtheta, dchi


def stability_limit(grid: Grid1D) -> float:
    """Largest stable RK4 step, dz^2 / 2."""
    return 0.5 * grid.step * grid.step


def step(state: EvolutionState, dt: float) -> EvolutionState:
    """One classical RK4 step; dt may be negative for time-reversed runs."""
    if abs(dt) > stability_limit(state.grid) * (1.0 + 1e-12):
        raise StabilityError(
            f"|dt| = {abs(dt):.3e} exceeds the stability limit "
            f"{stability_limit(state.grid):.3e} for dz = {state.grid.step:.3e}"
        )
    th, ch = state.theta, state.chi

    k1t, k1c = coupled_rhs(state)
    s2 = replace(state, theta=th + 0.5 * dt * k1t, chi=ch + 0.5 * dt * k1c,
                 localized=False)
    k2t, k2c = coupled_rhs(s2)
    s3 = replace(state, theta=th + 0.5 * dt * k2t, chi=ch + 0.5 * dt * k2c,
                 localized=False)
    k3t, k3c = coupled_rhs(s3)
    s4 = replace(state, theta=th + dt * k3t, chi=ch + dt * k3c, localized=False)
    k4t, k4c = coupled_rhs(s4)

    new_theta = th + (dt / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
    new_chi = ch + (dt / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
    return replace(state, theta=new_theta, chi=new_chi, time=state.time + dt)


def run(state: EvolutionState, duration: float, snapshot_interval: float | None = None,
        dt_safety: float = 0.9) -> list[EvolutionState]:
    """Advance for duration, returning snapshots every snapshot_interval.

    The step divides the snapshot interval exactly, at most dt_safety times
    the stability limit.  The returned list starts with the initial state;
    snapshot k is stamped state.time + k * snapshot_interval.
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
        # refuse before taking a single step: the requested dt would sit
        # above the RK4 stability bound dz^2 / 2
        raise StabilityError(
            f"dt_safety = {dt_safety} would exceed the stability limit")
    n_snap = round(duration / snapshot_interval)
    if abs(n_snap * snapshot_interval - duration) > 1e-9 * duration:
        raise DomainError("snapshot interval must divide the duration")
    dt_cap = dt_safety * stability_limit(state.grid)
    steps_per = max(1, math.ceil(snapshot_interval / dt_cap))
    dt = snapshot_interval / steps_per
    out = [state]
    cur = state
    for k in range(1, n_snap + 1):
        for _ in range(steps_per):
            cur = step(cur, dt)
        # stamp the snapshot clock directly so summed dt roundoff never builds up
        cur = replace(cur, time=state.time + k * snapshot_interval)
        out.append(cur)
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


def coupled_residual(state: EvolutionState, time_derivatives=None, window=None,
                 max_truncation: float | None = None) -> ResidualNorms:
    """How well the state satisfies the system.

    time_derivatives is a (d theta/dt, d chi/dt) pair; for a stationary state
    with energy E that is (-i E theta, -i E chi).  When omitted, the spectral
    right-hand side stands in, so the residual measures pure stencil
    truncation.  The window (node count per side, or an index pair) excludes
    wrap-contaminated or singular regions.
    """
    if time_derivatives is None:
        time_derivatives = _spectral_rhs(state)
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
    if max_truncation is not None and max_res > max_truncation:
        raise ConvergenceError(
            f"residual {max_res:.3e} exceeds the allowed truncation {max_truncation:.3e}"
        )
    return ResidualNorms(max_residual=max_res, l2_residual=l2_res,
                       interior_count=diff.size // 2)


def current_density(state: EvolutionState) -> np.ndarray:
    """Conserved current of the coupled system.

    j = (i/2) [ theta d theta* - theta* d theta + chi d chi* - chi* d chi
              + theta d chi* - chi* d theta + chi d theta* - theta* d chi ]

    which is real; it equals Im[(theta+chi)* d(theta+chi)].
    """
    dz = state.grid.step
    th, ch = state.theta, state.chi
    dth, dch = _d1_periodic(th, dz), _d1_periodic(ch, dz)
    dth_c, dch_c = _d1_periodic(np.conj(th), dz), _d1_periodic(np.conj(ch), dz)
    j = 0.5j * (th * dth_c - np.conj(th) * dth + ch * dch_c - np.conj(ch) * dch
                + th * dch_c - np.conj(ch) * dth + ch * dth_c - np.conj(th) * dch)
    scale = max(1.0, float(np.max(np.abs(j))))
    if float(np.max(np.abs(j.imag))) > 1e-12 * scale:
        raise DomainError("current density came out complex; fields are inconsistent")
    return j.real


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
        return {"max_residual": self.max_residual,
                "l2_residual": self.l2_residual,
                "charge_drift": self.charge_drift}


def continuity_check(states: list[EvolutionState], window=None) -> ContinuityReport:
    """Centered-in-time continuity residual across equally spaced snapshots.

    Needs at least three snapshots; d rho/dt at snapshot k uses neighbors
    k-1 and k+1 (second order in the snapshot interval), d j/dz the
    fourth-order stencil.  charge_drift is the worst |Q(t) - Q(0)|.
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
    sel = _window_slice(grid.count, window)
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


def inversion_transform(state: EvolutionState, negate_potential: bool = True) -> EvolutionState:
    """Swap channels, reflect space, flip the potential sign, negate the clock.

    Applying the transform twice returns the original state.  A transformed
    solution evolved backwards in time matches the forward solution of the
    original system.  negate_potential=False deliberately skips the sign flip
    (a broken transform used as a negative control; the symmetry then fails
    for any potential that is not odd under reflection).
    """
    _check_reflection_grid(state.grid)
    mirrored_v = -_reflect(state.potential) if negate_potential else _reflect(state.potential)
    return replace(state,
                   theta=_reflect(state.chi),
                   chi=_reflect(state.theta),
                   potential=mirrored_v,
                   time=-state.time)


def inversion_residual(state: EvolutionState, dt: float | None = None,
                       negate_potential: bool = True) -> float:
    """Worst pointwise mismatch of the symmetry through one RK4 step.

    Evolves the state by +dt and its transform by -dt, maps the latter back,
    and compares; exact modulo roundoff for any real potential.  With
    negate_potential=False the sign rule is violated on purpose and the
    residual grows to O(2 V dt) unless the potential vanishes.
    """
    if dt is None:
        dt = 0.5 * stability_limit(state.grid)
    forward = step(state, dt)
    mirrored = step(inversion_transform(state, negate_potential), -dt)
    back = inversion_transform(mirrored, negate_potential)
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
