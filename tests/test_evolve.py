"""Coupled time evolution: discrete eigenmodes, conservation, inversion.

Anchors that need no reference data:

  * the stencil symbol makes a plane wave an exact semidiscrete eigenmode;
  * the uniform charge sum is conserved to RK4 roundoff, and to float64
    roundoff on the exact free path;
  * without a potential, run() equals the matrix exponential of the
    semidiscrete generator;
  * channel swap + reflection + potential sign flip + time reversal commutes
    with the stepper to machine precision, for any real potential;
  * the hydrogenlike stationary state of the bound-state module satisfies
    the evolution stencil to its truncation error.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import antimix.evolve
from antimix.coulomb import _kg_radial
from antimix.errors import (
    BoundaryLeakageError,
    DomainError,
    StabilityError,
)
from antimix.evolve import (
    MAX_SUBSTEPS,
    EvolutionState,
    charge,
    continuity_check,
    coupled_residual,
    coupled_rhs,
    current_density,
    derivative_symbol,
    inversion_residual,
    inversion_transform,
    laplacian_symbol,
    odd_gaussian_potential,
    run,
    softened_coulomb,
    stability_limit,
    step,
)
from antimix.packets import PacketSpec, synthesize_packet
from antimix.quad import Grid1D
from antimix.units import ModelKind


def periodic_box(half_width: float, count: int) -> Grid1D:
    """[-L, L) box: reflection-symmetric under the periodic wrap."""
    return Grid1D(start=-half_width, step=2.0 * half_width / count, count=count)


def plane_wave_state(mode: int, half_width: float = 32.0, count: int = 64,
                     branch: str = "particle") -> EvolutionState:
    grid = periodic_box(half_width, count)
    k = math.pi * mode / half_width
    wave = np.exp(1j * k * grid.points)
    omega_d = math.sqrt(1.0 + float(laplacian_symbol(k, grid.step)))
    if branch == "particle":
        theta, chi = (1.0 + omega_d) * wave, (1.0 - omega_d) * wave
    else:
        theta, chi = (1.0 - omega_d) * wave, (1.0 + omega_d) * wave
    return EvolutionState(grid=grid, theta=theta, chi=chi, localized=False)


def packet_state(beta: float = 0.5, count: int = 1024, half_width: float = 64.0,
                 potential=None, sigma: float = 0.01) -> EvolutionState:
    grid = periodic_box(half_width, count)
    fld = synthesize_packet(PacketSpec(model=ModelKind.KLEIN_GORDON, beta=beta,
                                       sigma=sigma, zgrid=grid))
    pot = None if potential is None else potential(grid.points)
    return EvolutionState(grid=grid, theta=fld.theta, chi=fld.chi, potential=pot)


# ---------------------------------------------------------------------------
# stencil symbols and eigenmodes
# ---------------------------------------------------------------------------

def test_laplacian_symbol_small_k_limit():
    # k_d^2 = k^2 (1 + O(k^4 dz^4))
    assert float(laplacian_symbol(0.1, 0.05)) == pytest.approx(0.01, rel=1e-9)
    assert float(laplacian_symbol(0.0, 0.5)) == 0.0


def test_derivative_symbol_small_k_limit():
    assert float(derivative_symbol(0.1, 0.05)) == pytest.approx(0.1, rel=1e-9)


def test_plane_wave_is_semidiscrete_eigenmode():
    state = plane_wave_state(mode=3)
    k = math.pi * 3 / 32.0
    omega_d = math.sqrt(1.0 + float(laplacian_symbol(k, state.grid.step)))
    dtheta, dchi = coupled_rhs(state)
    assert np.allclose(dtheta, -1j * omega_d * state.theta, rtol=0, atol=1e-13)
    assert np.allclose(dchi, -1j * omega_d * state.chi, rtol=0, atol=1e-13)


def test_swapped_branch_has_negative_frequency():
    state = plane_wave_state(mode=3, branch="antiparticle")
    k = math.pi * 3 / 32.0
    omega_d = math.sqrt(1.0 + float(laplacian_symbol(k, state.grid.step)))
    dtheta, dchi = coupled_rhs(state)
    assert np.allclose(dtheta, 1j * omega_d * state.theta, rtol=0, atol=1e-13)
    assert np.allclose(dchi, 1j * omega_d * state.chi, rtol=0, atol=1e-13)


def test_one_step_rotates_eigenmode_phase():
    state = plane_wave_state(mode=3)
    k = math.pi * 3 / 32.0
    omega_d = math.sqrt(1.0 + float(laplacian_symbol(k, state.grid.step)))
    dt = 0.01
    after = step(state, dt)
    phase = np.exp(-1j * omega_d * dt)  # RK4 error |omega dt|^5 / 120 ~ 2e-12
    assert np.allclose(after.theta, phase * state.theta, rtol=0, atol=1e-10)
    assert np.allclose(after.chi, phase * state.chi, rtol=0, atol=1e-10)
    assert after.time == pytest.approx(dt)


def test_eigenmode_charge_is_constant_under_many_steps():
    # semidiscrete conservation is exact; the only drift left is the RK4
    # amplitude defect, (omega * dt)**6 / 72 of the charge per step
    state = plane_wave_state(mode=5)
    k = math.pi * 5 / 32.0
    omega_d = math.sqrt(1.0 + float(laplacian_symbol(k, state.grid.step)))
    q0 = charge(state)

    cur = state
    for _ in range(200):
        cur = step(cur, 0.005)
    assert charge(cur) == pytest.approx(q0, rel=1e-12)

    cur = state
    for _ in range(200):
        cur = step(cur, 0.05)
    drift = abs(charge(cur) / q0 - 1.0)
    predicted = 200 * (omega_d * 0.05) ** 6 / 72.0
    assert predicted / 3.0 < drift < 3.0 * predicted


# ---------------------------------------------------------------------------
# stepping and stability
# ---------------------------------------------------------------------------

def test_step_rejects_unstable_dt():
    state = plane_wave_state(mode=1)
    limit = stability_limit(state.grid)
    with pytest.raises(StabilityError):
        step(state, 1.01 * limit)
    step(state, 0.99 * limit)  # just inside the bound


def test_run_snapshot_bookkeeping():
    state = packet_state()
    snaps = run(state, duration=1.0, snapshot_interval=0.25)
    assert len(snaps) == 5
    assert snaps[0] is state
    # stamped k * interval, not a sum of 36 steps of dt = 0.25 / 36
    assert [snap.time for snap in snaps] == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_run_validates_parameters():
    state = packet_state()
    with pytest.raises(DomainError):
        run(state, duration=-1.0)
    with pytest.raises(DomainError):
        run(state, duration=1.0, snapshot_interval=0.3)  # does not divide
    with pytest.raises(StabilityError):
        run(state, duration=1.0, dt_safety=1.5)  # refused before stepping


@pytest.mark.parametrize("dt_safety", [1e-300, 5e-324, 1e-7])
def test_run_refuses_more_substeps_than_the_cap_before_the_first_step(monkeypatch, dt_safety):
    # 1e-300 asks for ~1e302 steps an interval and 5e-324 for a step that
    # underflows to 0; both return at once, before any stepper is built
    state = packet_state(beta=0.5, count=256, potential=lambda z: softened_coulomb(z, 0.5))
    assert 1.0 > MAX_SUBSTEPS * dt_safety * stability_limit(state.grid)

    def refuse(*args):
        raise AssertionError("stepper built before the step count was checked")

    monkeypatch.setattr(antimix.evolve, "_rk4_stepper", refuse)
    with pytest.raises(DomainError, match="steps"):
        run(state, duration=1.0, dt_safety=dt_safety)


@pytest.mark.parametrize("potential", [lambda z: softened_coulomb(z, 0.5)],
                         ids=["soft_coulomb"])
def test_run_matches_a_loop_over_step(potential):
    # with a potential, run() steps raw arrays; its snapshots must equal
    # public step() applied with the same dt, bit for bit
    state = packet_state(beta=0.5, count=1024, potential=potential)
    interval = 0.05
    snaps = run(state, duration=3 * interval, snapshot_interval=interval)
    steps_per = math.ceil(interval / (0.9 * stability_limit(state.grid)))
    assert steps_per > 1
    cur = state
    for snap in snaps[1:]:
        for _ in range(steps_per):
            cur = step(cur, interval / steps_per)
        assert np.array_equal(snap.theta, cur.theta)
        assert np.array_equal(snap.chi, cur.chi)
        assert np.array_equal(snap.potential, state.potential)


def rk4_oracle(state: EvolutionState, dt: float) -> np.ndarray:
    """Classical four-stage RK4 (k1..k4) built from coupled_rhs, as a (2, N) array."""
    def rhs(y):
        return coupled_rhs(replace(state, theta=y[0], chi=y[1], localized=False))

    y = np.stack((state.theta, state.chi))
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("make_state", [
    lambda: packet_state(beta=0.5, count=512, potential=lambda z: softened_coulomb(z, 0.5)),
    lambda: plane_wave_state(mode=5),
], ids=["soft_coulomb_packet", "plane_wave"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "backward"])
def test_step_matches_the_four_stage_rk4(make_state, sign):
    # for a linear system with a fixed generator the Horner form is RK4
    # itself, so only roundoff may separate step() from the k1..k4 stages
    state = make_state()
    dt = sign * 0.9 * stability_limit(state.grid)
    got = step(state, dt)
    want = rk4_oracle(state, dt)
    peak = float(np.max(np.abs(want)))
    assert np.max(np.abs(got.theta - want[0])) <= 1e-13 * peak
    assert np.max(np.abs(got.chi - want[1])) <= 1e-13 * peak
    assert got.time == dt


def test_stepper_buffers_never_leak_into_results():
    # the stepper reuses its work arrays; every state it hands out owns its
    # fields, and the caller's arrays are never written
    state = packet_state(beta=0.5, count=256, potential=lambda z: softened_coulomb(z, 0.5))
    theta0, chi0 = state.theta.copy(), state.chi.copy()
    snaps = run(state, duration=2.0, snapshot_interval=0.5)
    fields = [(s.theta, s.chi) for s in snaps]
    for i, first in enumerate(fields):
        for second in fields[i + 1:]:
            assert not any(np.shares_memory(a, b) for a in first for b in second)
    dt = 0.9 * stability_limit(state.grid)
    once, twice = step(state, dt), step(state, dt)
    assert np.array_equal(once.theta, twice.theta)
    assert np.array_equal(once.chi, twice.chi)
    assert not np.shares_memory(once.theta, twice.theta)
    assert np.array_equal(state.theta, theta0)
    assert np.array_equal(state.chi, chi0)


def _fields_with_edge(edge_intensity: float, count: int = 64):
    theta = np.zeros(count, dtype=complex)
    theta[count // 2] = 1.0
    theta[0] = theta[-1] = math.sqrt(edge_intensity)
    return theta, np.zeros(count, dtype=complex)


@pytest.mark.parametrize("localized", [True, False])
def test_field_check_refuses_non_finite_fields(localized):
    grid = periodic_box(8.0, 64)
    theta, chi = _fields_with_edge(0.0)
    for bad_theta, bad_chi in ((np.where(np.arange(64) == 9, np.nan, theta), chi),
                               (theta, np.where(np.arange(64) == 40, np.inf, chi))):
        with pytest.raises(DomainError):
            EvolutionState(grid=grid, theta=bad_theta, chi=bad_chi, localized=localized)


@pytest.mark.parametrize("localized", [True, False])
def test_field_check_accepts_finite_fields_whose_squares_overflow(localized):
    # the intensity peak is inf but every component is finite: not refused,
    # and no edge intensity exceeds 1e-8 of an infinite peak.  The squares
    # overflow without a warning, so this holds under -W error::RuntimeWarning
    grid = periodic_box(8.0, 64)
    localized_theta, chi = _fields_with_edge(0.0)
    EvolutionState(grid=grid, theta=1e200 * localized_theta, chi=chi, localized=localized)
    EvolutionState(grid=grid, theta=np.full(64, 1e200, dtype=complex),
                   chi=np.full(64, -1e200j), localized=localized)


def test_field_check_edge_threshold_and_extended_states():
    grid = periodic_box(8.0, 64)
    EvolutionState(grid, *_fields_with_edge(0.99e-8))
    with pytest.raises(BoundaryLeakageError):
        EvolutionState(grid, *_fields_with_edge(1.01e-8))
    # an extended state is never refused for its edge, even at full intensity
    EvolutionState(grid, *_fields_with_edge(1.01e-8), localized=False)
    EvolutionState(grid, np.ones(64, dtype=complex), np.ones(64, dtype=complex),
                   localized=False)


def dense_generator(state: EvolutionState) -> np.ndarray:
    """The 2N x 2N matrix G of the semidiscrete system d(theta, chi)/dt = G (theta, chi)."""
    n = state.grid.count
    columns = []
    for unit in np.eye(2 * n, dtype=complex):
        probe = EvolutionState(grid=state.grid, theta=unit[:n], chi=unit[n:],
                               potential=state.potential, localized=False)
        columns.append(np.concatenate(coupled_rhs(probe)))
    return np.array(columns).T


def test_free_run_is_the_exponential_of_the_semidiscrete_generator():
    # without a potential run() propagates exactly: expm(G t) of the dense
    # stencil generator is the oracle, and RK4 approaches it at fourth order
    state = packet_state(beta=0.5, count=64, half_width=48.0)
    assert not state.potential.any()
    gen = dense_generator(state)
    y0 = np.concatenate((state.theta, state.chi))
    peak = float(np.max(np.abs(y0)))
    interval = 0.5
    snaps = run(state, duration=3 * interval, snapshot_interval=interval)
    for snap in snaps[1:]:
        exact = scipy.linalg.expm(gen * snap.time) @ y0
        got = np.concatenate((snap.theta, snap.chi))
        assert np.max(np.abs(got - exact)) < 1e-12 * peak

    final = np.concatenate((snaps[-1].theta, snaps[-1].chi))

    def rk4_distance(steps_per):
        cur = state
        for _ in range(3 * steps_per):
            cur = step(cur, interval / steps_per)
        return np.max(np.abs(np.concatenate((cur.theta, cur.chi)) - final)) / peak

    steps_per = math.ceil(interval / (0.9 * stability_limit(state.grid)))
    coarse, fine = rk4_distance(steps_per), rk4_distance(2 * steps_per)
    # the whole distance is RK4's own O(dt^4) truncation: halving dt cuts it 16x
    assert coarse < 1e-2
    assert fine == pytest.approx(coarse / 16.0, rel=0.15)


def test_group_velocity_of_the_stencil_never_exceeds_one():
    # run() checks the free path every interval / ceil(interval / dz); no
    # packet skips a node between checks because |d omega / dk| <= 1 here
    for dz in (0.01, 0.1173, 0.5, 1.0, 2.0):
        k = np.linspace(0.0, math.pi / dz, 20001)
        omega = np.sqrt(1.0 + laplacian_symbol(k, dz))
        # d omega/dk = (dK/dk) / (2 omega), and dK/dk is twice the derivative symbol
        slope = derivative_symbol(k, dz) / omega
        assert np.max(np.abs(slope)) <= 1.0
        assert np.max(np.abs(np.diff(omega) / np.diff(k))) <= 1.0
        mid = 0.5 * (slope[1:] + slope[:-1])
        assert np.allclose(np.diff(omega) / np.diff(k), mid, rtol=0, atol=1e-4)


@pytest.mark.parametrize("potential", [None, lambda z: softened_coulomb(z, 0.5)],
                         ids=["free", "soft_coulomb"])
def test_run_checks_each_substep_once(monkeypatch, potential):
    # one scan of the initial state, then one every floor(dz / dt) sub-snapshot
    # steps and one at each snapshot: snapshots reuse the arrays just checked
    # instead of re-scanning them in replace().  The free path's substeps are
    # about dz apart, so it checks each of them.  On 384 nodes the RK4 path
    # takes 10 steps an interval and checks after steps 6 and 10
    state = packet_state(beta=0.5, count=384, potential=potential)
    calls = []
    real = antimix.evolve._check_fields
    monkeypatch.setattr(antimix.evolve, "_check_fields",
                        lambda *args: calls.append(args) or real(*args))
    interval = 0.5
    snaps = run(state, duration=4 * interval, snapshot_interval=interval)
    dz = state.grid.step
    if potential is None:
        substeps = math.ceil(interval / dz)
    else:
        substeps = math.ceil(interval / (0.9 * stability_limit(state.grid)))
    stride = max(1, math.floor(dz / (interval / substeps)))
    per_interval = math.ceil(substeps / stride)
    assert (substeps, stride, per_interval) == ((2, 1, 2) if potential is None else (10, 6, 2))
    assert len(calls) == 1 + 4 * per_interval
    for snap, checked in zip(snaps[1:], calls[per_interval::per_interval]):
        assert np.shares_memory(snap.theta, checked[0])
        assert np.shares_memory(snap.chi, checked[1])
    monkeypatch.undo()
    bad = np.full(state.grid.count, np.nan, dtype=complex)
    with pytest.raises(DomainError):
        replace(snaps[1], theta=bad)
    with pytest.raises(DomainError):
        replace(snaps[1], potential=np.zeros(3))


def test_run_raises_when_the_packet_reaches_the_edge_partway(monkeypatch):
    state = packet_state(beta=0.9, count=384, half_width=30.0)
    assert len(run(state, duration=1.0)) == 2  # starts inside; leaks between t = 11 and 12
    with pytest.raises(BoundaryLeakageError):
        run(state, duration=40.0, snapshot_interval=0.5)
    # one 40-unit interval: the free path's sub-snapshot checks still see it
    with pytest.raises(BoundaryLeakageError):
        run(state, duration=40.0)
    # any nonzero potential takes RK4, checked every floor(dz / dt) steps:
    # within one 40-unit interval the leak is refused after t = 11, within dz
    # of the first check that can see it, not at the interval's end
    state = packet_state(beta=0.9, count=384, half_width=30.0,
                         potential=lambda z: softened_coulomb(z, 1e-3))
    steps = []
    real = antimix.evolve._rk4_stepper

    def counting(*args):
        advance = real(*args)
        return lambda y: steps.append(None) or advance(y)

    monkeypatch.setattr(antimix.evolve, "_rk4_stepper", counting)
    with pytest.raises(BoundaryLeakageError):
        run(state, duration=40.0)
    substeps = math.ceil(40.0 / (0.9 * stability_limit(state.grid)))
    assert 11.0 < len(steps) * 40.0 / substeps < 12.0 + state.grid.step


def test_free_packet_charge_conservation():
    state = packet_state(beta=0.5)
    snaps = run(state, duration=10.0, snapshot_interval=2.5)
    q0 = charge(snaps[0])
    for snap in snaps[1:]:
        assert abs(charge(snap) - q0) / abs(q0) < 1e-6


def test_soft_coulomb_charge_conservation():
    state = packet_state(beta=0.0, potential=lambda z: softened_coulomb(z, 0.5))
    snaps = run(state, duration=5.0, snapshot_interval=2.5)
    q0 = charge(snaps[0])
    assert abs(charge(snaps[-1]) - q0) / abs(q0) < 1e-6


def test_rest_packet_charge_is_four_for_unit_norm_scalar():
    # theta = 2 Phi, chi = 0 with unit-norm Phi gives total charge 4
    grid = periodic_box(64.0, 1024)
    sigma = 0.01
    phi = (sigma / math.pi) ** 0.25 * np.exp(-0.5 * sigma * grid.points**2)
    state = EvolutionState(grid=grid, theta=2.0 * phi.astype(complex),
                           chi=np.zeros(grid.count, dtype=complex))
    assert charge(state) == pytest.approx(4.0, rel=1e-10)


def test_localized_state_rejects_wrapping_fields():
    grid = periodic_box(10.0, 128)
    theta = np.exp(-0.02 * grid.points**2).astype(complex)  # edge ~ 13% of peak
    with pytest.raises(BoundaryLeakageError):
        EvolutionState(grid=grid, theta=theta, chi=np.zeros(128, complex))


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def test_packet_stencil_residual_is_fourth_order():
    # the default residual compares the stencil against the spectral RHS,
    # so refining the grid 2x must shrink it ~16x; coarse pair only, since
    # past ~1024 nodes the packet's seam nonperiodicity leaks near-Nyquist
    # modes that the spectral route amplifies by k**2, flooring the residual
    res_coarse = coupled_residual(packet_state(count=256))
    res_fine = coupled_residual(packet_state(count=512))
    assert res_coarse.max_residual / res_fine.max_residual == pytest.approx(16.0, rel=0.2)
    assert res_coarse.l2_residual / res_fine.l2_residual == pytest.approx(16.0, rel=0.2)


def test_residual_accepts_analytic_derivatives():
    state = plane_wave_state(mode=3)
    k = math.pi * 3 / 32.0
    omega_d = math.sqrt(1.0 + float(laplacian_symbol(k, state.grid.step)))
    res = coupled_residual(
        state, time_derivatives=(-1j * omega_d * state.theta,
                                 -1j * omega_d * state.chi), window=0)
    assert res.max_residual < 1e-13
    assert res.interior_count == state.grid.count


def test_stationary_bound_state_satisfies_the_system():
    # map the radial 1S problem onto the half line: u = z^(y + 1/2) e^(-lam z)
    # with V = -zeta/z solves the coupled system with time derivative -i E
    zeta = 0.3
    y, energy, decay = _kg_radial(zeta)
    grid = Grid1D.from_span(0.02, 80.0, 4000)
    z = grid.points
    u = z ** (y + 0.5) * np.exp(-decay * z)
    v = -zeta / z
    theta = (1.0 + energy - v) * u
    chi = (1.0 - energy + v) * u
    state = EvolutionState(grid=grid, theta=theta, chi=chi, potential=v,
                           localized=False)
    res = coupled_residual(
        state,
        time_derivatives=(-1j * energy * state.theta,
                          -1j * energy * state.chi),
        window=(100, 3000))  # z in ~[2, 60]: away from origin and wrap
    assert res.max_residual < 1e-8


def test_window_validation():
    state = plane_wave_state(mode=1)
    with pytest.raises(DomainError):
        coupled_residual(state, window=64)
    with pytest.raises(DomainError):
        coupled_residual(state, window=(10, 5))


# ---------------------------------------------------------------------------
# current and continuity
# ---------------------------------------------------------------------------

def test_plane_wave_current_matches_group_momentum():
    state = plane_wave_state(mode=3)
    k = math.pi * 3 / 32.0
    k_d1 = float(derivative_symbol(k, state.grid.step))
    j = current_density(state)
    # s = theta + chi = 2 exp(ikz): j = |s|^2 k_d1 = 4 k_d1 everywhere
    assert np.allclose(j, 4.0 * k_d1, rtol=1e-12)


def test_current_flips_under_channel_swap_reflection():
    state = packet_state(beta=0.5, potential=lambda z: odd_gaussian_potential(z))
    j = current_density(state)
    swapped = inversion_transform(state)
    j_swapped = current_density(swapped)
    idx = (-np.arange(state.grid.count)) % state.grid.count
    assert np.allclose(j_swapped, -j[idx], rtol=0, atol=1e-12 * np.max(np.abs(j)))


def test_current_of_a_large_packet_at_rest_is_accepted():
    # j vanishes at rest up to rounding; the eight-term form also left
    # rounding of order eps |s|^2 / dz in Im j, and refused this packet as
    # "complex" once it was scaled by 1e5 or more
    state = packet_state(beta=0.0)
    big = replace(state, theta=1e6 * state.theta, chi=1e6 * state.chi)
    assert np.max(np.abs(current_density(big))) <= 1e-12 * np.max(np.abs(big.rho))


def test_continuity_residual_second_order_in_cadence():
    state = packet_state(beta=0.5)
    residuals = []
    for cadence in (0.4, 0.2, 0.1):
        snaps = run(state, duration=2.0, snapshot_interval=cadence)
        residuals.append(continuity_check(snaps).l2_residual)
    assert residuals[0] / residuals[1] > 3.0
    assert residuals[1] / residuals[2] > 3.0


def test_continuity_requires_regular_snapshots():
    state = packet_state()
    snaps = run(state, duration=1.0, snapshot_interval=0.5)
    with pytest.raises(DomainError):
        continuity_check(snaps[:2])
    irregular = [snaps[0], snaps[1], run(snaps[2], 0.3)[-1]]
    with pytest.raises(DomainError):
        continuity_check(irregular)


def test_continuity_report_fields():
    state = packet_state(beta=0.5)
    snaps = run(state, duration=1.0, snapshot_interval=0.25)
    rep = continuity_check(snaps)
    assert rep.charge_drift < 1e-9
    assert rep.max_residual >= rep.l2_residual >= 0.0
    assert set(rep.to_dict()) == {"max_residual", "l2_residual", "charge_drift"}


# ---------------------------------------------------------------------------
# inversion symmetry
# ---------------------------------------------------------------------------

def test_inversion_transform_is_involution():
    state = packet_state(beta=0.5, potential=lambda z: softened_coulomb(z, 0.4))
    twice = inversion_transform(inversion_transform(state))
    assert np.array_equal(twice.theta, state.theta)
    assert np.array_equal(twice.chi, state.chi)
    assert np.array_equal(twice.potential, state.potential)
    assert twice.time == state.time


def test_inversion_negates_charge():
    state = packet_state(beta=0.5)
    q = charge(state)
    assert charge(inversion_transform(state)) == pytest.approx(-q, rel=1e-12)


def test_inversion_requires_reflection_symmetric_grid():
    grid = Grid1D.symmetric(10.0, 64)  # endpoint-inclusive: [-L, L], not [-L, L)
    state = EvolutionState(grid=grid, theta=np.zeros(64, complex),
                           chi=np.zeros(64, complex))
    with pytest.raises(DomainError):
        inversion_transform(state)


def test_inversion_residual_free_packet():
    assert inversion_residual(packet_state(beta=0.5)) < 1e-8


def test_inversion_residual_odd_potential():
    # an odd potential maps onto itself, so the mirrored run solves the same
    # physical system; the symmetry is exact through RK4 regardless
    state = packet_state(beta=0.5, potential=lambda z: odd_gaussian_potential(z))
    v = state.potential
    idx = (-np.arange(state.grid.count)) % state.grid.count
    assert np.allclose(-v[idx], v, rtol=0, atol=1e-15)  # oddness on the lattice
    assert inversion_residual(state) < 1e-8


def test_inversion_residual_even_potential_still_exact():
    state = packet_state(beta=0.3, potential=lambda z: softened_coulomb(z, 0.5))
    assert inversion_residual(state) < 1e-8


def test_potential_factories_validate():
    with pytest.raises(DomainError):
        softened_coulomb(np.zeros(4), zeta=-1.0)
    with pytest.raises(DomainError):
        softened_coulomb(np.zeros(4), zeta=0.5, softening=0.0)
    with pytest.raises(DomainError):
        odd_gaussian_potential(np.zeros(4), width=0.0)
    assert softened_coulomb(np.array([0.0]), 0.5, 0.1)[0] == pytest.approx(-5.0)
