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

import cmath
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import antimix.evolve
from antimix.coulomb import _kg_radial
from antimix.errors import BoundaryLeakageError, DomainError
from antimix.evolve import (
    BOUNDARY_INTENSITY_TOL,
    MAX_SNAPSHOT_SAMPLES,
    MAX_SUBSTEPS,
    ContinuityReport,
    EvolutionState,
    charge,
    check_run,
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
from antimix.quad import Grid1D, _check_fields
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


def random_pair_state(count: int, seed: int = 7) -> EvolutionState:
    """Random complex (theta, chi) with V = 0: every lattice mode excited, Nyquist for even count."""
    rng = np.random.default_rng(seed)
    theta, chi = rng.standard_normal((2, count)) + 1j * rng.standard_normal((2, count))
    return EvolutionState(grid=periodic_box(8.0, count), theta=theta, chi=chi, localized=False)


@pytest.mark.parametrize("count", [10, 64])
def test_generator_is_the_symbol_matrix_on_every_mode(count):
    # with V = 0 each mode obeys d y^/dt = -i M y^, M = [[1 + K/2, K/2],
    # [-K/2, -1 - K/2]] with K = laplacian_symbol; plane-wave tests see one mode
    state = random_pair_state(count)
    dz = state.grid.step
    big_k = laplacian_symbol(2.0 * math.pi * np.fft.fftfreq(count, dz), dz)
    th, ch = np.fft.fft(state.theta), np.fft.fft(state.chi)
    half = 0.5 * big_k * (th + ch)
    expected = -1j * np.fft.ifft(np.stack((th + half, -ch - half)))
    peak = np.max(np.abs(expected))
    free = coupled_rhs(state)
    assert np.max(np.abs(free - expected)) <= 1e-13 * peak
    # a potential adds its diagonal term -i V (theta, chi) and nothing else
    v = np.random.default_rng(8).standard_normal(count)
    diagonal = -1j * v * np.stack((state.theta, state.chi))
    assert np.max(np.abs(coupled_rhs(replace(state, potential=v)) - free - diagonal)) <= 1e-13 * peak


@pytest.mark.parametrize("count", [10, 64])
def test_current_is_the_derivative_symbol_on_every_mode(count):
    state = random_pair_state(count)
    dz = state.grid.step
    k_d = derivative_symbol(2.0 * math.pi * np.fft.fftfreq(count, dz), dz)
    s = state.theta + state.chi
    expected = (np.conj(s) * np.fft.ifft(1j * k_d * np.fft.fft(s))).imag
    assert np.max(np.abs(current_density(state) - expected)) <= 1e-13 * np.max(np.abs(expected))


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
    with pytest.raises(DomainError, match="exceeds the stability limit"):
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


@pytest.mark.parametrize("potential", [None, lambda z: softened_coulomb(z, 0.5)],
                         ids=["free", "soft_coulomb"])
def test_run_takes_a_subnormal_duration_in_one_step(potential):
    # dz / dt is infinite for dt = 5e-324: the steps between checks are
    # capped by the interval's one step before floor() sees them.  The free
    # path's FFT round trip leaves roundoff; RK4 adds 5e-324 G y to nothing
    state = packet_state(beta=0.5, count=256, potential=potential)
    snaps = run(state, duration=5e-324)
    assert [snap.time for snap in snaps] == [0.0, 5e-324]
    peak = np.max(np.abs(state.theta))
    assert np.max(np.abs(snaps[1].theta - state.theta)) <= 1e-13 * peak


def forbid_stepping(monkeypatch):
    def refuse(*args):
        raise AssertionError("stepper built before the run's size was checked")

    monkeypatch.setattr(antimix.evolve, "_chebyshev_stepper", refuse)
    monkeypatch.setattr(antimix.evolve, "_free_evolution", refuse)


def underflow_state() -> EvolutionState:
    # dz ~ 8e-171, so dz^2 / 2 underflows to 0: a quotient by the step bound
    # would divide by zero
    grid = periodic_box(1e-168, 256)
    theta = np.exp(-np.square(np.arange(256) - 128.0) / 50.0).astype(complex)
    return EvolutionState(grid=grid, theta=theta, chi=np.zeros(256, dtype=complex),
                          potential=np.full(256, -0.5))


@pytest.mark.parametrize("make_state, interval", [
    (lambda: packet_state(beta=0.5, count=1024, potential=lambda z: softened_coulomb(z, 0.5)),
     2000.0),
    (underflow_state, 1.0),
], ids=["long_cadence", "underflowed_dz"])
def test_run_refuses_more_substeps_than_the_cap_before_the_first_step(
        monkeypatch, make_state, interval):
    # the longest RK4 step is 0.9 dz^2 / 2: 0.0070 on 1024 nodes over
    # [-64, 64), ~2.8e5 steps for 2000, and 0 on the underflowed grid; both
    # return at once, before any stepper is built
    state = make_state()
    assert not interval <= MAX_SUBSTEPS * 0.9 * stability_limit(state.grid)
    forbid_stepping(monkeypatch)
    with pytest.raises(DomainError, match="steps"):
        run(state, duration=interval, snapshot_interval=interval)


@pytest.mark.parametrize("interval", [1e-7, 5e-324])
def test_run_refuses_more_snapshots_than_the_sample_cap_before_the_first_step(
        monkeypatch, interval):
    # 1e-7 divides 1.0 into 1e7 snapshots of 256 nodes; 5e-324 into an
    # infinite count, which round() could not take
    state = packet_state(beta=0.5, count=256)
    assert (1.0 / interval + 1.0) * 256 > MAX_SNAPSHOT_SAMPLES
    forbid_stepping(monkeypatch)
    with pytest.raises(DomainError, match="field samples"):
        run(state, duration=1.0, snapshot_interval=interval)


@pytest.mark.parametrize("free, substeps", [(True, 5), (False, 81)])
def test_check_run_plans_the_shipped_scenarios_from_the_grid_alone(free, substeps):
    # 1024 nodes over [-60, 60], duration 10, cadence 0.5: free_packet steps
    # at most dz, coulomb_soft at most 0.9 dz^2 / 2
    grid = Grid1D.symmetric(60.0, 1024)
    assert check_run(grid, 10.0, 0.5, free) == (20, 0.5, substeps)
    assert check_run(grid, 10.0, free=free)[:2] == (1, 10.0)


@pytest.mark.parametrize("potential", [lambda z: softened_coulomb(z, 0.5),
                                       lambda z: softened_coulomb(z, 0.5, 0.005)],
                         ids=["soft_coulomb", "deep_well"])
def test_run_matches_a_loop_over_step(potential):
    # with a potential, run() applies each interval's RK4 steps as one
    # Chebyshev series; its snapshots must equal public step() applied with
    # the same dt to roundoff.  In the deep well (V(0) = -100) an interval
    # spans 17.8 / rho, where a Taylor form's roundoff reached 1e-10 of peak
    state = packet_state(beta=0.5, count=1024, potential=potential)
    interval = 0.15
    snaps = run(state, duration=3 * interval, snapshot_interval=interval)
    steps_per = math.ceil(interval / (0.9 * stability_limit(state.grid)))
    assert steps_per > 1
    cur = state
    for snap in snaps[1:]:
        for _ in range(steps_per):
            cur = step(cur, interval / steps_per)
        peak = max(np.max(np.abs(snap.theta)), np.max(np.abs(snap.chi)))
        assert np.max(np.abs(snap.theta - cur.theta)) <= 1e-12 * peak
        assert np.max(np.abs(snap.chi - cur.chi)) <= 1e-12 * peak
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


def test_generator_returns_a_fresh_array_every_call():
    # each apply(z, c) result is its own array: a later call changes no
    # earlier result, and none shares memory with the arrays apply keeps
    state = random_pair_state(64)
    apply = antimix.evolve._generator(state.potential, state.grid.step)
    kept = [cell.cell_contents for cell in apply.__closure__
            if isinstance(cell.cell_contents, np.ndarray)]
    y = np.stack((state.theta, state.chi))
    first = apply(y, 1.0)
    want = first.copy()
    second = apply(2.0 * y, -0.5)
    assert np.array_equal(first, want)
    assert not np.shares_memory(first, second)
    for result in (first, second):
        assert not any(np.shares_memory(result, array) for array in kept + [y])


def test_step_is_the_degree_four_horner_form():
    # step() is the chunk stepper at count = 1: Horner's rule over the
    # generator scaled by dt/4, dt/3, dt/2 and dt, written out here by hand
    state = packet_state(beta=0.5, count=512, potential=lambda z: softened_coulomb(z, 0.5))
    for dt in (0.9, -0.3):
        dt *= stability_limit(state.grid)
        apply = antimix.evolve._generator(state.potential, state.grid.step)
        y = np.stack((state.theta, state.chi))
        z = y + apply(y, dt / 4.0)
        z = y + apply(z, dt / 3.0)
        z = y + apply(z, dt / 2.0)
        want = y + apply(z, dt)
        got = step(state, dt)
        assert np.array_equal(got.theta, want[0])
        assert np.array_equal(got.chi, want[1])


def coulomb_soft_state() -> EvolutionState:
    """The shipped coulomb_soft scenario: a packet at rest, 1024 nodes over [-60, 60]."""
    grid = Grid1D.symmetric(60.0, 1024)
    fld = synthesize_packet(PacketSpec(model=ModelKind.KLEIN_GORDON, beta=0.0,
                                       sigma=0.01, zgrid=grid))
    return EvolutionState(grid=grid, theta=fld.theta, chi=fld.chi,
                          potential=softened_coulomb(grid.points, 0.5, 0.1))


def rk4_steps(state: EvolutionState, y: np.ndarray, dt: float, count: int) -> np.ndarray:
    """count public step() calls of size dt from the fields y, as a (2, N) array."""
    cur = replace(state, theta=y[0], chi=y[1], localized=False)
    for _ in range(count):
        cur = step(cur, dt)
    return np.stack((cur.theta, cur.chi))


@pytest.mark.parametrize("count", [1, 2, 5, 19, 40])
def test_chunk_stepper_is_count_rk4_steps(count):
    # random fields under a Gaussian envelope excite every lattice mode; the
    # chunk's Chebyshev series, truncated at the rounding floor, reproduces
    # count single steps to roundoff
    state = coulomb_soft_state()
    dz, dt = state.grid.step, 0.5 / 81
    rng = np.random.default_rng(count)
    envelope = np.exp(-np.square(state.grid.points / 5.0))
    y = (rng.standard_normal((2, state.grid.count))
         + 1j * rng.standard_normal((2, state.grid.count))) * envelope
    want = rk4_steps(state, y, dt, count)
    got = antimix.evolve._chebyshev_stepper(state.potential, dz, dt, count)(y)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def exact_chebyshev(h: float, count: int) -> tuple[np.ndarray, float]:
    """All M + 1 Chebyshev coefficients of r(i h a)^count on _rk4_chebyshev's
    M + 1 points, c_0 halved, by a direct cosine sum in x87 extended precision
    (64-bit significand), and the rounding floor that _rk4_chebyshev cuts at."""
    m = 1 << math.ceil(math.log2(1.5 * min(count * h, 4.0 * count) + 24.0))
    j = np.arange(m + 1)
    pi = np.arccos(np.longdouble(-1.0))
    a = 1j * np.longdouble(h) * np.cos(pi * j / m)
    f = (1.0 + a * (1.0 + a / 2.0 * (1.0 + a / 3.0 * (1.0 + a / 4.0)))) ** count
    ends = np.where((j == 0) | (j == m), 0.5, 1.0)
    c = (2.0 / m) * (np.cos(pi * (np.outer(j, j) % (2 * m)) / m) @ (ends * f))
    c[0] /= 2.0
    return c.astype(complex), 2.0**-53 * 4.0 * math.sqrt(m) * float(np.max(np.abs(f)))


@pytest.mark.parametrize("count", [1, 2, 5, 19, 40, 81, 1000])
def test_chunk_degree_follows_the_roundoff_rule(count):
    # the series keeps each coefficient to its noise and stops at its last
    # one above the rounding floor: what it drops is at that floor, and the
    # last sampled coefficients are far below it, so none alias back
    state = coulomb_soft_state()
    h = 0.5 / 81 * antimix.evolve._radius(state.potential, state.grid.step)
    kept = np.array(antimix.evolve._rk4_chebyshev(h, count))
    exact, floor = exact_chebyshev(h, count)
    assert np.finfo(np.longdouble).eps < 1e-18
    degree = len(kept) - 1
    assert degree <= 4 * count
    assert np.max(np.abs(kept - exact[:degree + 1])) <= floor
    assert abs(exact[degree]) > floor / 2.0
    assert np.max(np.abs(exact[degree + 1:]), initial=0.0) <= 2.0 * floor
    assert np.max(np.abs(exact[-4:])) <= 1e-3 * floor


@pytest.mark.parametrize("h", [0.01, 0.15, 1.0, 2.5])
def test_one_step_chebyshev_coefficients_are_r(h):
    # at count = 1 the series is r(i h a) itself: a^2 = (T_0 + T_2) / 2,
    # a^3 = (3 T_1 + T_3) / 4 and a^4 = (3 T_0 + 4 T_2 + T_4) / 8 give its five
    # coefficients exactly, and the 28 sampled past them are far below the floor
    got = antimix.evolve._rk4_chebyshev(h, 1)
    want = [1.0 - h**2 / 4.0 + h**4 / 64.0, 1j * (h - h**3 / 8.0), -h**2 / 4.0 + h**4 / 48.0,
            -1j * h**3 / 24.0, h**4 / 192.0]
    assert len(got) == 5
    assert np.max(np.abs(np.array(got) - want)) <= 4e-16
    exact, floor = exact_chebyshev(h, 1)
    assert exact.shape == (33,)
    assert np.max(np.abs(exact[5:])) <= 1e-3 * floor


def test_chebyshev_series_of_a_subnormal_chunk_is_degree_zero():
    # X = 5e-324 rho: every coefficient past c_0 = 1 underflows, so the chunk
    # is y itself, a fresh array, with no generator application
    assert antimix.evolve._rk4_chebyshev(5e-324 * 24.0, 1) == [1.0]
    state = coulomb_soft_state()
    y = np.stack((state.theta, state.chi))
    got = antimix.evolve._chebyshev_stepper(state.potential, state.grid.step, 5e-324, 1)(y)
    assert np.array_equal(got, y) and not np.shares_memory(got, y)


def test_chunk_sampling_is_sized_from_its_reach_not_its_degree(monkeypatch):
    # MAX_SUBSTEPS steps of h = 1.2e-4 reach X = 12, coulomb_soft's interval:
    # 65 samples, one FFT of 128, where the degree 4e5 would ask for 2^19,
    # and the series keeps coulomb_soft's degree
    lengths = []
    real = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda x: lengths.append(len(x)) or real(x))
    coefficients = antimix.evolve._rk4_chebyshev(12.0 / MAX_SUBSTEPS, MAX_SUBSTEPS)
    assert lengths == [128]
    assert 30 <= len(coefficients) - 1 <= 40


def huge_step(depth):
    # |dt| rho of coulomb_soft's 81 steps an interval with one node at depth
    grid = Grid1D.symmetric(60.0, 1024)
    huge = np.zeros(grid.count)
    huge[7] = depth
    return 0.5 / 81 * antimix.evolve._radius(huge, grid.step)


def test_chunk_degree_of_a_huge_potential_is_four_count():
    # |dt| rho = 18.5, far past RK4's stability on the imaginary axis, where
    # |r(i h)| = 4.9e3: no coefficient of the degree-4 count polynomial falls
    # to the floor, and the sampling, sized from 4 count rather than from X,
    # keeps all of them
    h = huge_step(-3000.0)
    assert h > 18.0
    for count in (1, 2):
        assert len(antimix.evolve._rk4_chebyshev(h, count)) == 4 * count + 1


@pytest.mark.parametrize("depth, count", [(-3000.0, 5), (-1e300, 1), (-1e300, 2), (-1e300, 5)])
def test_chunk_polynomial_past_2_53_is_refused(depth, count):
    # r(i h)^count above 2^53 would leave the series' roundoff larger than the
    # fields; with max|V| = 1e300 the samples overflow to inf and nan.  Both
    # are refused with a DomainError, not an IndexError or a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"{count} RK4 steps of .* past 2\\^53"):
            antimix.evolve._rk4_chebyshev(huge_step(depth), count)


@pytest.mark.parametrize("zeta, softening", [(0.0, 0.1), (0.5, 0.1), (2.0, 0.05)],
                         ids=["free", "soft_coulomb", "deep_coulomb"])
def test_radius_bounds_the_generator_spectrum(zeta, softening):
    # rho = sqrt(1 + 16 / (3 dz^2)) + max|V| against a dense eig of G; at V = 0
    # the largest |eigenvalue| is the Nyquist mode's sqrt(1 + K), so they agree
    grid = periodic_box(30.0, 128)
    potential = (softened_coulomb(grid.points, zeta, softening) if zeta
                 else np.zeros(grid.count))
    state = EvolutionState(grid=grid, theta=np.zeros(128), chi=np.zeros(128),
                           potential=potential, localized=False)
    largest = float(np.max(np.abs(np.linalg.eigvals(dense_generator(state)))))
    rho = antimix.evolve._radius(potential, grid.step)
    if zeta:
        assert largest <= rho
    else:
        assert largest == pytest.approx(rho, rel=1e-12)


def test_chunk_stepper_memory_does_not_grow_with_its_degree():
    # Clenshaw's recurrence holds three (2, N) arrays whatever the degree, so
    # applying coulomb_soft's degree-36 chunk allocates no more than the
    # degree-4 one-step series
    state = coulomb_soft_state()
    dz, dt = state.grid.step, 0.5 / 81
    y = np.stack((state.theta, state.chi))

    def traced_peak(count: int) -> int:
        advance = antimix.evolve._chebyshev_stepper(state.potential, dz, dt, count)
        tracemalloc.start()
        try:
            advance(y)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(81) <= traced_peak(1) + y.nbytes // 2


def test_coulomb_soft_takes_one_chunk_polynomial_per_check(monkeypatch):
    # 81 RK4 steps an interval are one chunk, a degree-36 series: one check
    # after each interval and 36 generator applications, 720 a run where
    # single steps take 6480
    state = coulomb_soft_state()
    applied, checks = [], []
    real, check = antimix.evolve._generator, antimix.evolve._check_fields

    def counting(*args):
        apply = real(*args)
        return lambda z, c: applied.append(None) or apply(z, c)

    monkeypatch.setattr(antimix.evolve, "_generator", counting)
    monkeypatch.setattr(antimix.evolve, "_check_fields",
                        lambda *args: checks.append(len(applied)) or check(*args))
    run(state, duration=10.0, snapshot_interval=0.5)
    assert len(checks) == 1 + 20
    assert set(np.diff(checks).tolist()) == {36}
    assert len(applied) == 720 <= 800


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


@pytest.mark.parametrize("time", [math.inf, -math.inf, math.nan])
def test_state_refuses_a_nonfinite_time(time):
    # a snapshot clock at inf would reach continuity_check's np.diff as nan
    state = plane_wave_state(mode=1)
    with pytest.raises(DomainError, match="time must be finite"):
        replace(state, time=time)


def test_field_check_edge_threshold_and_extended_states():
    grid = periodic_box(8.0, 64)
    EvolutionState(grid, *_fields_with_edge(0.99e-8))
    with pytest.raises(BoundaryLeakageError):
        EvolutionState(grid, *_fields_with_edge(1.01e-8))
    # an extended state is never refused for its edge, even at full intensity
    EvolutionState(grid, *_fields_with_edge(1.01e-8), localized=False)
    EvolutionState(grid, np.ones(64, dtype=complex), np.ones(64, dtype=complex),
                   localized=False)


@pytest.mark.parametrize("band", [1, 3, 34])
def test_field_check_band_refuses_intensity_within_it(band):
    # band b covers nodes 0 .. b - 1 and N - b .. N - 1: intensity at node
    # b - 1 from either edge is refused, at node b it passes; the default band
    # of 1 is the two edge nodes of every packet and state check
    for node, inside in ((band - 1, True), (-band, True), (band, False), (-band - 1, False)):
        theta, chi = _fields_with_edge(0.0, count=128)
        theta[node] = 1e-3  # intensity 1e-6 of the peak
        if inside:
            where = "edge intensity" if band == 1 else f"within {band} nodes of the edge"
            with pytest.raises(BoundaryLeakageError, match=where):
                _check_fields(theta, chi, BOUNDARY_INTENSITY_TOL, "advice", band)
        else:
            assert _check_fields(theta, chi, BOUNDARY_INTENSITY_TOL, "advice", band) == 1.0
    if band == 1:
        assert _check_fields(*_fields_with_edge(0.99e-8), BOUNDARY_INTENSITY_TOL, "advice") == 1.0


def test_run_is_rk4s_polynomial_not_the_exponential():
    # a constant V = v keeps a plane wave an eigenmode of G, eigenvalue
    # lam = -i (v + omega_d): one interval of count RK4 steps multiplies it by
    # the scalar r(dt lam)^count, which run() must reproduce to roundoff.
    # exp(lam t) differs from that by RK4's own error, 1.6e-3 of the mode here
    v = 0.3
    state = replace(plane_wave_state(mode=3), potential=np.full(64, v))
    omega_d = math.sqrt(1.0 + float(laplacian_symbol(math.pi * 3 / 32.0, state.grid.step)))
    lam = -1j * (v + omega_d)
    interval = 2.0
    count = check_run(state.grid, interval)[2]
    x = interval / count * lam
    rk4_factor = (1.0 + x + x * x / 2.0 + x**3 / 6.0 + x**4 / 24.0) ** count
    exact_factor = cmath.exp(lam * interval)
    got = run(state, duration=interval)[1]
    mode = np.stack((state.theta, state.chi))
    peak = float(np.max(np.abs(mode)))
    assert count == 5
    assert np.max(np.abs(np.stack((got.theta, got.chi)) - rk4_factor * mode)) <= 1e-13 * peak
    rk4_error = abs(rk4_factor - exact_factor)
    assert rk4_error > 1e-3
    assert np.max(np.abs(np.stack((got.theta, got.chi)) - exact_factor * mode)) == \
        pytest.approx(rk4_error * peak, rel=1e-9)


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
    # one scan of the initial state, then one after each chunk of at most 32
    # nodes of travel: snapshots reuse the arrays just checked instead of
    # re-scanning them in replace().  On 384 nodes over [-64, 64) a 12-unit
    # interval is 36 free steps of dz or 241 RK4 steps, two chunks either way,
    # and every check covers the 32 + 2 nodes the longer chunk can cross
    state = packet_state(beta=0.5, count=384, potential=potential)
    calls = []
    real = antimix.evolve._check_fields
    monkeypatch.setattr(antimix.evolve, "_check_fields",
                        lambda *args: calls.append(args) or real(*args))
    interval = 12.0
    snaps = run(state, duration=2 * interval, snapshot_interval=interval)
    dz = state.grid.step
    substeps = check_run(state.grid, interval, free=potential is None)[2]
    stride = math.floor(32 * dz / (interval / substeps))
    per_interval = math.ceil(substeps / stride)
    assert (substeps, stride, per_interval) == ((36, 32, 2) if potential is None else (241, 214, 2))
    assert len(calls) == 1 + 2 * per_interval
    assert {args[4] for args in calls} == {math.ceil(stride * interval / substeps / dz) + 2} == {34}
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
    # on 384 nodes over [-30, 30) the packet's edge intensity passes 1e-8 of
    # peak between t = 11 and 12, and within the 34-node band (5.2 units)
    # after t = 5.  One 40-unit interval is eight chunks of ~5 units, so the
    # leak is refused at the chunk ending near t = 10, before it reaches the
    # edge, not at the interval's end: on the free path, whose propagator is
    # evaluated at chunk ends only, and on the RK4 path alike
    reached = []
    real_free, real_rk4 = antimix.evolve._free_evolution, antimix.evolve._chebyshev_stepper

    def free(y, dz):
        at = real_free(y, dz)
        return lambda t: reached.append(t) or at(t)

    def rk4(potential, dz, dt, count):
        advance = real_rk4(potential, dz, dt, count)
        return lambda y: reached.append((reached[-1] if reached else 0.0) + count * dt) or advance(y)

    monkeypatch.setattr(antimix.evolve, "_free_evolution", free)
    monkeypatch.setattr(antimix.evolve, "_chebyshev_stepper", rk4)
    for potential in (None, lambda z: softened_coulomb(z, 1e-3)):
        state = packet_state(beta=0.9, count=384, half_width=30.0, potential=potential)
        assert len(run(state, duration=1.0)) == 2  # starts inside
        with pytest.raises(BoundaryLeakageError):
            run(state, duration=40.0, snapshot_interval=0.5)
        reached.clear()
        with pytest.raises(BoundaryLeakageError):
            run(state, duration=40.0)
        assert antimix.evolve.stepping_plan(state, 40.0)["band"] == 34
        assert len(reached) == 2
        assert 5.0 < reached[-1] < 11.0


@pytest.mark.parametrize("count", [12, 16, 64, 136])
def test_guard_bands_leave_half_of_a_small_grid(monkeypatch, count):
    # a chunk travels at most count // 4 - 2 nodes, so each band is at most a
    # quarter of the grid: fields held still in its middle half pass every
    # check of a 40-unit interval on both paths, where the 34-node bands of a
    # 32-node chunk would cover a small grid and refuse them at t = 0
    grid = periodic_box(count / 2.0, count)  # dz = 1
    theta = np.exp(-2.0 * grid.points**2)
    monkeypatch.setattr(antimix.evolve, "_free_evolution", lambda y, dz: lambda t: y)
    monkeypatch.setattr(antimix.evolve, "_chebyshev_stepper", lambda *args: lambda y: y)
    for potential in (None, softened_coulomb(grid.points, 1e-3)):
        state = EvolutionState(grid=grid, theta=theta, chi=np.zeros(count), potential=potential)
        band = antimix.evolve.stepping_plan(state, 40.0)["band"]
        assert band == min(count // 4, 34)
        assert len(run(state, 40.0)) == 2


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


@pytest.mark.parametrize("window", [2.5, (1, 2, 3), "2", (1.5, 40), (1,)],
                         ids=["float", "triple", "string", "float_pair", "single"])
def test_window_refuses_what_is_neither_an_integer_nor_an_index_pair(window):
    with pytest.raises(DomainError, match="window"):
        coupled_residual(plane_wave_state(mode=1), window=window)


def test_window_accepts_any_integer_type():
    state = plane_wave_state(mode=1)
    assert coupled_residual(state, window=np.int64(2)) == coupled_residual(state, window=2)
    assert (coupled_residual(state, window=(np.int32(3), np.int64(40)))
            == coupled_residual(state, window=(3, 40)))


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
    # snapshots no time apart leave d rho / dt undefined
    with pytest.raises(DomainError, match="nonzero finite"):
        continuity_check([snaps[0]] * 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("field", ["max_residual", "l2_residual", "charge_drift"])
def test_continuity_report_refuses_nonfinite_or_negative_norms(field, bad):
    norms = {"max_residual": 1e-6, "l2_residual": 1e-7, "charge_drift": 1e-9}
    ContinuityReport(**norms)
    norms[field] = bad
    with pytest.raises(DomainError):
        ContinuityReport(**norms)


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
