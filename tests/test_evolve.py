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
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import antimix.evolve
from antimix.coulomb import _kg_radial
from antimix.errors import BoundaryLeakageError, DomainError
from antimix.evolve import (
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

    monkeypatch.setattr(antimix.evolve, "_rk4_stepper", refuse)
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
    # with a potential, run() applies each chunk of RK4 steps as one
    # polynomial; its snapshots must equal public step() applied with the same
    # dt to roundoff.  In the deep well (V(0) = -100) the 18 steps of dz span
    # 14.5 / rho, past _CHUNK_REACH; uncut, Horner's roundoff reached 1e-10
    # of peak, and cut to chunks of 4 steps it is 1e-14
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


def rk4_power_coefficients(count: int) -> list[Fraction]:
    """Taylor coefficients of r(x)^count, r(x) = sum_{i <= 4} x^i / i!, by repeated products."""
    r = [Fraction(1, math.factorial(i)) for i in range(5)]
    coefficients = [Fraction(1)]
    for _ in range(count):
        coefficients = [sum(coefficients[n - i] * r[i] for i in range(5)
                            if 0 <= n - i < len(coefficients))
                        for n in range(len(coefficients) + 4)]
    return coefficients


def stepper_constants(monkeypatch, potential, *args) -> list[float]:
    """The Horner constants, innermost first, that _rk4_stepper(potential, *args)
    scales the generator by in one application."""
    made = []
    real = antimix.evolve._generator

    def recording(potential, dz):
        apply = real(potential, dz)
        return lambda z, c: made.append(c) or apply(z, c)

    with monkeypatch.context() as patch:
        patch.setattr(antimix.evolve, "_generator", recording)
        antimix.evolve._rk4_stepper(potential, *args)(np.zeros((2, potential.shape[0]), complex))
    return made


@pytest.mark.parametrize("count", [1, 2, 5, 19, 40])
def test_chunk_stepper_is_count_rk4_steps(count):
    # random fields under a Gaussian envelope excite every lattice mode; the
    # chunk polynomial r(dt G)^count, truncated where its terms fall below
    # 2^-53, reproduces count single steps to roundoff
    state = coulomb_soft_state()
    dz, dt = state.grid.step, 0.5 / 81
    rng = np.random.default_rng(count)
    envelope = np.exp(-np.square(state.grid.points / 5.0))
    y = (rng.standard_normal((2, state.grid.count))
         + 1j * rng.standard_normal((2, state.grid.count))) * envelope
    want = y
    one = antimix.evolve._rk4_stepper(state.potential, dz, dt)
    for _ in range(count):
        want = one(want)
    got = antimix.evolve._rk4_stepper(state.potential, dz, dt, count)(y)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("count", [1, 2, 5, 19, 40])
def test_chunk_degree_follows_the_roundoff_rule(monkeypatch, count):
    # degree J >= 4 is the first whose next term a_{J+1} (dt rho)^{J+1} is at
    # most 2^-53, never past 4 count, and c_n = dt a_n / a_{n-1} rounded once
    state = coulomb_soft_state()
    dz, dt = state.grid.step, 0.5 / 81
    constants = stepper_constants(monkeypatch, state.potential, dz, dt, count)
    degree = len(constants)
    a = rk4_power_coefficients(count)
    h = Fraction(dt * antimix.evolve._radius(state.potential, dz))
    terms = [a[n] * h ** n for n in range(4 * count + 1)]
    assert 4 <= degree <= 4 * count
    assert degree == 4 * count or terms[degree + 1] <= Fraction(2) ** -53
    assert all(term > Fraction(2) ** -53 for term in terms[5:degree + 1])
    assert constants == [float(Fraction(dt) * a[n] / a[n - 1]) for n in range(degree, 0, -1)]
    if count == 1:
        assert constants == [dt / 4.0, dt / 3.0, dt / 2.0, dt]
        # degree 4 is the floor: a step whose x^4 / 24 term falls below 2^-53
        # is still the classical step, so step() is RK4 at every dt
        tiny = 1e-9 * dt
        assert stepper_constants(monkeypatch, state.potential, dz, tiny) == \
            [tiny / 4.0, tiny / 3.0, tiny / 2.0, tiny]


def test_chunk_degree_of_a_huge_potential_is_four_count(monkeypatch):
    # max|V| = 1e300 keeps every term of r^count, with no OverflowError on the way
    grid = Grid1D.symmetric(60.0, 1024)
    huge = np.zeros(grid.count)
    huge[7] = -1e300
    for count in (1, 2, 5):
        constants = stepper_constants(monkeypatch, huge, grid.step, 0.5 / 81, count)
        assert len(constants) == 4 * count


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
    # every Horner stage scales one shared generator, so building and applying
    # coulomb_soft's degree-26 chunk allocates no more than the degree-4 step,
    # where one diagonal a stage would add 22 (2, N) complex arrays
    state = coulomb_soft_state()
    dz, dt = state.grid.step, 0.5 / 81
    y = np.stack((state.theta, state.chi))

    def traced_peak(count: int) -> int:
        tracemalloc.start()
        try:
            antimix.evolve._rk4_stepper(state.potential, dz, dt, count)(y)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(19) <= traced_peak(1) + y.nbytes // 2


def test_coulomb_soft_takes_one_chunk_polynomial_per_check(monkeypatch):
    # 81 RK4 steps an interval, checked after steps 19, 38, 57, 76 and 81: four
    # degree-26 chunks and one degree-15 remainder are 119 generator
    # applications an interval, 2380 a run, where single steps take 6480
    state = coulomb_soft_state()
    applied, checks = [], []
    real, check = antimix.evolve._generator, antimix.evolve._check_fields

    def counting(potential, dz):
        apply = real(potential, dz)
        return lambda z, c: applied.append(None) or apply(z, c)

    monkeypatch.setattr(antimix.evolve, "_generator", counting)
    monkeypatch.setattr(antimix.evolve, "_check_fields",
                        lambda *args: checks.append(len(applied)) or check(*args))
    run(state, duration=10.0, snapshot_interval=0.5)
    assert len(applied) == 2380
    assert np.diff(checks[:6]).tolist() == [26, 26, 26, 26, 15]


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

    def counting(potential, dz, dt, count=1):
        advance = real(potential, dz, dt, count)
        return lambda y: steps.append(count) or advance(y)

    monkeypatch.setattr(antimix.evolve, "_rk4_stepper", counting)
    with pytest.raises(BoundaryLeakageError):
        run(state, duration=40.0)
    substeps = math.ceil(40.0 / (0.9 * stability_limit(state.grid)))
    assert 11.0 < sum(steps) * 40.0 / substeps < 12.0 + state.grid.step


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
