"""Top-level acceptance gate.

Each test checks one numbered release criterion end to end and prints a
single status line; run with -s (or -rA) to see the full checklist.
Criteria with a stated runtime budget are timed against it.
"""

import csv
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from antimix import (
    EvolutionState,
    Grid1D,
    ModelKind,
    PacketSpec,
    bound_scan,
    continuity_check,
    dirac_1s_energy,
    dirac_1s_ratio_closed,
    dirac_1s_ratio_quadrature,
    dirac_free_ratio,
    full_width_half_max,
    inversion_residual,
    inversion_transform,
    kg_1s_energy,
    kg_1s_ratio_closed,
    kg_1s_ratio_quadrature,
    kg_free_ratio,
    odd_gaussian_potential,
    run,
    stability_limit,
    step,
    synthesize_packet,
)
from antimix.cli import main

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def ok(num, text):
    print(f"[criterion {num:>2}] PASS  {text}")


def free_packet_state(count, half_width=64.0, beta=0.5, sigma=0.01):
    grid = Grid1D(start=-half_width, step=2.0 * half_width / count, count=count)
    fld = synthesize_packet(PacketSpec(model=ModelKind.KLEIN_GORDON, beta=beta,
                                       sigma=sigma, zgrid=grid))
    return EvolutionState(grid=grid, theta=fld.theta, chi=fld.chi)


def test_criterion_01_kg_critical_energy():
    assert abs(kg_1s_energy(0.5) - INV_SQRT2) < 1e-12
    ok(1, "kg_1s_energy(0.5) = 1/sqrt(2) within 1e-12")


def test_criterion_02_closed_forms_match_quadrature():
    started = time.monotonic()
    worst = 0.0
    for zeta in np.linspace(0.01, 0.49, 20):
        diff = abs(kg_1s_ratio_quadrature(zeta).value
                   - kg_1s_ratio_closed(zeta).value)
        worst = max(worst, diff)
    for zeta in np.linspace(0.02, 0.98, 20):
        diff = abs(dirac_1s_ratio_quadrature(zeta).value
                   - dirac_1s_ratio_closed(zeta).value)
        worst = max(worst, diff)
    elapsed = time.monotonic() - started
    assert worst <= 1e-8
    assert elapsed < 5.0
    ok(2, f"independent quadrature within {worst:.2e} of closed forms "
          f"on 2x20 couplings ({elapsed:.2f} s)")


def test_criterion_03_free_ratio_limits_and_square_law():
    assert kg_free_ratio(0.0).value == 0.0
    assert dirac_free_ratio(0.0).value == 0.0
    betas = np.linspace(0.0, 0.999, 200)
    kg_vals = [kg_free_ratio(b).value for b in betas]
    dirac_vals = [dirac_free_ratio(b).value for b in betas]
    assert all(a < b for a, b in zip(kg_vals, kg_vals[1:]))
    assert all(a < b for a, b in zip(dirac_vals, dirac_vals[1:]))
    assert kg_free_ratio(0.99999).value > 0.98
    assert dirac_free_ratio(0.99999).value > 0.99
    for b in np.linspace(0.001, 0.99999, 50):
        rd = dirac_free_ratio(b).value
        assert abs(kg_free_ratio(b).value - rd * rd) <= 1e-12
    ok(3, "free ratios rise 0 -> 1 and the cross-model square law holds")


def test_criterion_04_packet_ratio_matches_plane_wave():
    started = time.monotonic()
    worst = 0.0
    for model, closed in ((ModelKind.KLEIN_GORDON, kg_free_ratio),
                          (ModelKind.DIRAC, dirac_free_ratio)):
        for beta in (0.5, 0.9, 0.99):
            fld = synthesize_packet(PacketSpec(model=model, beta=beta, sigma=1e-4))
            diff = abs(fld.channel_intensity_ratio() - closed(beta).value)
            assert diff < 1e-3
            worst = max(worst, diff)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    ok(4, f"narrow packets reproduce plane-wave ratios within {worst:.2e} "
          f"({elapsed:.2f} s)")


def test_criterion_05_lorentz_contraction_of_fwhm():
    started = time.monotonic()
    rest = synthesize_packet(PacketSpec(model=ModelKind.KLEIN_GORDON,
                                        beta=0.0, sigma=1e-4))
    w0 = full_width_half_max(rest.grid, rest.rho)
    for beta in (0.5, 0.9, 0.99):
        fld = synthesize_packet(PacketSpec(model=ModelKind.KLEIN_GORDON,
                                           beta=beta, sigma=1e-4))
        w = full_width_half_max(fld.grid, fld.rho)
        gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
        assert 0.98 <= w * gamma / w0 <= 1.02
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    ok(5, f"density width contracts by 1/gamma within 2% ({elapsed:.2f} s)")


def test_criterion_06_panel_positivity_and_dominance(tmp_path, capsys):
    for fig, model_tag in (("fig1", "kg"), ("fig3", "dirac")):
        started = time.monotonic()
        out = tmp_path / fig
        assert main(["figure", "--id", fig, "--out-dir", str(out)]) == 0
        assert time.monotonic() - started < 60.0
        for beta in (0.5, 0.9, 0.99, 0.99999):
            with open(out / f"{fig}_beta_{beta}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            rho = np.array([float(r["rho"]) for r in rows])
            theta_sq = np.array([float(r["abs_theta_sq"]) for r in rows])
            chi_sq = np.array([float(r["abs_chi_sq"]) for r in rows])
            if model_tag == "kg":
                assert np.all(rho >= 0.0)
                support = rho > 1e-8 * rho.max()
                assert np.all(theta_sq[support] > chi_sq[support])
            else:
                assert np.all(rho > 0.0)
    with capsys.disabled():
        ok(6, "all emitted panels keep rho >= 0 with the large channel dominant")


def test_criterion_07_charge_conservation_and_continuity_order():
    started = time.monotonic()
    snaps = run(free_packet_state(1024), duration=10.0, snapshot_interval=0.5,
                dt_safety=0.9)
    report = continuity_check(snaps)
    assert report.charge_drift < 1e-6

    # refine the snapshot cadence 2x twice: the centered-difference part of
    # the continuity residual must shrink ~4x each time (2nd order), while
    # the spatial term stays far below it
    residuals = []
    for cadence in (0.4, 0.2, 0.1):
        snaps = run(free_packet_state(1024), duration=2.0,
                    snapshot_interval=cadence, dt_safety=0.9)
        residuals.append(continuity_check(snaps).l2_residual)
    assert residuals[0] / residuals[1] > 3.0
    assert residuals[1] / residuals[2] > 3.0
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    ok(7, f"charge drift {report.charge_drift:.2e} over T=10; continuity "
          f"residual ratios {residuals[0]/residuals[1]:.2f}, "
          f"{residuals[1]/residuals[2]:.2f} ({elapsed:.2f} s)")


def test_criterion_08_inversion_symmetry_and_negative_control():
    started = time.monotonic()
    free_res = inversion_residual(free_packet_state(1024))
    assert free_res < 1e-8

    odd_state = free_packet_state(1024)
    odd_state = EvolutionState(grid=odd_state.grid, theta=odd_state.theta,
                               chi=odd_state.chi,
                               potential=odd_gaussian_potential(odd_state.grid.points))
    odd_res = inversion_residual(odd_state)
    floor = max(coupled_floor(odd_state), 1e-10)
    assert odd_res < floor

    # breaking the potential sign rule must blow the residual past 1e-2 for
    # unit-peak fields
    grid = Grid1D(start=-64.0, step=0.5, count=256)
    fld = synthesize_packet(PacketSpec(model=ModelKind.KLEIN_GORDON, beta=0.5,
                                       sigma=0.01, zgrid=grid))
    peak = math.sqrt(float(np.max(np.abs(fld.theta) ** 2)))
    control = EvolutionState(grid=grid, theta=fld.theta / peak,
                             chi=fld.chi / peak,
                             potential=odd_gaussian_potential(grid.points,
                                                              amplitude=1.0))
    def broken_transform(state):
        # the inversion with the potential left unflipped
        mirrored = inversion_transform(state)
        return replace(mirrored, potential=-mirrored.potential)

    dt = 0.5 * stability_limit(grid)
    forward = step(control, dt)
    back = broken_transform(step(broken_transform(control), -dt))
    broken = float(max(np.max(np.abs(forward.theta - back.theta)),
                       np.max(np.abs(forward.chi - back.chi))))
    assert broken > 1e-2
    assert inversion_residual(control) < 1e-8
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    ok(8, f"inversion residual {free_res:.1e} free / {odd_res:.1e} odd-potential; "
          f"broken control {broken:.1e} ({elapsed:.2f} s)")


def coupled_floor(state):
    # spatial discretization floor: the stencil-vs-spectral defect of the
    # right-hand side itself
    from antimix import coupled_residual
    return coupled_residual(state).max_residual


def test_criterion_09_bound_scan_endpoints():
    started = time.monotonic()
    kg = bound_scan(ModelKind.KLEIN_GORDON, 512)
    assert np.all(np.diff(kg.energy) < 0.0)
    assert np.all(np.diff(kg.ratio) > 0.0)
    assert abs(kg.energy[-1] - INV_SQRT2) < 0.01
    assert kg.ratio[-1] > 0.85
    assert abs(kg.axis[-1] - 1.0) < 1e-3

    dirac = bound_scan(ModelKind.DIRAC, 512)
    assert np.all(np.diff(dirac.energy) < 0.0)
    assert np.all(np.diff(dirac.energy_sommerfeld) < 0.0)
    assert np.all(np.diff(dirac.ratio) > 0.0)
    assert dirac.energy[-1] < 0.12
    assert dirac.energy_sommerfeld[-1] < 0.02
    assert dirac.ratio[-1] > 0.97
    assert abs(dirac.axis[-1] - 1.0) < 1e-3

    # closure just inside the critical couplings: the scans head to the
    # documented limit points
    assert abs(kg_1s_energy(0.5 - 1e-12) - INV_SQRT2) < 1e-6
    assert kg_1s_ratio_closed(0.5 - 1e-9).value > 0.999
    ep, es = dirac_1s_energy(1.0 - 1e-9)
    assert ep < 0.01 and es < 1e-4
    assert dirac_1s_ratio_closed(1.0 - 1e-9).value > 0.999
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    ok(9, f"both coupling scans run monotonically into the documented "
          f"limits ({elapsed:.2f} s)")


def test_criterion_10_energy_convention_gap():
    for zeta in np.linspace(0.01, 0.3, 30):
        ep, es = dirac_1s_energy(zeta)
        assert abs(ep - es) <= zeta ** 4 / 4.0 + 1e-12
    seq = [dirac_1s_energy(z) for z in (0.9, 0.99, 0.999, 1.0 - 1e-6)]
    for (ep_a, es_a), (ep_b, es_b) in zip(seq, seq[1:]):
        assert ep_b < ep_a and es_b < es_a
    assert seq[-1][0] < 0.05 and seq[-1][1] < 2e-3
    ep9, es9 = dirac_1s_energy(0.9)
    assert ep9 - es9 > 0.1
    ok(10, "energy conventions agree to zeta^4/4 at weak coupling and "
           "split past 0.1 at zeta = 0.9, both falling to 0")
