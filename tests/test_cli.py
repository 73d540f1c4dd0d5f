"""End-to-end checks of the command-line surface.

Covers exit codes, JSON schema conformance, manifest completeness,
scenario parsing, and byte-level determinism of emitted data files.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import antimix
from antimix.cli import main, parse_scenario
from antimix.errors import DomainError
from antimix.packets import XI_COUNT

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def write_scenario(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


FAST_EVOLVE = """\
# short free-packet run, small grid
beta = 0.5
sigma = 0.01
grid_half_width = 60
grid_count = 512
potential = none
duration = 2.0
cadence = 1.0
tolerance = 1e-6
"""


# ---------------------------------------------------------------------------
# ratio
# ---------------------------------------------------------------------------

def test_ratio_free_json_schema_and_value(capsys):
    payload = run_json(capsys, ["ratio", "--model", "dirac", "--beta", "0.8", "--json"])
    jsonschema.validate(payload, load_schema("ratio_result.schema.json"))
    assert payload["value"] == pytest.approx(0.25, rel=1e-12)
    assert payload["classification"] == "Particle"
    assert payload["mode"] == "free"
    assert "zeta" not in payload and "energy" not in payload


def test_ratio_bound_json_schema(capsys):
    payload = run_json(capsys, ["ratio", "--model", "kg", "--zeta", "0.3", "--json"])
    jsonschema.validate(payload, load_schema("ratio_result.schema.json"))
    assert payload["method"] == "closed_form"
    assert 0.0 < payload["value"] < 1.0
    assert 0.0 < payload["energy"] < 1.0
    assert "beta" not in payload and "energy_sommerfeld" not in payload


def test_ratio_bound_by_nuclear_charge(capsys):
    # --z goes through the fine-structure constant; Z=1 is deep subcritical
    payload = run_json(capsys, ["ratio", "--model", "dirac", "--z", "1", "--json"])
    jsonschema.validate(payload, load_schema("ratio_result.schema.json"))
    assert payload["zeta"] == pytest.approx(1.0 / 137.035999084, rel=1e-12)
    assert payload["value"] < 1e-4
    assert payload["energy_sommerfeld"] < payload["energy"]


@pytest.mark.parametrize("model,zeta,energy", [("kg", "0.5", 2.0 ** -0.5),
                                               ("dirac", "1.0", 0.0)])
def test_ratio_critical_coupling_reports_limit(capsys, model, zeta, energy):
    payload = run_json(capsys, ["ratio", "--model", model, "--zeta", zeta, "--json"])
    jsonschema.validate(payload, load_schema("ratio_result.schema.json"))
    assert payload["is_limit"] is True
    assert payload["value"] == 1.0
    assert payload["classification"] == "Boundary"
    assert payload["energy"] == pytest.approx(energy, abs=1e-12)


def test_ratio_critical_text_mentions_limit(capsys):
    assert main(["ratio", "--model", "kg", "--zeta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "critical-point limit" in out
    assert "Boundary" in out


def test_ratio_luminal_beta_exits_2_naming_the_limit(capsys):
    assert main(["ratio", "--model", "kg", "--beta", "1.0"]) == 2
    assert "limiting speed c" in capsys.readouterr().err


def test_ratio_supercritical_zeta_exits_2_naming_the_coupling(capsys):
    assert main(["ratio", "--model", "kg", "--zeta", "0.6"]) == 2
    assert "0.5" in capsys.readouterr().err
    assert main(["ratio", "--model", "dirac", "--zeta", "1.2"]) == 2
    assert "1" in capsys.readouterr().err


def test_ratio_huge_nuclear_charge_exits_2(capsys):
    # a 400-digit Z is an int past the float range: a DomainError, not a traceback
    assert main(["ratio", "--model", "dirac", "--z", "1" + "0" * 400]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nuclear charge Z exceeds the float range" in captured.err


def test_ratio_flag_misuse_exits_2(capsys):
    # exactly one of --beta, --zeta and --z picks the mode: none or two is a usage error
    for given, fragment in [
        ([], "one of the arguments --beta --zeta --z is required"),
        (["--beta", "0.5", "--zeta", "0.3"], "not allowed with argument"),
        (["--beta", "0.5", "--z", "1"], "not allowed with argument"),
        (["--zeta", "0.3", "--z", "1"], "not allowed with argument"),
    ]:
        with pytest.raises(SystemExit) as exit_info:
            main(["ratio", "--model", "kg", *given])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert fragment in captured.err


@pytest.mark.parametrize("extra", [["--free"], ["--bound"], ["--alpha", "0.0073"]])
def test_ratio_has_no_mode_or_alpha_flag(capsys, extra):
    with pytest.raises(SystemExit) as exit_info:
        main(["ratio", "--model", "kg", "--zeta", "0.3", *extra])
    assert exit_info.value.code == 2
    assert extra[0] in capsys.readouterr().err


# ---------------------------------------------------------------------------
# figure and scan outputs
# ---------------------------------------------------------------------------

def read_manifest(out_dir):
    doc = json.loads((out_dir / "run_manifest.json").read_text())
    jsonschema.validate(doc, load_schema("run_manifest.schema.json"))
    return doc


def test_figure_fig2_manifest_is_complete(tmp_path, capsys):
    out = tmp_path / "fig2"
    argv = ["figure", "--id", "fig2", "--out-dir", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    doc = read_manifest(out)
    assert doc["command"] == argv
    assert doc["version"] == antimix.__version__
    # the panels' sigma and window and the scans' sample count are fixed,
    # so none of them is a parameter
    assert sorted(doc["parameters"]) == ["id", "out_dir"]
    emitted = sorted(p.name for p in out.iterdir() if p.name != "run_manifest.json")
    assert [entry["name"] for entry in doc["files"]] == emitted
    for entry in doc["files"]:
        data = (out / entry["name"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert entry["bytes"] == len(data)
    header = (out / "fig2.csv").read_text().splitlines()[0]
    assert header == "z_over_68p5,energy_ratio,R"


def test_figure_has_no_sigma_flag(tmp_path, capsys):
    out = tmp_path / "fig1"
    with pytest.raises(SystemExit) as exit_info:
        main(["figure", "--id", "fig1", "--out-dir", str(out), "--sigma", "0.02"])
    assert exit_info.value.code == 2
    assert "--sigma" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["figure", "--id", "fig1", "--xi-count", "64"],
    ["figure", "--id", "fig2", "--samples", "16"],
    ["packet", "--model", "kg", "--beta", "0.99999", "--xi-count", "16"],
], ids=["figure_xi_count", "figure_samples", "packet_xi_count"])
def test_window_and_figure_sample_counts_are_not_options(tmp_path, capsys, argv):
    # a default window always has XI_COUNT nodes, and fig2/fig4 always scan
    # DEFAULT_SCAN_SAMPLES couplings: each count is refused by argparse
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(argv + (["--out-dir", str(out)] if argv[0] == "figure" else []))
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[-2]}" in captured.err
    assert not out.exists()


def test_figure_fig4_columns(tmp_path, capsys):
    out = tmp_path / "fig4"
    assert main(["figure", "--id", "fig4", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    header = (out / "fig4.csv").read_text().splitlines()[0]
    assert header == "z_over_137,energy_paper,energy_sommerfeld,R"


def test_figure_panels_and_determinism(tmp_path, capsys):
    # identical invocations must produce byte-identical data files
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["figure", "--id", "fig1", "--out-dir", str(out)]) == 0
        runs.append(out)
    capsys.readouterr()
    names = sorted(p.name for p in runs[0].iterdir())
    expected = sorted([f"fig1_beta_{b}.csv" for b in (0.5, 0.9, 0.99, 0.99999)]
                      + [f"fig1_beta_{b}_norm.csv" for b in (0.5, 0.9, 0.99, 0.99999)]
                      + ["run_manifest.json"])
    assert names == expected
    for name in names:
        if name == "run_manifest.json":
            continue  # wall_time_s differs; its checksums are compared below
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    assert read_manifest(runs[0])["files"] == read_manifest(runs[1])["files"]


def test_figure_production_size_determinism(tmp_path, capsys):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["figure", "--id", "fig3", "--out-dir", str(out)]) == 0
        runs.append(out)
    capsys.readouterr()
    names = sorted(p.name for p in runs[0].iterdir() if p.name != "run_manifest.json")
    assert len(names) == 8
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    assert read_manifest(runs[0])["files"] == read_manifest(runs[1])["files"]


def test_figure_all_writes_the_same_fig3_panels_as_fig3_alone(tmp_path, capsys):
    # figure --id all renders each beta's xi window once for both models;
    # the Dirac panels must not differ from a run that renders only them
    assert main(["figure", "--id", "all", "--out-dir", str(tmp_path / "all")]) == 0
    assert main(["figure", "--id", "fig3", "--out-dir", str(tmp_path / "fig3")]) == 0
    capsys.readouterr()
    panels = sorted(p.name for p in (tmp_path / "fig3").glob("fig3_*.csv"))
    assert len(panels) == 8
    for name in panels:
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "fig3" / name).read_bytes()


def test_write_csv_matches_per_cell_repr(tmp_path):
    from antimix.cli import OutputTracker
    edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-300, np.inf, -np.inf, np.nan,
                     0.1, 1.0 / 3.0, -2.5e17, 123456789.0])
    columns = [edge, edge[::-1], np.arange(edge.size), list(edge)]
    header = ["a", "b", "c", "d"]
    path = OutputTracker(tmp_path).write_csv("edge.csv", header, columns)
    rows = [",".join(header)]
    for i in range(edge.size):
        rows.append(",".join(repr(float(col[i])) for col in columns))
    assert path.read_text() == "\n".join(rows) + "\n"


def test_figure_production_files_are_per_cell_repr(tmp_path, capsys):
    # every fig3 panel, rendered again cell by cell
    out = tmp_path / "fig3"
    assert main(["figure", "--id", "fig3", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    panels = sorted(out.glob("fig3_*.csv"))
    assert len(panels) == 8
    for panel in panels:
        header, *rows = panel.read_text().splitlines()
        assert len(rows) == XI_COUNT
        expected = [header] + [",".join(repr(float(tok)) for tok in row.split(",")) for row in rows]
        assert panel.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_figure_csv_floats_roundtrip(tmp_path, capsys):
    # full-precision serialization: repr floats parse back to the same bits
    out = tmp_path / "fig2"
    assert main(["figure", "--id", "fig2", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "fig2.csv").read_text().splitlines()
    for line in lines[1:]:
        for tok in line.split(","):
            assert repr(float(tok)) == tok


@pytest.mark.parametrize("fails_at,code,message", [
    # the disk fills halfway through the second data file
    ("fig1_beta_0.5_norm.csv", 3, "I/O error"),
    # the disk fills halfway through the manifest, after every data file
    ("run_manifest.json", 3, "I/O error"),
    # fig2's scan is refused after the sixteen fig1 and fig3 panels were written
    (None, 2, "scan refused"),
], ids=["data_file_io", "manifest_io", "domain_error"])
def test_figure_failure_removes_partials(tmp_path, capsys, monkeypatch, fails_at, code, message):
    real = Path.write_bytes
    out = tmp_path / "broken"

    def refused_scan(model):
        assert len(list(out.glob("fig[13]_beta_*.csv"))) == 16
        raise DomainError("scan refused")

    def disk_full(self, data, *args, **kwargs):
        if self.name != fails_at:
            return real(self, data, *args, **kwargs)
        real(self, data[:len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", disk_full)
    if fails_at is None:
        monkeypatch.setattr(antimix.cli, "bound_scan", refused_scan)
    assert main(["figure", "--id", "all", "--out-dir", str(out)]) == code
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []  # every partial file was removed


def test_scan_emits_zeta_column(tmp_path, capsys):
    out = tmp_path / "scan"
    assert main(["scan", "--model", "dirac", "--samples", "32",
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "scan_dirac.csv").read_text().splitlines()
    assert lines[0] == "zeta,z_over_137,energy_paper,energy_sommerfeld,R"
    assert len(lines) == 1 + 32
    read_manifest(out)


@pytest.mark.parametrize("samples", ["1", str(2**20 + 1), "1" + "0" * 400],
                         ids=["one", "max_plus_one", "1e400"])
def test_scan_sample_count_out_of_range_exits_2_before_any_array(tmp_path, capsys,
                                                                 monkeypatch, samples):
    # bound_scan checks 2 <= samples <= MAX_SCAN_SAMPLES before numpy is reached
    monkeypatch.setattr(antimix.coulomb, "np", None)
    out = tmp_path / "scan"
    assert main(["scan", "--model", "dirac", "--samples", samples, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"scan needs 2 to {antimix.coulomb.MAX_SCAN_SAMPLES} samples" in captured.err
    assert not out.exists()


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_free_packet_passes(tmp_path, capsys):
    scenario = write_scenario(tmp_path, FAST_EVOLVE)
    out = tmp_path / "run"
    assert main(["evolve", "--scenario", str(scenario), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "continuity_report.json").read_text())
    jsonschema.validate(report, load_schema("continuity_report.schema.json"))
    assert report["passed"] is True
    assert report["charge_drift"] < 1e-6
    assert report["final_time"] == pytest.approx(2.0)
    assert len(report["ratio"]) == len(report["intensity"]) == 3
    snapshots = sorted(p.name for p in out.glob("snapshot_*.csv"))
    assert snapshots == ["snapshot_0.csv", "snapshot_1.csv", "snapshot_2.csv"]
    assert (out / "snapshot_0.csv").read_text().splitlines()[0] == \
        "z,abs_theta_sq,abs_chi_sq,rho"
    doc = read_manifest(out)
    assert {entry["name"] for entry in doc["files"]} == \
        set(snapshots) | {"continuity_report.json"}


def test_evolve_shipped_free_packet_conserves_charge_to_roundoff(tmp_path, capsys):
    # no potential: the exact free propagator leaves only float64 roundoff in
    # the charge (RK4 left 3.1e-12 over the same run)
    scenario = SCHEMA_DIR.parents[1] / "scenarios" / "free_packet.cfg"
    out = tmp_path / "run"
    assert main(["evolve", "--scenario", str(scenario), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "continuity_report.json").read_text())
    assert report["final_time"] == 10.0
    assert report["charge_drift"] < 1e-13
    # a free packet keeps its R(t); the 1.1e-6 relative wobble is the
    # negative-frequency part that the continuum synthesis leaves on the lattice
    ratio = report["ratio"]
    assert len(ratio) == len(report["intensity"]) == 21
    assert (max(ratio) - min(ratio)) / min(ratio) < 1e-5


def test_evolve_reports_r_rising_in_the_supercritical_well(tmp_path, capsys):
    # coulomb_soft's V(0) = -5 lies below -2m: the charge stays put while R
    # climbs from 4.6e-6 toward 1 and the intensity grows (ROADMAP item 2)
    shipped = (SCHEMA_DIR.parents[1] / "scenarios" / "coulomb_soft.cfg").read_text()
    scenario = write_scenario(tmp_path, shipped.replace("duration = 10", "duration = 2"))
    out = tmp_path / "run"
    assert main(["evolve", "--scenario", str(scenario), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "continuity_report.json").read_text())
    jsonschema.validate(report, load_schema("continuity_report.schema.json"))
    assert report["passed"] is True
    ratio, intensity = report["ratio"], report["intensity"]
    assert len(ratio) == len(intensity) == 5
    assert ratio[0] < 1e-5 < 0.1 < ratio[-1] < 1.0
    assert all(later > earlier for earlier, later in zip(ratio, ratio[1:]))
    assert all(later > earlier for earlier, later in zip(intensity, intensity[1:]))


def timed_stage(monkeypatch, name):
    """Replace antimix.cli.<name> by a wrapper, padded by 50 ms so the stage
    outlasts the file writing, that records each call's duration."""
    import antimix.cli as cli
    real = getattr(cli, name)
    spans = []

    def timed(*args, **kwargs):
        start = time.monotonic()
        time.sleep(0.05)
        result = real(*args, **kwargs)
        spans.append(time.monotonic() - start)
        return result

    monkeypatch.setattr(cli, name, timed)
    return spans


def test_evolve_manifest_wall_time_covers_the_run(tmp_path, capsys, monkeypatch):
    spans = timed_stage(monkeypatch, "run")
    scenario = write_scenario(tmp_path, FAST_EVOLVE)
    out = tmp_path / "run"
    assert main(["evolve", "--scenario", str(scenario), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert len(spans) == 1
    assert read_manifest(out)["wall_time_s"] >= spans[0]
    report = json.loads((out / "continuity_report.json").read_text())
    assert report["final_time"] == 2.0


def test_scan_manifest_wall_time_covers_the_scan(tmp_path, capsys, monkeypatch):
    spans = timed_stage(monkeypatch, "bound_scan")
    out = tmp_path / "scan"
    assert main(["scan", "--model", "kg", "--samples", "64", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert len(spans) == 1
    assert read_manifest(out)["wall_time_s"] >= spans[0]


def test_evolve_tolerance_failure_exits_5_but_writes_report(tmp_path, capsys):
    scenario = write_scenario(tmp_path, FAST_EVOLVE.replace(
        "tolerance = 1e-6", "tolerance = 1e-30"))
    out = tmp_path / "run"
    assert main(["evolve", "--scenario", str(scenario), "--out-dir", str(out)]) == 5
    assert "tolerance exceeded" in capsys.readouterr().err
    report = json.loads((out / "continuity_report.json").read_text())
    assert report["passed"] is False
    assert report["tolerance"] == 1e-30
    assert (out / "run_manifest.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"],
                         ids=lambda value: f"scenario-{value}")
def test_evolve_refuses_a_tolerance_that_cannot_judge_the_drift(
        tmp_path, capsys, monkeypatch, value):
    # nan or <= 0 fails every run and inf passes every run; nan and inf are not
    # JSON either, so the report could not be written as valid JSON
    import antimix.cli as cli

    def no_synthesis(config):
        raise AssertionError("synthesis started before the tolerance was checked")

    monkeypatch.setattr(cli, "_scenario_initial_state", no_synthesis)
    scenario = write_scenario(tmp_path, FAST_EVOLVE.replace(
        "tolerance = 1e-6", f"tolerance = {value}"))
    out = tmp_path / "run"
    out.mkdir()
    assert main(["evolve", "--scenario", str(scenario), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "tolerance" in err and repr(float(value)) in err
    assert list(out.iterdir()) == []


def test_evolve_refuses_a_scenario_that_sets_dt_safety(tmp_path, capsys):
    # the RK4 step is the code's to choose: dt_safety is an unknown key
    scenario = write_scenario(tmp_path, FAST_EVOLVE.replace(
        "cadence = 1.0\n", "cadence = 1.0\ndt_safety = 0.9\n"))
    out = tmp_path / "run"
    assert main(["evolve", "--scenario", str(scenario), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "case.cfg:9" in err and "unknown scenario key 'dt_safety'" in err
    assert not out.exists()  # refused before any output


def test_evolve_has_no_tolerance_flag(tmp_path, capsys):
    scenario = write_scenario(tmp_path, FAST_EVOLVE)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exit_info:
        main(["evolve", "--scenario", str(scenario), "--out-dir", str(out), "--tol", "1"])
    assert exit_info.value.code == 2
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


def forbid_stepping(monkeypatch):
    import antimix.cli
    import antimix.evolve

    def no_stepping(*args):
        raise AssertionError("stepper built before the run's size was checked")

    def no_fields(*args, **kwargs):
        raise AssertionError("grid-sized array built before the run's size was checked")

    monkeypatch.setattr(antimix.evolve, "_rk4_stepper", no_stepping)
    monkeypatch.setattr(antimix.evolve, "_free_evolution", no_stepping)
    monkeypatch.setattr(antimix.cli, "synthesize_packet", no_fields)
    monkeypatch.setattr(antimix.cli, "softened_coulomb", no_fields)


def test_evolve_refuses_a_cadence_that_asks_for_too_many_steps(tmp_path, capsys, monkeypatch):
    # 512 nodes over [-60, 60] take RK4 steps of at most 0.0248: a cadence of
    # 5000 asks for ~2e5 a snapshot, refused before the packet is built, exit 2
    forbid_stepping(monkeypatch)
    scenario = write_scenario(tmp_path, FAST_EVOLVE.replace(
        "potential = none", "potential = soft_coulomb\nzeta = 0.5\nsoftening = 0.1").replace(
        "duration = 2.0", "duration = 5000").replace("cadence = 1.0", "cadence = 5000"))
    out = tmp_path / "run"
    assert main(["evolve", "--scenario", str(scenario), "--out-dir", str(out)]) == 2
    assert "steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cadence", ["1e-7", "5e-324"])
def test_evolve_refuses_a_run_that_keeps_too_many_snapshots(
        tmp_path, capsys, monkeypatch, cadence):
    # 1e7 snapshots of 512 nodes, or an infinite count, are refused before
    # the packet is built, exit 2
    forbid_stepping(monkeypatch)
    scenario = write_scenario(tmp_path, FAST_EVOLVE.replace(
        "duration = 2.0", "duration = 1.0").replace("cadence = 1.0", f"cadence = {cadence}"))
    out = tmp_path / "run"
    assert main(["evolve", "--scenario", str(scenario), "--out-dir", str(out)]) == 2
    assert "field samples" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_refuses_a_grid_too_large_to_keep_before_synthesis(tmp_path, capsys, monkeypatch):
    # 3 snapshots of 2^24 nodes: the cadence is fine, the grid alone is too large
    forbid_stepping(monkeypatch)
    scenario = write_scenario(tmp_path, FAST_EVOLVE.replace(
        "grid_count = 512", "grid_count = 16777216"))
    out = tmp_path / "run"
    assert main(["evolve", "--scenario", str(scenario), "--out-dir", str(out)]) == 2
    assert "3 snapshots of 16777216 nodes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("half_width", ["1e4", "1e20", "1e200"])
def test_evolve_refuses_a_grid_coarser_than_the_packet(tmp_path, capsys, half_width):
    # 512 nodes over +-1e4 are 39 apart, wider than the packet's density
    # FWHM of 14.4: refused before the edge prediction, which such a window
    # passes, and before any field is synthesized
    scenario = write_scenario(tmp_path, FAST_EVOLVE.replace(
        "grid_half_width = 60", f"grid_half_width = {half_width}"))
    out = tmp_path / "run"
    assert main(["evolve", "--scenario", str(scenario), "--out-dir", str(out)]) == 2
    assert "exceeds the packet's density FWHM 14.4" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_edge_leakage_partway_exits_4_without_output(tmp_path, capsys):
    # the packet starts inside the box and reaches its edge between t = 11 and 12
    scenario = write_scenario(tmp_path, FAST_EVOLVE.replace(
        "beta = 0.5", "beta = 0.9").replace(
        "grid_half_width = 60", "grid_half_width = 30").replace(
        "grid_count = 512", "grid_count = 384").replace(
        "duration = 2.0", "duration = 40"))
    out = tmp_path / "run"
    assert main(["evolve", "--scenario", str(scenario), "--out-dir", str(out)]) == 4
    assert "edge intensity" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_dirac_scenario_rejected(tmp_path, capsys):
    # evolve runs the Klein-Gordon system only (ROADMAP item 8), so model is
    # no scenario key: a file that sets it, to dirac or to kg, is refused
    for model in ("dirac", "kg"):
        scenario = write_scenario(tmp_path, FAST_EVOLVE.replace(
            "beta = 0.5", f"model = {model}\nbeta = 0.5"))
        out = tmp_path / model
        assert main(["evolve", "--scenario", str(scenario), "--out-dir", str(out)]) == 2
        assert "case.cfg:2: unknown scenario key 'model'" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

def test_parse_scenario_comments_and_defaults(tmp_path):
    path = write_scenario(tmp_path, """
# leading comment

beta = 0.25   # trailing comment
grid_count = 256
potential = soft_coulomb
""")
    config = parse_scenario(path)
    assert config["beta"] == 0.25
    assert config["grid_count"] == 256
    assert isinstance(config["grid_count"], int)
    assert config["potential"] == "soft_coulomb"
    assert config["duration"] == 10.0


@pytest.mark.parametrize("text,fragment", [
    ("speed = 0.5\n", "unknown scenario key"),
    ("beta = 0.5\nbeta = 0.6\n", "duplicate scenario key"),
    ("beta\n", "expected key = value"),
    ("beta = fast\n", "bad number"),
    ("grid_count = 1024.0\n", "bad number"),
    ("amplitude = 0.1\n", "unknown scenario key 'amplitude'"),
    ("width = 5.0\n", "unknown scenario key 'width'"),
    ("beta = 0.5\npotential = odd_gaussian\n", "case.cfg:2: unknown potential kind 'odd_gaussian'"),
])
def test_parse_scenario_rejections(tmp_path, text, fragment):
    path = write_scenario(tmp_path, text)
    from antimix.errors import DomainError
    with pytest.raises(DomainError, match=fragment):
        parse_scenario(path)


def test_scenario_errors_exit_2_with_location(tmp_path, capsys):
    scenario = write_scenario(tmp_path, "beta = 0.5\nspeed = 3\n")
    assert main(["evolve", "--scenario", str(scenario),
                 "--out-dir", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "case.cfg:2" in err and "speed" in err


def test_unknown_potential_kind_exits_2(tmp_path, capsys):
    scenario = write_scenario(tmp_path, FAST_EVOLVE.replace(
        "potential = none", "potential = banana"))
    assert main(["evolve", "--scenario", str(scenario),
                 "--out-dir", str(tmp_path / "run")]) == 2
    assert "banana" in capsys.readouterr().err


def test_shipped_scenarios_parse(tmp_path):
    shipped = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.cfg"))
    assert shipped
    for path in shipped:
        config = parse_scenario(path)
        assert config["duration"] > 0


# ---------------------------------------------------------------------------
# packet
# ---------------------------------------------------------------------------

def test_packet_json_schema(capsys):
    payload = run_json(capsys, ["packet", "--model", "kg", "--beta", "0.9",
                                "--sigma", "0.01", "--json"])
    jsonschema.validate(payload, load_schema("packet_report.schema.json"))
    assert payload["model"] == "kg"
    assert payload["gamma"] == pytest.approx((1 - 0.81) ** -0.5, rel=1e-12)
    assert payload["ratio"]["method"] == "quadrature"
    assert payload["charge"] > 0


def test_packet_text_output(capsys):
    assert main(["packet", "--model", "dirac", "--beta", "0.5", "--sigma", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "ratio = " in out and "fwhm = " in out and "charge = " in out


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_packet_nonfinite_time_exits_2_naming_t(capsys, t):
    assert main(["packet", "--model", "kg", f"--t={t}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "time t must be finite" in captured.err


# ---------------------------------------------------------------------------
# entry point plumbing
# ---------------------------------------------------------------------------

def test_version_flag_prints_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_installed_script_runs():
    exe = shutil.which("antimix")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "ratio", "--model", "kg", "--beta", "0.5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "R = " in proc.stdout


def test_module_invocation_matches_script(capsys):
    # the child imports the same antimix as this suite, installed or not
    package_root = str(Path(antimix.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "antimix.cli", "ratio",
                           "--model", "dirac", "--beta", "0.5", "--json"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    direct = run_json(capsys, ["ratio", "--model", "dirac", "--beta", "0.5", "--json"])
    assert json.loads(proc.stdout) == direct
