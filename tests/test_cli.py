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
model = kg
beta = 0.5
sigma = 0.01
grid_half_width = 60
grid_count = 512
potential = none
duration = 2.0
cadence = 1.0
dt_safety = 0.9
tolerance = 1e-6
"""


# ---------------------------------------------------------------------------
# ratio
# ---------------------------------------------------------------------------

def test_ratio_free_json_schema_and_value(capsys):
    payload = run_json(capsys, ["ratio", "--model", "dirac", "--free",
                                "--beta", "0.8", "--json"])
    jsonschema.validate(payload, load_schema("ratio_result.schema.json"))
    assert payload["value"] == pytest.approx(0.25, rel=1e-12)
    assert payload["classification"] == "Particle"
    assert payload["mode"] == "free"
    assert "zeta" not in payload and "energy" not in payload


def test_ratio_bound_json_schema(capsys):
    payload = run_json(capsys, ["ratio", "--model", "kg", "--bound",
                                "--zeta", "0.3", "--json"])
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


def test_ratio_mode_inferred_from_beta(capsys):
    explicit = run_json(capsys, ["ratio", "--model", "kg", "--free",
                                 "--beta", "0.5", "--json"])
    inferred = run_json(capsys, ["ratio", "--model", "kg",
                                 "--beta", "0.5", "--json"])
    assert inferred == explicit


@pytest.mark.parametrize("model,zeta,energy", [("kg", "0.5", 2.0 ** -0.5),
                                               ("dirac", "1.0", 0.0)])
def test_ratio_critical_coupling_reports_limit(capsys, model, zeta, energy):
    payload = run_json(capsys, ["ratio", "--model", model, "--bound",
                                "--zeta", zeta, "--json"])
    jsonschema.validate(payload, load_schema("ratio_result.schema.json"))
    assert payload["is_limit"] is True
    assert payload["value"] == 1.0
    assert payload["classification"] == "Boundary"
    assert payload["energy"] == pytest.approx(energy, abs=1e-12)


def test_ratio_critical_text_mentions_limit(capsys):
    assert main(["ratio", "--model", "kg", "--bound", "--zeta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "critical-point limit" in out
    assert "Boundary" in out


def test_ratio_luminal_beta_exits_2_naming_the_limit(capsys):
    assert main(["ratio", "--model", "kg", "--free", "--beta", "1.0"]) == 2
    assert "limiting speed c" in capsys.readouterr().err


def test_ratio_supercritical_zeta_exits_2_naming_the_coupling(capsys):
    assert main(["ratio", "--model", "kg", "--bound", "--zeta", "0.6"]) == 2
    assert "0.5" in capsys.readouterr().err
    assert main(["ratio", "--model", "dirac", "--bound", "--zeta", "1.2"]) == 2
    assert "1" in capsys.readouterr().err


def test_ratio_flag_misuse_exits_2(capsys):
    assert main(["ratio", "--model", "kg", "--free", "--bound", "--beta", "0.5"]) == 2
    assert main(["ratio", "--model", "kg", "--bound"]) == 2
    assert main(["ratio", "--model", "kg", "--free"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# figure and scan outputs
# ---------------------------------------------------------------------------

def read_manifest(out_dir):
    doc = json.loads((out_dir / "run_manifest.json").read_text())
    jsonschema.validate(doc, load_schema("run_manifest.schema.json"))
    return doc


def test_figure_fig2_manifest_is_complete(tmp_path, capsys):
    out = tmp_path / "fig2"
    argv = ["figure", "--id", "fig2", "--out-dir", str(out), "--samples", "128"]
    assert main(argv) == 0
    capsys.readouterr()
    doc = read_manifest(out)
    assert doc["command"] == argv
    assert doc["version"] == antimix.__version__
    emitted = sorted(p.name for p in out.iterdir() if p.name != "run_manifest.json")
    assert [entry["name"] for entry in doc["files"]] == emitted
    for entry in doc["files"]:
        data = (out / entry["name"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert entry["bytes"] == len(data)
    header = (out / "fig2.csv").read_text().splitlines()[0]
    assert header == "z_over_68p5,energy_ratio,R"


def test_figure_fig4_columns(tmp_path, capsys):
    out = tmp_path / "fig4"
    assert main(["figure", "--id", "fig4", "--out-dir", str(out),
                 "--samples", "64"]) == 0
    capsys.readouterr()
    header = (out / "fig4.csv").read_text().splitlines()[0]
    assert header == "z_over_137,energy_paper,energy_sommerfeld,R"


def test_figure_panels_and_determinism(tmp_path, capsys):
    # identical invocations must produce byte-identical data files
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["figure", "--id", "fig1", "--out-dir", str(out),
                     "--xi-count", "64"]) == 0
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
    # the default --xi-count runs the synthesis FFT at its production length
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


def test_figure_csv_floats_roundtrip(tmp_path, capsys):
    # full-precision serialization: repr floats parse back to the same bits
    out = tmp_path / "fig2"
    assert main(["figure", "--id", "fig2", "--out-dir", str(out),
                 "--samples", "16"]) == 0
    capsys.readouterr()
    lines = (out / "fig2.csv").read_text().splitlines()
    for line in lines[1:]:
        for tok in line.split(","):
            assert repr(float(tok)) == tok


@pytest.mark.parametrize("fails_at,samples,code,message", [
    # the disk fills halfway through the second data file
    ("fig1_beta_0.5_norm.csv", "16", 3, "I/O error"),
    # the disk fills halfway through the manifest, after every data file
    ("run_manifest.json", "16", 3, "I/O error"),
    # fig2's scan is refused after the eight fig1 panels were written
    (None, "1", 2, "scan needs at least 2 samples"),
], ids=["data_file_io", "manifest_io", "domain_error"])
def test_figure_failure_removes_partials(tmp_path, capsys, monkeypatch,
                                         fails_at, samples, code, message):
    real = Path.write_text

    def disk_full(self, data, *args, **kwargs):
        if self.name != fails_at:
            return real(self, data, *args, **kwargs)
        real(self, data[:len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", disk_full)
    out = tmp_path / "broken"
    assert main(["figure", "--id", "all", "--out-dir", str(out),
                 "--samples", samples, "--xi-count", "64"]) == code
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
    snapshots = sorted(p.name for p in out.glob("snapshot_*.csv"))
    assert snapshots == ["snapshot_0.csv", "snapshot_1.csv", "snapshot_2.csv"]
    assert (out / "snapshot_0.csv").read_text().splitlines()[0] == \
        "z,abs_theta_sq,abs_chi_sq,rho"
    doc = read_manifest(out)
    assert {entry["name"] for entry in doc["files"]} == \
        set(snapshots) | {"continuity_report.json"}


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
    scenario = write_scenario(tmp_path, FAST_EVOLVE)
    out = tmp_path / "run"
    assert main(["evolve", "--scenario", str(scenario), "--out-dir", str(out),
                 "--tol", "1e-30"]) == 5
    assert "tolerance exceeded" in capsys.readouterr().err
    report = json.loads((out / "continuity_report.json").read_text())
    assert report["passed"] is False
    assert report["tolerance"] == 1e-30
    assert (out / "run_manifest.json").exists()


def test_evolve_unstable_dt_exits_4_before_writing(tmp_path, capsys):
    scenario = write_scenario(tmp_path, FAST_EVOLVE.replace(
        "dt_safety = 0.9", "dt_safety = 1.5"))
    out = tmp_path / "run"
    assert main(["evolve", "--scenario", str(scenario), "--out-dir", str(out)]) == 4
    assert "stability" in capsys.readouterr().err
    assert not out.exists()  # refused before any output


def test_evolve_dirac_scenario_rejected(tmp_path, capsys):
    scenario = write_scenario(tmp_path, FAST_EVOLVE.replace(
        "model = kg", "model = dirac"))
    assert main(["evolve", "--scenario", str(scenario),
                 "--out-dir", str(tmp_path / "run")]) == 2
    capsys.readouterr()


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
    assert config["model"] == "kg"  # untouched default
    assert config["duration"] == 10.0


@pytest.mark.parametrize("text,fragment", [
    ("speed = 0.5\n", "unknown scenario key"),
    ("beta = 0.5\nbeta = 0.6\n", "duplicate scenario key"),
    ("beta\n", "expected key = value"),
    ("beta = fast\n", "bad number"),
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
    root = Path(__file__).resolve().parents[1] / "scenarios"
    for name in ("free_packet.cfg", "coulomb_soft.cfg"):
        config = parse_scenario(root / name)
        assert config["model"] == "kg"
        assert config["duration"] > 0


# ---------------------------------------------------------------------------
# packet
# ---------------------------------------------------------------------------

def test_packet_json_schema(capsys):
    payload = run_json(capsys, ["packet", "--model", "kg", "--beta", "0.9",
                                "--sigma", "0.01", "--xi-count", "512", "--json"])
    jsonschema.validate(payload, load_schema("packet_report.schema.json"))
    assert payload["model"] == "kg"
    assert payload["gamma"] == pytest.approx((1 - 0.81) ** -0.5, rel=1e-12)
    assert payload["ratio"]["method"] == "quadrature"
    assert payload["charge"] > 0


def test_packet_text_output(capsys):
    assert main(["packet", "--model", "dirac", "--beta", "0.5",
                 "--sigma", "0.01", "--xi-count", "512"]) == 0
    out = capsys.readouterr().out
    assert "ratio = " in out and "fwhm = " in out and "charge = " in out


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
    proc = subprocess.run([exe, "ratio", "--model", "kg", "--free", "--beta", "0.5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "R = " in proc.stdout


def test_module_invocation_matches_script(capsys):
    # the child imports the same antimix as this suite, installed or not
    package_root = str(Path(antimix.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "antimix.cli", "ratio",
                           "--model", "dirac", "--free", "--beta", "0.5", "--json"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    direct = run_json(capsys, ["ratio", "--model", "dirac", "--free",
                               "--beta", "0.5", "--json"])
    assert json.loads(proc.stdout) == direct
