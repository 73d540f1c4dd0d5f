"""Write perfbench/reference.json from the program in this checkout.

Run from the repository root:

    python3 perfbench/make_reference.py

The file pins what the benchmark accepts as the figure panels and the final
evolution snapshots: their integrated channel ratio, charge, FWHM and peak
position.  Regenerate it only in a change that is meant to move them.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(1, str(ROOT / "src"))

import antimix.cli  # noqa: E402

import checks  # noqa: E402
from workloads import Evolve  # noqa: E402


def emit(argv: list[str]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = antimix.cli.main(argv)
    if rc != 0:
        raise SystemExit(f"antimix {' '.join(argv)} exited with {rc}")


def main():
    work = ROOT / ".bench_build" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    emit(["figure", "--id", "all", "--out-dir", str(work / "figures")])
    panels = {path.name: checks.csv_profile_summary(path, "xi")[0]
              for path in sorted((work / "figures").glob("fig[13]_*.csv"))}
    evolve = {}
    for scenario in Evolve.scenarios:
        out = work / scenario
        emit(["evolve", "--scenario", str(ROOT / "scenarios" / f"{scenario}.cfg"),
              "--out-dir", str(out)])
        files = sorted(p.name for p in out.iterdir() if p.name != "run_manifest.json")
        final = [name for name in files if name.startswith("snapshot_")][-1]
        evolve[scenario] = {
            "files": files,
            "final_snapshot": final,
            "summary": checks.csv_profile_summary(out / final, "z")[0],
        }
    doc = {"panels": panels, "evolve": evolve}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
