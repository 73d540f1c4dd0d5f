"""Output checks for the benchmark: manifests, schemas, checksums, profile
summaries, and 50-digit references for the hidden-antimatter ratios.

Nothing here is timed; the workloads call these after each operation.
"""

from __future__ import annotations

import decimal
import hashlib
import json
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

# Relative tolerance on a profile summary.  A chirp-z synthesis prototype
# moved the panels by ~1e-13; scaling chi by 1 + 1e-4 moves the final
# free-packet snapshot by 4e-6.
SUMMARY_RTOL = 1e-8
# R and the 1S energies lie in [0, 1].  1e-9 admits the radial quadrature's
# 1e-10 relative tolerance and the known float64 cancellations (which the
# accuracy metrics report), and still catches a wrong formula or convention.
VALUE_ABS_TOL = 1e-9
# A closed form claims abs_error_estimate = 0, i.e. float64 rounding only;
# a result counts as within its claim when its error is at most the estimate
# plus this many ulps of the returned value.
ULP_ALLOWANCE = 4

_CTX = decimal.Context(prec=50)


def load_validator(root: Path, schema_name: str) -> Draft202012Validator:
    schema = json.loads((root / "docs" / "schemas" / schema_name).read_text())
    return Draft202012Validator(schema)


def schema_problems(doc, validator: Draft202012Validator, what: str) -> list[str]:
    return [f"{what}: {err.message}" for err in validator.iter_errors(doc)]


def manifest_problems(out_dir: Path, validator: Draft202012Validator,
                      expected: set[str]) -> list[str]:
    """Schema, file list and sha256/byte counts of out_dir/run_manifest.json."""
    path = out_dir / "run_manifest.json"
    if not path.is_file():
        return ["run_manifest.json missing"]
    doc = json.loads(path.read_text())
    problems = schema_problems(doc, validator, "run_manifest.json")
    if problems:
        return problems
    listed = {entry["name"] for entry in doc["files"]}
    on_disk = {p.name for p in out_dir.iterdir()} - {"run_manifest.json"}
    if listed != expected or on_disk != expected:
        problems.append(f"manifest lists {sorted(listed)}, directory holds "
                        f"{sorted(on_disk)}, expected {sorted(expected)}")
        return problems
    for entry in doc["files"]:
        data = (out_dir / entry["name"]).read_bytes()
        if len(data) != entry["bytes"] or hashlib.sha256(data).hexdigest() != entry["sha256"]:
            problems.append(f"{entry['name']}: bytes or sha256 differ from the manifest")
    return problems


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and columns (one row per column) of an emitted CSV file."""
    with path.open() as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data.T


def profile_summary(x, theta_sq, chi_sq, rho) -> dict:
    """Integrated channel ratio, charge, FWHM and peak position of a profile."""
    i = int(np.argmax(rho))
    half = 0.5 * rho[i]
    left = np.nonzero(rho[:i] <= half)[0]
    right = np.nonzero(rho[i:] <= half)[0]
    if left.size and right.size:
        j = int(left[-1])
        k = i + int(right[0])
        x_left = x[j] + (half - rho[j]) / (rho[j + 1] - rho[j]) * (x[j + 1] - x[j])
        x_right = x[k - 1] + (rho[k - 1] - half) / (rho[k - 1] - rho[k]) * (x[k] - x[k - 1])
        fwhm = float(x_right - x_left)
    else:
        fwhm = math.nan
    return {
        "ratio": float(np.trapezoid(chi_sq, x) / np.trapezoid(theta_sq, x)),
        "charge": float(np.trapezoid(rho, x)),
        "fwhm": fwhm,
        "peak": float(x[i]),
        "step": float(x[1] - x[0]),
    }


def summary_problems(name: str, got: dict, ref: dict) -> list[str]:
    problems = []
    for key in ("ratio", "charge", "fwhm"):
        if not abs(got[key] - ref[key]) <= SUMMARY_RTOL * abs(ref[key]):
            problems.append(f"{name}: {key} {got[key]!r} differs from reference {ref[key]!r}")
    # a symmetric profile may peak on either node next to its centre
    if not abs(got["peak"] - ref["peak"]) <= 1.01 * ref["step"]:
        problems.append(f"{name}: peak at {got['peak']!r}, reference {ref['peak']!r}")
    return problems


def csv_profile_summary(path: Path, first_column: str) -> tuple[dict | None, list[str]]:
    header, cols = read_csv(path)
    expected = [first_column, "abs_theta_sq", "abs_chi_sq", "rho"]
    if header != expected:
        return None, [f"{path.name}: header {header}, expected {expected}"]
    return profile_summary(*cols), []


# ---------------------------------------------------------------------------
# 50-digit references
# ---------------------------------------------------------------------------

def _kg_free(b: Decimal) -> Decimal:
    root = (1 - b * b).sqrt()
    q = (1 - root) / (1 + root)
    return q * q


def _dirac_free(b: Decimal) -> Decimal:
    root = (1 - b * b).sqrt()
    return (1 - root) / (1 + root)


def _kg_1s(z: Decimal) -> Decimal:
    y = (Decimal("0.25") - z * z).sqrt()
    s = y + Decimal("0.5")
    return 1 - 4 / (2 + s.sqrt() + s * s.sqrt() / (2 * y))


def _dirac_1s(z: Decimal) -> Decimal:
    g = (1 - z * z).sqrt()
    return (1 - g) / (1 + g)


# R as a function of the argument each public ratio function takes
RATIO_REFERENCES = {
    "kg_free_ratio": _kg_free,
    "dirac_free_ratio": _dirac_free,
    "kg_1s_ratio_closed": _kg_1s,
    "kg_1s_ratio_quadrature": _kg_1s,
    "dirac_1s_ratio_closed": _dirac_1s,
    "dirac_1s_ratio_quadrature": _dirac_1s,
}


def ratio_reference(kind: str, x: float) -> Decimal:
    with decimal.localcontext(_CTX):
        return RATIO_REFERENCES[kind](Decimal(x))


def kg_energy_reference(z: float) -> Decimal:
    with decimal.localcontext(_CTX):
        d = Decimal(z)
        return (Decimal("0.5") + (Decimal("0.25") - d * d).sqrt()).sqrt()


def dirac_energy_reference(z: float) -> tuple[Decimal, Decimal]:
    """(primary, sommerfeld) as documented in antimix.coulomb.dirac_1s_energy."""
    with decimal.localcontext(_CTX):
        d = Decimal(z)
        g = (1 - d * d).sqrt()
        return 1 / (1 + d * d / g).sqrt(), g


class Accuracy:
    """Worst relative error, and how many results stayed within their claim."""

    def __init__(self):
        self.max_rel_err = 0.0
        self.claims = 0
        self.claims_met = 0

    def add(self, value: float, ref: Decimal, estimate: float = 0.0,
            in_max: bool = True) -> bool:
        """Record one result; False when it is off by more than VALUE_ABS_TOL.

        in_max=False leaves the result out of max_rel_err.
        """
        with decimal.localcontext(_CTX):
            err = abs(Decimal(value) - ref)
            if in_max:
                self.max_rel_err = max(self.max_rel_err, float(err / ref))
            self.claims += 1
            if err <= Decimal(estimate) + ULP_ALLOWANCE * Decimal(math.ulp(value)):
                self.claims_met += 1
        return err <= VALUE_ABS_TOL

    def add_error(self, rel_err: float, met: bool):
        """Record a relative error measured elsewhere and whether it met its bound."""
        self.max_rel_err = max(self.max_rel_err, rel_err)
        self.claims += 1
        self.claims_met += int(met)

    @property
    def met_frac(self) -> float:
        return self.claims_met / self.claims if self.claims else math.nan
