"""The benchmark workloads: figures, evolve and ratios.

Each drives antimix only through ``antimix.cli.main(argv)`` and the public
library functions, from this one process, as one closed-loop caller: an
operation starts when the previous one has returned.  A unit is the repeated
piece of work whose wall time is reported as wall_s.  Every operation's
outputs are checked after the unit, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import tempfile
from decimal import Decimal
from pathlib import Path
from time import perf_counter, perf_counter_ns

import antimix.cli
import antimix.coulomb
import antimix.diracfree
import antimix.kgfree
from antimix.errors import DomainError

import checks


class Tally:
    """Operations attempted and failed; failed output checks also count as incorrect.

    A ratio function that raises DomainError for an argument inside its
    documented domain is a known defect of the program, not a failure to run
    the operation: it is counted in domain_errors, which ok_frac reports.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.domain_errors = 0
        self.problems: dict[str, None] = {}  # distinct messages, in order seen

    def op(self, problems: list[str], incorrect: bool = True):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.incorrect += int(incorrect)
            self._note(problems)

    def domain_error(self, problem: str):
        self.attempted += 1
        self.domain_errors += 1
        self._note([problem])

    def _note(self, problems: list[str]):
        if len(self.problems) < 20:
            self.problems.update(dict.fromkeys(problems[:3]))


def fresh_dir(work_dir: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=work_dir))


def run_cli(argv: list[str]) -> tuple[str | None, float]:
    """(problem or None, seconds) of one antimix.cli.main call, output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        try:
            rc = antimix.cli.main(argv)
        except Exception as err:  # the operation failed; the benchmark goes on
            rc = f"{type(err).__name__}: {err}"
        elapsed = perf_counter() - start
    if rc == 0:
        return None, elapsed
    return f"{' '.join(argv[:3])} ended with {rc}: {sink.getvalue()[-300:]}", elapsed


class Figures:
    """`figure --id all` into a fresh directory; one command per unit."""

    warm_up = False  # a unit is ~14 s and shows no first-run cost
    fastest_per_op = False

    def __init__(self, root: Path, seed: int, work_dir: Path, reference: dict):
        # the paper's datasets are fixed, so the seed selects nothing here
        self.work_dir = work_dir
        self.validator = checks.load_validator(root, "run_manifest.schema.json")
        self.panels = reference["panels"]
        self.expected = set(self.panels) | {"fig2.csv", "fig4.csv"}
        self.accuracy = checks.Accuracy()

    def unit(self, tally: Tally) -> tuple[float, list[float]]:
        out = fresh_dir(self.work_dir)
        problem, elapsed = run_cli(["figure", "--id", "all", "--out-dir", str(out)])
        if problem:
            tally.op([problem], incorrect=False)
        else:
            tally.op(self._problems(out))
        shutil.rmtree(out, ignore_errors=True)
        return elapsed, [elapsed]

    def _problems(self, out: Path) -> list[str]:
        problems = checks.manifest_problems(out, self.validator, self.expected)
        if problems:
            return problems
        for name, ref in self.panels.items():
            got, bad_header = checks.csv_profile_summary(out / name, "xi")
            problems += bad_header or checks.summary_problems(name, got, ref)
        problems += self._scan_problems(out / "fig2.csv", ["z_over_68p5", "energy_ratio", "R"])
        problems += self._scan_problems(
            out / "fig4.csv", ["z_over_137", "energy_paper", "energy_sommerfeld", "R"])
        return problems

    def _scan_problems(self, path: Path, expected: list[str]) -> list[str]:
        """Energies and R of a coupling scan against 50-digit references."""
        header, cols = checks.read_csv(path)
        if header != expected:
            return [f"{path.name}: header {header}, expected {expected}"]
        kg = header[0] == "z_over_68p5"
        bad = []
        for row in zip(*(c.tolist() for c in cols)):
            if kg:
                zeta = 0.5 * row[0]  # the axis is Z/68.5 = 2 zeta
                energies = [checks.kg_energy_reference(zeta)]
                ratio = checks.ratio_reference("kg_1s_ratio_closed", zeta)
            else:
                zeta = row[0]
                energies = list(checks.dirac_energy_reference(zeta))
                ratio = checks.ratio_reference("dirac_1s_ratio_closed", zeta)
            ok = self.accuracy.add(row[-1], ratio)
            ok &= all(abs(Decimal(e) - ref) <= checks.VALUE_ABS_TOL
                      for e, ref in zip(row[1:-1], energies))
            if not ok:
                bad.append(f"{path.name}: row at axis {row[0]!r} is off its reference")
        return bad


class Evolve:
    """`evolve` on both shipped scenarios; one unit is one run of each."""

    warm_up = True
    fastest_per_op = False
    scenarios = ("free_packet", "coulomb_soft")

    def __init__(self, root: Path, seed: int, work_dir: Path, reference: dict):
        # the shipped scenarios are fixed, so the seed selects nothing here
        self.root = root
        self.work_dir = work_dir
        self.manifest_validator = checks.load_validator(root, "run_manifest.schema.json")
        self.report_validator = checks.load_validator(root, "continuity_report.schema.json")
        self.reference = reference["evolve"]
        self.accuracy = checks.Accuracy()

    def unit(self, tally: Tally) -> tuple[float, list[float]]:
        latencies = []
        for scenario in self.scenarios:
            out = fresh_dir(self.work_dir)
            cfg = self.root / "scenarios" / f"{scenario}.cfg"
            problem, elapsed = run_cli(["evolve", "--scenario", str(cfg), "--out-dir", str(out)])
            if problem:
                tally.op([problem], incorrect=False)
            else:
                tally.op(self._problems(scenario, out))
            shutil.rmtree(out, ignore_errors=True)
            latencies.append(elapsed)
        return sum(latencies), latencies

    def _problems(self, scenario: str, out: Path) -> list[str]:
        ref = self.reference[scenario]
        problems = checks.manifest_problems(out, self.manifest_validator, set(ref["files"]))
        if problems:
            return problems
        report = json.loads((out / "continuity_report.json").read_text())
        problems = checks.schema_problems(report, self.report_validator, "continuity_report.json")
        if problems:
            return problems
        # charge is conserved exactly by the flow: its drift is a relative error
        drift = report["charge_drift"]
        self.accuracy.add_error(drift, drift <= report["tolerance"])
        if not report["passed"]:
            problems.append(f"{scenario}: continuity check did not pass")
        name = ref["final_snapshot"]
        got, bad_header = checks.csv_profile_summary(out / name, "z")
        return problems + (bad_header or checks.summary_problems(
            f"{scenario}/{name}", got, ref["summary"]))


# each documented domain: beta in [0, 1), zeta in (0, critical); the radial
# quadrature is documented for zeta in [1e-4, critical - 1e-6]
BETA_DOMAIN = (1e-6, 1.0 - 1e-6)
KG_ZETA_DOMAIN = (1e-4, 0.5 - 1e-6)
DIRAC_ZETA_DOMAIN = (1e-4, 1.0 - 1e-6)
RATIO_FUNCTIONS = [
    (antimix.kgfree, "kg_free_ratio", BETA_DOMAIN),
    (antimix.diracfree, "dirac_free_ratio", BETA_DOMAIN),
    (antimix.coulomb, "kg_1s_ratio_closed", KG_ZETA_DOMAIN),
    (antimix.coulomb, "dirac_1s_ratio_closed", DIRAC_ZETA_DOMAIN),
    (antimix.coulomb, "kg_1s_ratio_quadrature", KG_ZETA_DOMAIN),
    (antimix.coulomb, "dirac_1s_ratio_quadrature", DIRAC_ZETA_DOMAIN),
]
CALLS_PER_FUNCTION = 1000
# per function and spacing: points from one end of the domain to the other,
# the same for every seed
PROBE_POINTS = 50


def _probe_grid(lo: float, hi: float) -> list[float]:
    log_lo, log_hi = math.log(lo), math.log(hi)
    steps = [i / (PROBE_POINTS - 1) for i in range(PROBE_POINTS)]
    return ([math.exp(log_lo + t * (log_hi - log_lo)) for t in steps]
            + [lo + t * (hi - lo) for t in steps])


class Ratios:
    """A seeded, shuffled list of calls to the six public ratio functions.

    Half of each function's arguments are log-uniform over its domain, so
    weak coupling and low speed are covered; half are uniform, so the
    approach to the critical coupling is too.  A fixed probe grid with the
    same split is part of every list: float64 rounding errors are spiky in
    the argument, so the worst relative error over random points depends on
    where they fall, and max_rel_err is taken over the probe grid alone.
    One unit is one pass over the list.  Every pass makes the same calls in
    the same order, so a run times each call once a pass and reports its
    fastest time.
    """

    warm_up = True
    fastest_per_op = True

    def __init__(self, root: Path, seed: int, work_dir: Path, reference: dict):
        rng = random.Random(seed)
        calls = []
        for module, name, (lo, hi) in RATIO_FUNCTIONS:
            probes = _probe_grid(lo, hi)
            calls += [(module, name, x, True) for x in probes]
            for i in range(CALLS_PER_FUNCTION - len(probes)):
                if i % 2:
                    x = rng.uniform(lo, hi)
                else:
                    x = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                calls.append((module, name, x, False))
        rng.shuffle(calls)
        self.calls = calls
        self.references = [checks.ratio_reference(name, x) for _, name, x, _ in calls]
        self.accuracy = checks.Accuracy()

    def unit(self, tally: Tally) -> tuple[float, list[float]]:
        # resolved per pass, so the traced run calls the installed wrappers
        bound = [(getattr(module, name), x) for module, name, x, _ in self.calls]
        results = []
        latencies_ns = []
        start = perf_counter()
        for fn, x in bound:
            t0 = perf_counter_ns()
            try:
                result = fn(x)
            except Exception as err:  # the operation failed; the benchmark goes on
                result = err
            latencies_ns.append(perf_counter_ns() - t0)
            results.append(result)
        wall = perf_counter() - start
        for (_, name, x, probe), ref, result in zip(self.calls, self.references, results):
            if isinstance(result, DomainError):
                tally.domain_error(f"{name}({x!r}) raised {type(result).__name__}: {result}")
            elif isinstance(result, Exception):
                tally.op([f"{name}({x!r}) raised {type(result).__name__}: {result}"],
                         incorrect=False)
            elif self.accuracy.add(result.value, ref, result.abs_error_estimate, probe):
                tally.op([])
            else:
                tally.op([f"{name}({x!r}) = {result.value!r}, reference {float(ref)!r}"])
        return wall, [t * 1e-9 for t in latencies_ns]


WORKLOADS = {"figures": Figures, "evolve": Evolve, "ratios": Ratios}
