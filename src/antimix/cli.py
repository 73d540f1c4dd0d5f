"""Command-line surface: ratios, figure datasets, scans, evolution runs.

Subcommands:

    ratio    closed-form hidden-antimatter ratio for free or bound states
    figure   emit the four reference figure datasets as CSV files
    scan     bound-state coupling scan as CSV
    evolve   run a scenario file through the coupled time evolution
    packet   synthesize one packet and report its measurements

Exit codes: 0 success, 2 domain error, 3 I/O error, 4 stability or
boundary-leakage violation, 5 tolerance failure (the report is still written).
A file-emitting command (figure, scan, evolve) that fails, whatever the error,
removes every file it wrote, run_manifest.json included.  All emitted files
are listed with sha256 checksums in run_manifest.json, which is always written
last.  Every CSV float is written as the bytes repr gives it, so identical
invocations produce byte-identical data files and each value reads back
exactly.  A vectorized kernel (`_floattext`) renders whole blocks of values to
those bytes and hands any value it cannot certify to repr itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from . import __version__
from ._floattext import csv_rows, repr_cells
from .coulomb import (
    BoundScan,
    bound_scan,
    classify_state,
    dirac_1s_energy,
    dirac_1s_ratio_closed,
    kg_1s_energy,
    kg_1s_ratio_closed,
)
from .diracfree import dirac_free_ratio
from .errors import (
    BoundaryLeakageError,
    ConvergenceError,
    DomainError,
    StabilityError,
)
from .evolve import EvolutionState, charge, continuity_check, odd_gaussian_potential, run, softened_coulomb
from .kgfree import kg_free_ratio
from .packets import (
    DEFAULT_SIGMA,
    DEFAULT_XI_COUNT,
    PacketSpec,
    packet_report,
    synthesize_packet,
)
from .quad import Grid1D
from .units import (
    CODATA_ALPHA,
    ModelKind,
    RatioResult,
    zeta_from_z,
)

FIGURE_BETAS = (0.5, 0.9, 0.99, 0.99999)
DEFAULT_SCAN_SAMPLES = 512

SCENARIO_DEFAULTS = {
    "model": "kg",
    "beta": 0.5,
    "sigma": 0.01,
    "grid_half_width": 60.0,
    "grid_count": 1024,
    "potential": "none",
    "zeta": 0.5,
    "softening": 0.1,
    "amplitude": 0.1,
    "width": 5.0,
    "duration": 10.0,
    "cadence": 0.5,
    "dt_safety": 0.9,
    "tolerance": 1e-6,
}


def _fmt(x) -> str:
    """Full-precision decimal float: repr round-trips exactly."""
    return repr(float(x))


class OutputTracker:
    """Records emitted files so a failed run can remove partial outputs.

    Each file is written as bytes through `write`, which records its sha256
    and length for the manifest, so no file is read back.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: list[Path] = []
        self._entries: dict[str, dict] = {}  # the manifest's record of each file, by name
        self._grid_cells: tuple[bytes, np.ndarray] = (b"", repr_cells([]))

    def write(self, name: str, data: bytes) -> Path:
        path = self.out_dir / name
        self.files.append(path)  # before writing, so a half-written file is removed too
        path.write_bytes(data)
        self._entries[name] = {"name": name, "sha256": hashlib.sha256(data).hexdigest(),
                               "bytes": len(data)}
        return path

    def write_csv(self, name: str, header: list[str], columns: list[np.ndarray]) -> Path:
        # every cell is the bytes repr gives it; the first column is the grid,
        # rendered once for the files sharing it
        grid, *rest = (np.asarray(col, dtype=float) for col in columns)
        if grid.tobytes() != self._grid_cells[0]:
            self._grid_cells = (grid.tobytes(), repr_cells(grid))
        table = np.reshape(rest, (len(rest), grid.size)).T
        return self.write(name, csv_rows(",".join(header), self._grid_cells[1], table))

    def manifest(self, command: list[str], parameters: dict, started: float) -> Path:
        doc = {
            "command": command,
            "parameters": parameters,
            "version": __version__,
            "files": [self._entries[name] for name in sorted(self._entries)],
            "wall_time_s": time.monotonic() - started,
        }
        return self.write("run_manifest.json",
                          json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n")


@contextmanager
def _emitting(args: argparse.Namespace) -> Iterator[OutputTracker]:
    """The emit path of every file-writing command.

    Creates args.out_dir and yields the tracker the command writes through.
    On a clean exit it writes run_manifest.json last, timed from args.started;
    on any exception, the manifest's own included, it removes every file the
    command wrote and re-raises, so a failed run leaves no partial outputs.
    """
    tracker = OutputTracker(Path(args.out_dir))
    tracker.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        yield tracker
        tracker.manifest(args.invocation, _public_params(args), args.started)
    except BaseException:
        for path in tracker.files:
            with suppress(OSError):
                path.unlink()
        raise


def _public_params(args: argparse.Namespace) -> dict:
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in ("func", "command", "invocation", "started"):
            continue
        out[key] = str(val) if isinstance(val, Path) else val
    return out


# ---------------------------------------------------------------------------
# ratio
# ---------------------------------------------------------------------------

def _resolve_zeta(args) -> float:
    if args.zeta is not None:
        return float(args.zeta)
    if args.z is not None:
        return float(zeta_from_z(args.z, args.alpha))
    raise DomainError("bound mode needs --zeta or --z")


def _ratio_payload(model: ModelKind, mode: str, parameter: float,
                   result: RatioResult, energies: dict) -> dict:
    payload = {
        "model": model.value,
        "mode": mode,
        ("beta" if mode == "free" else "zeta"): parameter,
        "value": result.value,
        "method": result.method,
        "abs_error_estimate": result.abs_error_estimate,
        "is_limit": result.is_limit,
        "classification": classify_state(result).value,
    }
    payload.update(energies)
    return payload


def _print_ratio(payload: dict, as_json: bool):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    param_key = "beta" if payload["mode"] == "free" else "zeta"
    print(f"model: {payload['model']}  mode: {payload['mode']}  "
          f"{param_key}: {_fmt(payload[param_key])}")
    limit_note = "  (critical-point limit)" if payload["is_limit"] else ""
    print(f"R = {_fmt(payload['value'])}  method: {payload['method']}  "
          f"classification: {payload['classification']}{limit_note}")
    for key in ("energy", "energy_sommerfeld"):
        if key in payload:
            print(f"{key} = {_fmt(payload[key])}")


def cmd_ratio(args) -> int:
    model = ModelKind.from_name(args.model)
    if args.free and args.bound:
        raise DomainError("--free and --bound are mutually exclusive")
    if args.free or args.bound:
        mode = "free" if args.free else "bound"
    else:
        # neither flag given: infer free mode from the presence of --beta
        mode = "free" if args.beta is not None else "bound"

    if mode == "free":
        if args.beta is None:
            raise DomainError("free mode needs --beta")
        result = (kg_free_ratio if model is ModelKind.KLEIN_GORDON else dirac_free_ratio)(args.beta)
        parameter, energies = float(args.beta), {}
    else:
        parameter = _resolve_zeta(args)
        if parameter == model.critical_zeta:
            # exact critical coupling: report the documented limit instead of
            # rejecting (the closed forms are open-interval)
            result = RatioResult(value=1.0, method="closed_form", is_limit=True)
        else:
            result = (kg_1s_ratio_closed if model is ModelKind.KLEIN_GORDON
                      else dirac_1s_ratio_closed)(parameter)
        if model is ModelKind.KLEIN_GORDON:
            energies = {"energy": kg_1s_energy(parameter)}
        else:
            primary, somm = (0.0, 0.0) if result.is_limit else dirac_1s_energy(parameter)
            energies = {"energy": primary, "energy_sommerfeld": somm}
    _print_ratio(_ratio_payload(model, mode, parameter, result, energies), args.json)
    return 0


# ---------------------------------------------------------------------------
# figure / scan
# ---------------------------------------------------------------------------

def _profile_columns(fld, axis: str = "xi") -> tuple[list[str], list[np.ndarray]]:
    header = [axis, "abs_theta_sq", "abs_chi_sq", "rho"]
    theta_sq = np.abs(fld.theta) ** 2
    chi_sq = np.abs(fld.chi) ** 2
    return header, [fld.grid.points, theta_sq, chi_sq, fld.rho]


def _emit_packet_panels(tracker: OutputTracker, prefix: str, model: ModelKind,
                        sigma: float, xi_count: int):
    for beta in FIGURE_BETAS:
        spec = PacketSpec(model=model, beta=beta, sigma=sigma, xi_count=xi_count)
        fld = synthesize_packet(spec)
        header, cols = _profile_columns(fld)
        tracker.write_csv(f"{prefix}_beta_{beta}.csv", header, cols)
        # charge-normalized copy: intensity columns divided by the total
        # charge (KG) or norm (Dirac), so panels are comparable across beta
        q = fld.charge
        norm_cols = [cols[0]] + [c / q for c in cols[1:]]
        tracker.write_csv(f"{prefix}_beta_{beta}_norm.csv", header, norm_cols)


def _emit_bound_scan(tracker: OutputTracker, name: str, scan: BoundScan,
                     include_zeta: bool = False):
    if scan.model is ModelKind.KLEIN_GORDON:
        header = ["z_over_68p5", "energy_ratio", "R"]
        cols = [scan.axis, scan.energy, scan.ratio]
    else:
        header = ["z_over_137", "energy_paper", "energy_sommerfeld", "R"]
        cols = [scan.axis, scan.energy, scan.energy_sommerfeld, scan.ratio]
    if include_zeta:
        header = ["zeta"] + header
        cols = [scan.zeta] + cols
    tracker.write_csv(name, header, cols)


def cmd_figure(args) -> int:
    wanted = ["fig1", "fig2", "fig3", "fig4"] if args.id == "all" else [args.id]
    with _emitting(args) as tracker:
        for fig in wanted:
            if fig == "fig1":
                _emit_packet_panels(tracker, "fig1", ModelKind.KLEIN_GORDON,
                                    args.sigma, args.xi_count)
            elif fig == "fig3":
                _emit_packet_panels(tracker, "fig3", ModelKind.DIRAC,
                                    args.sigma, args.xi_count)
            elif fig == "fig2":
                _emit_bound_scan(tracker, "fig2.csv",
                                 bound_scan(ModelKind.KLEIN_GORDON, args.samples))
            elif fig == "fig4":
                _emit_bound_scan(tracker, "fig4.csv",
                                 bound_scan(ModelKind.DIRAC, args.samples))
    data_files = len(tracker.files) - 1  # the manifest is tracked too
    print(f"wrote {data_files} data files + run_manifest.json to {tracker.out_dir}")
    return 0


def cmd_scan(args) -> int:
    model = ModelKind.from_name(args.model)
    scan = bound_scan(model, args.samples)
    with _emitting(args) as tracker:
        _emit_bound_scan(tracker, f"scan_{model.value}.csv", scan, include_zeta=True)
    print(f"wrote scan_{model.value}.csv + run_manifest.json to {tracker.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def parse_scenario(path: Path) -> dict:
    """Flat key = value format; # starts a comment; unknown keys are errors.

    Each value takes the type of its SCENARIO_DEFAULTS entry (str, int or float).
    """
    config = dict(SCENARIO_DEFAULTS)
    seen = set()
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path.name}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCENARIO_DEFAULTS:
            raise DomainError(f"{path.name}:{lineno}: unknown scenario key {key!r}")
        if key in seen:
            raise DomainError(f"{path.name}:{lineno}: duplicate scenario key {key!r}")
        seen.add(key)
        try:
            config[key] = type(SCENARIO_DEFAULTS[key])(value)
        except ValueError as err:
            raise DomainError(f"{path.name}:{lineno}: bad number for {key}: {value!r}") from err
    return config


def _scenario_potential(config: dict, grid: Grid1D) -> np.ndarray | None:
    kind = config["potential"]
    if kind == "none":
        return None
    if kind == "soft_coulomb":
        return softened_coulomb(grid.points, config["zeta"], config["softening"])
    if kind == "odd_gaussian":
        return odd_gaussian_potential(grid.points, config["amplitude"], config["width"])
    raise DomainError(f"unknown potential kind {kind!r}")


def _scenario_initial_state(config: dict) -> EvolutionState:
    model = ModelKind.from_name(config["model"])
    if model is not ModelKind.KLEIN_GORDON:
        raise DomainError("time evolution is defined for the kg model only")
    grid = Grid1D.symmetric(config["grid_half_width"], config["grid_count"])
    spec = PacketSpec(model=model, beta=config["beta"], sigma=config["sigma"],
                      zgrid=grid)
    fld = synthesize_packet(spec)
    return EvolutionState(grid=grid, theta=fld.theta, chi=fld.chi,
                          potential=_scenario_potential(config, grid))


def cmd_evolve(args) -> int:
    config = parse_scenario(Path(args.scenario))
    if args.tol is not None:
        config["tolerance"] = float(args.tol)
    # refused before any synthesis: no drift passes a tolerance <= 0 or nan,
    # every drift passes inf, and JSON has no nan or inf for the report
    if not (config["tolerance"] > 0.0 and np.isfinite(config["tolerance"])):
        raise DomainError(f"tolerance must be positive and finite, got {config['tolerance']}")
    state = _scenario_initial_state(config)
    snapshots = run(state, duration=config["duration"],
                    snapshot_interval=config["cadence"],
                    dt_safety=config["dt_safety"])
    report = continuity_check(snapshots)
    passed = report.charge_drift < config["tolerance"]
    doc = report.to_dict()
    doc["tolerance"] = config["tolerance"]
    doc["passed"] = passed
    doc["initial_charge"] = charge(snapshots[0])
    doc["final_time"] = snapshots[-1].time

    digits = len(str(len(snapshots) - 1))
    with _emitting(args) as tracker:
        for idx, snap in enumerate(snapshots):
            tracker.write_csv(f"snapshot_{idx:0{digits}d}.csv", *_profile_columns(snap, "z"))
        tracker.write("continuity_report.json",
                      json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n")
    print(f"charge drift {report.charge_drift:.3e} "
          f"(tolerance {config['tolerance']:.3e}); "
          f"continuity l2 residual {report.l2_residual:.3e}")
    if not passed:
        print("tolerance exceeded", file=sys.stderr)
        return 5
    return 0


# ---------------------------------------------------------------------------
# packet
# ---------------------------------------------------------------------------

def cmd_packet(args) -> int:
    model = ModelKind.from_name(args.model)
    spec = PacketSpec(model=model, beta=args.beta, sigma=args.sigma, t=args.t,
                      xi_count=args.xi_count)
    report = packet_report(synthesize_packet(spec))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"model: {report.model}  beta: {_fmt(report.beta)}  "
          f"gamma: {_fmt(report.gamma)}  sigma: {_fmt(report.sigma)}  t: {_fmt(report.t)}")
    print(f"ratio = {_fmt(report.ratio.value)}  method: {report.ratio.method}  "
          f"classification: {classify_state(report.ratio).value}")
    print(f"fwhm = {_fmt(report.fwhm)}")
    print(f"peak_rho = {_fmt(report.peak_rho)} at xi = {_fmt(report.peak_xi)}")
    print(f"charge = {_fmt(report.charge)}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antimix",
        description="matter/antimatter decomposition of relativistic wavefunctions",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ratio = sub.add_parser("ratio", help="hidden-antimatter ratio R")
    p_ratio.add_argument("--model", required=True, choices=["kg", "dirac"])
    p_ratio.add_argument("--free", action="store_true", help="free boosted state (needs --beta)")
    p_ratio.add_argument("--bound", action="store_true", help="1S bound state (needs --zeta or --z)")
    p_ratio.add_argument("--beta", type=float, default=None, help="velocity v/c")
    p_ratio.add_argument("--zeta", type=float, default=None, help="coupling Z*alpha")
    p_ratio.add_argument("--z", type=int, default=None, help="integer nuclear charge")
    p_ratio.add_argument("--alpha", type=float, default=CODATA_ALPHA,
                         help="fine-structure constant used with --z")
    p_ratio.add_argument("--json", action="store_true", help="machine-readable output")
    p_ratio.set_defaults(func=cmd_ratio)

    p_fig = sub.add_parser("figure", help="emit reference figure datasets")
    p_fig.add_argument("--id", required=True, choices=["fig1", "fig2", "fig3", "fig4", "all"])
    p_fig.add_argument("--out-dir", required=True)
    p_fig.add_argument("--sigma", type=float, default=DEFAULT_SIGMA,
                       help="momentum-space variance of the packet")
    p_fig.add_argument("--samples", type=int, default=DEFAULT_SCAN_SAMPLES,
                       help="scan points for fig2/fig4")
    p_fig.add_argument("--xi-count", type=int, default=DEFAULT_XI_COUNT,
                       help="window nodes for fig1/fig3 panels")
    p_fig.set_defaults(func=cmd_figure)

    p_scan = sub.add_parser("scan", help="bound-state coupling scan")
    p_scan.add_argument("--model", required=True, choices=["kg", "dirac"])
    p_scan.add_argument("--samples", type=int, default=DEFAULT_SCAN_SAMPLES)
    p_scan.add_argument("--out-dir", required=True)
    p_scan.set_defaults(func=cmd_scan)

    p_ev = sub.add_parser("evolve", help="run a time-evolution scenario")
    p_ev.add_argument("--scenario", required=True, help="flat key = value scenario file")
    p_ev.add_argument("--out-dir", required=True)
    p_ev.add_argument("--tol", type=float, default=None,
                      help="override the scenario charge-drift tolerance")
    p_ev.set_defaults(func=cmd_evolve)

    p_pkt = sub.add_parser("packet", help="synthesize one packet and report measurements")
    p_pkt.add_argument("--model", required=True, choices=["kg", "dirac"])
    p_pkt.add_argument("--beta", type=float, default=0.0)
    p_pkt.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p_pkt.add_argument("--t", type=float, default=0.0)
    p_pkt.add_argument("--xi-count", type=int, default=DEFAULT_XI_COUNT)
    p_pkt.add_argument("--json", action="store_true")
    p_pkt.set_defaults(func=cmd_packet)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv_list = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    args = parser.parse_args(argv_list)
    args.invocation = argv_list
    args.started = time.monotonic()  # the manifest clock covers the whole command
    try:
        return args.func(args)
    except (StabilityError, BoundaryLeakageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (DomainError, ConvergenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
