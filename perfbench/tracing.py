"""Outside-in span tracing for the traced benchmark run.

Timing wrappers are installed on the module attributes that antimix's own
callers resolve at call time (``antimix.packets.synthesize`` is what
``synthesize_packet`` calls, ``antimix.cli.run`` is what ``cmd_evolve``
calls, and so on), so the program is not edited and the untraced run uses
no wrapper at all.  Spans nest, which gives each layer its self time.  A
target that a later change removed or renamed is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from time import perf_counter


def _mode_products(args, result) -> int:
    """N_z * N_k of one synthesize(coeffs, zgrid, ...) call, from its arguments."""
    return args[0].kgrid.count * args[1].count


def _file_bytes(args, result) -> int:
    return os.path.getsize(result)


def _manifest_bytes(args, result) -> int:
    """Bytes the manifest hashed: the sum of its per-file byte counts."""
    with open(result) as fh:
        return sum(entry["bytes"] for entry in json.load(fh)["files"])


# (span, module, attribute path, work counter)
TARGETS = [
    ("cli.command", "antimix.cli", "main", None),
    ("cli.write_csv", "antimix.cli", "OutputTracker.write_csv", _file_bytes),
    ("cli.manifest", "antimix.cli", "OutputTracker.manifest", _manifest_bytes),
    ("packets.synthesize_packet", "antimix.cli", "synthesize_packet", None),
    ("coulomb.bound_scan", "antimix.cli", "bound_scan", None),
    ("evolve.run", "antimix.cli", "run", None),
    ("evolve.continuity_check", "antimix.cli", "continuity_check", None),
    ("evolve.step", "antimix.evolve", "step", None),
    ("packets.mode_coefficients", "antimix.packets", "mode_coefficients", None),
    ("quad.synthesize", "antimix.packets", "synthesize", _mode_products),
    ("coulomb.quadrature", "antimix.coulomb", "kg_1s_ratio_quadrature", None),
    ("coulomb.quadrature", "antimix.coulomb", "dirac_1s_ratio_quadrature", None),
    ("coulomb.closed", "antimix.coulomb", "kg_1s_ratio_closed", None),
    ("coulomb.closed", "antimix.coulomb", "dirac_1s_ratio_closed", None),
    ("kgfree.kg_free_ratio", "antimix.kgfree", "kg_free_ratio", None),
    ("diracfree.dirac_free_ratio", "antimix.diracfree", "dirac_free_ratio", None),
]

# (metric, span, statistic, unit).  calls and work are per workload unit;
# busy and self time are fractions of the traced units' wall time, so a layer
# a workload never calls reads 0 as a count, not as a time
PER_LAYER = [
    ("quad.synthesize.calls", "quad.synthesize", "calls", "count"),
    ("quad.synthesize.busy_frac", "quad.synthesize", "busy", "1"),
    ("quad.synthesize.mode_products", "quad.synthesize", "work", "count"),
    ("packets.mode_coefficients.calls", "packets.mode_coefficients", "calls", "count"),
    ("packets.mode_coefficients.busy_frac", "packets.mode_coefficients", "busy", "1"),
    ("packets.synthesize_packet.self_frac", "packets.synthesize_packet", "self", "1"),
    ("evolve.step.calls", "evolve.step", "calls", "count"),
    ("evolve.step.busy_frac", "evolve.step", "busy", "1"),
    ("evolve.run.self_frac", "evolve.run", "self", "1"),
    ("evolve.continuity_check.busy_frac", "evolve.continuity_check", "busy", "1"),
    ("cli.write_csv.calls", "cli.write_csv", "calls", "count"),
    ("cli.write_csv.busy_frac", "cli.write_csv", "busy", "1"),
    ("cli.write_csv.bytes", "cli.write_csv", "work", "bytes"),
    ("cli.manifest.busy_frac", "cli.manifest", "busy", "1"),
    ("cli.manifest.bytes_hashed", "cli.manifest", "work", "bytes"),
    ("cli.command.self_frac", "cli.command", "self", "1"),
    ("coulomb.quadrature.calls", "coulomb.quadrature", "calls", "count"),
    ("coulomb.quadrature.busy_frac", "coulomb.quadrature", "busy", "1"),
    ("coulomb.closed.calls", "coulomb.closed", "calls", "count"),
    ("coulomb.closed.busy_frac", "coulomb.closed", "busy", "1"),
    ("kgfree.kg_free_ratio.busy_frac", "kgfree.kg_free_ratio", "busy", "1"),
    ("diracfree.dirac_free_ratio.busy_frac", "diracfree.dirac_free_ratio", "busy", "1"),
    ("coulomb.bound_scan.busy_frac", "coulomb.bound_scan", "busy", "1"),
]


class Tracer:
    """Installs the wrappers on entry, restores the originals on exit.

    Spans accumulate over every entry.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, work]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _wrap(self, name: str, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if work is not None:
                try:
                    rec[4] = work(args, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # signature or return value changed: the count reads 0
            return result

        return traced

    def __enter__(self):
        self.absent = []
        for name, module_name, path, work in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *parents, leaf = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, leaf, self._wrap(name, fn, work))
            self._installed.append((owner, leaf, fn))
        return self

    def __exit__(self, *exc):
        for owner, leaf, fn in reversed(self._installed):
            setattr(owner, leaf, fn)
        self._installed.clear()

    def layer_metrics(self, units: int, wall_s: float) -> dict:
        """PER_LAYER statistics over `units` traced units lasting `wall_s` in all.

        Self time excludes the direct child spans.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, work) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0})
            s["calls"] += 1
            s["busy"] += end - start
            s["self"] += end - start - child[i]
            s["work"] += work
        metrics = {}
        for metric, span, stat, unit in PER_LAYER:
            s = stats.get(span, {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0})
            scale = wall_s if stat in ("busy", "self") else units
            metrics[metric] = {"value": s[stat] / scale, "unit": unit}
        return metrics
