"""antimix benchmark: one workload, timed end to end or traced per layer.

Run from the root of an antimix checkout:

    python3 perfbench/run.py --workload {figures,evolve,ratios} --seed N \\
        --seconds S --trace {0,1}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(untraced and traced units alternate, and the difference of their median
times is trace.overhead_s).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it records the environment.  BENCHMARK.json at the repository root
lists the metrics, and perfbench/README.md explains them.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 15


def measure_setup(src: Path) -> float:
    """Median wall time of a fresh interpreter importing antimix.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, "-c", "import antimix.cli"]
    subprocess.run(argv, env=env, check=True)  # compiles the bytecode caches
    samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(argv, env=env, check=True)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def repeat(step, seconds: float):
    """Call step() once, then again for as long as one more call fits in seconds."""
    start = perf_counter()
    while True:
        step_start = perf_counter()
        step()
        now = perf_counter()
        if now - start + (now - step_start) > seconds:
            return


def end_to_end(workload, tally, seconds: float, setup_s: float) -> dict:
    """End-to-end metrics of one run.

    With workload.fastest_per_op, every unit makes the same short operations
    in the same order, and each operation's latency is its fastest in the
    run; wall_s is the sum of those.  A shared machine's speed moves in
    phases of seconds, and a call of microseconds meets a fast phase in
    every run, so its fastest time is steady.  Otherwise wall_s is the
    median unit and every latency is kept."""
    walls = []
    latencies = array("d")  # 8 bytes an op, so bookkeeping barely moves peak RSS
    fastest = None

    def step():
        nonlocal fastest
        wall, ops = workload.unit(tally)
        if not workload.fastest_per_op:
            walls.append(wall)
            latencies.extend(ops)
        elif fastest is None:
            fastest = np.array(ops)
        else:
            np.minimum(fastest, ops, out=fastest)

    repeat(step, seconds)
    if workload.fastest_per_op:
        ops, wall = fastest, float(fastest.sum())
    else:
        ops, wall = np.frombuffer(latencies), statistics.median(walls)
    not_ok = tally.failed + tally.domain_errors
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_frac": (1.0 - not_ok / tally.attempted, "1"),
        "op_p50_us": (1e6 * np.quantile(ops, 0.50, method="inverted_cdf"), "us"),
        "op_p99_us": (1e6 * np.quantile(ops, 0.99, method="inverted_cdf"), "us"),
        "max_rel_err": (workload.accuracy.max_rel_err, "1"),
        "err_bound_met_frac": (workload.accuracy.met_frac, "1"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def per_layer(workload, tally, seconds: float) -> tuple[dict, list[str]]:
    """Untraced and traced units in alternation, so a drift in machine speed
    affects both sides of trace.overhead_s alike."""
    from tracing import Tracer

    tracer = Tracer()
    untraced, traced = [], []

    def step():
        untraced.append(workload.unit(tally)[0])
        with tracer:
            traced.append(workload.unit(tally)[0])

    repeat(step, seconds)
    metrics = tracer.layer_metrics(len(traced), sum(traced))
    wall = statistics.median(traced)
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall - statistics.median(untraced), "unit": "s"}
    metrics["trace.absent_targets"] = {"value": len(tracer.absent), "unit": "count"}
    return metrics, tracer.absent


def blas_runtime() -> tuple[str, int | None]:
    """Configuration string and thread count of the scipy-openblas that numpy's
    wheel loads; ("unknown", None) for any other BLAS."""
    for path in glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                       "numpy.libs", "libscipy_openblas64_*")):
        lib = ctypes.CDLL(path)
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        return lib.scipy_openblas_get_config64_().decode(), lib.scipy_openblas_get_num_threads64_()
    return "unknown", None


def commit_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas_config, blas_threads = blas_runtime()
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_config,
        "blas_threads": blas_threads,
        "commit": commit_sha(root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["figures", "evolve", "ratios"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind like an exception: a running set-up interpreter is
    # killed and waited for, and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "antimix" / "cli.py").is_file():
        print(f"error: {src / 'antimix'} not found; run from the root of an antimix checkout",
              file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup(src)
    sys.path.insert(1, str(src))
    from workloads import WORKLOADS, Tally

    reference = json.loads((HERE / "reference.json").read_text())
    work_dir = root / ".bench_build" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    absent = []
    try:
        workload = WORKLOADS[args.workload](root, args.seed, work_dir, reference)
        tally = Tally()
        if workload.warm_up:
            workload.unit(tally)
        if args.trace:
            metrics, absent = per_layer(workload, tally, args.seconds)
        else:
            metrics = end_to_end(workload, tally, args.seconds, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for target in absent:
        print(f"absent trace target: {target}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:8s} {name:36s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"environment": environment(root)}, sort_keys=True))
    print(json.dumps({
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
