"""End-to-end benchmark of the MetaDSE user path: one command, three workloads.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload {pretrain,campaign,label} --seed N \
        --seconds S --trace {0,1}

Each workload session (``workloads.py``) runs in its own fresh process
(``session.py``) with a private work directory under ``e2ebench/.work/``
that is removed on exit, so nothing carries over from one run to the next.

``--trace 0`` prints the end-to-end metrics.  ``throughput_per_s`` is the
median rate of the timed units and ``read_rows_per_s`` the rate over all
warm passes together.  Set-up time is measured from process launch to the
start of the timed section; the session's set-up also runs in one extra
process before the session and one after it, and ``setup_s`` is the median
of the three.  Every rate and set-up time is scaled to a reference host
speed by a calibration kernel that each process times as it goes (see
``host_factor``); the raw readings and the factors are printed too.  ``--trace 1`` runs the session once untraced and
once with every layer entry point wrapped (``layers.py``) -- both with the
least number of timed units, so layer counts repeat exactly -- and prints
the per-layer metrics and the tracing overhead.

A line with the environment stamp (cores, BLAS, versions, commit and the
calibration kernel timed before and after the sessions) and the raw samples behind
the metrics precedes the result, which is the last line of standard output.  Without ``src/repro`` in the current
directory the benchmark prints no result and exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pretrain", "campaign", "label")
#: Every run ends within this many seconds of its start.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "read_rows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fewshot_rmse": "IPC",
    "final_hypervolume": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


# -- environment -------------------------------------------------------------------
def probe_seconds() -> float:
    """Median time of the calibration kernel in this process: the host's speed now."""
    from host import calibrate

    return statistics.median(calibrate(30))


def blas_threads():
    """OpenBLAS worker threads, read from the loaded library (None if unknown)."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def environment(root: Path) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(root),
    }


# -- child sessions -----------------------------------------------------------------
def run_child(root: Path, work: Path, name: str, role: str, args, seconds: float, deadline: float) -> dict:
    """Run one session process to completion; returns its result."""
    child_dir = work / name
    child_dir.mkdir()
    out = work / f"{name}.json"
    command = [
        sys.executable, str(HERE / "session.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--role", role, "--work-dir", str(child_dir), "--out", str(out),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    launched = time.monotonic()
    process = subprocess.Popen(command, cwd=root, env=env, stdout=sys.stderr)
    try:
        process.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{name} session did not finish before the deadline") from None
    finally:
        if process.poll() is None:  # deadline passed or this process is being stopped
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise BenchmarkError(f"{name} session exited with status {process.returncode}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["session"]["ready"] - launched
    shutil.rmtree(child_dir)
    return result


#: Calibration kernel time of the reference host, in seconds.  Rates and
#: set-up times are reported as they would read on a host that runs the
#: kernel in this time.
CALIBRATION_REFERENCE_S = 0.002


def host_factor(child: dict) -> float:
    """How much slower than the reference host one session process ran.

    The calibration readings are taken at the start and end of set-up and
    after every timed unit, so they follow both the slow drift and the
    quick switches of the host's speed (``host.py``).  Scaling by them
    keeps a verdict on the program from depending on when it was measured.
    """
    return statistics.mean(child["session"]["calibration"]) / CALIBRATION_REFERENCE_S


def overall_rate(rates) -> float:
    """Rate over all samples together: total work over total time.

    Every sample of one metric does the same work, so this is the harmonic
    mean of the rates.  Used for the short store read passes, whose single
    times scatter by up to 2x on a shared host.
    """
    return statistics.harmonic_mean(rates)


def untraced(root: Path, work: Path, args, deadline: float):
    # Set-up runs before and after the full session, so its samples are
    # spread over the whole run like the timed units.
    first = run_child(root, work, "setup0", "setup", args, 0, deadline)
    full = run_child(root, work, "run", "run", args, args.seconds, deadline)
    last = run_child(root, work, "setup1", "setup", args, 0, deadline)
    children = [full, first, last]
    session = full["session"]
    factor = host_factor(full)
    metrics = {
        "throughput_per_s": statistics.median(session["rates"]) * factor,
        "read_rows_per_s": overall_rate(session["read_rates"]) * factor,
        "setup_s": statistics.median(child["setup_s"] / host_factor(child) for child in children),
        "peak_rss_mb": full["peak_rss_mb"],
        "fewshot_rmse": session["fewshot_rmse"],
        "final_hypervolume": session["final_hypervolume"],
    }
    units = END_TO_END_UNITS
    return children, {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def traced(root: Path, work: Path, args, deadline: float):
    plain = run_child(root, work, "untraced", "run", args, 0, deadline)
    traced_run = run_child(root, work, "traced", "trace", args, 0, deadline)
    metrics = dict(traced_run["layers"])
    metrics["startup.import_s"] = traced_run["import_s"]
    metrics["obs.trace_overhead_ratio"] = traced_run["session"]["timed_s"] / plain["session"]["timed_s"]
    outputs = ("fewshot_rmse", "final_hypervolume")
    if any(plain["session"][key] != traced_run["session"][key] for key in outputs):
        traced_run["problems"].append("traced outputs differ from untraced outputs")
        traced_run["failed"] += 1
    return [plain, traced_run], {
        name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    # Stopped from outside: unwind, so the session process and the work
    # directory are cleaned up too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {root / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        stamp = environment(root)
        stamp["probe_before_s"] = probe_seconds()
        try:
            children, metrics = (traced if args.trace else untraced)(root, work, args, deadline)
        except BenchmarkError as error:
            print(f"benchmark failed: {error}", file=sys.stderr)
            return 1
        stamp["probe_after_s"] = probe_seconds()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is using it
    if args.trace:
        probe = (stamp["probe_before_s"] + stamp["probe_after_s"]) / 2
        metrics["host.probe_s"] = {"value": probe, "unit": "s"}
    problems = [problem for child in children for problem in child["problems"]]
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    finite = all(math.isfinite(metric["value"]) for metric in metrics.values())
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    samples = {key: children[0]["session"][key] for key in ("rates", "read_rates")}
    samples["setup_s"] = [child["setup_s"] for child in children]
    samples["host_factor"] = [host_factor(child) for child in children]
    print(json.dumps({"environment": stamp, "workload": args.workload, "seed": args.seed, "samples": samples}))
    print(json.dumps({
        "correct": not problems and failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
