"""Child process of the benchmark: one session of one workload.

Run from the root of a checkout with ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python3 e2ebench/session.py --workload label --seed 1 \
        --seconds 20 --role run --work-dir <dir> --out <result.json>

``--role setup`` stops where the timed section would start, ``run`` is the
untraced session and ``trace`` the same session with every layer entry point
wrapped (see ``layers.py``).  The result is written as JSON to ``--out``;
``ready`` is the ``time.monotonic()`` reading at the start of the timed
section, which the parent compares with its own reading at launch.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from dataclasses import asdict
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import workloads  # imports numpy and every repro module the session uses

    import_s = time.perf_counter() - start
    recorder = None
    if args.role == "trace":
        from layers import Recorder

        recorder = Recorder()
        recorder.install()
    session, ledger = workloads.run_session(
        args.workload,
        args.seed,
        args.seconds,
        args.work_dir,
        setup_only=args.role == "setup",
        spans=recorder,
    )
    result = {
        "session": asdict(session),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": import_s,
    }
    if recorder is not None:
        recorder.uninstall()
        result["layers"] = recorder.layer_metrics()
        result["spans"] = recorder.spans
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
