"""One pass of one workload in a fresh interpreter; prints a JSON result line.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T [--trace] [--setup-only]

`--spawned-at` is the parent's time.monotonic() just before it started this
process, so setup_s covers interpreter start, the imports of numpy, scipy
and zrange, and input generation.  run.py starts this script with the BLAS
thread count pinned and `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_studies(studies: list, reference: dict, seed: int) -> dict:
    """Run every study, counting failed checks and studies that raised."""
    from workloads import Checks

    report = {"studies": [], "checks_attempted": 0, "checks_failed": 0, "errors": 0, "values": {}}
    for name, fn in studies:
        chk = Checks(reference, seed)
        error = None
        try:
            fn(chk)
        except Exception:  # a failing study is counted and the run goes on
            error = traceback.format_exc(limit=3)
            report["errors"] += 1
        failed = [f"{n}: {d}" for n, ok, d in chk.results if not ok]
        report["checks_attempted"] += len(chk.results)
        report["checks_failed"] += len(failed)
        report["values"].update(chk.values)
        report["studies"].append({"name": name, "error": error, "failed_checks": failed})
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy
    import zrange

    if Path(zrange.__file__).resolve().parent != ROOT / "src" / "zrange":
        raise SystemExit(f"zrange imported from {zrange.__file__}, not from {ROOT / 'src'}")
    import workloads
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as out_root:
        studies = workloads.make_workload(args.workload, args.seed, Path(out_root))
        reference = workloads.load_reference()
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        report = run_studies(studies, reference, args.seed)
        wall_s = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    report.update(
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        env={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        },
    )
    if tracer is not None:
        report["spans"] = tracer.dump()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
