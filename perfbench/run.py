"""zrange benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload limit-ladder --seed 11 --seconds 10 --trace 0

Run from the root of a zrange checkout.  Every pass of the workload runs in
a fresh interpreter (perfbench/worker.py) with the BLAS thread count pinned,
one pass at a time, until at least --seconds have elapsed; each pass is a
real study, so a run is at least one pass.  --trace 0 reports the
end-to-end metrics (medians over the passes, setup_s over extra set-up-only
interpreters too); --trace 1 alternates untraced and traced passes and
reports the per-layer metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics, metric_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("limit-ladder", "efimov-thresholds", "study-batch")
# One BLAS thread: on a 2-core box two threads made the small repeated
# eigensolves slower (efimov-thresholds 12.9 s against 9.9 s) and every
# workload 2-4x noisier from run to run; see README.md.
MAX_THREADS = 1
# set-up-only interpreters per run, half before and half after the passes
SETUP_PROBES = 8
PASS_TIMEOUT_S = 120
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_ratio": "1",
    "study_ok_ratio": "1",
}


class BenchmarkError(RuntimeError):
    pass


def blas_threads() -> int:
    return min(MAX_THREADS, len(os.sched_getaffinity(0)))


def spawn(workload: str, seed: int, threads: int, *flags: str) -> dict:
    """Run one worker interpreter and return its JSON report."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [*cmd, "--spawned-at", repr(spawned_at), *flags],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, threads: int, trace: bool) -> tuple:
    """Passes (untraced, traced) until `seconds` have elapsed, at least one of each wanted."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(spawn(workload, seed, threads))
        if trace:
            traced.append(spawn(workload, seed, threads, "--trace"))
        if time.monotonic() - start >= seconds:
            return plain, traced


def correctness(passes: list) -> dict:
    studies = [s for p in passes for s in p["studies"]]
    checks = sum(p["checks_attempted"] for p in passes)
    return {
        "studies": len(studies),
        "failed_studies": sum(1 for s in studies if s["error"] or s["failed_checks"]),
        "errors": sum(p["errors"] for p in passes),
        "checks": checks,
        "failed_checks": sum(p["checks_failed"] for p in passes),
    }


def end_to_end(plain: list, setups: list) -> dict:
    c = correctness(plain)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "check_pass_ratio": 1.0 - c["failed_checks"] / max(c["checks"], 1),
        "study_ok_ratio": 1.0 - c["errors"] / max(c["studies"], 1),
    }


def per_layer(plain: list, traced: list) -> dict:
    runs = [layer_metrics(p["spans"], p["wall_s"]) for p in traced]
    values = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)  # workloads.DEFAULT_SEED
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="append the full run record as one JSON line")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zrange" / "__init__.py").is_file():
        print(f"no zrange sources under {ROOT / 'src'}; run from a zrange checkout", file=sys.stderr)
        return 2
    threads = blas_threads()
    try:
        if args.trace:
            plain, traced = measure(args.workload, args.seed, args.seconds, threads, trace=True)
            metrics = per_layer(plain, traced)
            units = {name: metric_unit(name) for name in metrics}
            spans_out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
            spans_out.parent.mkdir(exist_ok=True)
            spans_out.write_text(json.dumps(traced[-1]["spans"]))
        else:
            probe = lambda: spawn(args.workload, args.seed, threads, "--setup-only")["setup_s"]  # noqa: E731
            setups = [probe() for _ in range(SETUP_PROBES // 2)]
            plain, traced = measure(args.workload, args.seed, args.seconds, threads, trace=False)
            setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            metrics = end_to_end(plain, setups + [p["setup_s"] for p in plain])
            units = END_TO_END_UNITS
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    c = correctness(passes)
    env = {**passes[0]["env"], "nproc": len(os.sched_getaffinity(0)), "threads": threads}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "passes": len(plain) + len(traced),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "correctness": c,
        "metrics": metrics,
    }
    print(f"# env {json.dumps(env, sort_keys=True)} seed={args.seed} passes={record['passes']}")
    for p in passes:
        for s in p["studies"]:
            for problem in ([s["error"]] if s["error"] else []) + s["failed_checks"]:
                print(f"# {s['name']}: {problem.strip()}")
    print(f"# check_fail_ratio {c['failed_checks'] / max(c['checks'], 1):.6g} 1 ({c['failed_checks']}/{c['checks']})")
    print(f"# error_ratio {c['errors'] / max(c['studies'], 1):.6g} 1 ({c['errors']}/{c['studies']})")
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units[name]}")
    if args.save:
        with args.save.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    result = {
        "correct": c["failed_checks"] == 0 and c["errors"] == 0,
        "attempted": c["studies"],
        "failed": c["failed_studies"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
