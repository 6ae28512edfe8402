"""Compare two sets of saved benchmark runs metric by metric.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds the records `run.py --save FILE` appends, one per run.  For
every workload and metric it prints both medians, their quartile spread and
the change; an end-to-end metric that got worse by more than its bound in
BENCHMARK.json is marked WORSE.  Results taken at different BLAS thread
counts are not comparable, and the script refuses them.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: str) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values)) if statistics.median(values) else 0.0


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    threads = {r["env"]["threads"] for r in old + new}
    if len(threads) != 1:
        print(f"refusing to compare runs taken at different BLAS thread counts: {sorted(threads)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    keys = sorted({(r["workload"], r["trace"]) for r in old} & {(r["workload"], r["trace"]) for r in new})
    print(f"{'workload':18} {'metric':44} {'old':>12} {'new':>12} {'change':>8} {'spread':>13}")
    for workload, trace in keys:
        a = [r["metrics"] for r in old if (r["workload"], r["trace"]) == (workload, trace)]
        b = [r["metrics"] for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        for name in a[0]:
            va, vb = [m[name] for m in a], [m[name] for m in b if name in m]
            if not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / abs(ma) if ma else 0.0
            mark = ""
            if name in bounds:
                better, bound = bounds[name]
                worse = change if better == "lower" else -change
                mark = "WORSE" if worse > bound else "ok"
            print(
                f"{workload:18} {name:44} {ma:12.6g} {mb:12.6g} {change:+8.2%} "
                f"{spread(va):6.2%}/{spread(vb):6.2%} {mark}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
