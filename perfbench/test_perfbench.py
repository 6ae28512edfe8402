"""Self-tests of the benchmark harness (not of zrange).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import run_studies  # noqa: E402


def _span(name, start, end, parent, n3=0, raised=False, value=None):
    layer = name.split(".")[0]
    return {"name": name, "layer": layer, "start": start, "end": end, "parent": parent,
            "n3": n3, "raised": raised, "value": value}


def _tree():
    # efimov.find_thresholds [0, 10]
    #   efimov.effective_operator [1, 4]
    #     operators.sqrt_kinetic [1.5, 3.5]
    #       operators.svd [2, 3] n3 = 8
    #   efimov.eigh [5, 9] n3 = 27
    # grids.build_grid [10, 11] (root)
    return [
        _span("efimov.find_thresholds", 0.0, 10.0, -1),
        _span("efimov.effective_operator", 1.0, 4.0, 0),
        _span("operators.sqrt_kinetic", 1.5, 3.5, 1),
        _span("operators.svd", 2.0, 3.0, 2, n3=8),
        _span("efimov.eigh", 5.0, 9.0, 0, n3=27),
        _span("grids.build_grid", 10.0, 11.0, -1, raised=True),
    ]


def test_self_times_subtract_direct_children_only():
    assert tracer.self_times(_tree()) == [3.0, 1.0, 1.0, 1.0, 4.0, 1.0]


def test_layer_metrics_from_synthetic_tree():
    m = tracer.layer_metrics(_tree(), wall_s=12.0)
    assert m["efimov.find_thresholds.s"] == 3.0
    assert m["efimov.effective_operator.calls"] == 1
    assert m["efimov.eigh.s"] == 4.0 and m["efimov.eigh.n3"] == 27
    assert m["efimov.self_s"] == 8.0  # 3 + 1 + 4
    assert m["operators.self_s"] == 2.0
    assert m["operators.sqrt_kinetic.n3"] == 8  # the SVD made inside it
    assert m["operators.svd.calls"] == 1
    assert m["efimov.sqrt_cache.hit_ratio"] == 0.0  # one miss in one effective_operator call
    assert m["grids.errors"] == 1 and m["efimov.errors"] == 0
    assert m["trace.coverage"] == pytest.approx(11.0 / 12.0)
    # every self time is counted once: the layers add up to the covered time
    assert sum(m[f"{layer}.self_s"] for layer in tracer.PER_LAYER) == pytest.approx(11.0)


def test_dense_calls_go_to_innermost_layer_span():
    t = tracer.Tracer()
    dense = t.wrap_dense("eigh", lambda a: a)
    outer = t.wrap("efimov", "find_thresholds", lambda: inner())
    inner = t.wrap("operators", "sqrt_kinetic", lambda: dense(_Shape((4, 3))))
    dense(_Shape((5, 5)))  # outside every layer span: not recorded
    outer()
    spans = t.dump()
    assert [s["name"] for s in spans] == ["efimov.find_thresholds", "operators.sqrt_kinetic", "operators.eigh"]
    assert [s["parent"] for s in spans] == [-1, 0, 1]
    assert spans[2]["n3"] == 4 * 3 * 3


class _Shape:
    def __init__(self, shape):
        self.shape = shape


@pytest.fixture
def kernel22(tmp_path):
    # the CLI study writes into the workload's output root
    studies = workloads.make_workload("study-batch", 11, tmp_path)
    return [s for s in studies if s[0] == "cli.kernel22"]


def test_reference_values_pass(kernel22):
    report = run_studies(kernel22, workloads.load_reference(), 11)
    assert report["checks_attempted"] > 0 and report["checks_failed"] == 0 and report["errors"] == 0


def test_wrong_reference_value_raises_check_fail_ratio(kernel22):
    ref = workloads.load_reference()
    ref["cli.kernel22"] = [row.replace("0.0833333333333", "0.0933333333333") for row in ref["cli.kernel22"]]
    report = run_studies(kernel22, ref, 11)
    assert report["checks_failed"] == 1 and report["errors"] == 0
    report.update(wall_s=1.0, cpu_s=1.0, setup_s=1.0, peak_rss_mb=1.0)
    assert run.end_to_end([report], [1.0])["check_pass_ratio"] < 1.0


def test_wrong_seeded_reference_fails_only_at_default_seed():
    for seed, failed in ((workloads.DEFAULT_SEED, 1), (workloads.DEFAULT_SEED + 1, 0)):
        chk = workloads.Checks({"x": [1.0, 2.0]}, seed)
        chk.matches("x", [1.0, 2.5], 1e-6, seeded=True)
        assert sum(not ok for _, ok, _ in chk.results) == failed


def test_raising_study_counts_in_error_ratio(kernel22):
    def boom(chk):
        raise ValueError("singular")

    ref = workloads.load_reference()
    report = run_studies([("boom", boom), *kernel22], ref, 11)
    assert report["errors"] == 1 and report["studies"][0]["error"]
    assert report["studies"][1]["error"] is None  # the run went on
    # an unexpected CLI row status is an error too
    ref["cli.kernel22"] = [row.replace("flagged", "ok") for row in ref["cli.kernel22"]]
    assert run_studies(kernel22, ref, 11)["errors"] == 1
    report.update(wall_s=1.0, cpu_s=1.0, setup_s=1.0, peak_rss_mb=1.0)
    assert run.end_to_end([report], [1.0])["study_ok_ratio"] == 0.5


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (n, tracer.metric_unit(n), tracer.metric_better(n)) for n in tracer.metric_names()
    ]


def test_refuses_to_run_without_zrange_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-batch", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_refuses_different_thread_counts(tmp_path):
    def record(threads):
        return {"workload": "limit-ladder", "trace": 0, "env": {"threads": threads},
                "metrics": {"wall_s": 1.0}}

    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text(json.dumps(record(2)) + "\n")
    new.write_text(json.dumps(record(1)) + "\n")
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"), str(old), str(new)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "thread" in proc.stderr
