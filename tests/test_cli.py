import csv
import importlib.util
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from zrange import cli
from zrange.cli import COMMANDS, main
from zrange.efimov import effective_operator, geometric_ratio, operator_spectrum
from zrange.grids import build_grid

SMALL_LOG_GRID = {"n": 200, "r_max": 200.0, "spacing": "logarithmic", "r_min": 1e-4}
GAUSS = {"profile": "gaussian", "strength": 1.0, "range": 1.0}

CONFIGS = {
    "scale-norms": {
        "potential": GAUSS,
        "law": {"p": 2, "epsilon": 1.0, "d": 3},
        "grid": {"n": 600, "r_max": 30.0, "spacing": "logarithmic", "r_min": 1e-5},
        "sweep": [1.0, 0.5],
    },
    "resonance": {
        "potential": {"profile": "square_well", "strength": 1.0, "range": 1.0},
        "bracket": [1.0, 5.0],
        "grid": {"n": 400, "r_max": 1.0, "spacing": "linear"},
    },
    "kk-verify": {
        "potential": {"profile": "square_well", "strength": 1.0, "range": 1.0},
        "grid": {"n": 80, "r_max": 12.0, "spacing": "linear"},
        "sweep": [0.5, 1.0],
    },
    "cross-term": {
        "potential": GAUSS,
        "law": {"p": 3, "epsilon": 1.0, "d": 3},
        "u_potential": GAUSS,
        "u_law": {"p": 2, "epsilon": 1.0, "d": 3},
        "grid": {"n": 500, "r_max": 30.0, "spacing": "logarithmic", "r_min": 1e-5},
        "sweep": [0.2, 0.1],
    },
    "additivity": {
        "potential": GAUSS,
        "law": {"p": 2, "epsilon": 1.0, "d": 3},
        "v3_potential": {"profile": "gaussian", "strength": 1.0, "range": 2.0},
        "grid": {"n": 500, "r_max": 30.0, "spacing": "logarithmic", "r_min": 1e-5},
        "sweep": [0.2, 0.1],
    },
    "independence": {
        "v2_potential": GAUSS,
        "v2_law": {"p": 2, "epsilon": 1.0, "d": 3},
        "v3_potential": {"profile": "gaussian", "strength": 1.0, "range": 2.0},
        "grid": {"n": 150, "r_max": 14.0, "spacing": "logarithmic", "r_min": 1e-3},
        "sweep": [0.4, 0.2],
        "z": 1.0,
    },
    "limit-resolvent": {
        "potential": GAUSS,
        "grid": {"n": 32, "r_max": 40.0, "spacing": "logarithmic", "r_min": 1e-3},
        "sweep": [0.2, 0.1],
        "z": 2.0,
        "n_test_functions": 2,
    },
    "efimov": {
        "grid": SMALL_LOG_GRID,
        "d": 3,
        "kind": "contact_image",
        "sweep": [1.0, 2.0],
    },
    "thresholds": {
        "kind": "contact_image",
        "grid": {"n": 150, "r_max": 200.0, "spacing": "logarithmic", "r_min": 1e-4},
        "sweep": [3],
        "bracket": [0.1, 2.5],
    },
    "kernel22": {
        "sweep": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]],
    },
    "mass-sweep": {
        "grid": {"n": 250, "r_max": 500.0, "spacing": "logarithmic", "r_min": 1e-4},
        "c": 1.0,
        "sweep": [1, 2],
    },
}


def _run(command, cfg, out_dir):
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(cfg_path), "--out", str(out_dir)])
    return code


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_every_command_is_deterministic(command, tmp_path):
    # two runs with identical configs produce a byte-identical CSV and summary
    outs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        assert _run(command, CONFIGS[command], d) == 0
        stem = command.replace("-", "_")
        files = [d / f"{stem}.csv", d / f"{stem}_summary.json"]
        assert all(f.exists() for f in files)
        outs.append([f.read_bytes() for f in files])
    assert outs[0] == outs[1]


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_CONFIGS = json.loads((PERFBENCH / "cli_configs.json").read_text())


@pytest.fixture(scope="module")
def bench_workloads():
    # the benchmark's module, loaded read-only for its cell comparison
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("command", sorted(BENCH_CONFIGS))
def test_benchmark_configs_reproduce_the_pinned_csvs(command, bench_workloads, tmp_path):
    # the benchmark's configs against its pinned CSVs, cell by cell within
    # its CLI_RTOL / CLI_ATOL: a change that moves a pinned cell fails here
    ref = bench_workloads.load_reference()[f"cli.{command}"]
    assert _run(command, BENCH_CONFIGS[command], tmp_path) == 0
    rows = (tmp_path / f"{command.replace('-', '_')}.csv").read_text().splitlines()
    assert rows[0] == ref[0]
    assert len(rows) == len(ref)
    for row, ref_row in zip(rows[1:], ref[1:]):
        cells, ref_cells = row.split(","), ref_row.split(",")
        assert len(cells) == len(ref_cells), f"{row} vs {ref_row}"
        assert all(map(bench_workloads._cell_close, cells, ref_cells)), f"{row} vs {ref_row}"


def test_each_efimov_row_reads_the_grid_it_names(tmp_path):
    # a row's ratio, deviation and classification are those of the spectrum
    # on its own grid_n, r_min and r_max; a "refine" field once swapped in a
    # finer grid's tower under the config grid's name (C = 1: 0.02842
    # printed where the named 200-node grid reads 0.02851)
    assert _run("efimov", BENCH_CONFIGS["efimov"], tmp_path) == 0
    summary = json.loads((tmp_path / "efimov_summary.json").read_text())
    kind, d = summary["aggregates"]["kind"], summary["aggregates"]["d"]
    rows = list(csv.DictReader((tmp_path / "efimov.csv").open()))
    assert rows
    for row in rows:
        grid = build_grid(int(row["grid_n"]), float(row["r_max"]), "logarithmic", r_min=float(row["r_min"]))
        geo = geometric_ratio(operator_spectrum(effective_operator(kind, float(row["C"]), d, grid)))
        assert float(row["ratio"]) == pytest.approx(geo.ratio, rel=1e-11)
        assert float(row["deviation"]) == pytest.approx(geo.deviation, rel=1e-11)
        assert row["classification"] == geo.classification


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_an_unknown_top_level_field_is_named(command, tmp_path, capfd):
    # a stale "refine" once ran the efimov config grid without a word
    code = _run(command, dict(CONFIGS[command], refine=2), tmp_path)
    out, err = capfd.readouterr()
    assert code == 2
    assert "config error at refine:" in err and err.count("config error") == 1
    assert "Traceback" not in out + err
    assert not (tmp_path / f"{command.replace('-', '_')}.csv").exists()


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_each_command_reads_only_the_fields_it_accepts(command, tmp_path):
    # every top-level field a run looks up, present or not, is one the unknown-field check lets through
    read = set()

    class Recording(dict):
        def __contains__(self, key):
            read.add(key)
            return super().__contains__(key)

    assert cli.run(Recording(CONFIGS[command], command=command), tmp_path) == 0
    assert read <= set(cli._RUNNERS[command][1])


@pytest.mark.parametrize("workload", ["limit-ladder", "efimov-thresholds", "study-batch"])
def test_benchmark_tracer_runs_a_traced_pass(workload):
    # the benchmark's tracer rebinds zrange functions and hot methods by name
    # (ProductFreeResolvent.block among them), so a refactor that removes one
    # of them fails here instead of in the benchmark
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PERFBENCH.parent / "src"), env.get("PYTHONPATH")]))
    argv = ["--workload", workload, "--seed", "11", "--trace", "--spawned-at", str(time.monotonic())]
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), *argv], capture_output=True, text=True, env=env, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["checks_failed"] == 0 and report["errors"] == 0
    assert all(study["error"] is None for study in report["studies"])
    assert report["spans"]


def test_missing_grid_field_names_it(tmp_path, capsys):
    cfg = {"potential": GAUSS, "law": {"p": 2, "epsilon": 1.0, "d": 3}, "grid": {"r_max": 5.0}}
    code = _run("scale-norms", cfg, tmp_path)
    assert code != 0
    assert "grid.n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,cfg,field",
    [
        ("efimov", dict(CONFIGS["efimov"], grid=dict(SMALL_LOG_GRID, n=10**7)), "grid.n"),
        ("mass-sweep", dict(CONFIGS["mass-sweep"], grid=dict(SMALL_LOG_GRID, n=10**12)), "grid.n"),
        ("independence", dict(CONFIGS["independence"], grid=dict(CONFIGS["independence"]["grid"], n=10**7)), "grid.n"),
        ("thresholds", dict(CONFIGS["thresholds"], grid=dict(SMALL_LOG_GRID, n=10**7)), "grid.n"),
    ],
)
def test_grid_beyond_physical_memory_rejected_before_allocation(command, cfg, field, tmp_path, capsys):
    # one dense 10^7 x 10^7 matrix is 800 TB, and the 16 floats per node of a
    # mass sweep on 10^12 nodes 128 TB: refused before any array is built
    tracemalloc.start()
    try:
        code = _run(command, cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"config error at {field}" in capsys.readouterr().err
    assert peak < 2**20


@pytest.mark.parametrize(
    "command,cfg,field",
    [
        # the run on 8000 nodes peaks at 1.3 MB under tracemalloc (20 floats per node)
        ("resonance", dict(CONFIGS["resonance"], grid=dict(CONFIGS["resonance"]["grid"], n=8000)), "grid.n"),
        # the 96 x 96 product grid: its eigenbases, line weights and rung
        # arrays (9-11 n^2 floats, about 0.7 MB under tracemalloc) do not fit
        (
            "limit-resolvent",
            dict(CONFIGS["limit-resolvent"], grid=dict(CONFIGS["limit-resolvent"]["grid"], n=96)),
            "grid.n",
        ),
        # a 16 x 16 product grid fits; 100 test functions on it, with their
        # apply temporaries and the family of the two rungs, take 2.3 MB
        (
            "limit-resolvent",
            dict(CONFIGS["limit-resolvent"], grid=dict(CONFIGS["limit-resolvent"]["grid"], n=16), n_test_functions=100),
            "n_test_functions",
        ),
    ],
)
def test_sizes_beyond_physical_memory_rejected_before_allocation(command, cfg, field, tmp_path, capsys, monkeypatch):
    # the physical-memory probe is patched down to 512 KiB, so the check is
    # exercised at sizes that would be harmless to allocate
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2**19)
    tracemalloc.start()
    try:
        code = _run(command, cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"config error at {field}" in capsys.readouterr().err
    assert peak < 2**18


@pytest.mark.parametrize("n_test", [0, -1, 2.5])
def test_bad_test_function_count_rejected_before_allocation(n_test, tmp_path, capsys):
    cfg = dict(CONFIGS["limit-resolvent"], n_test_functions=n_test)
    tracemalloc.start()
    try:
        code = _run("limit-resolvent", cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "config error at n_test_functions" in capsys.readouterr().err
    assert peak < 2**18


def _peak_within_probe(command, cfg, tmp_path, monkeypatch):
    # the largest request to the physical-memory probe (in float64 values)
    # must cover the tracemalloc peak (in bytes) of the run it admits
    requests = []
    fits = cli._require_fits
    monkeypatch.setattr(cli, "_require_fits", lambda n_floats, *args: requests.append(n_floats) or fits(n_floats, *args))
    tracemalloc.start()
    try:
        code = _run(command, cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 8 * max(requests)


@pytest.mark.parametrize("rungs", [2, 5])
@pytest.mark.parametrize("n_test", [1, 5])
@pytest.mark.parametrize("n", [32, 48, 64])
def test_limit_resolvent_memory_probe_bounds_its_peak(n, n_test, rungs, tmp_path, monkeypatch):
    # measured 0.67-0.88 of the request, where the Konno-Kuroda apply
    # peaked at 1.04 of it on the 32 x 32 grid with one test function
    ladder = [0.4, 0.2, 0.1, 0.05, 0.025][-rungs:]
    grid = dict(CONFIGS["limit-resolvent"]["grid"], n=n)
    cfg = dict(CONFIGS["limit-resolvent"], grid=grid, sweep=ladder, n_test_functions=n_test)
    _peak_within_probe("limit-resolvent", cfg, tmp_path, monkeypatch)


DENSE_PROBE_CASES = [
    ("thresholds", 100),
    ("thresholds", 200),
    ("kk-verify", 80),
    ("kk-verify", 160),
    ("efimov", 100),
    ("efimov", 200),
    ("efimov", 1000),
    ("independence", 100),
    ("independence", 150),
]


# the ids keep the trailing 0 these cases carried beside a since deleted refinement factor
@pytest.mark.parametrize("command,n", DENSE_PROBE_CASES, ids=[f"{c}-{n}-0" for c, n in DENSE_PROBE_CASES])
def test_dense_memory_probe_bounds_its_peak(command, n, tmp_path, monkeypatch):
    # a probe for one n x n matrix once admitted runs that peaked at 5-22
    # of them: thresholds runs at 2n, kk-verify keeps two resolvent
    # differences and their operands, efimov and independence the
    # operator, its root and the eigensolver workspace
    cfg = dict(CONFIGS[command], grid=dict(CONFIGS[command]["grid"], n=n))
    _peak_within_probe(command, cfg, tmp_path, monkeypatch)


@pytest.mark.parametrize("n", [800, 3200])
def test_resonance_memory_probe_bounds_its_peak(n, tmp_path, monkeypatch):
    # the run is O(n), so it fits in 64 MiB, where a probe for a dense
    # n x n matrix (82 MB at n = 3200) once refused it
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2**26)
    cfg = dict(CONFIGS["resonance"], grid=dict(CONFIGS["resonance"]["grid"], n=n))
    _peak_within_probe("resonance", cfg, tmp_path, monkeypatch)


@pytest.mark.parametrize("command", ["scale-norms", "cross-term", "additivity", "mass-sweep"])
def test_linear_memory_probe_bounds_its_peak(command, tmp_path, monkeypatch):
    # these runs are O(n) (0.3-9.7 MB at n = 3200), so they fit in 64 MiB,
    # where a probe for a dense n x n matrix (82 MB) once refused them
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2**26)
    cfg = dict(CONFIGS[command], grid=dict(CONFIGS[command]["grid"], n=3200))
    _peak_within_probe(command, cfg, tmp_path, monkeypatch)


@pytest.mark.parametrize(
    "command,field,value",
    [
        ("limit-resolvent", "sweep", 5),
        ("limit-resolvent", "z", None),
        ("limit-resolvent", "z", "abc"),
        ("efimov", "sweep", 5),
        ("thresholds", "bracket", 5),
        ("kk-verify", "sweep", None),
        ("scale-norms", "sweep", None),
        ("independence", "z", [1]),
        ("mass-sweep", "c", None),
        ("resonance", "bracket", [1]),
        ("cross-term", "sweep", ["0.2"]),
        ("additivity", "sweep", [0.2, True]),
    ],
)
def test_wrong_json_type_names_the_field(command, field, value, tmp_path, capfd):
    # these once escaped as a raw TypeError or IndexError, or as "run failed"
    code = _run(command, dict(CONFIGS[command], **{field: value}), tmp_path)
    out, err = capfd.readouterr()
    assert code == 2
    assert f"config error at {field}" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "command,field,value",
    [
        ("efimov", "d", None),
        ("efimov", "d", "3"),
        ("efimov", "kind", 5),
        ("efimov", "grid.n", 200.5),
        ("limit-resolvent", "seed", None),
        ("limit-resolvent", "seed", 1.5),
        ("resonance", "grid.n", None),
        ("thresholds", "grid.n", "x"),
        ("thresholds", "sweep", [3.5]),
        ("scale-norms", "law.p", "2"),
        ("cross-term", "u_law.d", 3.0),
        ("kernel22", "sweep", 5),
        ("kernel22", "sweep", [[[1.0, 0.0]]]),
        ("scale-norms", "potential.strength", "2"),
        ("scale-norms", "potential.range", "1"),
        ("scale-norms", "law.epsilon", "0.5"),
        ("scale-norms", "grid.r_max", "30"),
        ("scale-norms", "grid.r_min", "1e-5"),
        ("thresholds", "kind", 5),
        ("thresholds", "kind", "weak_image"),
        ("thresholds", "sweep", [4]),
        ("efimov", "d", 4),
        ("efimov", "grid.spacing", "linear"),
        ("efimov", "kind", "three_body_2d"),
        ("kernel22", "sweep", [[[float("nan"), 0.0], [1.0, 0.0]]]),
        ("efimov", "sweep", [1.0, float("inf")]),
        ("efimov", "grid", dict(SMALL_LOG_GRID, r_max=10.0, r_min=1e-3)),
        ("mass-sweep", "grid.spacing", "linear"),
    ],
)
def test_integer_and_structured_fields_name_the_field(command, field, value, tmp_path, capfd):
    # these once escaped as a raw TypeError or IndexError, exited 1 with
    # "run failed", or were cut or accepted silently (seed 1.5 ran as 1,
    # a strength "2" as 2.0)
    cfg = json.loads(json.dumps(CONFIGS[command]))
    *parents, leaf = field.split(".")
    node = cfg
    for key in parents:
        node = node[key]
    node[leaf] = value
    code = _run(command, cfg, tmp_path)
    out, err = capfd.readouterr()
    assert code == 2
    assert f"config error at {field}:" in err and err.count("config error") == 1
    assert "Traceback" not in out + err


@pytest.mark.parametrize("mass", [0.0, -1.0, -0.5, -3.0, float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["resonance", "kk-verify", "limit-resolvent"])
def test_bad_mass_rejected_at_the_config(command, mass, tmp_path, capfd):
    # m = -3 once ran to ok rows (a = 1/3 and the channel mass 1.5 are both
    # positive); m = 0 and -1 divided by zero, -0.5 and NaN reached LAPACK
    code = _run(command, dict(CONFIGS[command], mass=mass), tmp_path)
    out, err = capfd.readouterr()
    assert code == 2
    assert "config error at mass" in err
    assert "Traceback" not in out + err and "DLASCL" not in out + err


def test_kernel22_pole_row_flagged(tmp_path):
    assert _run("kernel22", CONFIGS["kernel22"], tmp_path) == 0
    lines = (tmp_path / "kernel22.csv").read_text().strip().splitlines()
    assert lines[1].endswith("ok")
    assert lines[2].endswith("flagged")
    assert ",inf," in lines[2] or ",inf" in lines[2]


def test_summary_config_roundtrips(tmp_path):
    assert _run("efimov", CONFIGS["efimov"], tmp_path) == 0
    summary = json.loads((tmp_path / "efimov_summary.json").read_text())
    echoed = summary["config"]
    assert echoed["grid"] == CONFIGS["efimov"]["grid"]
    assert echoed["sweep"] == CONFIGS["efimov"]["sweep"]
    assert summary["toolkit_version"]
    # the echo re-runs to the same CSV
    d2 = tmp_path / "again"
    d2.mkdir()
    cfg_path = d2 / "config.json"
    cfg_path.write_text(json.dumps(echoed))
    assert main(["efimov", "--config", str(cfg_path), "--out", str(d2)]) == 0
    assert (d2 / "efimov.csv").read_bytes() == (tmp_path / "efimov.csv").read_bytes()


def test_flag_overrides_config(tmp_path):
    cfg = dict(CONFIGS["efimov"])
    d = tmp_path / "o"
    d.mkdir()
    cfg_path = d / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["efimov", "--config", str(cfg_path), "--out", str(d), "--grid-n", "220", "--rmax", "300"])
    assert code == 0
    text = (d / "efimov.csv").read_text()
    assert ",220," in text
    assert ",300," in text or text.rstrip().endswith("300,ok") or ",300" in text


def test_missing_config_file(tmp_path, capsys):
    code = main(["efimov", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_command_list_is_complete():
    assert set(CONFIGS) == set(COMMANDS)
