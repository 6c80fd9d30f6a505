"""Tiny-size checks of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

TINY = W.Sizes(
    ctrl_states=2,
    plant_states=2,
    chunk=300,
    catalog=(2, 4),
    per_signature=2,
    triples_per_batch=4,
    verify_slice=10,
    hom_cap=8,
    cofree_cap=100,
    trace_chunks=1,
)


def spec_file() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_runs_print():
    spec = spec_file()
    # algebra_mix is runnable but unlisted while its cache-history defect fails it
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in run.MEASURES if w != "algebra_mix"
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == (
        list(tracing.SPAN_METRICS)
        + list(tracing.COUNT_METRICS)
        + list(tracing.CACHE_METRICS)
        + list(tracing.TRACE_METRICS)
    )


@pytest.mark.parametrize("workload", list(run.MEASURES))
def test_tiny_workload_runs_and_checks_itself(workload):
    tally = W.Tally()
    state = run.setup(workload, 3, TINY)
    rate, report = run.MEASURES[workload](state, 3, 0.0, TINY, tally)
    assert rate > 0
    assert all(isinstance(row[1], (int, float)) and row[1] >= 0 for row in report)
    assert tally.attempted > 0
    if workload != "algebra_mix":  # its cache-history defect is counted, not asserted
        assert tally.failed == 0, tally.examples


def test_feedback_tables_read_out_every_value():
    t = inputs.feedback_tables(0)
    assert set(t.ctrl_readout.values()) == set(inputs.B_VALUES)
    assert set(t.plant_readout.values()) == set(inputs.C_VALUES)
    steps, final = inputs.feedback_oracle(t, inputs.feedback_start(t), ["a0", "a1"])
    assert len(steps) == 3 and steps[-1][2] is None
    assert steps[-1][0] == inputs.state_label(final)


def test_independent_size_arithmetic():
    assert inputs.cofree_stage_sizes(inputs.COFREE_POLYS["y^2+1"]) == [1, 2, 5, 26, 677]
    assert inputs.cofree_stage_sizes(inputs.COFREE_POLYS["y^2+y+1"]) == [1, 3, 13, 183]
    assert inputs.contractible_comult_positions(6) == 279936
    y2 = inputs.shape((("s", ("l", "r")),))
    assert inputs.shape_compose(y2, y2) == {4: 1}
    assert inputs.lens_count(y2, y2) == 4


TRACED_TINY = f"""
import json, sys
sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]
sys.path.insert(0, {str(HERE)!r})
import tracing
from test_perfbench import TINY
metrics, tally = tracing.run_traced(5, TINY)
print(json.dumps({{"metrics": metrics, "failed": tally.failed, "attempted": tally.attempted}}))
"""


def traced_tiny(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", TRACED_TINY], capture_output=True, text=True,
        env=env, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly_across_processes():
    first, second = traced_tiny("1"), traced_tiny("2")
    assert first["metrics"].keys() == second["metrics"].keys()
    counts = {
        name for name, (_, unit) in first["metrics"].items() if unit in ("count", "ratio")
    } - {"trace.overhead_share"}
    assert counts
    for name in sorted(counts):
        assert first["metrics"][name] == second["metrics"][name], name
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert first["failed"] == 0
    for name in tracing.SPAN_METRICS:
        assert first["metrics"][name][0] > 0, name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "wd_feedback",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
