"""Tests of the benchmark's own helpers, plus a tiny run of every workload.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import open_loop  # noqa: E402
import percentiles  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ percentile rule


def test_tail_is_p99_with_enough_samples():
    values = list(range(1, 1001))
    assert percentiles.tail_percentile(values) == (990.0, 99.0, 1000)


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 201))
    value, q, n = percentiles.tail_percentile(values)
    assert (value, q, n) == (190.0, 95.0, 200)
    assert sum(v > value for v in values) == 10


def test_tail_of_too_few_samples_is_the_maximum():
    assert percentiles.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert percentiles.tail_percentile(list(range(11)))[:2] == (0.0, 100.0 / 11)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    assert percentiles.tail_percentile(values) == percentiles.tail_percentile(
        sorted(values)
    )


# ------------------------------------------------------------ open-loop timing


def test_latency_runs_from_due_time():
    due = [0.0, 0.1, 0.2]
    done = [0.05, 0.3, 0.25]
    assert percentiles.due_latencies(due, done) == pytest.approx([0.05, 0.2, 0.05])


def test_lateness_is_never_negative():
    assert percentiles.lateness([1.0, 2.0], [1.5, 1.9]) == [0.5, 0.0]


def test_failures_count_as_missing_the_limit():
    fast = [0.001] * 100
    assert percentiles.meets_limit(fast, 0, 0.02)[0]
    assert not percentiles.meets_limit(fast, 20, 0.02)[0]


def test_stable_latency_is_not_a_growing_backlog():
    due = [i / 100 for i in range(400)]
    latencies = [0.002 + 0.001 * (i % 3) for i in range(400)]
    assert not percentiles.backlog_growing(due, latencies, 0.02)


def test_linearly_rising_latency_is_a_growing_backlog():
    due = [i / 100 for i in range(400)]
    latencies = [0.002 + 0.0005 * i for i in range(400)]
    assert percentiles.backlog_growing(due, latencies, 0.02)


def test_backlog_uses_due_order_not_list_order():
    due = [i / 100 for i in range(400)]
    latencies = [0.002 + 0.0005 * i for i in range(400)]
    assert percentiles.backlog_growing(due[::-1], latencies[::-1], 0.02)


def test_max_rate_stops_at_first_miss():
    rungs = [
        {"rate": 100.0, "meets": True},
        {"rate": 200.0, "meets": False},
        {"rate": 400.0, "meets": True},
    ]
    assert open_loop.max_rate(rungs) == 100.0
    assert open_loop.max_rate(rungs[:1]) == 100.0


# ----------------------------------------------------------- self-time rules


def _spans(*triples):
    return [
        {"id": index, "start": start, "end": end, "parent": parent}
        for index, (start, end, parent) in enumerate(triples)
    ]


def test_self_time_subtracts_children():
    spans = _spans((0, 100, None), (10, 30, 0), (40, 50, 0))
    assert percentiles.self_times(spans) == [70, 20, 10]


def test_self_time_merges_overlapping_children():
    spans = _spans((0, 100, None), (10, 40, 0), (20, 50, 0))
    assert percentiles.self_times(spans)[0] == 60


def test_self_time_clips_children_to_parent():
    spans = _spans((0, 100, None), (90, 130, 0))
    assert percentiles.self_times(spans)[0] == 90


def test_self_time_counts_only_direct_children():
    spans = _spans((0, 100, None), (10, 90, 0), (20, 30, 1))
    assert percentiles.self_times(spans) == [20, 70, 10]


def test_self_time_of_a_slice_keeps_parent_ids():
    spans = _spans((0, 100, None), (0, 50, None), (10, 20, 1))[1:]
    assert percentiles.self_times(spans) == [40, 10]


def test_units_follow_metric_names():
    assert layers.unit_of("rng.us_per_row") == "us"
    assert layers.unit_of("service.tick_ms_p50") == "ms"
    assert layers.unit_of("grid.table1_s") == "s"
    assert layers.unit_of("service.busy_frac") == "ratio"
    assert layers.unit_of("trace.overhead_pct.lat_ms_p50.low") == "%"
    assert layers.unit_of("array.ops_per_query") == "count"


def test_benchmark_json_lists_what_the_code_reports():
    per_layer = [metric["name"] for metric in BENCHMARK["per_layer"]]
    assert per_layer == list(layers.PER_LAYER)
    for metric in BENCHMARK["per_layer"]:
        assert metric["unit"] == layers.unit_of(metric["name"])
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    expected = {k: v for k, v in run.UNITS.items() if k not in run.TABLE_ONLY}
    assert end_to_end == expected
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


# --------------------------------------------------------------- tiny runs


@pytest.fixture
def short_companions(monkeypatch):
    monkeypatch.setattr(run, "COMPANION_CLOSED_S", 0.3)
    monkeypatch.setattr(run, "COMPANION_LADDER", ((run.LOW_RPS, 0.3), (run.HIGH_RPS, 0.3)))


@pytest.mark.parametrize("workload", ["attack-noisy", "mlp-ideal", "netservice-open"])
def test_tiny_run_of_each_workload(workload, tmp_path, short_companions):
    result = run.run_workload(workload, seed=5, seconds=1.0, traced=False, out_dir=tmp_path)
    assert result["correct"]
    assert result["failed"] == 0
    expected = set(run.UNITS) - {"peak_rss_mb"}
    assert set(result["e2e"]) == expected
    assert all(value > 0 for name, value in result["e2e"].items() if name != "fail_ratio")


def test_tiny_traced_grid_run(tmp_path, monkeypatch, short_companions):
    import grid

    monkeypatch.setattr(grid, "FULL_GRID", grid.COMPANION_GRID)
    result = run.run_workload(
        "experiment-grid", seed=5, seconds=1.0, traced=True, out_dir=tmp_path
    )
    assert result["correct"]
    metrics = {}
    for phase in result["phases"].values():
        metrics.update(phase["layers"])
    assert set(layers.PER_LAYER) - set(metrics) == {
        name for name in layers.PER_LAYER if name.startswith("trace.overhead")
    }


def test_cli_prints_the_contract_line(tmp_path):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "attack-noisy",
         "--seed", "6", "--seconds", "0.3", "--trace", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    payload = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True
    assert set(payload["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    history = (tmp_path / "history.jsonl").read_text().splitlines()
    assert json.loads(history[-1])["fingerprint"]["nproc"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "attack-noisy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
