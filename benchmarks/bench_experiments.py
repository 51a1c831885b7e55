"""Benchmark the unified experiment pipeline: registry sweep, serial vs pool.

Runs every registered experiment through :func:`run_experiments` at ``smoke``
scale on one paper scenario, once serially and once on a
``PoolExecutor(mode="process")`` pool, asserts the results are
bit-identical, and records both wall times (plus the identity check) into
``BENCH_engine.json`` under ``bench_experiments`` so
``scripts/check_bench_regression.py`` can gate on them across PRs.

The ``bench``-scale figure pipelines keep their own dedicated benchmarks
(``bench_table1`` .. ``bench_figure5``); this one times the *dispatch layer*
shared by all of them.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_engine

from repro.executor import PoolExecutor
from repro.experiments import list_experiments, run_experiments

SCENARIOS = ("paper/mnist-softmax",)


def _run_all(executor=None):
    return run_experiments(
        None, "smoke", executor=executor, scenarios=SCENARIOS, base_seed=0
    )


def _results_identical(a, b) -> bool:
    """Strict bit-identity: same experiments, same run counts, same payloads.

    Length and key-set mismatches count as divergence — a pool bug that drops
    a job or renames an output must fail the gate, not truncate out of the
    comparison.
    """
    if set(a) != set(b):
        return False
    for name in a:
        if len(a[name].sweep) != len(b[name].sweep):
            return False
        for run_a, run_b in zip(a[name].sweep, b[name].sweep):
            if run_a.metrics != run_b.metrics:
                return False
            if set(run_a.arrays) != set(run_b.arrays):
                return False
            for key in run_a.arrays:
                if not np.array_equal(run_a.arrays[key], run_b.arrays[key]):
                    return False
    return True


def test_experiments_registry_sweep(single_round, benchmark):
    """Full registry sweep at smoke scale: serial vs process pool, identical."""
    start = time.perf_counter()
    serial = single_round(_run_all)
    serial_s = time.perf_counter() - start

    executor = PoolExecutor(mode="process")
    runner = executor.runner
    start = time.perf_counter()
    parallel = _run_all(executor)
    parallel_s = time.perf_counter() - start

    identical = _results_identical(serial, parallel)
    total_jobs = sum(len(result.sweep) for result in serial.values())
    # Pool economics for the regression record: with chunked submission the
    # per-job overhead is (pool wall time minus the perfectly-parallel ideal)
    # spread over the jobs — the quantity the chunking fix drives down.
    n_workers = runner.resolve_workers(total_jobs)
    per_job_overhead_s = max(0.0, parallel_s - serial_s / n_workers) / max(
        1, total_jobs
    )
    bench_engine.record_timings(
        "bench_experiments",
        {
            "experiments": sorted(serial),
            "n_jobs": total_jobs,
            "serial_s": serial_s,
            "process_s": parallel_s,
            "n_workers": n_workers,
            "chunksize": runner.chunksize(total_jobs),
            "per_job_overhead_s": per_job_overhead_s,
            "results_identical": identical,
        },
    )
    benchmark.extra_info["n_jobs"] = total_jobs
    benchmark.extra_info["serial_s"] = round(serial_s, 2)
    benchmark.extra_info["process_s"] = round(parallel_s, 2)
    benchmark.extra_info["per_job_overhead_ms"] = round(per_job_overhead_s * 1e3, 2)

    assert set(serial) == set(list_experiments())
    assert identical, "process-pool results diverged from the serial path"
