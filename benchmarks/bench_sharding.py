"""Benchmark multi-tile sharded execution against the single-tile placement.

For each shipped shard geometry the same logical layer runs once on a single
crossbar array and once on a grid of shard arrays (both a
:class:`~repro.crossbar.tile.CrossbarTile`), through the fused
``forward_with_power`` path.  Total arithmetic is identical (the shards
partition the weight matrix), so the recorded
``sharded_s / single_s`` ratio is pure sharding overhead — shard dispatch,
partial-sum reduction, per-shard current stacking.  The acceptance gate
(enforced by ``scripts/check_bench_regression.py``) is that sharded forward
stays within 1.2x of the single-tile per-element throughput.

A second section times the *process-parallel* shard path: the same sharded
group driven by ``PoolExecutor(mode="process")``, whose workers receive a
pickled copy of each live shard array per call.  Process dispatch has real
serialization overhead, so the gate
(``--min-shard-speedup``) is a single-core floor like the netservice and
executor gates — the parallel path must retain at least that fraction of
serial throughput, and perfect scaling shows up as speedup > 1.

Results merge into ``BENCH_engine.json`` under ``bench_sharding``.
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_engine

from repro.crossbar import CrossbarAccelerator, ShardingSpec
from repro.executor import PoolExecutor
from repro.nn.layers import Dense
from repro.nn.network import Sequential

#: Geometries benchmarked (name -> spec); mirrors the scenario presets.
GEOMETRIES = {
    "rows-2": ShardingSpec.rows(2),
    "columns-4": ShardingSpec.columns(4),
    "grid-2x2": ShardingSpec.grid(2, 2),
}

#: Gate: sharded forward must stay within this factor of single-tile time.
MAX_SHARDED_RATIO = 1.2

#: Gate: process-parallel shard execution must retain at least this fraction
#: of serial throughput (speedup = serial_s / process_s).  An overhead
#: floor, not a scaling requirement (same philosophy as the executor gate's
#: 0.15 floor): every forward call pays pool spawn plus pickling the input
#: slices to the workers, and serial BLAS already uses all cores, so the
#: pool only wins once per-shard arithmetic dwarfs IPC.  The gate is a
#: canary that the dispatch overhead stays bounded, and the recorded
#: ``outputs_identical`` flag is the real acceptance: process execution is
#: bit-identical to serial.
MIN_SHARD_SPEEDUP = 0.05


def build_network(n_inputs=2048, n_outputs=512, *, seed=0):
    """A single dense layer large enough for BLAS to dominate the timings."""
    return Sequential(
        [Dense(n_inputs, n_outputs, activation="softmax", random_state=seed)]
    )


def _interleaved_best(fn_a, fn_b, *args, repeats=7):
    """Best-of wall times of two callables, measured alternately.

    Alternating the measurements exposes both engines to the same load/clock
    drift, so their *ratio* is far more stable than timing one after the
    other (the quantity the regression gate checks is the ratio).
    """
    best_a = best_b = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn_a(*args)
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b(*args)
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def run_sharding_benchmark(
    *, n_inputs=2048, n_outputs=512, batch_size=256, repeats=9, rounds=3, seed=0
):
    """Time fused forward_with_power per geometry vs the single-tile baseline.

    The gated quantity is the *ratio* of sharded to single-tile wall time.
    Scheduler noise only ever inflates one side of a round, so each geometry
    is measured in ``rounds`` independent interleaved best-of-``repeats``
    rounds and the smallest ratio is recorded — it converges to the true
    overhead from above.
    """
    network = build_network(n_inputs, n_outputs, seed=seed)
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0.0, 1.0, size=(batch_size, n_inputs))

    single = CrossbarAccelerator(network, random_state=seed)
    single_out, single_report = single.forward_with_power(inputs)

    rows = []
    for name, spec in GEOMETRIES.items():
        sharded = CrossbarAccelerator(network, sharding=spec, random_state=seed)
        out, report = sharded.forward_with_power(inputs)
        # Correctness guard before timing: ideal-device sharded execution
        # must match the single tile (bit-identical in exact arithmetic,
        # float-reduction precision otherwise).
        np.testing.assert_allclose(out, single_out, atol=1e-10)
        np.testing.assert_allclose(
            report.total_current, single_report.total_current, rtol=1e-10
        )
        assert report.per_tile_current.shape == (batch_size, spec.n_shards)

        best = None
        for _ in range(rounds):
            single_s, sharded_s = _interleaved_best(
                single.forward_with_power,
                sharded.forward_with_power,
                inputs,
                repeats=repeats,
            )
            if best is None or sharded_s / single_s < best[1] / best[0]:
                best = (single_s, sharded_s)
        single_s, sharded_s = best
        rows.append(
            {
                "geometry": name,
                "row_shards": spec.row_shards,
                "col_shards": spec.col_shards,
                "n_shards": spec.n_shards,
                "reduction": spec.reduction,
                "single_s": single_s,
                "sharded_s": sharded_s,
                "ratio": sharded_s / single_s,
                "elements_per_s_single": batch_size * n_inputs * n_outputs / single_s,
                "elements_per_s_sharded": batch_size * n_inputs * n_outputs / sharded_s,
            }
        )
    return {
        "config": {
            "n_inputs": int(n_inputs),
            "n_outputs": int(n_outputs),
            "batch_size": int(batch_size),
            "repeats": int(repeats),
            "rounds": int(rounds),
            "seed": int(seed),
        },
        "max_ratio_gate": MAX_SHARDED_RATIO,
        "geometries": rows,
    }


def run_process_parallel_benchmark(
    *,
    n_inputs=2048,
    n_outputs=512,
    batch_size=512,
    repeats=5,
    rounds=3,
    seed=0,
    geometry=("rows-4", ShardingSpec.rows(4)),
):
    """Time serial vs process-parallel execution of the same sharded group.

    Both accelerators hold identical programmed state (same seed), and the
    ideal-device forward path is a pure function of the shard arrays, so
    the process pool's outputs must be bit-identical to serial — asserted
    here and recorded as ``outputs_identical`` for the regression gate.
    """
    name, spec = geometry
    network = build_network(n_inputs, n_outputs, seed=seed)
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0.0, 1.0, size=(batch_size, n_inputs))

    serial = CrossbarAccelerator(network, sharding=spec, random_state=seed)
    runner = PoolExecutor(mode="process", max_workers=spec.n_shards)
    parallel = CrossbarAccelerator(
        network, sharding=spec, shard_runner=runner, random_state=seed
    )

    serial_out, serial_report = serial.forward_with_power(inputs)
    parallel_out, parallel_report = parallel.forward_with_power(inputs)
    outputs_identical = bool(
        np.array_equal(serial_out, parallel_out)
        and np.array_equal(
            serial_report.total_current, parallel_report.total_current
        )
    )
    assert outputs_identical, "process-parallel shard outputs diverged from serial"

    best = None
    for _ in range(rounds):
        serial_s, process_s = _interleaved_best(
            serial.forward_with_power,
            parallel.forward_with_power,
            inputs,
            repeats=repeats,
        )
        if best is None or serial_s / process_s > best[0] / best[1]:
            best = (serial_s, process_s)
    serial_s, process_s = best
    return {
        "config": {
            "n_inputs": int(n_inputs),
            "n_outputs": int(n_outputs),
            "batch_size": int(batch_size),
            "repeats": int(repeats),
            "rounds": int(rounds),
            "seed": int(seed),
        },
        "geometry": name,
        "n_shards": spec.n_shards,
        "workers": spec.n_shards,
        "serial_s": serial_s,
        "process_s": process_s,
        "speedup": serial_s / process_s,
        "outputs_identical": outputs_identical,
        "min_speedup_gate": MIN_SHARD_SPEEDUP,
    }


def test_sharded_forward_throughput(single_round, benchmark):
    """Sharded fused forward within the gate of single-tile throughput.

    ``BENCH_TOLERANCE`` (fractional, e.g. ``0.15``) relaxes the in-run gate
    on noisy shared runners; the recorded JSON still carries the raw ratios
    for ``scripts/check_bench_regression.py`` to gate with its own
    ``--tolerance``.
    """
    results = single_round(run_sharding_benchmark)
    results["process_parallel"] = run_process_parallel_benchmark()
    bench_engine.record_timings("bench_sharding", results)
    for row in results["geometries"]:
        benchmark.extra_info[f"{row['geometry']}/ratio"] = round(row["ratio"], 3)
    parallel = results["process_parallel"]
    benchmark.extra_info["process_parallel/speedup"] = round(parallel["speedup"], 3)
    worst = max(row["ratio"] for row in results["geometries"])
    tolerance = float(os.environ.get("BENCH_TOLERANCE", "0"))
    gate = MAX_SHARDED_RATIO * (1.0 + tolerance)
    assert worst <= gate, (
        f"sharded forward is {worst:.2f}x the single-tile time (gate {gate:.2f}x)"
    )
    speedup_gate = MIN_SHARD_SPEEDUP * (1.0 - tolerance)
    assert parallel["speedup"] >= speedup_gate, (
        f"process-parallel shard forward retains only {parallel['speedup']:.2f}x "
        f"of serial throughput (floor {speedup_gate:.2f}x)"
    )


def main():  # pragma: no cover - console entry point
    results = run_sharding_benchmark()
    results["process_parallel"] = run_process_parallel_benchmark()
    bench_engine.record_timings("bench_sharding", results)
    print(json.dumps(results, indent=2, sort_keys=True))
    print(f"\nresults merged into {bench_engine.RESULTS_PATH}")


if __name__ == "__main__":  # pragma: no cover
    main()
