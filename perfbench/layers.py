"""Per-layer metrics: which spans to record, and the numbers they give.

Span names are ``<layer>`` or ``<layer>.<detail>``; a layer's time is the
sum of its spans' self times (duration minus the part child spans cover),
so nested layers are never counted twice.
"""

from __future__ import annotations

import asyncio
import re
import time
from collections import defaultdict
from typing import Dict, List, Sequence

import percentiles


#: The per-layer metrics every traced run reports (``BENCHMARK.json``).
#: A traced run also prints layers only its own workload exercises, such
#: as ``sidechannel.coresident_s`` on ``experiment-grid``.
PER_LAYER = (
    "oracle.self_us_per_row",
    "rng.streams_per_row",
    "rng.us_per_row",
    "array.us_per_row",
    "array.realizations_per_row",
    "accelerator.self_us_per_row",
    "tile.self_us_per_row",
    "array.ops_per_query",
    "b64.self_share.oracle_rng_array",
    "b64.self_share.array",
    "service.tick_ms_p50",
    "service.tick_ms_p99",
    "service.rows_per_tick",
    "service.busy_frac",
    "service.queue_wait_ms_p50",
    "service.queue_wait_ms_p99",
    "service.failed_ticks",
    "service.dropped_requests",
    "netservice.overhead_ms_p50",
    "netservice.encode_us",
    "netservice.decode_us",
    "netservice.coalescing_factor.victim",
    "netservice.coalescing_factor.prober",
    "client.retries",
    "loadgen.late_ms_p99",
    "grid.table1_s",
    "datasets.load_s",
    "nn.train_s",
    "analysis.correlation_s",
    "experiments.self_s",
    "trace.overhead_pct.b1_call_ms_p50",
    "trace.overhead_pct.b64_rows_per_s",
    "trace.overhead_pct.lat_ms_p50.low",
    "trace.overhead_pct.grid_wall_s",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def unit_of(metric: str) -> str:
    """The unit a per-layer metric name states (``_us``, ``_ms``, ``_s``, ...)."""
    words = set(re.split(r"[._]", metric))
    for word, unit in (("pct", "%"), ("us", "us"), ("ms", "ms"), ("s", "s")):
        if word in words:
            return unit
    if words & {"share", "frac"}:
        return "ratio"
    return "count"


# ----------------------------------------------------------------- patching


def trace_engine(tracer) -> None:
    """Spans around the query stack: oracle -> accelerator -> tile -> array -> rng."""
    from repro.attacks.oracle import Oracle
    from repro.crossbar.accelerator import CrossbarAccelerator
    from repro.crossbar.array import CrossbarArray
    from repro.crossbar.tile import CrossbarTile, ShardedTileGroup
    from repro.utils import rng

    tracer.wrap_method(Oracle, "query", "oracle")
    tracer.wrap_method(CrossbarAccelerator, "forward_with_power", "accelerator")
    tracer.wrap_method(CrossbarTile, "forward_with_power_shards", "tile")
    tracer.wrap_method(ShardedTileGroup, "forward_with_power_shards", "tile")
    tracer.wrap_method(CrossbarArray, "matvec_with_current", "array")
    tracer.wrap_function(rng.derive_request_seeds, "rng.derive")
    tracer.wrap_function(rng.seeded_noise_factors, "rng.factors")
    tracer.wrap_function(rng.sample_stream, "rng.stream")


def trace_grid(tracer) -> None:
    """Spans around the layers an experiment calls into."""
    from repro.analysis import correlation
    from repro.attacks.oracle import Oracle
    from repro.attacks.surrogate import SurrogateTrainer
    from repro.datasets.loaders import load_dataset
    from repro.nn.trainer import Trainer
    from repro.service.coalescer import OracleBackend
    from repro.sidechannel.coresident import run_coresident_attack
    from repro.sidechannel.probing import ColumnNormProber

    tracer.wrap_function(load_dataset, "datasets.load")
    tracer.wrap_method(Trainer, "fit", "nn.train")
    tracer.wrap_method(SurrogateTrainer, "fit", "attacks.surrogate_fit")
    tracer.wrap_function(run_coresident_attack, "sidechannel.coresident")
    tracer.wrap_method(ColumnNormProber, "probe_all", "sidechannel.probe")
    for name in (
        "pearson_correlation",
        "per_sample_correlations",
        "mean_correlation",
        "correlation_of_mean",
        "sensitivity_norm_correlations",
    ):
        tracer.wrap_function(getattr(correlation, name), "analysis.correlation")
    tracer.wrap_method(Oracle, "query", "oracle")
    tracer.wrap_method(OracleBackend, "run", "service.tick")


# ------------------------------------------------------------------ metrics


def _with_self(spans: Sequence[dict]) -> List[dict]:
    selfs = percentiles.self_times(spans)
    return [dict(span, self=value) for span, value in zip(spans, selfs)]


def closed_loop(spans: Sequence[dict], counters: Dict[str, list]) -> Dict[str, float]:
    """Per-row self times of the seeded 64-row calls, per-call ones of the 1-row calls."""
    spans = _with_self(spans)
    self_ns: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    streams: Dict[str, int] = defaultdict(int)
    inclusive: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span["call"] is None:
            continue
        kind = span["call"].split(":", 1)[0]
        self_ns[kind][layer_of(span["name"])] += span["self"]
        if span["name"] == "rng.stream":
            streams[kind] += 1
        if span["name"] == "oracle":
            inclusive[kind] += span["end"] - span["start"]
    b64_rows = max(1, counters["b64"][0] * 64)
    b1_calls = max(1, counters["b1"][0])
    b64 = self_ns["b64"]
    total = max(1, inclusive["b64"])
    return {
        "oracle.self_us_per_row": b64["oracle"] / 1e3 / b64_rows,
        "rng.us_per_row": b64["rng"] / 1e3 / b64_rows,
        "rng.streams_per_row": streams["b64"] / b64_rows,
        "array.us_per_row": b64["array"] / 1e3 / b64_rows,
        "array.realizations_per_row": counters["b64"][2] / b64_rows,
        "accelerator.self_us_per_row": self_ns["b1"]["accelerator"] / 1e3 / b1_calls,
        "tile.self_us_per_row": self_ns["b1"]["tile"] / 1e3 / b1_calls,
        "array.ops_per_query": counters["b1"][1] / b1_calls,
        "b64.self_share.oracle_rng_array": (b64["oracle"] + b64["rng"] + b64["array"])
        / total,
        "b64.self_share.array": b64["array"] / total,
    }


def decode_us(records: Sequence[dict], limit: int = 256) -> float:
    """Median time to decode a response frame like the ones received.

    The generator's own reads include waiting for bytes, so decoding is
    timed on re-encoded copies of received responses fed from memory.
    """
    from repro.netservice.protocol import encode_frame, read_frame

    answered = [r for r in records if "done" in r][:limit]
    frames = [encode_frame(r["header"], r["arrays"]) for r in answered]
    times = []

    async def decode_all():
        for frame in frames:
            start = time.perf_counter()
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            await read_frame(reader)
            times.append(time.perf_counter() - start)

    asyncio.run(decode_all())
    return 1e6 * percentiles.median(times or [0.0])


def open_loop(
    server_spans: Sequence[dict],
    records: Sequence[dict],
    stats: Dict[str, object],
    ladder_wall_s: float,
) -> Dict[str, float]:
    """Service tick, queue, wire and generator metrics of a traced ladder."""
    ticks = sorted(
        (s for s in server_spans if s["name"] == "service.tick"),
        key=lambda s: s["start"],
    )
    tick_ms = [(s["end"] - s["start"]) / 1e6 for s in ticks] or [0.0]
    requests = [s for s in server_spans if s["name"] == "service.request"]
    waits = [
        (ticks[s["tick"] - 1]["start"] - s["start"]) / 1e6
        for s in requests
        if s.get("tick") and s["tick"] <= len(ticks)
    ] or [0.0]
    served_ms = {
        s["request_id"]: (s["end"] - s["start"]) / 1e6
        for s in requests
        if "request_id" in s
    }
    overhead = [
        1e3 * (r["done"] - r["sent"]) - served_ms[r["header"]["request_id"]]
        for r in records
        if "done" in r and r["header"]["request_id"] in served_ms
    ] or [0.0]
    encode = [
        (s["end"] - s["start"]) / 1e3
        for s in server_spans
        if s["name"] == "netservice.encode"
    ] or [0.0]
    late = percentiles.lateness([r["due"] for r in records], [r["sent"] for r in records])
    service = stats["service"]
    tenants = stats["tenants"]
    tick_summary = percentiles.summarize(tick_ms)
    wait_summary = percentiles.summarize(waits)
    return {
        "service.tick_ms_p50": tick_summary["p50"],
        "service.tick_ms_p99": tick_summary["tail"],
        "service.rows_per_tick": float(service["mean_tick_rows"]),
        "service.busy_frac": sum(tick_ms) / 1e3 / ladder_wall_s,
        "service.queue_wait_ms_p50": wait_summary["p50"],
        "service.queue_wait_ms_p99": wait_summary["tail"],
        "service.failed_ticks": float(service["n_failed_ticks"]),
        "service.dropped_requests": float(service["n_dropped_requests"]),
        "netservice.overhead_ms_p50": percentiles.median(overhead),
        "netservice.encode_us": percentiles.median(encode),
        "netservice.decode_us": decode_us(records),
        "netservice.coalescing_factor.victim": float(
            tenants.get("victim", {}).get("coalescing_factor", 0.0)
        ),
        "netservice.coalescing_factor.prober": float(
            tenants.get("prober", {}).get("coalescing_factor", 0.0)
        ),
        "client.retries": float(sum(r.get("retries", 0) for r in records)),
        "loadgen.late_ms_p99": 1e3 * percentiles.tail_percentile(late)[0],
    }


def grid(spans: Sequence[dict]) -> Dict[str, float]:
    """Per-experiment wall time and the grid's time per layer beneath it."""
    spans = _with_self(spans)
    by_layer: Dict[str, int] = defaultdict(int)
    by_name: Dict[str, int] = defaultdict(int)
    metrics: Dict[str, float] = {}
    for span in spans:
        by_layer[layer_of(span["name"])] += span["self"]
        by_name[span["name"]] += span["self"]
        if span["name"] == "experiments":
            duration = span["end"] - span["start"]
            metrics[f"grid.{span['experiment']}_s"] = duration / 1e9
            metrics[f"grid.{span['experiment']}.self_share"] = span["self"] / duration
    metrics.update(
        {
            "datasets.load_s": by_name["datasets.load"] / 1e9,
            "nn.train_s": by_name["nn.train"] / 1e9,
            "attacks.surrogate_fit_s": by_name["attacks.surrogate_fit"] / 1e9,
            "sidechannel.coresident_s": by_name["sidechannel.coresident"] / 1e9,
            "analysis.correlation_s": by_layer["analysis"] / 1e9,
            "experiments.self_s": by_name["experiments"] / 1e9,
        }
    )
    return metrics
