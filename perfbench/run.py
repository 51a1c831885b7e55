"""The repository benchmark: one command, four workloads, every metric checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload attack-noisy --seed 1 --seconds 10 --trace 0

Every run measures every end-to-end metric.  The workload picks the victim
and the stage that gets the ``--seconds`` of measured time; the other
stages run as short fixed *companion* passes, so a regression in any stage
shows on every workload.  ``--trace 1`` runs the workload untraced and then
traced, reports the per-layer metrics of the traced pass, the tracing
overhead, and writes the spans as JSONL.  The last line of standard output
is one JSON object (``correct``/``attempted``/``failed``/``metrics``); the
exit code is 1 when an output check fails.  See ``METRICS.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "attack-noisy": "closed",
    "mlp-ideal": "closed",
    "netservice-open": "open",
    "experiment-grid": "grid",
}
#: The closed-loop victim of the companion pass on the other workloads.
COMPANION_VICTIM = "attack-noisy"
COMPANION_CLOSED_S = 3.0

#: Open-loop ladder: ``(rate per s, share of --seconds)``.  The first rung
#: is "low", the second "high"; the rest, ~12 % apart, look for the highest
#: passing rate.
LOW_RPS = 200.0
HIGH_RPS = 400.0
LADDER = (
    (LOW_RPS, 0.15),
    (HIGH_RPS, 0.4),
    (1200.0, 0.1),
    (1350.0, 0.1),
    (1500.0, 0.1),
    (1700.0, 0.1),
    (1900.0, 0.1),
    (2100.0, 0.1),
    (2400.0, 0.1),
)
COMPANION_LADDER = ((LOW_RPS, 1.5), (HIGH_RPS, 4.0))

UNITS = {
    "setup_s": "s",
    "b1_call_ms_p50": "ms",
    "b1_call_ms_p99": "ms",
    "b64_rows_per_s": "rows/s",
    "b64_call_ms_p99": "ms",
    "b64_rows_per_s.unseeded": "rows/s",
    "lat_ms_p50.low": "ms",
    "lat_ms_p99.low": "ms",
    "lat_ms_p50.high": "ms",
    "lat_ms_p99.high": "ms",
    "max_rate_rps": "1/s",
    "server_cpu_us_per_request": "us",
    "grid_wall_s": "s",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}
#: Printed and recorded, but not in the JSON metrics.  ``fail_ratio`` is 0
#: on every healthy run, and failures already travel as
#: ``failed``/``attempted``.  The others move from run to run by more than
#: any allowed bound on a shared machine (METRICS.md, findings 8-9).
TABLE_ONLY = (
    "fail_ratio",
    "b1_call_ms_p99",
    "b64_call_ms_p99",
    "lat_ms_p50.low",
    "lat_ms_p99.low",
    "lat_ms_p99.high",
    "max_rate_rps",
)


def _setup_path() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


# ------------------------------------------------------------------- phases


def phase_closed(victim, seed, seconds, tracer, repeats, speed):
    import closed_loop
    import layers
    import victims

    factory = victims.CLOSED_LOOP_VICTIMS[victim]
    oracle, setup = closed_loop.set_up(factory, seed, repeats)
    first = len(tracer.spans) if tracer else 0
    if tracer is not None:
        layers.trace_engine(tracer)
    try:
        result = closed_loop.run(oracle, seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.close()
    spans = tracer.spans[first:] if tracer else []
    e2e = closed_loop.end_to_end(result, speed)
    raw = closed_loop.end_to_end(result)
    raw.pop("_tails")
    return {
        "setup": setup,
        "e2e": e2e,
        "raw": raw,
        "tails": e2e.pop("_tails"),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["mismatches"] == 0 and result["checked"] > 0,
        "checks": f"{result['checked']} seeded rows replayed solo, "
        f"{result['mismatches']} mismatches",
        "digest": result["digest"],
        "spans": spans,
        "layers": layers.closed_loop(spans, result["counters"]) if tracer else {},
    }


def phase_open(seed, ladder, traced: bool, repeats, speed, out_dir: Path):
    import layers
    import open_loop
    from spans import read_jsonl

    spans_path = out_dir / f"server-spans-{os.getpid()}.jsonl" if traced else None
    setup = []
    for attempt in range(repeats):
        last = attempt == repeats - 1
        server, stamped = open_loop.start_server(seed, spans_path if last else None)
        setup.append(stamped)
        if not last:
            server.close()
    # The generator is benchmark code: keep the benchmark process's own heap
    # out of its garbage collections, or their pauses show as latency.
    gc.freeze()
    try:
        with server:
            rungs = open_loop.run(server, seed, ladder, speed)
            stats = open_loop.server_stats(server.address)
    finally:
        gc.unfreeze()
    server_spans = []
    if spans_path is not None:
        server_spans = read_jsonl(spans_path)
        spans_path.unlink()
    checks = open_loop.check(rungs, seed)
    records = [record for rung in rungs for record in rung["records"]]
    low, high = rungs[0], rungs[1]
    e2e = {
        "lat_ms_p50.low": low["p50_ms"],
        "lat_ms_p99.low": low["tail_ms"],
        "lat_ms_p50.high": high["p50_ms"],
        "lat_ms_p99.high": high["tail_ms"],
        "max_rate_rps": open_loop.max_rate(rungs),
        "server_cpu_us_per_request": open_loop.server_cpu_us_per_request(high),
    }
    raw = {
        "lat_ms_p50.low": low["raw_p50_ms"],
        "lat_ms_p99.low": low["raw_tail_ms"],
        "lat_ms_p50.high": high["raw_p50_ms"],
        "lat_ms_p99.high": high["raw_tail_ms"],
        "server_cpu_us_per_request": open_loop.server_cpu_us_per_request(high, False),
    }
    per_layer = {}
    if traced:
        per_layer = layers.open_loop(
            server_spans, records, stats, sum(rung["wall"] for rung in rungs)
        )
    return {
        "setup": setup,
        "e2e": e2e,
        "raw": raw,
        "tails": {
            "lat_ms_p99.low": (low["tail_q"], low["n"]),
            "lat_ms_p99.high": (high["tail_q"], high["n"]),
        },
        "ladder": [
            {k: rung[k] for k in ("rate", "n", "failed", "p50_ms", "tail_ms",
                                  "tail_q", "late_ms_tail", "growing", "meets")}
            for rung in rungs
        ],
        "attempted": len(records),
        "failed": sum(rung["failed"] for rung in rungs),
        "correct": checks["mismatches"] == 0 and checks["checked"] > 0,
        "checks": f"{checks['checked']} wire responses replayed from "
        f"base_seed/request_id, {checks['mismatches']} mismatches",
        "digest": checks["digest"],
        "spans": server_spans,
        "layers": per_layer,
    }


def phase_grid(seed, experiments, tracer, repeats, check, speed):
    import grid
    import layers

    setup = grid.set_up(repeats) if repeats else []
    first = len(tracer.spans) if tracer else 0
    if tracer is not None:
        layers.trace_grid(tracer)
    try:
        result = grid.run(experiments, seed, tracer)
    finally:
        if tracer is not None:
            tracer.close()
    spans = tracer.spans[first:] if tracer else []
    deterministic = grid.rerun_matches(result, seed) if check else True
    return {
        "setup": setup,
        "e2e": {
            "grid_wall_s": sum(
                wall * speed.factor(start, start + wall)
                for start, wall in result["walls"].values()
            )
        },
        "raw": {"grid_wall_s": sum(wall for _, wall in result["walls"].values())},
        "tails": {},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["failed"] == 0 and deterministic,
        "checks": "re-run of {} {}".format(
            grid.RERUN[0], "matches" if deterministic else "DIFFERS"
        )
        if check
        else "not re-run (companion)",
        "digest": result["digest"],
        "spans": spans,
        "layers": layers.grid(spans) if tracer else {},
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool, out_dir: Path):
    """All three stages, the workload's own first; returns the merged result."""
    import closed_loop
    import grid
    from speed import SpeedProbe
    from spans import Tracer

    main = WORKLOADS[workload]
    repeats = 1 if traced else None  # set-up is timed on the untraced pass
    tracer = Tracer() if traced else None  # one span list for the whole pass
    phases = {}
    order = [main] + [kind for kind in ("closed", "open", "grid") if kind != main]
    with SpeedProbe() as speed:
        for kind in order:
            own = kind == main
            # Each stage starts without the previous stage's garbage, so a
            # collection it left behind is not charged to the next stage.
            gc.collect()
            if kind == "closed":
                phases[kind] = phase_closed(
                    workload if own else COMPANION_VICTIM,
                    seed,
                    seconds if own else COMPANION_CLOSED_S,
                    tracer,
                    repeats or (closed_loop.SETUP_REPEATS if own else 1),
                    speed,
                )
            elif kind == "open":
                ladder = (
                    [(rate, share * seconds) for rate, share in LADDER]
                    if own
                    else COMPANION_LADDER
                )
                phases[kind] = phase_open(
                    seed, ladder, traced, repeats or (3 if own else 1), speed, out_dir
                )
            else:
                phases[kind] = phase_grid(
                    seed,
                    grid.FULL_GRID if own else grid.COMPANION_GRID,
                    tracer,
                    (repeats or grid.SETUP_REPEATS) if own else 0,
                    own,
                    speed,
                )
    setup = phases[main]["setup"]
    e2e = {
        "setup_s": statistics.median(
            seconds * speed.factor(stamp, stamp + seconds) for stamp, seconds in setup
        )
    }
    raw = {"setup_s": statistics.median(seconds for _, seconds in setup)}
    tails = {}
    for phase in phases.values():
        e2e.update(phase["e2e"])
        raw.update(phase["raw"])
        tails.update(phase["tails"])
    attempted = sum(phase["attempted"] for phase in phases.values())
    failed = sum(phase["failed"] for phase in phases.values())
    e2e["fail_ratio"] = failed / max(1, attempted)
    return {
        "phases": phases,
        "e2e": e2e,
        "raw": raw,
        "speed_ms": statistics.median(speed.ms),
        "tails": tails,
        "attempted": attempted,
        "failed": failed,
        "correct": all(phase["correct"] for phase in phases.values()),
        "digest": hashlib.sha256(
            "".join(phases[kind]["digest"] for kind in ("closed", "open", "grid")).encode()
        ).hexdigest(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


#: Time-valued metrics whose traced/untraced ratio is the tracing overhead.
OVERHEAD_OF = ("b1_call_ms_p50", "lat_ms_p50.low", "grid_wall_s")


def tracing_overhead(untraced, traced):
    overhead = {
        f"trace.overhead_pct.{name}": 100.0 * (traced[name] / untraced[name] - 1.0)
        for name in OVERHEAD_OF
    }
    overhead["trace.overhead_pct.b64_rows_per_s"] = 100.0 * (
        untraced["b64_rows_per_s"] / traced["b64_rows_per_s"] - 1.0
    )
    return overhead


# ------------------------------------------------------------------ report


def print_report(workload: str, result, metrics, fingerprint) -> None:
    from speed import REFERENCE_MS

    print(f"perfbench workload={workload} nproc={fingerprint['nproc']} "
          f"blas={fingerprint['blas']['vendor']} "
          f"loadavg={fingerprint['loadavg_start'][0]:.2f}")
    print(f"  reference unit median {result['speed_ms']:.4f} ms "
          f"(scaled values assume {REFERENCE_MS} ms; raw values as timed)")
    print(f"  {'metric':<26} {'scaled':>14} {'unit':<7} {'raw':>14}")
    for name, value in result["e2e"].items():
        note = ""
        if name in result["tails"]:
            q, n = result["tails"][name]
            note = f"  (p{q:.1f} of n={n})"
        raw = result["raw"].get(name)
        raw = f"{raw:>14.4f}" if raw is not None else f"{'':>14}"
        print(f"  {name:<26} {value:>14.4f} {UNITS[name]:<7} {raw}{note}")
    for kind, phase in result["phases"].items():
        print(f"  check[{kind}]: {phase['checks']}; digest {phase['digest'][:16]}")
    if "ladder" in result["phases"]["open"]:
        for rung in result["phases"]["open"]["ladder"]:
            print(
                "  rung {rate:>6.0f}/s n={n:<5} p50={p50_ms:.2f}ms "
                "p{tail_q:.1f}={tail_ms:.2f}ms late_tail={late_ms_tail:.2f}ms "
                "growing={growing} meets={meets}".format(**rung)
            )
    print(f"  output_digest: {result['digest']}")
    print("  model_validation: unvalidated (no hardware reference; no error figure)")
    for name, value in metrics.items():
        if name not in result["e2e"]:
            print(f"  {name:<40} {value:>14.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=str(HERE / "results"),
        help="directory for the run history and trace files",
    )
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads: on a small shared machine
    # multi-threaded OpenBLAS made the unseeded 64-row MLP call ~12x slower
    # and far noisier (METRICS.md, finding 4).
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    _setup_path()
    # Interrupts as in an interactive ``python -m repro.experiments``.  A
    # caller that ignores SIGINT (a shell's background job) would otherwise
    # skip the handler asyncio.run installs on the main thread, and with it
    # the cost finding 1 of METRICS.md describes.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    import layers
    import records
    import speed
    from spans import write_jsonl

    fingerprint = records.fingerprint()
    fingerprint["pinned"] = speed.pin_to_fastest_core()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()

    result = run_workload(args.workload, args.seed, args.seconds, False, out_dir)
    metrics = dict(result["e2e"])
    if args.trace:
        traced = run_workload(args.workload, args.seed, args.seconds, True, out_dir)
        metrics = {}
        for phase in traced["phases"].values():
            metrics.update(phase["layers"])
        metrics.update(tracing_overhead(result["e2e"], traced["e2e"]))
        write_jsonl(
            out_dir / f"trace-{args.workload}-s{args.seed}.jsonl",
            [span for phase in traced["phases"].values() for span in phase["spans"]],
        )
        result["correct"] = result["correct"] and traced["correct"]
    result["e2e"]["peak_rss_mb"] = peak_rss_mb()
    if not args.trace:
        metrics["peak_rss_mb"] = result["e2e"]["peak_rss_mb"]

    print_report(args.workload, result, metrics, fingerprint)
    records.append_history(
        out_dir / "history.jsonl",
        {
            "time": started,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "fingerprint": fingerprint,
            "end_to_end": result["e2e"],
            "end_to_end_raw": result["raw"],
            "reference_unit_ms": result["speed_ms"],
            "tails": result["tails"],
            "per_layer": metrics if args.trace else {},
            "output_digest": result["digest"],
            "phase_digests": {k: p["digest"] for k, p in result["phases"].items()},
            "validation": "unvalidated: no hardware reference",
            "correct": result["correct"],
        },
    )
    if args.trace:
        reported = {name: (metrics[name], layers.unit_of(name)) for name in layers.PER_LAYER}
    else:
        reported = {
            name: (value, UNITS[name])
            for name, value in metrics.items()
            if name not in TABLE_ONLY
        }
    payload = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()
        },
    }
    print(json.dumps(payload))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
