"""Closed-loop ``Oracle.query`` workload: one caller, interleaved call classes.

One cycle sends :data:`B1_PER_CYCLE` seeded one-row calls, one seeded
64-row call and one unseeded 64-row call, each only after the previous one
returned.  Seeds come from ``derive_request_seeds(seed, call_index, rows)``,
as the query service derives them, so every seeded response can be replayed.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from contextlib import nullcontext
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.utils import rng as rng_layer

import percentiles

B1_PER_CYCLE = 8
BATCH = 64
#: Seeded 64-row calls whose rows are re-queried alone after the loop.
CHECK_EVERY = 8
#: The first cycles' seeded responses make the output digest, so the digest
#: does not depend on how many calls fit in the run.
DIGEST_CYCLES = 4
SETUP_REPEATS = 7


def make_inputs(seed: int, n_inputs: int):
    rng = np.random.default_rng([seed, 0xC105ED])
    singles = rng.uniform(0.0, 1.0, size=(256, 1, n_inputs))
    batches = rng.uniform(0.0, 1.0, size=(16, BATCH, n_inputs))
    return singles, batches


def set_up(factory: Callable[[int], object], seed: int, repeats: int):
    """Build the victim ``repeats`` times; returns ``(oracle, [(stamp, seconds)])``.

    One set-up is the victim build plus its first seeded and unseeded
    calls, so lazily built state is paid here and not in the loop.
    """
    times = []
    oracle = None
    for _ in range(repeats):
        start = time.perf_counter()
        oracle = factory(seed)
        zeros = np.zeros((1, oracle.target.n_inputs))
        oracle.query(zeros, seeds=rng_layer.derive_request_seeds(seed, 2**40, 1))
        oracle.query(zeros)
        times.append((start, time.perf_counter() - start))
    return oracle, times


def _array_counters(oracle):
    arrays = oracle.target.physical_arrays
    return (
        sum(array.n_operations for array in arrays),
        sum(array.n_realizations for array in arrays),
    )


#: Half-width (s) of the window whose speed samples scale a call's time.
SPEED_WINDOW_S = 0.5


def run(oracle, seed: int, seconds: float, tracer=None) -> Dict[str, object]:
    """Drive the closed loop for ``seconds``; returns samples, checks and counts.

    Call samples are ``(start stamp, seconds)`` pairs.

    With a ``tracer`` every call is tagged ``"<class>:<index>"`` and the
    per-class array counters are accumulated for the per-layer report.
    """
    singles, batches = make_inputs(seed, oracle.target.n_inputs)
    samples: Dict[str, List[Tuple[float, float]]] = {"b1": [], "b64": [], "b64u": []}
    counters = {kind: [0, 0, 0] for kind in samples}  # calls, ops, realizations
    checks = []  # (inputs, seeds, outputs, power) replayed after the loop
    digest = hashlib.sha256()
    attempted = failed = nonfinite = 0
    call_index = 0
    cycle = 0

    def call(kind, inputs, seeded):
        nonlocal attempted, failed, call_index
        tag = f"{kind}:{call_index}"  # a str keeps span dicts out of the GC
        seeds = None
        if tracer is not None:
            before = _array_counters(oracle)
        start = time.perf_counter()
        try:
            with tracer.call(tag) if tracer is not None else nullcontext():
                # The seed derivation is part of a seeded call: the query
                # service pays it per request.  The module attribute is read
                # at call time so a traced run sees it as the rng layer.
                if seeded:
                    seeds = rng_layer.derive_request_seeds(seed, call_index, len(inputs))
                response = oracle.query(inputs, seeds=seeds)
        except Exception:  # counted and reported; the loop keeps measuring
            traceback.print_exc()
            failed += 1
            return None, seeds
        finally:
            call_index += 1
            attempted += 1
        samples[kind].append((start, time.perf_counter() - start))
        if tracer is not None:
            after = _array_counters(oracle)
            counters[kind][0] += 1
            counters[kind][1] += after[0] - before[0]
            counters[kind][2] += after[1] - before[1]
        return response, seeds

    deadline = time.perf_counter() + seconds
    while cycle == 0 or time.perf_counter() < deadline:
        for j in range(B1_PER_CYCLE):
            inputs = singles[(cycle * B1_PER_CYCLE + j) % len(singles)]
            response, seeds = call("b1", inputs, True)
            if response is not None and cycle < DIGEST_CYCLES:
                digest.update(response.outputs.tobytes() + response.power.tobytes())
            if response is not None and j == 0 and cycle % CHECK_EVERY == 0:
                checks.append((inputs, seeds, response.outputs, response.power))
        inputs = batches[cycle % len(batches)]
        response, seeds = call("b64", inputs, True)
        if response is not None:
            if cycle < DIGEST_CYCLES:
                digest.update(response.outputs.tobytes() + response.power.tobytes())
            if cycle % CHECK_EVERY == 0:
                row = (cycle // CHECK_EVERY) % BATCH
                checks.append(
                    (
                        inputs[row : row + 1],
                        seeds[row : row + 1],
                        response.outputs[row : row + 1],
                        response.power[row : row + 1],
                    )
                )
        response, _ = call("b64u", batches[(cycle + 1) % len(batches)], False)
        if response is not None and not (
            np.all(np.isfinite(response.outputs)) and np.all(np.isfinite(response.power))
        ):
            nonfinite += 1
        cycle += 1

    mismatches = nonfinite
    for inputs, seeds, outputs, power in checks:
        solo = oracle.query(inputs, seeds=seeds)
        if not (
            np.array_equal(solo.outputs, outputs) and np.array_equal(solo.power, power)
        ):
            mismatches += 1
    return {
        "samples": samples,
        "counters": counters,
        "attempted": attempted,
        "failed": failed,
        "checked": len(checks),
        "mismatches": mismatches,
        "digest": digest.hexdigest(),
    }


def end_to_end(result: Dict[str, object], speed=None) -> Dict[str, float]:
    """The closed-loop end-to-end metrics (times in ms, rates in rows/s).

    With ``speed`` every call time is scaled to the reference speed;
    without it the raw times are used.
    """

    def ms(kind):
        stamped = [(t, 1e3 * dt) for t, dt in result["samples"][kind]]
        if speed is None:
            return [value for _, value in stamped]
        return speed.scale(stamped, SPEED_WINDOW_S)

    b1 = percentiles.summarize(ms("b1"))
    b64 = percentiles.summarize(ms("b64"))
    b64u = percentiles.median(ms("b64u")) / 1e3
    return {
        "b1_call_ms_p50": b1["p50"],
        "b1_call_ms_p99": b1["tail"],
        "b64_rows_per_s": BATCH / (b64["p50"] / 1e3),
        "b64_call_ms_p99": b64["tail"],
        "b64_rows_per_s.unseeded": BATCH / b64u,
        "_tails": {
            "b1_call_ms_p99": (b1["tail_q"], b1["n"]),
            "b64_call_ms_p99": (b64["tail_q"], b64["n"]),
        },
    }

