"""Experiment-grid workload: registered experiments at smoke scale, serial, main thread.

``run_experiments`` runs on the calling (main) thread, as
``python -m repro.experiments`` does.  That matters: ``asyncio.run`` does
extra work on the main thread when it restores the SIGINT handler, and a
worker-thread harness would hide it.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.registry import run_experiments

#: (experiment, scenarios) pairs of the full grid, in run order.
FULL_GRID: Tuple[Tuple[str, Optional[Tuple[str, ...]]], ...] = (
    ("table1", None),
    ("figure5", None),
    ("service-attack", None),
    ("cross-tenant-attack", ("tenant-shared",)),
)
#: The grid other workloads run so every run reports ``grid_wall_s``.
COMPANION_GRID = FULL_GRID[:1]
#: The experiment re-run to check that results are deterministic.
RERUN = FULL_GRID[0]
SCALE = "smoke"
SETUP_REPEATS = 3

_SRC = Path(__file__).resolve().parent.parent / "src"
_IMPORT_REGISTRY = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from repro.experiments.registry import list_experiments; list_experiments()"
)


def set_up(repeats: int) -> List[Tuple[float, float]]:
    """Time a fresh interpreter importing the experiment registry.

    This is what ``python -m repro.experiments`` pays before its first job.
    Returns ``(stamp, seconds)`` pairs.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _IMPORT_REGISTRY, str(_SRC)], check=True, timeout=120
        )
        times.append((start, time.perf_counter() - start))
    return times


def result_digest(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def _run_one(name, scenarios, seed: int, tracer=None):
    span = tracer.span("experiments", experiment=name) if tracer else nullcontext()
    with span:
        start = time.perf_counter()
        results = run_experiments(
            [name], SCALE, executor="serial", scenarios=scenarios, base_seed=seed
        )
        return results[name], time.perf_counter() - start


def run(
    grid: Sequence[Tuple[str, Optional[Tuple[str, ...]]]], seed: int, tracer=None
) -> Dict[str, object]:
    """Run ``grid`` once, each experiment in its own ``run_experiments`` call.

    ``walls`` maps each experiment to its ``(start stamp, seconds)``.
    """
    walls: Dict[str, Tuple[float, float]] = {}
    digests: Dict[str, str] = {}
    attempted = failed = 0
    for name, scenarios in grid:
        attempted += 1
        start = time.perf_counter()
        try:
            result, wall = _run_one(name, scenarios, seed, tracer)
        except Exception as exc:  # a failed experiment is reported, not fatal
            print(f"experiment {name} failed: {exc!r}", file=sys.stderr)
            failed += 1
            continue
        walls[name] = (start, wall)
        digests[name] = result_digest(result)
    digest = hashlib.sha256(
        json.dumps(digests, sort_keys=True).encode()
    ).hexdigest()
    return {
        "walls": walls,
        "digests": digests,
        "digest": digest,
        "attempted": attempted,
        "failed": failed,
    }



def rerun_matches(result: Dict[str, object], seed: int) -> bool:
    """Re-run :data:`RERUN`; its result must be identical to the grid's."""
    name, scenarios = RERUN
    again, _ = _run_one(name, scenarios, seed)
    return result_digest(again) == result["digests"].get(name)
