"""Shared experiment plumbing: dataset/model preparation and the worker pool.

Experiment job grids are embarrassingly parallel — every job carries an
independent, deterministically derived seed — so :class:`ParallelRunner` can
execute them on a :mod:`concurrent.futures` worker pool (processes by
default) without changing any result: the seeds, the per-job RNG streams and
the order results are assembled in are identical to the serial path.
Experiments reach it through :class:`~repro.executor.PoolExecutor`
(``experiment.run(..., executor=PoolExecutor(mode="process"))``).
"""

from __future__ import annotations

import math
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.datasets import Dataset, load_dataset
from repro.experiments.config import ExperimentScale
from repro.nn.network import SingleLayerNetwork
from repro.nn.trainer import train_single_layer


@dataclass
class TrainedModel:
    """A victim model together with its dataset and training diagnostics."""

    network: SingleLayerNetwork
    dataset: Dataset
    output: str
    test_accuracy: float
    train_accuracy: float

    @property
    def n_features(self) -> int:
        """Input dimensionality."""
        return self.dataset.n_features


def prepare_dataset(
    name: str,
    scale: ExperimentScale,
    *,
    random_state: int = 0,
) -> Dataset:
    """Generate one dataset at the requested scale."""
    return load_dataset(
        name, n_train=scale.n_train, n_test=scale.n_test, random_state=random_state
    )


def prepare_model(
    dataset: Dataset,
    output: str,
    scale: ExperimentScale,
    *,
    random_state: int = 0,
) -> TrainedModel:
    """Train the paper's single-layer victim model on a dataset."""
    network, trainer = train_single_layer(
        dataset,
        output=output,
        epochs=scale.train_epochs,
        random_state=random_state,
    )
    _, test_accuracy = trainer.evaluate(dataset.test_inputs, dataset.test_targets)
    _, train_accuracy = trainer.evaluate(dataset.train_inputs, dataset.train_targets)
    return TrainedModel(
        network=network,
        dataset=dataset,
        output=output,
        test_accuracy=test_accuracy,
        train_accuracy=train_accuracy,
    )


def _call_star(payload: Tuple[Callable, tuple]):
    """Top-level helper so worker invocations survive process-pool pickling."""
    fn, args = payload
    return fn(*args)


class ParallelRunner:
    """Executes independent seed-runs on a :mod:`concurrent.futures` pool.

    Parameters
    ----------
    mode:
        ``"process"`` (default) uses a :class:`ProcessPoolExecutor`,
        ``"thread"`` a :class:`ThreadPoolExecutor`, and ``"serial"`` opts out
        of parallelism entirely (useful for debugging and for callables that
        cannot be pickled).
    max_workers:
        Worker-pool size; ``None`` uses the executor default (CPU count).

    Determinism: the runner only distributes calls whose seeds were derived
    up front, and collects results in submission order, so a parallel sweep
    is bit-identical to its serial counterpart.  Process mode falls back to
    serial execution (with a warning) when the callable or a representative
    (first) argument tuple cannot be pickled — e.g. closures over local
    state.  The probe is O(1) in the sweep size, so a heterogeneous
    ``args_list`` whose *later* entries are unpicklable is the caller's
    responsibility and surfaces as an error from the pool.

    Scheduling: process mode submits jobs in **chunks** — one contiguous
    block per worker — instead of one pickled round-trip per job.  Sweep
    jobs are short (tens of milliseconds) and numerous, so per-job IPC
    dominated the pool's wall clock (measured ~1.5x *slower* than serial for
    51 short jobs on a small machine); chunking amortises the pickling and
    queue traffic over ``len(jobs) / n_workers`` calls while preserving
    result order.  The pool is also never wider than the job list.
    """

    VALID_MODES = ("process", "thread", "serial")

    def __init__(self, *, mode: str = "process", max_workers: Optional[int] = None):
        mode = str(mode).lower()
        if mode not in self.VALID_MODES:
            raise ValueError(f"mode must be one of {self.VALID_MODES}, got {mode!r}")
        self.mode = mode
        self.max_workers = max_workers

    # ------------------------------------------------------------------ api

    def map(self, fn: Callable, args_list: Sequence[tuple]) -> List:
        """Apply ``fn(*args)`` to every argument tuple, preserving order."""
        args_list = [tuple(args) for args in args_list]
        mode = self.mode
        if mode == "process" and not self._picklable(fn, args_list):
            warnings.warn(
                "ParallelRunner: callable or arguments are not picklable; "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            mode = "serial"
        if mode == "serial" or len(args_list) <= 1:
            return [fn(*args) for args in args_list]
        executor_cls = (
            ProcessPoolExecutor if mode == "process" else ThreadPoolExecutor
        )
        workers = self.resolve_workers(len(args_list))
        payloads = [(fn, args) for args in args_list]
        map_kwargs = {}
        if mode == "process":
            map_kwargs["chunksize"] = self.chunksize(len(args_list))
        with executor_cls(max_workers=workers) as executor:
            return list(executor.map(_call_star, payloads, **map_kwargs))

    def resolve_workers(self, n_jobs: int) -> int:
        """The actual pool width for ``n_jobs`` (never wider than the jobs)."""
        workers = self.max_workers or os.cpu_count() or 1
        return max(1, min(workers, n_jobs))

    def chunksize(self, n_jobs: int) -> int:
        """Process-mode chunk size: one contiguous block per worker."""
        return max(1, math.ceil(n_jobs / self.resolve_workers(n_jobs)))

    @staticmethod
    def _picklable(fn: Callable, args_list: Sequence[tuple]) -> bool:
        """Probe process-pool compatibility cheaply.

        Only ``fn`` and a single representative argument tuple are pickled —
        serialising the whole ``args_list`` would cost O(total payload) per
        sweep just to answer a yes/no question, and every job of a sweep
        shares the same callable and argument types.
        """
        sample = args_list[0] if args_list else ()
        try:
            pickle.dumps((fn, sample))
        except Exception:
            return False
        return True

