"""The first-class :class:`Executor` API for experiment job grids.

Every experiment expands into an ordered list of frozen, seeded
:class:`~repro.experiments.base.Job` values; an :class:`Executor` is *how*
that list turns into the ordered list of
:class:`~repro.utils.results.RunResult`.  The correctness contract shared by
every implementation:

* **Order** — results come back in job order, regardless of completion order.
* **Bit-identity** — because every job is seeded up front and executed by the
  same picklable ``run_job`` callable, any executor produces results
  bit-identical to :class:`SerialExecutor`.
* **Hooks** — ``on_progress`` receives :class:`ExecutorEvent` notifications
  and ``cancel`` (a :class:`CancelToken`) aborts between units of work with
  :class:`~repro.executor.errors.ExecutionCancelled`.

Three implementations ship:

* :class:`SerialExecutor` — in-process loop (the debugging reference).
* :class:`PoolExecutor` — wraps
  :class:`~repro.experiments.runner.ParallelRunner` (one host's
  process/thread pool), bit-identical to the serial path.
* :class:`~repro.executor.queue.QueueExecutor` — a TCP work-queue
  coordinator leasing job chunks to local or remote worker processes, with
  retries, heartbeat-based lease recovery and a resumable JSONL journal.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.executor.errors import ExecutionCancelled

#: Signature of the ``on_progress`` hook.
ProgressHook = Callable[["ExecutorEvent"], None]


@dataclass(frozen=True)
class ExecutorEvent:
    """One progress notification from a running executor.

    Attributes
    ----------
    kind:
        ``"start"``, ``"job"``, ``"chunk"``, ``"requeue"``, ``"resume"`` or
        ``"done"``.
    completed / total:
        Units of work finished so far / in the whole grid.  ``job`` events
        count jobs; ``chunk``/``requeue``/``resume`` events count chunks.
    detail:
        Human-readable context (job label, chunk key, worker id, ...).
    """

    kind: str
    completed: int
    total: int
    detail: str = ""


class CancelToken:
    """Thread-safe cooperative cancellation flag.

    Executors poll :meth:`is_set` between units of work and raise
    :class:`~repro.executor.errors.ExecutionCancelled`; they never interrupt
    a job mid-flight (jobs are short and side-effect free).
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent)."""
        self._event.set()

    def is_set(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._event.is_set()

    def raise_if_cancelled(self, context: str = "") -> None:
        """Raise :class:`ExecutionCancelled` when the flag is set."""
        if self.is_set():
            suffix = f" ({context})" if context else ""
            raise ExecutionCancelled(f"execution cancelled{suffix}")


def emit(hook: Optional[ProgressHook], event: ExecutorEvent) -> None:
    """Deliver one event to an optional progress hook (None = no-op)."""
    if hook is not None:
        hook(event)


class Executor(ABC):
    """Protocol every execution backend implements.

    ``submit_jobs`` is the single entry point: it receives the full ordered
    job grid and returns the ordered results.  ``run_job`` is the
    experiment's picklable per-job callable; ``None`` resolves each job's
    experiment by name through the registry (sufficient for every built-in
    experiment, and for any registered experiment on the local process).
    """

    #: Short identifier used by CLIs and result metadata.
    name: str = ""

    @abstractmethod
    def submit_jobs(
        self,
        jobs: Sequence,
        *,
        run_job: Optional[Callable] = None,
        on_progress: Optional[ProgressHook] = None,
        cancel: Optional[CancelToken] = None,
    ) -> List:
        """Execute every job and return the results in job order."""


def _job_runner(run_job: Optional[Callable]) -> Callable:
    """The per-job callable an executor actually invokes.

    Wraps the experiment's ``run_job`` with the metadata annotation, or
    falls back to the registry-resolving trampoline.
    """
    from repro.experiments.base import _execute_job, _run_annotated

    if run_job is None:
        return _execute_job
    return lambda job: _run_annotated(run_job, job)


class SerialExecutor(Executor):
    """In-process, single-threaded execution — the bit-identity reference."""

    name = "serial"

    def submit_jobs(self, jobs, *, run_job=None, on_progress=None, cancel=None):
        call = _job_runner(run_job)
        total = len(jobs)
        emit(on_progress, ExecutorEvent("start", 0, total))
        results = []
        for index, job in enumerate(jobs):
            if cancel is not None:
                cancel.raise_if_cancelled(f"after {index}/{total} jobs")
            results.append(call(job))
            emit(
                on_progress,
                ExecutorEvent("job", index + 1, total, detail=getattr(job, "label", "")),
            )
        emit(on_progress, ExecutorEvent("done", total, total))
        return results


class PoolExecutor(Executor):
    """One host's worker pool: a thin adapter over :class:`ParallelRunner`.

    Submits the grid as one chunked ``runner.map`` call over
    ``(run_job, job)`` payload tuples, so results are bit-identical to the
    serial path.  Pass ``mode``/``max_workers`` to build the runner, or an
    existing ``runner`` to reuse its configuration.  Per-job progress is not
    available from a pool ``map``; hooks receive ``start`` and ``done``
    events only.
    """

    name = "pool"

    def __init__(self, runner=None, *, mode: str = "process", max_workers=None):
        from repro.experiments.runner import ParallelRunner

        if runner is None:
            runner = ParallelRunner(mode=mode, max_workers=max_workers)
        self.runner = runner

    def submit_jobs(self, jobs, *, run_job=None, on_progress=None, cancel=None):
        from repro.experiments.base import _execute_job, _run_annotated

        if cancel is not None:
            cancel.raise_if_cancelled("before pool submission")
        total = len(jobs)
        emit(on_progress, ExecutorEvent("start", 0, total))
        if run_job is None:
            results = self.runner.map(_execute_job, [(job,) for job in jobs])
        else:
            results = self.runner.map(_run_annotated, [(run_job, job) for job in jobs])
        emit(on_progress, ExecutorEvent("done", total, total))
        return results


#: Spellings accepted by :func:`resolve_executor` (CLI ``--executor`` values).
EXECUTOR_NAMES = ("serial", "process", "thread", "pool", "queue")


def resolve_executor(spec, **kwargs) -> Executor:
    """Build an :class:`Executor` from a name, instance, or ``None``.

    ``None``/``"serial"`` give the serial reference; ``"process"`` /
    ``"thread"`` / ``"pool"`` a :class:`PoolExecutor` of that mode; and
    ``"queue"`` a :class:`~repro.executor.queue.QueueExecutor`.  ``kwargs``
    are forwarded to the constructed executor; instances pass through
    (``kwargs`` then must be empty).
    """
    if isinstance(spec, Executor):
        if kwargs:
            raise ValueError(
                f"cannot apply options {sorted(kwargs)} to an existing "
                f"{type(spec).__name__} instance"
            )
        return spec
    key = "serial" if spec is None else str(spec).lower()
    if key == "serial":
        return SerialExecutor(**kwargs)
    if key in ("process", "thread"):
        return PoolExecutor(mode=key, **kwargs)
    if key == "pool":
        return PoolExecutor(**kwargs)
    if key == "queue":
        from repro.executor.queue import QueueExecutor

        return QueueExecutor(**kwargs)
    raise ValueError(f"unknown executor {spec!r}; available: {EXECUTOR_NAMES}")

