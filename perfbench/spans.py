"""In-memory span recorder that wraps the program's public entry points.

The benchmark measures the program from outside: :class:`Tracer` replaces
a public function or method with a wrapper that records one span per call
(name, start, end, parent span, call id) and restores the original on
:meth:`Tracer.close`.  Nothing in the program changes; the spans live in a
list and are written as JSONL when the run ends.

Parents come from a :mod:`contextvars` variable, so spans nest correctly in
threads and asyncio tasks alike.  ``id`` and ``parent`` are indices into one
tracer's list, unique per process (``pid``).  ``call`` is the benchmark's own id of the
operation a span belongs to (a closed-loop call index or a request id), set
with :meth:`Tracer.call`.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Sequence

_parent: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_call: contextvars.ContextVar = contextvars.ContextVar("perfbench_call", default=None)


class Tracer:
    """Records spans around wrapped callables until :meth:`close`."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------- recording

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "id": index,
                "name": name,
                "start": time.perf_counter_ns(),
                "end": None,
                "parent": _parent.get(),
                "call": _call.get(),
                "pid": os.getpid(),
            }
        )
        return index

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span around a block of the benchmark's own code."""
        index = self._open(name)
        token = _parent.set(index)
        try:
            yield self.spans[index]
        finally:
            _parent.reset(token)
            self.spans[index]["end"] = time.perf_counter_ns()
            self.spans[index].update(attrs)

    @staticmethod
    @contextmanager
    def call(call_id):
        """Tag every span opened inside the block with ``call_id``."""
        token = _call.set(call_id)
        try:
            yield
        finally:
            _call.reset(token)

    def _wrapper(self, name: str, original: Callable) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def traced_async(*args, **kwargs):
                with tracer.span(name):
                    return await original(*args, **kwargs)

            return traced_async

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        return traced

    # -------------------------------------------------------------- patching

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr = value`` until :meth:`close` restores it."""
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, original))

    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        """Trace ``cls.attr`` (defined on ``cls`` itself) as span ``name``."""
        self.patch(cls, attr, self._wrapper(name, cls.__dict__[attr]))

    def wrap_function(self, original: Callable, name: str) -> int:
        """Trace ``original`` in every ``repro`` module that binds it.

        Modules that ran ``from x import f`` hold their own reference, so
        the wrapper replaces each binding, not only the defining module's.
        Returns the number of bindings replaced.
        """
        wrapper = self._wrapper(name, original)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, wrapper)
                    replaced += 1
        return replaced

    def close(self) -> None:
        """Restore every wrapped callable (idempotent); the spans stay."""
        while self._restore:
            self._restore.pop()()

    # --------------------------------------------------------------- queries


def write_jsonl(path, spans: Sequence[Dict[str, Any]]) -> None:
    """Write spans as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, default=str) + "\n")


def read_jsonl(path) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
