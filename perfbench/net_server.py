"""Server process of the ``netservice-open`` workload.

Serves the paper victim (ideal devices, 5 % instrument noise) through
``serve_in_thread`` on a loopback port, prints ``READY <host> <port>`` on
stdout, and runs until a line arrives on stdin or stdin closes.  With
``--spans PATH`` it traces the service layers of this process —
``QueryService.submit_traced`` (request), ``OracleBackend.run`` (tick) and
``encode_frame`` (wire) — and writes the spans there as JSONL on exit.

Run by ``open_loop.py``; by hand::

    python3 perfbench/net_server.py --seed 1
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: The coalescing policy the workload serves with.
MAX_BATCH = 64
MAX_WAIT_MS = 1.0


def _trace_service(tracer) -> None:
    from repro.netservice import protocol
    from repro.service.coalescer import OracleBackend, QueryService

    tracer.wrap_method(OracleBackend, "run", "service.tick")
    tracer.wrap_function(protocol.encode_frame, "netservice.encode")

    original = QueryService.__dict__["submit_traced"]

    @functools.wraps(original)
    async def submit_traced(self, inputs, *, on_dispatch=None, tenant=None):
        with tracer.span("service.request", tenant=tenant, rows=len(inputs)) as span:

            def dispatched(tick_id):
                span["tick"] = tick_id
                if on_dispatch is not None:
                    on_dispatch(tick_id)

            request_id, result = await original(
                self, inputs, on_dispatch=dispatched, tenant=tenant
            )
            span["request_id"] = request_id
            return request_id, result

    tracer.patch(QueryService, "submit_traced", submit_traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))

    from repro.netservice import NetServiceConfig, serve_in_thread
    from repro.service import ServiceConfig

    import victims
    from spans import Tracer, write_jsonl

    tracer = None
    if args.spans:
        tracer = Tracer()
        _trace_service(tracer)
    config = NetServiceConfig(
        service=ServiceConfig(
            max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS, base_seed=args.seed
        )
    )
    handle = serve_in_thread(victims.paper_served_oracle(args.seed), config)
    # Keep the start-up heap (numpy, the simulator, the victim) out of every
    # later full collection, as long-running Python servers do.  Without
    # it a 50-60 ms collection lands in a rung at random and moves its p99
    # several-fold (METRICS.md, finding 8).
    gc.collect()
    gc.freeze()
    try:
        host, port = handle.address
        print(f"READY {host} {port}", flush=True)
        sys.stdin.readline()
    finally:
        handle.close()
        if tracer is not None:
            tracer.close()
            write_jsonl(args.spans, tracer.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
