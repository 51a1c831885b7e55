"""Open-loop ``netservice`` workload: Poisson arrivals at a fixed ladder of rates.

The server (``net_server.py``) runs in its own process.  The generator is
one asyncio task over :data:`N_CONNECTIONS` pipelined connections: each
request frame carries a ``cid`` and the per-connection reader matches
responses to it, so requests are sent on schedule whatever the server is
doing.  Tenant ``victim`` sends one-row requests; every
:data:`PROBER_EVERY`-th request is a :data:`PROBER_ROWS`-row batch from
tenant ``prober``.  Latency runs from the time a request was *due*.
"""

from __future__ import annotations

import asyncio
import hashlib
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netservice import NetClient
from repro.netservice.protocol import encode_frame, read_frame
from repro.utils.rng import derive_request_seeds

import percentiles
import victims

HERE = Path(__file__).resolve().parent
N_CONNECTIONS = 2
PROBER_EVERY = 16
PROBER_ROWS = 32
#: p99 latency limit of a rung, in seconds.
LIMIT_S = 0.020
#: Requests whose wire response is replayed against a direct query, per rung.
CHECKS_PER_RUNG = 8
#: Fixed replays hashed into the output digest.
DIGEST_REQUESTS = 16
#: Seconds a rung waits for its last responses before counting them failed.
DRAIN_TIMEOUT_S = 10.0
#: Retryable error codes the generator resends once (same idempotency key).
RETRYABLE = frozenset({"service-closed"})


class Server:
    """The server process, stopped by :meth:`close` (or ``with``)."""

    def __init__(self, seed: int, spans_path: Optional[Path] = None):
        command = [sys.executable, str(HERE / "net_server.py"), "--seed", str(seed)]
        if spans_path is not None:
            command += ["--spans", str(spans_path)]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline().split()
        if len(line) != 3 or line[0] != "READY":
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self.address = (line[1], int(line[2]))

    def close(self) -> None:
        process = self.process
        if process.poll() is None:
            try:
                process.stdin.write("stop\n")
                process.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_server(seed: int, spans_path: Optional[Path] = None):
    """Start a server and wait for its first ping; returns ``(server, (stamp, seconds))``."""
    start = time.perf_counter()
    server = Server(seed, spans_path)
    try:
        with NetClient(server.address, tenant="setup") as client:
            client.ping()
    except Exception:
        server.close()
        raise
    return server, (start, time.perf_counter() - start)


def process_cpu_s(pid: int) -> float:
    """CPU seconds used so far by every thread of process ``pid`` (Linux)."""
    return sum(
        int(path.read_text().split()[0])
        for path in Path(f"/proc/{pid}/task").glob("*/schedstat")
    ) / 1e9


def server_stats(address) -> Dict[str, object]:
    with NetClient(address, tenant="setup") as client:
        return client.stats()


class _Connection:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, asyncio.Future] = {}
        self.task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        try:
            while True:
                header, arrays = await read_frame(self.reader)
                future = self.pending.pop(header.get("cid"), None)
                if future is not None and not future.done():
                    future.set_result((header, arrays, time.perf_counter()))
        except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
            for future in self.pending.values():
                if not future.done():
                    future.set_exception(ConnectionError(f"connection lost: {exc}"))
            self.pending.clear()

    def send(self, cid: int, header: dict, arrays: dict) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.pending[cid] = future
        self.writer.write(encode_frame(dict(header, cid=cid), arrays))
        return future

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass


def schedule(rate: float, seconds: float, rng: np.random.Generator) -> List[float]:
    """Poisson arrival offsets (seconds) at ``rate`` per second within ``seconds``."""
    offsets = []
    t = rng.exponential(1.0 / rate)
    while t < seconds:
        offsets.append(t)
        t += rng.exponential(1.0 / rate)
    return offsets


async def _run_rung(conns, offsets, inputs_for, rung: int) -> List[dict]:
    """Send every request on schedule; returns per-request records."""
    records = []
    tasks = []
    start = time.perf_counter() + 0.005

    async def settle(record, conn, future, cid, header, arrays):
        for attempt in range(2):
            try:
                reply = await asyncio.wait_for(future, DRAIN_TIMEOUT_S)
            except (asyncio.TimeoutError, ConnectionError) as exc:
                record["error"] = type(exc).__name__
                return
            header_in, arrays_in, received = reply
            if header_in.get("status") == "ok":
                record.update(done=received, header=header_in, arrays=arrays_in)
                return
            record["error"] = header_in.get("code", "error")
            if attempt == 0 and header_in.get("code") in RETRYABLE:
                record["retries"] = 1
                cid = -cid - 1  # a fresh cid, the same idempotency key
                future = conn.send(cid, header, arrays)
                continue
            return

    loop = asyncio.get_running_loop()
    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tenant, inputs = inputs_for(index)
        conn = conns[index % len(conns)]
        header = {"type": "query", "tenant": tenant, "key": f"r{rung}-{index}"}
        arrays = {"inputs": inputs}
        future = conn.send(index, header, arrays)
        record = {"due": due, "sent": time.perf_counter(), "tenant": tenant,
                  "rows": len(inputs), "inputs": inputs}
        records.append(record)
        tasks.append(
            loop.create_task(settle(record, conn, future, index, header, arrays))
        )
        if conn.writer.transport.get_write_buffer_size() > 1 << 20:
            await conn.writer.drain()
    await asyncio.gather(*tasks)
    return records


async def _drive(address, server_pid, ladder, seed: int, speed):
    rng = np.random.default_rng([seed, 0x0BE7])
    singles = rng.uniform(0.0, 1.0, size=(512, 1, victims.N_INPUTS))
    batches = rng.uniform(0.0, 1.0, size=(16, PROBER_ROWS, victims.N_INPUTS))

    def inputs_for(index):
        if index % PROBER_EVERY == PROBER_EVERY - 1:
            return "prober", batches[(index // PROBER_EVERY) % len(batches)]
        return "victim", singles[index % len(singles)]

    conns = []
    try:
        for _ in range(N_CONNECTIONS):
            reader, writer = await asyncio.open_connection(*address)
            conns.append(_Connection(reader, writer))
        rungs = []
        for index, (rate, seconds) in enumerate(ladder):
            offsets = schedule(rate, seconds, rng)
            cpu = process_cpu_s(server_pid)
            start = time.perf_counter()
            records = await _run_rung(conns, offsets, inputs_for, index)
            end = time.perf_counter()
            rung = summarize_rung(rate, records, end - start, speed)
            rung["server_cpu_s"] = process_cpu_s(server_pid) - cpu
            rung["server_cpu_factor"] = speed.factor(start, end)
            rungs.append(rung)
            if index >= 1 and not rung["meets"]:
                break  # rungs above a failed one cannot raise the max rate
        return rungs
    finally:
        for conn in conns:
            await conn.close()


def run(server: Server, seed: int, ladder: Sequence[Tuple[float, float]], speed):
    """Run ``(rate, seconds)`` rungs in order against a started server.

    The first two rungs ("low" and "high") always run; after them the
    ladder stops at the first rung that misses the limit.  Latencies are
    scaled by the ``speed`` probe around each request.
    """
    return asyncio.run(
        _drive(server.address, server.process.pid, ladder, seed, speed)
    )


#: Half-width (s) of the window whose speed samples scale a request's latency.
SPEED_WINDOW_S = 0.25


def summarize_rung(rate: float, records: List[dict], wall: float, speed) -> Dict[str, object]:
    """Latency, lateness and the limit verdict of one rung.

    The verdict applies the limit to the raw latencies.  The reported
    median and tail scale each latency by the machine speed around its
    request; the raw ones are kept alongside.
    """
    ok = [r for r in records if "done" in r]
    n_failed = len(records) - len(ok)
    raw = percentiles.due_latencies([r["due"] for r in ok], [r["done"] for r in ok])
    latencies = speed.scale(
        [(r["due"], value) for r, value in zip(ok, raw)], SPEED_WINDOW_S
    )
    late = percentiles.lateness([r["due"] for r in records], [r["sent"] for r in records])
    within, _ = percentiles.meets_limit(raw, n_failed, LIMIT_S)
    growing = percentiles.backlog_growing([r["due"] for r in ok], raw, LIMIT_S)
    summary = percentiles.summarize([1e3 * t for t in latencies] or [float("inf")])
    raw_summary = percentiles.summarize([1e3 * t for t in raw] or [float("inf")])
    return {
        "rate": rate,
        "records": records,
        "wall": wall,
        "n": len(records),
        "failed": n_failed,
        "p50_ms": summary["p50"],
        "tail_ms": summary["tail"],
        "raw_p50_ms": raw_summary["p50"],
        "raw_tail_ms": raw_summary["tail"],
        "tail_q": summary["tail_q"],
        "late_ms_tail": 1e3 * percentiles.tail_percentile(late or [0.0])[0],
        "growing": growing,
        "meets": within and not growing,
    }


def check(rungs, seed: int) -> Dict[str, object]:
    """Replay sampled wire responses against a direct seeded query.

    Also hashes a fixed set of direct replays into the output digest:
    request ids follow arrival order at the server, which varies between
    runs, so the received responses themselves cannot make a stable digest.
    """
    direct = victims.paper_served_oracle(seed)
    mismatches = checked = 0
    for rung in rungs:
        ok = [r for r in rung["records"] if "done" in r]
        step = max(1, len(ok) // CHECKS_PER_RUNG)
        for record in ok[::step][:CHECKS_PER_RUNG]:
            header, arrays = record["header"], record["arrays"]
            seeds = derive_request_seeds(
                header["base_seed"], header["request_id"], record["rows"]
            )
            reference = direct.query(record["inputs"], seeds=seeds)
            checked += 1
            if not (
                np.array_equal(arrays["outputs"], reference.outputs)
                and np.array_equal(arrays["power"], reference.power)
            ):
                mismatches += 1
    digest = hashlib.sha256()
    first = rungs[0]["records"]
    for request_id in range(DIGEST_REQUESTS):
        rows = first[request_id % len(first)]["inputs"]
        reference = direct.query(
            rows, seeds=derive_request_seeds(seed, request_id, len(rows))
        )
        digest.update(reference.outputs.tobytes() + reference.power.tobytes())
    return {"checked": checked, "mismatches": mismatches, "digest": digest.hexdigest()}


def server_cpu_us_per_request(rung, scaled: bool = True) -> float:
    """Server CPU time per request of a rung, all server threads together.

    Unlike latency this is CPU-bound work, so it scales with the machine
    speed like the closed-loop times do.
    """
    per_request = 1e6 * rung["server_cpu_s"] / max(1, rung["n"])
    return per_request * (rung["server_cpu_factor"] if scaled else 1.0)


def max_rate(rungs) -> float:
    """The highest rate of the unbroken run of passing rungs from the bottom."""
    best = 0.0
    for rung in rungs:
        if not rung["meets"]:
            break
        best = rung["rate"]
    return best
