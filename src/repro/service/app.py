"""The async sweep service: HTTP/JSON job API over the experiment runner.

A :class:`SweepService` is a long-running asyncio process that turns
``repro.api`` into a shared, cache-backed endpoint:

* **submission** — ``POST /v1/sweeps`` / ``POST /v1/workloads`` accept
  the versioned request schemas (:mod:`repro.service.schemas`) and
  return a job id immediately (HTTP 202);
* **persistent queue** — jobs land in a crash-safe on-disk
  :class:`~repro.service.queue.JobQueue`; a restarted server resumes
  where the dead one stopped, and completed points replay from the
  content-addressed cache so resumption only simulates the tail;
* **streaming progress** — ``GET /v1/jobs/<id>/events`` is a
  Server-Sent-Events stream fed by the runner's existing
  ``progress(done, total, label, source)`` callbacks (history replays
  first, so a late subscriber misses nothing);
* **single-flight dedup** — two concurrent jobs with the same request
  fingerprint execute **once**; the follower awaits the leader's result
  and completes with ``metrics.deduped = true``.  Sequential
  duplicates are deduped by the cache instead (``executed == 0``);
* **warm workers** — start-up loads the simulation stack once, then
  each job loop forks one long-lived pool of ``sim_jobs`` processes
  that inherit it, so a cold job starts simulating at once;
* **retry with backoff** — a job whose worker pool breaks
  (``BrokenProcessPool``: OOM-killed or signalled workers) is retried
  with exponential backoff on a fresh warm pool; deterministic failures
  fail the job immediately;
* **graceful shutdown** — :meth:`SweepService.stop` stops accepting,
  requeues in-flight jobs (persisted as ``queued``), shuts the worker
  pools down and lets the next process pick the jobs up.

The HTTP layer is stdlib asyncio streams — no framework, no new
dependencies; responses are ``Connection: close`` JSON (or an SSE
stream), which every client including ``curl`` speaks.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.exp.backends import CacheBackend
from repro.exp.runner import ExperimentRunner, WorkerCrashError, pool_context
from repro.exp.schemas import JobSchemaError
from repro.exp.tasks import preload_simulation_stack
from repro.service import schemas as wire
from repro.service.jobs import Job
from repro.service.queue import JobQueue

#: SSE event names that end a job's stream.
TERMINAL_EVENTS = ("done", "failed")

#: service stats wire tag (`GET /v1/stats`).
STATS_SCHEMA = "repro-service-stats/v1"

#: largest request body the server reads; a longer ``Content-Length``
#: is answered 413 without reading the body.
MAX_BODY_BYTES = 1 << 20


class SweepService:
    """Job queue + workers + HTTP front-end over ``repro.api``."""

    def __init__(
        self,
        queue_dir,
        cache: Optional[CacheBackend] = None,
        *,
        sim_jobs: int = 1,
        workers: int = 1,
        retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        execute: Optional[Callable] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.queue = JobQueue(queue_dir)
        self.cache = cache
        self.sim_jobs = sim_jobs
        self.workers = workers
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: test seam: overrides the per-point executor inside the runner.
        self.execute = execute
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.totals: Dict[str, float] = {
            "submitted": 0, "completed": 0, "failed": 0, "executed": 0,
            "cached": 0, "retried": 0, "deduped": 0, "requeued": 0,
            "queue_wait_s": 0.0,
        }
        self._events: Dict[str, List[Tuple[str, Dict[str, object]]]] = {}
        self._subscribers: Dict[str, Set[asyncio.Queue]] = {}
        self._inflight: Dict[str, asyncio.Future] = {}
        self._worker_tasks: List[asyncio.Task] = []
        #: one warm simulation pool per job loop (``sim_jobs > 1`` only;
        #: a single-process job simulates inline).
        self._pools: List[ProcessPoolExecutor] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._wake: Optional[asyncio.Event] = None
        self._started_unix = time.time()

    # ------------------------------------------------------------- lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> "SweepService":
        """Load the simulation stack, fork the warm worker pools, bind
        the HTTP server and start the worker loops.

        ``port=0`` binds an ephemeral port; read it back from ``.port``.
        """
        preload_simulation_stack()
        if self.sim_jobs > 1:
            self._pools = [self._warm_pool() for _ in range(self.workers)]
        self._wake = asyncio.Event()
        if self.queue.pending():
            self._wake.set()  # recovered (or pre-seeded) jobs: start now
        try:
            self._server = await asyncio.start_server(self._handle_conn, host, port)
        except BaseException:
            await self._close_pools()
            raise
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self._worker_tasks = [
            asyncio.create_task(self._worker_loop(i), name=f"sweep-worker-{i}")
            for i in range(self.workers)
        ]
        return self

    def _warm_pool(self) -> ProcessPoolExecutor:
        """A simulation pool whose workers are forked now, so they
        inherit the loaded stack and wait idle for the first point."""
        pool = ProcessPoolExecutor(self.sim_jobs, mp_context=pool_context())
        pool.submit(preload_simulation_stack)
        return pool

    async def _close_pools(self) -> None:
        """Join every worker once the points already submitted finish.

        A requeued job's runner thread keeps storing those results, so
        the next process replays them from the cache.  (Cancelling them
        instead would leave the thread waiting on them forever:
        ``shutdown(cancel_futures=True)`` does not wake ``as_completed``.)
        """
        pools, self._pools = self._pools, []
        for pool in pools:
            await asyncio.to_thread(pool.shutdown, wait=True)

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, requeue in-flight jobs,
        shut the worker pools down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        await self._close_pools()
        # wake any stream subscriber still waiting so connections close
        for queues in self._subscribers.values():
            for queue in queues:
                queue.put_nowait(None)

    # ------------------------------------------------------------- events

    def _log_event(self, job_id: str, event: str, data: Dict[str, object]) -> None:
        """Record one SSE event and fan it out to live subscribers."""
        self._events.setdefault(job_id, []).append((event, data))
        for queue in self._subscribers.get(job_id, ()):
            queue.put_nowait((event, data))

    # ------------------------------------------------------------- submission

    def submit(self, kind: str, body) -> Job:
        """Validate one request body and enqueue it; returns the job."""
        request, fingerprint = wire.job_fingerprint(kind, body)
        job = Job.create(kind, request, fingerprint)
        self.queue.submit(job)
        self.totals["submitted"] += 1
        self._log_event(job.id, "state", {"state": "queued"})
        if self._wake is not None:
            self._wake.set()
        return job

    # ------------------------------------------------------------- workers

    async def _worker_loop(self, slot: int) -> None:
        assert self._wake is not None
        while True:
            job = self.queue.claim_next()
            if job is None:
                self._wake.clear()
                await self._wake.wait()
                continue
            await self._run_job(job, slot)

    async def _run_job(self, job: Job, slot: int) -> None:
        queue_wait = (job.started_unix or 0.0) - job.submitted_unix
        job.metrics["queue_wait_s"] = queue_wait
        self.totals["queue_wait_s"] += queue_wait
        self._log_event(job.id, "state", {"state": "running"})
        leader_fut = self._inflight.get(job.fingerprint)
        try:
            if leader_fut is not None:
                # single-flight follower: same fingerprint is already
                # executing; share its result instead of re-simulating.
                self._log_event(job.id, "dedup", {"fingerprint": job.fingerprint})
                result, _ = await asyncio.shield(leader_fut)
                stats = {"executed": 0, "cached": 0, "retried": 0}
                job.metrics["deduped"] = True
                self.totals["deduped"] += 1
            else:
                fut = asyncio.get_running_loop().create_future()
                # consume the exception even if no follower awaits it
                fut.add_done_callback(
                    lambda f: f.exception() if not f.cancelled() else None
                )
                self._inflight[job.fingerprint] = fut
                try:
                    result, stats = await self._execute_with_retry(job, slot)
                    if not fut.cancelled():
                        fut.set_result((result, stats))
                except BaseException as exc:
                    if not fut.cancelled():
                        fut.set_exception(exc)
                    raise
                finally:
                    self._inflight.pop(job.fingerprint, None)
                job.metrics["deduped"] = False
        except asyncio.CancelledError:
            # graceful shutdown: put the job back for the next process
            self.queue.requeue(job)
            self.totals["requeued"] += 1
            self._log_event(job.id, "state", {"state": "queued", "requeued": True})
            raise
        except Exception as exc:  # deterministic failure: do not retry
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            job.finished_unix = time.time()
            self.queue.persist(job)
            self.totals["failed"] += 1
            self._log_event(job.id, "failed", {"state": "failed", "error": job.error})
            return
        job.result = result
        job.metrics.update(
            executed=stats.get("executed", 0),
            cached=stats.get("cached", 0),
            retried=stats.get("retried", 0),
        )
        job.state = "done"
        job.finished_unix = time.time()
        self.queue.persist(job)
        self.totals["completed"] += 1
        self.totals["executed"] += stats.get("executed", 0)
        self.totals["cached"] += stats.get("cached", 0)
        self._log_event(
            job.id,
            "done",
            {
                "state": "done",
                "executed": job.metrics["executed"],
                "cached": job.metrics["cached"],
                "deduped": job.metrics["deduped"],
            },
        )

    async def _execute_with_retry(self, job: Job, slot: int):
        """Run the job's request on job loop ``slot``'s pool, backing
        off exponentially when the pool breaks (a crashed worker process,
        not a failed simulation — deterministic errors propagate
        unretried).  A broken pool is replaced before the retry."""
        loop = asyncio.get_running_loop()
        delay = self.backoff_base
        for attempt in range(self.retries + 1):
            job.attempts = attempt + 1

            def progress(done: int, total: int, label: str, source: str) -> None:
                loop.call_soon_threadsafe(
                    self._log_event,
                    job.id,
                    "progress",
                    {"done": done, "total": total, "label": label, "source": source},
                )

            runner = ExperimentRunner(
                jobs=self.sim_jobs,
                cache=self.cache,
                retries=0,  # the service owns retry policy (with backoff)
                execute=self.execute,
                progress=progress,
                pool=self._pools[slot] if self._pools else None,
            )
            try:
                result = await asyncio.to_thread(self._run_request, job, runner)
            except (BrokenProcessPool, WorkerCrashError) as exc:
                if self._pools:
                    self._pools[slot].shutdown(wait=False)
                    self._pools[slot] = self._warm_pool()
                if attempt == self.retries:
                    raise WorkerCrashError(
                        f"job {job.id} broke its worker pool "
                        f"{attempt + 1} time(s); giving up"
                    ) from exc
                self.totals["retried"] += 1
                self._log_event(
                    job.id,
                    "retry",
                    {"attempt": attempt + 1, "backoff_s": delay},
                )
                await asyncio.sleep(delay)
                delay = min(delay * 2, self.backoff_cap)
                continue
            return result, dict(runner.stats.as_dict(), retried=attempt)
        raise AssertionError("unreachable")  # pragma: no cover

    def _run_request(self, job: Job, runner: ExperimentRunner):
        """Blocking request execution (runs in a thread) — routes through
        the exact same ``repro.api`` calls a script would make, so a
        service result is bit-identical to a direct one by construction."""
        from repro import api
        from repro.sim.experiment import sweep_to_rows

        request = job.request
        if job.kind == "sweep":
            preset = api.load_preset(
                request["preset"], threshold=request["threshold"]
            )
            points = api.run_sweep(
                preset,
                request["scheme"],
                request["pattern"],
                request["rates"],
                warmup=request["warmup"],
                measure=request["measure"],
                saturation_latency=request["saturation_latency"],
                runner=runner,
            )
            return {
                "points": sweep_to_rows(points),
                "saturation_throughput": api.saturation_throughput(points),
            }
        results = api.run_workload(
            request["preset"],
            request["workload"],
            schemes=tuple(request["schemes"]),
            scale=request["scale"],
            max_cycles=request["max_cycles"],
            runner=runner,
        )
        return {"schemes": results}

    # ------------------------------------------------------------- stats

    def stats(self) -> Dict[str, object]:
        """The ``GET /v1/stats`` payload: queue, totals, cache counters."""
        jobs = self.queue.jobs()
        by_state: Dict[str, int] = {}
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
        completed = max(1, int(self.totals["completed"]))
        return {
            "schema": STATS_SCHEMA,
            "uptime_s": time.time() - self._started_unix,
            "jobs": {"total": len(jobs), "by_state": by_state},
            "queue": {
                "pending": self.queue.pending(),
                "recovered": self.queue.recovered,
                "corrupt": self.queue.corrupt,
            },
            "totals": dict(self.totals),
            "mean_queue_wait_s": self.totals["queue_wait_s"] / completed,
            "cache": self.cache.stats() if self.cache is not None else None,
        }

    # ------------------------------------------------------------- HTTP

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                await self._respond(writer, 400, {"error": "malformed request line"})
                return
            method, target = parts[0], parts[1]
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            raw_length = headers.get("content-length", "0") or "0"
            if not (raw_length.isascii() and raw_length.isdigit()):
                await self._respond(writer, 400, {"error": "invalid Content-Length"})
                return
            if int(raw_length) > MAX_BODY_BYTES:
                await self._respond(
                    writer,
                    413,
                    {"error": f"request body over {MAX_BODY_BYTES} bytes"},
                )
                return
            body = await reader.readexactly(int(raw_length))
            await self._route(method, target.partition("?")[0], body, writer)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _route(
        self, method: str, path: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        segments = [s for s in path.split("/") if s]
        if method == "POST" and segments in (["v1", "sweeps"], ["v1", "workloads"]):
            kind = "sweep" if segments[1] == "sweeps" else "workload"
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except ValueError:
                await self._respond(writer, 400, {"error": "request body is not JSON"})
                return
            try:
                job = self.submit(kind, payload)
            except JobSchemaError as exc:
                await self._respond(writer, 400, {"error": str(exc)})
                return
            await self._respond(writer, 202, {"job": job.public()})
            return
        if method == "GET" and segments == ["v1", "stats"]:
            await self._respond(writer, 200, self.stats())
            return
        if method == "GET" and segments == ["v1", "healthz"]:
            await self._respond(writer, 200, {"ok": True})
            return
        if method == "GET" and segments == ["v1", "jobs"]:
            await self._respond(
                writer, 200, {"jobs": [j.public() for j in self.queue.jobs()]}
            )
            return
        if method == "GET" and len(segments) >= 3 and segments[:2] == ["v1", "jobs"]:
            job = self.queue.get(segments[2])
            if job is None:
                await self._respond(
                    writer, 404, {"error": f"no such job {segments[2]!r}"}
                )
                return
            if len(segments) == 3:
                await self._respond(writer, 200, {"job": job.public()})
                return
            if segments[3] == "result":
                if job.state != "done":
                    await self._respond(
                        writer,
                        409,
                        {"error": f"job {job.id} is {job.state}, not done"},
                    )
                    return
                await self._respond(
                    writer, 200, {"id": job.id, "result": job.result}
                )
                return
            if segments[3] == "events":
                await self._stream_events(job, writer)
                return
        await self._respond(
            writer, 404, {"error": f"no route for {method} {path}"}
        )

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload
    ) -> None:
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 409: "Conflict",
                  413: "Content Too Large"}.get(status, "OK")
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _stream_events(
        self, job: Job, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one SSE connection: replay history, then stream live."""
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        # snapshot + subscribe atomically (no await in between), so every
        # event lands in exactly one of history / live queue
        history = list(self._events.get(job.id, ()))
        queue: asyncio.Queue = asyncio.Queue()
        subscribers = self._subscribers.setdefault(job.id, set())
        subscribers.add(queue)
        try:
            terminal = False
            for event, data in history:
                writer.write(_sse(event, data))
                terminal = terminal or event in TERMINAL_EVENTS
            await writer.drain()
            while not terminal:
                item = await queue.get()
                if item is None:  # service shutting down
                    break
                event, data = item
                writer.write(_sse(event, data))
                await writer.drain()
                terminal = event in TERMINAL_EVENTS
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            subscribers.discard(queue)


def _sse(event: str, data: Dict[str, object]) -> bytes:
    return f"event: {event}\ndata: {json.dumps(data)}\n\n".encode("utf-8")


# ----------------------------------------------------------------- entrypoints


async def run_service(
    host: str = "127.0.0.1",
    port: int = 8787,
    *,
    queue_dir,
    cache: Optional[CacheBackend] = None,
    sim_jobs: int = 1,
    workers: int = 1,
    retries: int = 2,
) -> int:
    """Run a service until SIGINT/SIGTERM; used by ``python -m repro serve``."""
    service = SweepService(
        queue_dir, cache, sim_jobs=sim_jobs, workers=workers, retries=retries
    )
    await service.start(host, port)
    print(
        f"repro service listening on http://{service.host}:{service.port} "
        f"(queue: {service.queue.root}, recovered: {service.queue.recovered})",
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    print("repro service: shutting down (requeueing in-flight jobs)", flush=True)
    await service.stop()
    print(
        f"repro service: stopped ({service.queue.pending()} job(s) left queued)",
        flush=True,
    )
    return 0


class BackgroundService:
    """A service on a daemon thread with its own event loop.

    The harness tests and example scripts use this to run client code
    against a real server in one process::

        with BackgroundService(queue_dir, cache=backend) as svc:
            client = ServiceClient(port=svc.port)
            ...
    """

    def __init__(self, queue_dir, cache: Optional[CacheBackend] = None, **kwargs):
        self._queue_dir = queue_dir
        self._cache = cache
        self._kwargs = kwargs
        self.service: Optional[SweepService] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "BackgroundService":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service did not come up within 30s")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        return self

    async def _main(self) -> None:
        try:
            self.service = SweepService(self._queue_dir, self._cache, **self._kwargs)
            await self.service.start()
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._error = exc
            self._ready.set()
            return
        self.port = self.service.port
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await self.service.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=60)
            if self._thread.is_alive():  # pragma: no cover
                print("warning: service thread did not stop", file=sys.stderr)

    def __enter__(self) -> "BackgroundService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
