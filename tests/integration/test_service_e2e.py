"""End-to-end tests for the sweep service (ISSUE 9 acceptance).

Covers: submit -> stream progress -> result bit-identical to a direct
``repro.api`` call; warm re-submission executing zero simulations via
the tiered backend (with the hit visible in ``GET /v1/stats``);
single-flight dedup of concurrent identical submissions;
kill-and-restart queue resume; and the warm worker pools (reused across
jobs, replaced after a crash, reaped on stop).

The pool tests inject module-level executors through the ``execute=``
seam: the service forks its workers at start-up, so they inherit this
module and its settings.
"""

import asyncio
import json
import multiprocessing
import os
import socket
import sys
import threading
import time

import pytest

from repro import api
from repro.client import ServiceClient, ServiceError
from repro.exp.backends import RemoteStubBackend, TieredBackend
from repro.exp.cache import ResultCache
from repro.exp.runner import ExperimentRunner
from repro.exp.tasks import execute_spec
from repro.service import BackgroundService, Job, JobQueue, SweepService
from repro.service import schemas as wire
from repro.sim.experiment import sweep_to_rows

RATES = [0.02, 0.04]
SWEEP = {"preset": "baseline", "scheme": "upp", "pattern": "uniform_random",
         "rates": RATES, "warmup": 200, "measure": 600}


def raw_request(port, head: bytes):
    """Send raw request bytes; returns (status line + headers, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head, body


def wait_done(client, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = client.job(job_id)
        if job["state"] in ("done", "failed"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} still {job['state']} after {timeout}s")


class TestServiceEndToEnd:
    def test_submit_stream_result_bit_identical_then_warm(self, tmp_path):
        cache = TieredBackend(ResultCache(tmp_path / "l1"), RemoteStubBackend())

        # the ground truth: the same request made directly through repro.api
        preset = api.load_preset("baseline", threshold=None)
        direct = api.run_sweep(
            preset, "upp", "uniform_random", RATES,
            warmup=200, measure=600, saturation_latency=200.0,
        )
        expected_rows = sweep_to_rows(direct)

        with BackgroundService(tmp_path / "queue", cache=cache) as svc:
            client = ServiceClient(port=svc.port)
            assert client.health()

            # --- cold: submit, stream progress, fetch the result
            job = client.submit_sweep(**SWEEP)
            assert job["state"] == "queued"
            progress = []
            done = client.wait(job["id"], on_progress=progress.append)
            assert done["state"] == "done"
            assert done["metrics"]["executed"] == len(RATES)
            assert progress, "no progress events streamed"
            assert progress[-1]["done"] == progress[-1]["total"] == len(RATES)
            assert all(p["source"] in ("run", "cache") for p in progress)

            result = client.result(job["id"])["result"]
            assert result["points"] == expected_rows  # bit-identical
            assert result["saturation_throughput"] == pytest.approx(
                api.saturation_throughput(direct)
            )

            # --- warm: same request again executes *zero* simulations
            warm = client.submit_sweep(**SWEEP)
            assert warm["id"] != job["id"]
            warm_done = client.wait(warm["id"])
            assert warm_done["metrics"]["executed"] == 0
            assert warm_done["metrics"]["cached"] == len(RATES)
            assert client.result(warm["id"])["result"]["points"] == expected_rows

            # --- and /v1/stats reports the cache hit
            stats = client.stats()
            assert stats["schema"] == "repro-service-stats/v1"
            assert stats["totals"]["completed"] == 2
            assert stats["totals"]["executed"] == len(RATES)
            assert stats["totals"]["cached"] == len(RATES)
            assert stats["cache"]["backend"] == "tiered"
            assert stats["cache"]["l1_hits"] >= len(RATES)

            # late subscriber: history replays, stream still terminates
            events = [name for name, _ in client.stream(job["id"])]
            assert events[-1] == "done"
            assert "progress" in events

    def test_bad_request_is_a_400_with_actionable_error(self, tmp_path):
        with BackgroundService(tmp_path / "queue") as svc:
            client = ServiceClient(port=svc.port)
            with pytest.raises(ServiceError) as excinfo:
                client.submit_sweep(ratess=[0.01])
            assert excinfo.value.status == 400
            assert "did you mean 'rates'" in excinfo.value.message
            with pytest.raises(ServiceError) as excinfo:
                client.result("nonexistent0")
            assert excinfo.value.status == 404


    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_invalid_content_length_is_a_400(self, tmp_path, length):
        with BackgroundService(tmp_path / "queue") as svc:
            head, body = raw_request(
                svc.port,
                b"POST /v1/sweeps HTTP/1.1\r\nHost: localhost\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode(),
            )
            assert head.startswith(b"HTTP/1.1 400 ")
            assert json.loads(body) == {"error": "invalid Content-Length"}
            assert ServiceClient(port=svc.port).health()

    def test_oversized_content_length_is_a_413_without_reading(self, tmp_path):
        with BackgroundService(tmp_path / "queue") as svc:
            head, body = raw_request(
                svc.port,
                b"POST /v1/sweeps HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: 10000000000\r\n\r\n",
            )
            assert head.startswith(b"HTTP/1.1 413 ")
            assert "error" in json.loads(body)
            assert ServiceClient(port=svc.port).health()


def fake_row(spec):
    return {
        "rate": spec["rate"], "latency": 12.0, "network_latency": 9.0,
        "queueing_latency": 3.0, "throughput": spec["rate"],
        "deadlocked": False, "upward_packets": 0,
    }


class TestSingleFlightDedup:
    def test_concurrent_identical_submissions_execute_once(self, tmp_path):
        """Two clients, same fingerprint, overlapping in time: one
        simulation execution, two completed jobs (satellite #4)."""
        gate = threading.Event()
        executions = []

        def gated_execute(spec):
            executions.append(spec["rate"])
            gate.wait(timeout=60)
            return fake_row(spec)

        service_kwargs = dict(workers=2, execute=gated_execute)
        with BackgroundService(tmp_path / "queue", **service_kwargs) as svc:
            client = ServiceClient(port=svc.port)
            first = client.submit_sweep(**SWEEP)
            second = client.submit_sweep(**SWEEP)
            assert first["fingerprint"] == second["fingerprint"]
            try:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    states = {j["id"]: j["state"] for j in client.jobs()}
                    if all(s == "running" for s in states.values()):
                        break
                    time.sleep(0.02)
                else:
                    raise AssertionError(f"jobs never overlapped: {states}")
            finally:
                gate.set()

            jobs = [wait_done(client, first["id"]), wait_done(client, second["id"])]
            assert [j["state"] for j in jobs] == ["done", "done"]
            assert sorted(executions) == sorted(RATES)  # each point once
            flags = sorted(j["metrics"]["deduped"] for j in jobs)
            assert flags == [False, True]
            leader = next(j for j in jobs if not j["metrics"]["deduped"])
            assert leader["metrics"]["executed"] == len(RATES)
            assert client.stats()["totals"]["deduped"] == 1
            # both results are served, and they match
            assert (
                client.result(first["id"])["result"]
                == client.result(second["id"])["result"]
            )


class TestQueueResume:
    def test_kill_and_restart_resumes_running_job(self, tmp_path):
        """A job left in state ``running`` by a dead process is picked
        up and completed by the next service (satellite #4)."""
        queue_dir = tmp_path / "queue"
        queue = JobQueue(queue_dir)
        request, fingerprint = wire.job_fingerprint("sweep", SWEEP)
        queue.submit(Job.create("sweep", request, fingerprint))
        crashed = queue.claim_next()
        assert crashed.state == "running"
        del queue  # the process "dies" here with the job in flight

        with BackgroundService(queue_dir, execute=fake_row) as svc:
            client = ServiceClient(port=svc.port)
            assert client.stats()["queue"]["recovered"] == 1
            job = wait_done(client, crashed.id)
            assert job["state"] == "done"
            assert job["requeues"] == 1
            rows = client.result(crashed.id)["result"]["points"]
            assert [row["rate"] for row in rows] == RATES


#: files the pool seams below write to; set before the service starts,
#: so the forked workers see them.
PID_LOG = None
CRASH_MARKER = None


def pid_logging_execute(spec):
    """The real executor, recording which process ran the point."""
    with open(PID_LOG, "a") as log:
        log.write(f"{os.getpid()}\n")
    return execute_spec(spec)


def crash_on_first_call(spec):
    """Kill the worker on the service's first point; later points succeed."""
    try:
        os.close(os.open(CRASH_MARKER, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return fake_row(spec)
    os._exit(13)


def slow_row(spec):
    time.sleep(0.2)
    return fake_row(spec)


def new_children(before):
    return [p for p in multiprocessing.active_children() if p.pid not in before]


class TestWarmWorkerPool:
    def test_cold_sweeps_reuse_the_warm_workers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys.modules[__name__], "PID_LOG", tmp_path / "pids")
        sweeps = [RATES, [0.03, 0.05]]
        preset = api.load_preset("baseline", threshold=None)
        expected = [
            sweep_to_rows(api.run_sweep(
                preset, "upp", "uniform_random", rates, warmup=200,
                measure=600, saturation_latency=200.0,
                runner=ExperimentRunner(jobs=1),
            ))
            for rates in sweeps
        ]
        before = {p.pid for p in multiprocessing.active_children()}
        with BackgroundService(
            tmp_path / "queue", sim_jobs=2, execute=pid_logging_execute
        ) as svc:
            warm = {p.pid for p in new_children(before)}
            assert len(warm) == 2  # forked at start-up, before any job
            client = ServiceClient(port=svc.port)
            for rates, rows in zip(sweeps, expected):
                job = wait_done(client, client.submit_sweep(**dict(SWEEP, rates=rates))["id"])
                assert job["state"] == "done"
                assert job["metrics"]["executed"] == len(rates)
                assert client.result(job["id"])["result"]["points"] == rows
        pids = [int(pid) for pid in (tmp_path / "pids").read_text().split()]
        assert len(pids) == 4
        assert set(pids) <= warm

    def test_crashed_worker_retries_on_a_fresh_pool(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            sys.modules[__name__], "CRASH_MARKER", str(tmp_path / "crashed")
        )
        with BackgroundService(
            tmp_path / "queue", sim_jobs=2, execute=crash_on_first_call,
            backoff_base=0.01,
        ) as svc:
            client = ServiceClient(port=svc.port)
            job = wait_done(client, client.submit_sweep(**SWEEP)["id"])
            assert job["state"] == "done"
            assert job["metrics"]["retried"] == 1
            assert job["attempts"] == 2
            rows = client.result(job["id"])["result"]["points"]
            assert [row["rate"] for row in rows] == RATES
            events = [name for name, _ in client.stream(job["id"])]
            assert events.count("retry") == 1

            nxt = wait_done(client, client.submit_sweep(**dict(SWEEP, rates=[0.03]))["id"])
            assert nxt["state"] == "done"
            assert nxt["metrics"]["executed"] == 1
            assert nxt["metrics"]["retried"] == 0
            assert client.stats()["totals"]["retried"] == 1

    def test_stop_reaps_every_worker(self, tmp_path):
        before = {p.pid for p in multiprocessing.active_children()}
        svc = BackgroundService(
            tmp_path / "queue", sim_jobs=2, workers=2, execute=fake_row
        ).start()
        try:
            assert len(new_children(before)) == 4  # workers x jobs
            client = ServiceClient(port=svc.port)
            assert wait_done(client, client.submit_sweep(**SWEEP)["id"])["state"] == "done"
        finally:
            svc.stop()
        assert new_children(before) == []

    def test_failed_bind_reaps_the_pools(self, tmp_path):
        before = {p.pid for p in multiprocessing.active_children()}
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            service = SweepService(tmp_path / "queue", sim_jobs=2, execute=fake_row)
            with pytest.raises(OSError):
                asyncio.run(service.start("127.0.0.1", taken.getsockname()[1]))
        assert new_children(before) == []

    def test_stop_mid_job_requeues_and_reaps(self, tmp_path):
        """Stopping while a job runs on the pool requeues the job, lets
        the points already submitted finish into the cache and reaps
        every worker."""
        before = {p.pid for p in multiprocessing.active_children()}
        cache = ResultCache(tmp_path / "cache")
        rates = [0.001 * i for i in range(1, 9)]  # more than the pool holds queued
        svc = BackgroundService(
            tmp_path / "queue", cache=cache, sim_jobs=2, execute=slow_row
        ).start()
        try:
            client = ServiceClient(port=svc.port)
            job = client.submit_sweep(**dict(SWEEP, rates=rates))
            deadline = time.monotonic() + 30
            while not cache.entries():  # every point is submitted by now
                assert time.monotonic() < deadline
                time.sleep(0.02)
        finally:
            started = time.monotonic()
            svc.stop()
        assert time.monotonic() - started < 30
        assert new_children(before) == []
        assert JobQueue(tmp_path / "queue").get(job["id"]).state == "queued"
        assert len(cache.entries()) == len(rates)
