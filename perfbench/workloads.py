"""The benchmark's workloads: one round of each, timed and checked.

A *round* is the unit a run repeats until its time budget is spent:

* a simulation round builds the system, installs the traffic and runs a
  fixed window of cycles through ``Simulation.run``;
* a service round spawns ``python -m repro serve`` (plain ``--cache-dir``)
  with an empty queue and cache, submits one cold sweep, re-submits it
  ``WARM_JOBS`` times, and shuts the server down.

Rounds report their own timings and the program outputs the correctness
gate compares (``result_fingerprint`` or sweep rows).  The caller decides
which rounds are traced and what counts as a failure.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import selectors
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ledger import Ledger, cycle_targets, traced
from repro.client import ServiceClient
from repro.metrics.stats import result_fingerprint
from repro.noc.config import NocConfig
from repro.schemes.registry import make_scheme
from repro.sim.presets import large_topology, table2_config, table2_upp_config
from repro.sim.simulator import Simulation
from repro.topology.chiplet import baseline_system
from repro.traffic.adversarial import install_adversarial_traffic, witness_flows
from repro.traffic.synthetic import install_synthetic_traffic

#: identical re-submissions per service round (each must hit the cache).
WARM_JOBS = 100
#: sweep points per service request, and their windows.
SERVICE_POINTS = 4
SERVICE_WARMUP = 300
SERVICE_MEASURE = 1200

clock = time.perf_counter


@dataclass(frozen=True)
class SimWorkload:
    """One in-process simulation workload."""

    name: str
    topology: Callable
    config: Callable[[int], NocConfig]
    install: Callable
    warmup: int
    measure: int
    watchdog_window: int = 3000


def _install_witness_traffic(network) -> None:
    install_adversarial_traffic(network, witness_flows(network))


SIM_WORKLOADS: Dict[str, SimWorkload] = {
    "synthetic_saturated": SimWorkload(
        name="synthetic_saturated",
        topology=large_topology,
        config=lambda seed: table2_config(seed=seed),
        install=lambda net: install_synthetic_traffic(net, "uniform_random", 0.08),
        warmup=250,
        measure=1000,
    ),
    "deadlock_recovery": SimWorkload(
        name="deadlock_recovery",
        topology=baseline_system,
        config=lambda seed: NocConfig(vcs_per_vnet=1, seed=seed),
        install=_install_witness_traffic,
        warmup=0,
        measure=10_000,
        watchdog_window=2500,
    ),
}


#: the spans below ``Simulation.run`` that every workload exercises.
_CYCLE_SPANS = (
    "sim.run", "sim.step", "noc.deliver", "noc.switch", "noc.ni_step",
    "traffic.endpoint_step", "scheme.post_cycle",
)

#: spans each traced round of a workload must record at least one call of.
TRACED_SPANS: Dict[str, tuple] = {
    "synthetic_saturated": _CYCLE_SPANS,
    "deadlock_recovery": _CYCLE_SPANS + ("noc.router_step",),
    "service_sweep": _CYCLE_SPANS + (
        "topology.build", "network.build", "traffic.install",
        "client.submit", "client.wait", "client.result", "service.submit",
        "runner.run", "runner.execute", "cache.get", "cache.put",
    ),
}


def canonical(value):
    """The JSON round-trip of ``value``: the form expected values take."""
    return json.loads(json.dumps(value, sort_keys=True))


@dataclass
class Round:
    """What one round measured and produced."""

    setup_s: float
    #: seconds from start to result of the round's cold job.
    cold_s: float
    sim_cycles_per_s: float
    #: per-warm-job latencies in milliseconds.  A simulation round has one
    #: warm job: ``Simulation.run`` on the system its set-up built.
    warm_ms: List[float]
    #: the program output the correctness gate compares.
    output: object
    #: operations attempted / failed inside the round (beyond the output
    #: comparison the caller makes).
    attempted: int = 1
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    ledger: Optional[Ledger] = None

    def check(self, ok: bool, message: str) -> None:
        """Count one checked operation of the round."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)


# ------------------------------------------------------------- simulations


def run_sim_round(workload: SimWorkload, seed: int, trace: bool) -> Round:
    """Build, install and run one simulation; raises ``DeadlockError``
    if the watchdog fires."""
    ledger = Ledger() if trace else None
    start = clock()
    topo = workload.topology()
    built = clock()
    sim = Simulation(
        topo,
        workload.config(seed),
        make_scheme("upp", table2_upp_config()),
        watchdog_window=workload.watchdog_window,
    )
    constructed = clock()
    workload.install(sim.network)
    installed = clock()
    tracing = traced(ledger, cycle_targets()) if trace else contextlib.nullcontext()
    with tracing:
        result = sim.run(workload.warmup, workload.measure)
    done = clock()
    if ledger is not None:
        ledger.add("topology.build", built - start)
        ledger.add("network.build", constructed - built)
        ledger.add("traffic.install", installed - constructed)
    return Round(
        setup_s=installed - start,
        cold_s=done - start,
        sim_cycles_per_s=sim.network.cycle / (done - installed),
        warm_ms=[(done - installed) * 1e3],
        output=canonical(result_fingerprint(result)),
        ledger=ledger,
    )


# ------------------------------------------------------------- service


def service_request(seed: int) -> Dict[str, object]:
    """The sweep request for ``seed``.

    Rates sit well below the baseline system's saturation, so every point
    executes.  The seed moves each rate by at most 0.001 around a fixed
    grid: the inputs change with the seed while the simulated work, and
    so the cold job's cost, stays comparable between seeds.
    """
    rng = random.Random(seed)
    rates = [
        (100 + 50 * i + rng.randint(-10, 10)) / 10_000 for i in range(SERVICE_POINTS)
    ]
    return {
        "preset": "baseline",
        "scheme": "upp",
        "pattern": "uniform_random",
        "rates": rates,
        "warmup": SERVICE_WARMUP,
        "measure": SERVICE_MEASURE,
    }


def _read_port(proc: subprocess.Popen, deadline: float) -> int:
    """Wait for the server's "listening on http://host:port" line."""
    prefix = "repro service listening on http://"
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            remaining = deadline - clock()
            if remaining <= 0 or not sel.select(remaining):
                raise TimeoutError("service did not start listening in time")
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"service exited with code {proc.wait()}")
            if line.startswith(prefix):
                return int(line[len(prefix):].split()[0].rsplit(":", 1)[1])


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def _timed_job(client: ServiceClient, ledger: Ledger, request) -> tuple:
    """Submit, wait for and fetch one sweep; returns (seconds, job, rows)."""
    start = clock()
    with ledger.span("client.submit"):
        job = client.submit_sweep(**request)
    with ledger.span("client.wait"):
        job = client.wait(job["id"])
    with ledger.span("client.result"):
        rows = client.result(job["id"])["result"]["points"]
    return clock() - start, job, rows


def run_service_round(root: Path, workdir: Path, request, trace: bool) -> Round:
    """One server lifetime: spawn, cold job, ``WARM_JOBS`` warm jobs, stop."""
    rdir = Path(tempfile.mkdtemp(prefix="round-", dir=workdir))
    ledger_dir = rdir / "ledger"
    ledger_dir.mkdir()
    cmd = [sys.executable, str(root / "perfbench" / "serve_traced.py")]
    if trace:
        cmd += ["--ledger-dir", str(ledger_dir)]
    cmd += [
        "--", "serve", "--host", "127.0.0.1", "--port", "0",
        "--queue-dir", str(rdir / "queue"), "--cache-dir", str(rdir / "cache"),
        "--jobs", "2",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    ledger = Ledger()
    n_points = len(request["rates"])
    start = clock()
    with open(rdir / "server.log", "w") as log:
        proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=log, text=True
        )
    try:
        client = ServiceClient(port=_read_port(proc, start + 60), timeout=60)
        if not client.health():
            raise RuntimeError("service did not answer /healthz")
        setup_s = clock() - start
        cold_s, job, rows = _timed_job(client, ledger, request)
        cycles = n_points * (request["warmup"] + request["measure"])
        out = Round(setup_s=setup_s, cold_s=cold_s, sim_cycles_per_s=cycles / cold_s,
                    warm_ms=[], output=canonical(rows), attempted=0, ledger=ledger)
        executed = job["metrics"].get("executed")
        out.check(executed == n_points,
                  f"cold job executed {executed} of {n_points} points")
        for _ in range(WARM_JOBS):
            seconds, job, warm_rows = _timed_job(client, ledger, request)
            out.warm_ms.append(seconds * 1e3)
            executed = job["metrics"].get("executed")
            out.check(executed == 0 and canonical(warm_rows) == out.output,
                      f"warm job {job['id']} executed {executed} points "
                      "or returned other rows")
        ledger.count("service.queue_wait_s", client.stats()["totals"]["queue_wait_s"])
    except BaseException:
        _stop(proc)
        sys.stderr.write((rdir / "server.log").read_text()[-4000:])
        raise
    _stop(proc)
    if trace:
        dumped = sorted(path.name for path in ledger_dir.glob("*.json"))
        workers = [name for name in dumped if name.startswith("worker-")]
        out.check("server.json" in dumped and len(workers) == n_points,
                  f"traced server left ledgers {dumped}: expected server.json "
                  f"and one worker ledger per point ({n_points})")
        ledger.merge(Ledger.load_dir(ledger_dir))
    return out


def peak_rss_mb(children: bool) -> float:
    """Peak resident memory of this process, or of the largest waited-for
    descendant (the server and its workers)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024
