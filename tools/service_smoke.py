#!/usr/bin/env python3
"""Service smoke check (CI `service-smoke` job).

Boots a real ``python -m repro serve --jobs 2`` subprocess (the warm
two-process simulation pool), then drives it with
:class:`repro.client.ServiceClient` the way a user would:

1. submit a tiny sweep and stream its progress over SSE;
2. re-submit the identical request and assert the warm run executes
   **zero** simulations (tiered cache hit, visible in ``/v1/stats``);
3. SIGTERM the server and assert it shuts down gracefully (exit 0)
   and leaves none of its worker processes behind.

Run:  PYTHONPATH=src python tools/service_smoke.py
"""

import os
import re
import signal
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.client import ServiceClient  # noqa: E402

SWEEP = {"rates": [0.02, 0.04], "warmup": 200, "measure": 600}


def fail(message: str) -> "None":
    print(f"service-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def children_of(pid: int) -> list:
    """PIDs of the live processes whose parent is ``pid`` (reads /proc)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:  # exited while we looked
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            children.append(int(entry))
    return children


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="repro-service-smoke-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--queue-dir", os.path.join(tmp, "queue"),
         "--cache-dir", os.path.join(tmp, "cache"), "--tiered", "--jobs", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        banner = proc.stdout.readline()
        print(banner.rstrip())
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        if not match:
            fail(f"could not parse listen address from: {banner!r}")
        client = ServiceClient(host=match.group(1), port=int(match.group(2)))
        if not client.health():
            fail("healthz did not answer ok")

        # 1. cold submit + SSE progress stream
        job = client.submit_sweep(**SWEEP)
        print(f"submitted job {job['id']} (fingerprint {job['fingerprint'][:12]})")
        seen = []
        done = client.wait(
            job["id"],
            on_progress=lambda p: seen.append(p) or print(
                f"  progress {p['done']}/{p['total']} {p['label']} [{p['source']}]"
            ),
        )
        if not seen:
            fail("no progress events streamed")
        if done["metrics"]["executed"] != len(SWEEP["rates"]):
            fail(f"cold run executed {done['metrics']['executed']}, "
                 f"expected {len(SWEEP['rates'])}")
        points = client.result(job["id"])["result"]["points"]
        print(f"cold: executed={done['metrics']['executed']} points={len(points)}")

        # 2. warm re-submit: zero simulations
        warm = client.wait(client.submit_sweep(**SWEEP)["id"])
        if warm["metrics"]["executed"] != 0:
            fail(f"warm run executed {warm['metrics']['executed']}, expected 0")
        stats = client.stats()
        if stats["totals"]["cached"] < len(SWEEP["rates"]):
            fail(f"stats report only {stats['totals']['cached']} cached points")
        if stats["cache"]["l1_hits"] < len(SWEEP["rates"]):
            fail(f"tiered cache reports l1_hits={stats['cache']['l1_hits']}")
        print(f"warm: executed=0 cached={warm['metrics']['cached']} "
              f"l1_hits={stats['cache']['l1_hits']}")

        # 3. graceful shutdown, taking the worker pool with it
        workers = children_of(proc.pid)
        if len(workers) < 2:
            fail(f"expected the 2 warm workers as children, found {workers}")
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        print(out.rstrip())
        if proc.returncode != 0:
            fail(f"server exited {proc.returncode} on SIGTERM")
        leftover = [pid for pid in workers if alive(pid)]
        if leftover:
            fail(f"worker processes {leftover} outlived the server")
        print(f"shutdown: {len(workers)} worker processes reaped")
        print("service-smoke: OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
