"""The repository benchmark: one command per workload, every metric named.

Usage (from the repository root)::

    python3 perfbench/run.py --workload synthetic_saturated --seed 2022 \
        --seconds 30 --trace 0

Rounds of the workload (see ``workloads.py``) repeat until ``--seconds``
have passed.  ``--trace 0`` prints the end-to-end metrics, measured with
no tracing.  ``--trace 1`` alternates untraced and traced rounds and
prints the per-layer metrics of the traced ones.  Every round's output
is checked: at the default seed against ``expected.json``, at any other
seed against the run's first round.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 2022
WORKLOADS = ("synthetic_saturated", "deadlock_recovery", "service_sweep")

#: end-to-end metric -> unit (BENCHMARK.json holds bounds and directions).
END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_cycles_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cold_job_s": "s",
    "warm_job_p50_ms": "ms",
}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_fraction", ".coverage")):
        return "ratio"
    return "count"


def host_fingerprint() -> dict:
    """Where a run happened: recorded with every run's output."""
    import numpy

    from repro.noc.network import Network
    from repro.topology.chiplet import baseline_system

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": rev,
        "datapath": Network(baseline_system()).datapath_stats()["engine"],
    }


def percentile(values, q: int) -> float:
    """The ``q``-th percentile; a single sample is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def warm_percentile(rounds, q: int) -> float:
    """Warm-job percentile within each round, median over rounds."""
    return statistics.median(percentile(r.warm_ms, q) for r in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as wl
    from ledger import layer_metrics, reconcile

    service = args.workload == "service_sweep"
    request = wl.service_request(args.seed) if service else None
    reference = None
    if args.seed == DEFAULT_SEED:
        entry = json.loads(EXPECTED.read_text()).get(args.workload)
        if entry is None:
            print(f"perfbench: {EXPECTED} has no {args.workload} entry",
                  file=sys.stderr)
            return 2
        if service and entry["request"] != wl.canonical(request):
            print("perfbench: expected.json was recorded for another request",
                  file=sys.stderr)
            return 2
        reference = entry["output"]

    host = host_fingerprint()
    print("host " + json.dumps(host, sort_keys=True), flush=True)

    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=workdir))

    def one_round(trace: bool):
        if service:
            return wl.run_service_round(ROOT, workdir, request, trace)
        return wl.run_sim_round(wl.SIM_WORKLOADS[args.workload], args.seed, trace)

    attempted = failed = 0
    untraced, traced_rounds = [], []
    start = time.perf_counter()
    try:
        while (
            not untraced
            or (args.trace and not traced_rounds)
            or time.perf_counter() - start < args.seconds
        ):
            trace = bool(args.trace) and len(traced_rounds) < len(untraced)
            try:
                rnd = one_round(trace)
            except Exception:  # a failed round is a failed operation
                attempted += 1
                failed += 1
                traceback.print_exc()
                if time.perf_counter() - start >= args.seconds:
                    break
                continue
            if reference is None:
                reference = rnd.output
            attempted += rnd.attempted
            failed += rnd.failed
            for error in rnd.errors:
                print(f"FAILED: {error}", file=sys.stderr)
            if rnd.output != reference:
                failed += 1
                print(f"FAILED: {args.workload} output differs from the "
                      f"reference:\n{json.dumps(rnd.output, sort_keys=True)}",
                      file=sys.stderr)
            (traced_rounds if trace else untraced).append(rnd)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0 and bool(untraced) and bool(traced_rounds or not args.trace)
    metrics = {}
    if untraced and not args.trace:
        samples = sum(len(r.warm_ms) for r in untraced)
        values = {
            "setup_s": statistics.median(r.setup_s for r in untraced),
            "sim_cycles_per_s": statistics.median(r.sim_cycles_per_s for r in untraced),
            "peak_rss_mb": wl.peak_rss_mb(children=service),
            "cold_job_s": statistics.median(r.cold_s for r in untraced),
            "warm_job_p50_ms": warm_percentile(untraced, 50),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"rounds: {len(untraced)}; warm-job samples: {samples} "
              f"(percentiles per round, median over rounds); "
              f"warm_job_p90_ms {warm_percentile(untraced, 90):.6g} ms "
              f"(not gated, see README.md)")
    elif untraced and traced_rounds:
        per_round = [layer_metrics(r.ledger) for r in traced_rounds]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        values["warm_job_p90_ms"] = warm_percentile(untraced, 90)
        values["trace.overhead_ratio"] = statistics.median(
            r.sim_cycles_per_s for r in untraced
        ) / statistics.median(r.sim_cycles_per_s for r in traced_rounds)
        required = wl.TRACED_SPANS[args.workload]
        for rnd in traced_rounds:
            for problem in reconcile(rnd.ledger, required):
                correct = False
                print(f"FAILED: traced round: {problem}", file=sys.stderr)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        print(f"rounds: {len(untraced)} untraced, {len(traced_rounds)} traced")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
