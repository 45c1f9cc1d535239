"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench/tests``).

They check the benchmark, not the program: spans are removed after a
traced run, the reconciliation check reports a layer that was not
recorded, every metric name is well formed and listed in BENCHMARK.json,
and a one-round run of each workload passes its correctness gate, traced
and untraced.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from ledger import (  # noqa: E402
    Ledger, cycle_targets, layer_metrics, reconcile, server_targets, traced,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _small_sim():
    from repro.noc.config import NocConfig
    from repro.schemes.registry import make_scheme
    from repro.sim.simulator import Simulation
    from repro.topology.chiplet import baseline_system
    from repro.traffic.synthetic import install_synthetic_traffic

    sim = Simulation(baseline_system(), NocConfig(), make_scheme("upp"))
    install_synthetic_traffic(sim.network, "uniform_random", 0.05)
    return sim


def test_wrappers_are_removed_after_a_traced_run():
    targets = cycle_targets() + server_targets()
    before = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    sim = _small_sim()
    ledger = Ledger()
    with traced(ledger, targets):
        sim.run(50, 100)
    after = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    assert all(a is b for a, b in zip(before, after))
    assert ledger.spans["sim.step"][0] == 150
    assert ledger.counts["noc.cycles"] == 150
    # the restored methods record nothing further
    sim.run(0, 10)
    assert ledger.spans["sim.step"][0] == 150
    assert abs(layer_metrics(ledger)["ledger.coverage"] - 1) < 1e-9


def test_reconcile_reports_a_layer_that_was_not_recorded():
    from repro.noc.vector import VectorEngine

    targets = [t for t in cycle_targets() if t[:2] != (VectorEngine, "deliver")]
    ledger = Ledger()
    with traced(ledger, targets):
        _small_sim().run(50, 100)
    problems = reconcile(ledger, ("sim.run", "noc.deliver", "noc.switch"))
    assert problems[0] == "span noc.deliver recorded no calls"
    assert reconcile(Ledger(), ("sim.run",)) == ["span sim.run recorded no calls"]


def test_metric_names_are_well_formed_and_declared():
    spec = _spec()
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    printed_layers = set(layer_metrics(Ledger())) | {
        "trace.overhead_ratio", "warm_job_p90_ms",
    }
    assert end_to_end == set(run.END_TO_END_UNITS)
    assert per_layer == printed_layers
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[name] == run.layer_unit(name) for name in per_layer)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_round_passes_the_correctness_gate(workload, trace):
    proc = _run("--workload", workload, "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, proc.stderr
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in _spec()[kind]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "synthetic_saturated", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
