"""Span ledger for the benchmark's traced runs.

Tracing is applied from outside the program: :func:`traced` replaces
public methods of the simulator and the service with timing wrappers for
the duration of a ``with`` block (through :func:`unittest.mock.patch.object`,
which restores every original on exit), so untraced runs execute the
program unmodified.

Every span accumulates its call count, its total seconds and its *self*
seconds: the total minus the part covered by spans nested inside it on
the same thread.  Self times of nested spans therefore add up to the
outermost span's total; :func:`reconcile` checks that the per-cycle
layers are reported that way and that each layer a workload exercises
was actually recorded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple
from unittest import mock

#: (owner, attribute, span name, result hook name or None)
Target = Tuple[object, str, str, Optional[str]]


class Ledger:
    """Per-span ``[calls, total_s, self_s]`` accumulators plus exact counts."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _close(self, name: str, elapsed: float, child: float) -> None:
        stack = self._stack()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            record = self.spans.setdefault(name, [0, 0.0, 0.0])
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - child

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None):
        """``fn`` wrapped in a span called ``name``."""
        stack_of = self._stack
        close = self._close
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                close(name, elapsed, stack.pop())
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        stack = self._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._close(name, elapsed, stack.pop())

    def add(self, name: str, seconds: float) -> None:
        """Record one call of ``name`` timed by the caller."""
        self._close(name, seconds, 0.0)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    # -------------------------------------------------------------- results

    def note_sim_result(self, result) -> None:
        """Fold one ``SimulationResult``'s own counters into the counts."""
        datapath = result.datapath
        for key in ("cycles", "scalar_cycles", "batched_flits",
                    "batched_deliveries", "pool_grows"):
            self.count(f"noc.{key}", datapath.get(key, 0))
        for key in ("upward_packets", "reqs_sent", "popups_completed",
                    "aborted_attempts"):
            self.count(f"upp.{key}", result.scheme_stats.get(key, 0))
        self.count("sim.packets", result.summary["packets"])

    def note_cache_get(self, entry) -> None:
        self.count("cache.hits", entry is not None)

    # -------------------------------------------------------------- transfer

    def merge(self, other: "Ledger") -> None:
        for name, (calls, total, own) in other.spans.items():
            record = self.spans.setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += total
            record[2] += own
        for name, value in other.counts.items():
            self.count(name, value)

    def dump(self, path: Path) -> None:
        tmp = Path(f"{path}.tmp")
        tmp.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))
        os.replace(tmp, path)

    @classmethod
    def load_dir(cls, directory: Path) -> "Ledger":
        """Merge every ledger dumped into ``directory``."""
        ledger = cls()
        for path in sorted(Path(directory).glob("*.json")):
            part = cls()
            data = json.loads(path.read_text())
            part.spans, part.counts = data["spans"], data["counts"]
            ledger.merge(part)
        return ledger


#: per-cycle spans inside ``sim.run`` and whether each is reported by its
#: total (``.s``, a leaf) or its self time (``.self_s``, has traced
#: children).  With ``sim.run.unattributed_s`` they reconcile to ``sim.run.s``.
CYCLE_LAYERS = (
    ("sim.step", "self_s"),
    ("noc.deliver", "s"),
    ("noc.switch", "self_s"),
    ("noc.router_step", "s"),
    ("noc.ni_step", "self_s"),
    ("traffic.endpoint_step", "s"),
    ("scheme.post_cycle", "s"),
)

#: metric name -> (span, field) for the setup and service layers.
OTHER_SPANS = {
    "topology.build_s": ("topology.build", "s"),
    "network.build_s": ("network.build", "s"),
    "traffic.install_s": ("traffic.install", "s"),
    "client.submit.s": ("client.submit", "s"),
    "client.wait.s": ("client.wait", "s"),
    "client.result.s": ("client.result", "s"),
    "service.submit.s": ("service.submit", "s"),
    "runner.run.self_s": ("runner.run", "self_s"),
    "runner.execute.s": ("runner.execute", "s"),
    "cache.get.s": ("cache.get", "s"),
    "cache.put.s": ("cache.put", "s"),
}

#: spans whose call counts are reported as ``<span>.calls``.
CALL_SPANS = tuple(span for span, _ in CYCLE_LAYERS) + (
    "client.submit", "client.wait", "client.result", "service.submit",
    "runner.run", "runner.execute", "cache.get", "cache.put",
)

#: exact counts copied from the ledger (program outputs).
COUNTS = (
    "noc.batched_flits", "noc.batched_deliveries", "noc.pool_grows",
    "upp.upward_packets", "upp.reqs_sent", "upp.popups_completed",
    "upp.aborted_attempts", "sim.packets", "service.queue_wait_s",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ledger: Ledger) -> Dict[str, float]:
    """Every per-layer metric of one traced round; 0 for layers it skipped."""

    def field(span: str, kind: str) -> float:
        calls, total, own = ledger.spans.get(span, (0, 0.0, 0.0))
        return {"s": total, "self_s": own, "calls": calls}[kind]

    counts = ledger.counts
    out: Dict[str, float] = {
        "sim.run.s": field("sim.run", "s"),
        "sim.run.unattributed_s": field("sim.run", "self_s"),
    }
    for span, kind in CYCLE_LAYERS:
        out[f"{span}.{kind}"] = field(span, kind)
    for name, (span, kind) in OTHER_SPANS.items():
        out[name] = field(span, kind)
    for span in CALL_SPANS:
        out[f"{span}.calls"] = field(span, "calls")
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    out["noc.scalar_fallback_fraction"] = _ratio(
        counts.get("noc.scalar_cycles", 0), counts.get("noc.cycles", 0)
    )
    out["upp.popup_success_ratio"] = _ratio(
        counts.get("upp.popups_completed", 0), counts.get("upp.reqs_sent", 0)
    )
    out["cache.hit_ratio"] = _ratio(
        counts.get("cache.hits", 0), field("cache.get", "calls")
    )
    attributed = out["sim.run.unattributed_s"] + sum(
        out[f"{span}.{kind}"] for span, kind in CYCLE_LAYERS
    )
    out["ledger.coverage"] = _ratio(attributed, out["sim.run.s"])
    return out


#: ``ledger.coverage`` must lie within this distance of 1: it is off only
#: when a layer reported by its total (``.s``) has traced children.
COVERAGE_TOLERANCE = 0.03

#: the share of ``sim.run.s`` that no layer below ``Network.step`` claims
#: (``sim.run.unattributed_s`` + ``sim.step.self_s``) must stay below this.
#: Traced runs of every workload measured 0.07-0.11; a layer whose method
#: stops being called, or is bypassed, moves its time here.
MAX_OUTSIDE_SHARE = 0.25


def reconcile(ledger: Ledger, required: Iterable[str]) -> List[str]:
    """What is wrong with one traced round's ledger; empty if nothing.

    ``required`` names the spans the round's workload must have recorded
    at least one call of.
    """
    metrics = layer_metrics(ledger)
    problems = [
        f"span {span} recorded no calls"
        for span in required
        if ledger.spans.get(span, (0,))[0] == 0
    ]
    if metrics["sim.run.s"] > 0:
        coverage = metrics["ledger.coverage"]
        if abs(coverage - 1) > COVERAGE_TOLERANCE:
            problems.append(
                f"per-cycle layers sum to {coverage:.4f} of sim.run (a span "
                "is counted twice)"
            )
        outside = (
            metrics["sim.run.unattributed_s"] + metrics["sim.step.self_s"]
        ) / metrics["sim.run.s"]
        if outside > MAX_OUTSIDE_SHARE:
            problems.append(
                f"{outside:.3f} of sim.run is outside every layer below "
                f"Network.step (limit {MAX_OUTSIDE_SHARE})"
            )
    return problems


@contextlib.contextmanager
def traced(ledger: Ledger, targets: Iterable[Target]):
    """Wrap each target in a span of ``ledger`` while the block runs."""
    with contextlib.ExitStack() as stack:
        for owner, attr, name, hook in targets:
            original = getattr(owner, attr)
            on_result = getattr(ledger, hook) if hook else None
            stack.enter_context(
                mock.patch.object(owner, attr, ledger.wrap(name, original, on_result))
            )
        yield ledger


# ---------------------------------------------------------------- targets


def cycle_targets() -> List[Target]:
    """The simulator's per-cycle layers (see README.md, "Per-layer")."""
    from repro.noc.network import Network
    from repro.noc.ni import NetworkInterface
    from repro.noc.router import Router
    from repro.noc.vector import VectorEngine
    from repro.schemes.upp import UPPScheme
    from repro.sim.simulator import Simulation
    from repro.traffic.adversarial import SaturatingEndpoint
    from repro.traffic.synthetic import SyntheticEndpoint

    return [
        (Simulation, "run", "sim.run", "note_sim_result"),
        (Network, "step", "sim.step", None),
        (VectorEngine, "deliver", "noc.deliver", None),
        (VectorEngine, "switch_phase", "noc.switch", None),
        (Router, "step", "noc.router_step", None),
        (NetworkInterface, "step", "noc.ni_step", None),
        (SyntheticEndpoint, "step", "traffic.endpoint_step", None),
        (SaturatingEndpoint, "step", "traffic.endpoint_step", None),
        (UPPScheme, "post_cycle", "scheme.post_cycle", None),
    ]


def server_targets() -> List[Target]:
    """The service, runner and cache layers inside the server process."""
    from repro.exp.cache import ResultCache
    from repro.exp.runner import ExperimentRunner
    from repro.service.app import SweepService

    return [
        (SweepService, "submit", "service.submit", None),
        (ExperimentRunner, "run", "runner.run", None),
        (ResultCache, "get", "cache.get", "note_cache_get"),
        (ResultCache, "put", "cache.put", None),
    ]


def _traced_factory(ledger: Ledger, name: str, lookup: Callable) -> Callable:
    """Wrap a ``lookup(key) -> builder`` so every returned builder is a span."""

    def traced_lookup(key):
        return ledger.wrap(name, lookup(key))

    return traced_lookup


def run_traced_spec(ledger_dir: str, spec):
    """Execute one runner spec under the setup and per-cycle spans.

    Installed as the server's point executor in traced rounds; it runs in
    the runner's worker processes, so it writes its ledger to a file of
    its own in ``ledger_dir`` for the benchmark to merge.
    """
    import repro.traffic.synthetic as synthetic
    from repro.exp import tasks
    from repro.sim.simulator import Simulation

    ledger = Ledger()
    setup: List[Target] = [
        (Simulation, "__init__", "network.build", None),
        (synthetic, "install_synthetic_traffic", "traffic.install", None),
    ]
    with traced(ledger, cycle_targets() + setup), mock.patch.object(
        tasks, "get_topology",
        _traced_factory(ledger, "topology.build", tasks.get_topology),
    ):
        with ledger.span("runner.execute"):
            result = tasks.execute_spec(spec)
    ledger.dump(Path(ledger_dir) / f"worker-{os.getpid()}-{uuid.uuid4().hex}.json")
    return result
