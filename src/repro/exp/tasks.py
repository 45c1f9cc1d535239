"""Experiment point specs: JSON-able task descriptions and their executor.

A *spec* is a plain dict fully describing one simulation point — topology
name, canonical config dicts (plus their content fingerprints), scheme,
traffic and window parameters.  Specs cross process boundaries (the
runner pickles them to workers) and are the hashed payload of the result
cache, so everything in them must be canonical and serialisable; no live
objects, no callables.

:func:`execute_spec` is the single worker entry point: it rebuilds the
simulation from the spec and returns a plain-dict result.  Because every
point constructs a fresh seeded network, executing a spec in a worker
process is bit-identical to executing it inline — the property the
parallel-vs-serial regression tests assert.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Mapping, Optional

from repro.core.config import UPPConfig
from repro.exp.schemas import JOB_SCHEMA, validate_job
from repro.noc.config import NocConfig
from repro.schemes.registry import make_scheme
from repro.topology.registry import get_topology
from repro.traffic.coherence import WorkloadProfile


def sweep_point_spec(
    topology: str,
    cfg: NocConfig,
    scheme: str,
    pattern: str,
    rate: float,
    warmup: int,
    measure: int,
    upp_cfg: Optional[UPPConfig] = None,
    allow_deadlock: bool = False,
) -> Dict[str, object]:
    """One open-loop injection-rate point (the unit of a latency sweep)."""
    return {
        "schema": JOB_SCHEMA,
        "kind": "sweep_point",
        "topology": topology,
        "cfg": cfg.to_dict(),
        "cfg_fingerprint": cfg.fingerprint(),
        "scheme": scheme,
        "upp_cfg": upp_cfg.to_dict() if upp_cfg is not None else None,
        "upp_cfg_fingerprint": (
            upp_cfg.fingerprint() if upp_cfg is not None else None
        ),
        "pattern": pattern,
        "rate": rate,
        "warmup": warmup,
        "measure": measure,
        "allow_deadlock": allow_deadlock,
    }


def workload_spec(
    topology: str,
    cfg: NocConfig,
    scheme: str,
    profile: WorkloadProfile,
    upp_cfg: Optional[UPPConfig] = None,
    max_cycles: int = 400_000,
) -> Dict[str, object]:
    """One closed-loop coherence workload run (Figs. 8, 12, 15)."""
    return {
        "schema": JOB_SCHEMA,
        "kind": "workload",
        "topology": topology,
        "cfg": cfg.to_dict(),
        "cfg_fingerprint": cfg.fingerprint(),
        "scheme": scheme,
        "upp_cfg": upp_cfg.to_dict() if upp_cfg is not None else None,
        "upp_cfg_fingerprint": (
            upp_cfg.fingerprint() if upp_cfg is not None else None
        ),
        "profile": dataclasses.asdict(profile),
        "max_cycles": max_cycles,
    }


# --------------------------------------------------------------------- #
# Execution (runs inline or inside a worker process).


def _spec_configs(spec: Mapping):
    cfg = NocConfig.from_dict(spec["cfg"])
    upp_cfg = (
        UPPConfig.from_dict(spec["upp_cfg"]) if spec["upp_cfg"] is not None else None
    )
    return cfg, upp_cfg


def _execute_sweep_point(spec: Mapping) -> Dict[str, object]:
    from repro.sim.simulator import Simulation
    from repro.traffic.synthetic import install_synthetic_traffic

    cfg, upp_cfg = _spec_configs(spec)
    sim = Simulation(
        get_topology(spec["topology"])(), cfg, make_scheme(spec["scheme"], upp_cfg)
    )
    install_synthetic_traffic(sim.network, spec["pattern"], spec["rate"])
    result = sim.run(
        spec["warmup"], spec["measure"], allow_deadlock=spec["allow_deadlock"]
    )
    summary = result.summary
    return {
        "rate": spec["rate"],
        "latency": summary["avg_total_latency"],
        "network_latency": summary["avg_network_latency"],
        "queueing_latency": summary["avg_queueing_latency"],
        "throughput": summary["throughput"],
        "deadlocked": result.deadlocked,
        "upward_packets": result.scheme_stats.get("upward_packets", 0),
        "scalar_fallback_fraction": result.datapath.get(
            "scalar_fallback_fraction"
        ),
    }


def _execute_workload(spec: Mapping) -> Dict[str, object]:
    from repro.sim.simulator import Simulation
    from repro.traffic.coherence import install_coherence_workload, workload_finished

    cfg, upp_cfg = _spec_configs(spec)
    profile = WorkloadProfile(**spec["profile"])
    max_cycles = spec["max_cycles"]
    sim = Simulation(
        get_topology(spec["topology"])(), cfg, make_scheme(spec["scheme"], upp_cfg)
    )
    endpoints = install_coherence_workload(sim.network, profile)
    result = sim.run(
        warmup=0,
        measure=max_cycles,
        stop_when=lambda net: workload_finished(endpoints),
        max_cycles=max_cycles,
    )
    if not workload_finished(endpoints):
        raise RuntimeError(
            f"workload {profile.name} did not finish within {max_cycles} "
            f"cycles under {spec['scheme']}"
        )
    summary = dict(result.summary)
    summary["runtime"] = result.cycles
    summary["upward_packets"] = result.scheme_stats.get("upward_packets", 0)
    summary["total_packets"] = result.stats.ejected_packets
    summary["scalar_fallback_fraction"] = result.datapath.get(
        "scalar_fallback_fraction"
    )
    return summary


_EXECUTORS: Dict[str, Callable[[Mapping], Dict[str, object]]] = {
    "sweep_point": _execute_sweep_point,
    "workload": _execute_workload,
}


def preload_simulation_stack() -> None:
    """Import everything :func:`execute_spec` runs: the vector engine
    (and numpy with it), the simulator and the traffic registries (the
    scheme and topology registries load with this module).

    A process that calls this before forking workers hands them the
    loaded modules, so their first point simulates at once.  Submitted
    to a fresh pool it forks the workers; there it finds every module
    already loaded and returns.
    """
    import repro.noc.vector  # noqa: F401
    import repro.sim.simulator  # noqa: F401
    import repro.traffic.coherence  # noqa: F401
    import repro.traffic.synthetic  # noqa: F401


def execute_spec(spec: Mapping) -> Dict[str, object]:
    """Run one task spec to completion and return its plain-dict result.

    Specs are validated against the ``repro-job/v1`` wire schema first —
    the same :func:`~repro.exp.schemas.validate_job` gate the service and
    client apply, so a malformed spec fails identically everywhere.
    """
    spec = validate_job(spec)
    return _EXECUTORS[spec["kind"]](spec)
