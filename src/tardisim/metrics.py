"""Run metrics: deterministic JSON reports and flat CSV rows."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .engine import TRAFFIC_CLASSES


@dataclass
class Report:
    program: str
    protocol: str
    model: str
    cores: int
    seed: int
    steps: int
    loads: int
    stores: int
    fences: int
    llc_accesses: int
    renew_requests: int
    renew_ok: int
    renew_fail: int
    checks_sent: int
    renew_rate: float
    ts_per_core: list
    ts_max: int
    ts_increase_rate: float
    traffic: dict
    outcome: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def flat(self) -> dict:
        """Scalar view for CSV output: the scalar fields in declaration
        order, then traffic per class."""
        d = {}
        for k, v in self.to_dict().items():
            if isinstance(v, float):
                d[k] = round(v, 6)
            elif not isinstance(v, (list, dict)):
                d[k] = v
        for cls in TRAFFIC_CLASSES:
            t = self.traffic[cls]
            d[f"flits_{cls}"] = t["flits"]
            d[f"msgs_{cls}"] = t["messages"]
        d["flits_total"] = self.traffic["total"]["flits"]
        d["flit_hops_total"] = self.traffic["total"]["flit_hops"]
        return d


def build_report(sim) -> Report:
    c = sim.counters
    led = sim.ledger
    traffic = {}
    for cls in TRAFFIC_CLASSES:
        traffic[cls] = {"messages": led.messages[cls],
                        "flits": led.flits[cls],
                        "flit_hops": led.flit_hops[cls]}
    traffic["total"] = {"messages": sum(led.messages.values()),
                        "flits": led.total_flits,
                        "flit_hops": led.total_flit_hops}
    mem_ops = c.loads + c.stores
    ts_per_core = [core.clock.current_max for core in sim.cores]
    ts_max = max(ts_per_core) if ts_per_core else 0
    outcome = {f"c{cid}.{reg}": sim.cores[cid].regs.get(reg, 0)
               for cid, reg in sim.program.registers()}
    return Report(
        program=sim.program.name,
        protocol=sim.cfg.protocol,
        model=sim.cfg.model,
        cores=len(sim.cores),
        seed=sim.cfg.seed,
        steps=sim.step,
        loads=c.loads,
        stores=c.stores,
        fences=c.fences,
        llc_accesses=c.llc_accesses,
        renew_requests=c.renew_reqs,
        renew_ok=c.renew_ok,
        renew_fail=c.renew_fail,
        checks_sent=c.checks_sent,
        renew_rate=c.renew_reqs / c.llc_accesses if c.llc_accesses else 0.0,
        ts_per_core=ts_per_core,
        ts_max=ts_max,
        ts_increase_rate=ts_max / mem_ops if mem_ops else 0.0,
        traffic=traffic,
        outcome=outcome,
        config=sim.cfg.identity(),
    )
