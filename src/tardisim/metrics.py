"""Run metrics: deterministic JSON reports and flat CSV rows."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields

from .messages import TRAFFIC_CLASS, TRAFFIC_CLASSES, MsgKind
from .workloads import LOADS, SYNCS, OpKind


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


# the requests a home serves, one LLC access each
_LLC_REQUESTS = (MsgKind.LOAD_REQ, MsgKind.STORE_REQ, MsgKind.RENEW_REQ,
                 MsgKind.CHECK_REQ, MsgKind.GETS, MsgKind.GETM)


def build_report(sim) -> Report:
    """The report of a finished run.  Op counts come from the trace and
    message counts from the send tally; run() returns only once the
    network has drained, so every message sent was also delivered."""
    cfg = sim.cfg
    rows = sim.trace.kinds()
    sent = Counter()   # messages by kind, and by (kind, carries a line)
    traffic = {cls: {"messages": 0, "flits": 0, "flit_hops": 0}
               for cls in (*TRAFFIC_CLASSES, "total")}
    for (kind, data), (n, hops) in sim.tally.items():
        sent[kind] += n
        sent[kind, data] = n
        flits = 1 + cfg.data_flits if data else 1
        for t in (traffic[TRAFFIC_CLASS[kind]], traffic["total"]):
            t["messages"] += n
            t["flits"] += n * flits
            t["flit_hops"] += hops * flits
    loads = sum(rows[k] for k in LOADS)
    mem_ops = loads + rows[OpKind.STORE]
    llc_accesses = sum(sent[k] for k in _LLC_REQUESTS)
    ts_per_core = [core.clock.current_max for core in sim.cores]
    ts_max = max(ts_per_core)
    names = [f"c{cid}.{reg}" for cid, reg in sim.program.registers()]
    outcome = dict(zip(names, sim.outcome()))
    return Report(
        program=sim.program.name,
        protocol=cfg.protocol,
        model=cfg.model,
        cores=len(sim.cores),
        seed=cfg.seed,
        steps=sim.step,
        loads=loads,
        stores=rows[OpKind.STORE],
        fences=sum(rows[k] for k in SYNCS),
        llc_accesses=llc_accesses,
        renew_requests=sent[MsgKind.RENEW_REQ],
        renew_ok=sent[MsgKind.RENEW_RESP, False],
        renew_fail=sent[MsgKind.RENEW_RESP, True],
        checks_sent=sent[MsgKind.CHECK_REQ],
        renew_rate=(sent[MsgKind.RENEW_REQ] / llc_accesses if llc_accesses
                    else 0.0),
        ts_per_core=ts_per_core,
        ts_max=ts_max,
        ts_increase_rate=ts_max / mem_ops if mem_ops else 0.0,
        traffic=traffic,
        outcome=outcome,
        config=cfg.identity(len(sim.cores)),
    )
