"""Report shape, derived rates, and serialization determinism."""

import json
from collections import Counter

import pytest

from tardisim.config import hop_table, preset
from tardisim.messages import LLC, MEM, TRAFFIC_CLASS, TRAFFIC_CLASSES, MsgKind
from tardisim.workloads import (OpKind, SynthParams, WarmLine, builtin,
                                parse_program, synth)

from conftest import run
from test_engine import _SentKept
from test_fingerprint import CAPACITY_CFG


def test_report_json_is_sorted_and_round_trips():
    _, rep = run(builtin("mp"), seed=3)
    text = rep.to_json()
    data = json.loads(text)
    assert list(data) == sorted(data)
    assert data["program"] == "mp" and data["seed"] == 3
    assert data["cores"] == 2
    # serialization is a pure function of the report
    assert text == rep.to_json()


def test_flat_row_has_every_traffic_column():
    _, rep = run(builtin("dekker"), seed=0)
    flat = rep.flat()
    for cls in TRAFFIC_CLASSES:
        assert f"flits_{cls}" in flat and f"msgs_{cls}" in flat
    assert flat["flits_total"] == rep.traffic["total"]["flits"]
    assert flat["flit_hops_total"] == rep.traffic["total"]["flit_hops"]
    assert all(not isinstance(v, (dict, list)) for v in flat.values())


def test_totals_add_up():
    _, rep = run(builtin("sb"), seed=1)
    t = rep.traffic
    assert t["total"]["messages"] == sum(t[c]["messages"]
                                         for c in TRAFFIC_CLASSES)
    assert t["total"]["flits"] == sum(t[c]["flits"] for c in TRAFFIC_CLASSES)


def test_renew_rate_definition():
    # the store pushes the clock past the warm copy's window, so the
    # following load has to renew
    p = parse_program("[core 0]\nSt B 1\nLd A -> r1")
    p.warm = [WarmLine(64, 0, 0, in_l1=(0,))]
    p.schedule = "sequential"
    sim, rep = run(p, model="sc", seed=0)
    assert rep.renew_requests >= 1
    assert rep.renew_rate == rep.renew_requests / rep.llc_accesses


def test_ts_increase_rate_definition():
    sim, rep = run(builtin("fig1"), "tardis-base", model="sc",
                   static_lease=10, store_buffer=0)
    assert rep.ts_max == max(rep.ts_per_core)
    assert rep.ts_increase_rate == rep.ts_max / (rep.loads + rep.stores)


def test_outcome_lists_registers_in_first_use_order():
    _, rep = run(builtin("mp"), seed=0)
    assert list(rep.outcome) == ["c1.r1", "c1.r2"]


def recount(sim) -> dict:
    """Every count of the report from its definition: committed rows of
    the trace, and the messages sent one by one, each of
    1 + data_flits flits with a line or 1 without, travelling the mesh
    distance between its core and the line's home tile (one hop to or
    from memory)."""
    cfg = sim.cfg
    rows = Counter(r.kind for r in sim.trace)
    msgs = [m for m, _ in sim.sent]
    kinds = Counter(m.kind for m in msgs)
    traffic = {c: {"messages": 0, "flits": 0, "flit_hops": 0}
               for c in (*TRAFFIC_CLASSES, "total")}
    for m in msgs:
        flits = 1 + cfg.data_flits if m.data else 1
        if MEM in (m.src, m.dst):
            hops = 1
        else:
            core = m.src if m.dst == LLC else m.dst
            tiles = len(sim.cores)
            home = m.addr // cfg.line_bytes % tiles
            hops = hop_table(tiles)[core][home]
        for t in (traffic[TRAFFIC_CLASS[m.kind]], traffic["total"]):
            t["messages"] += 1
            t["flits"] += flits
            t["flit_hops"] += flits * hops
    renews = [m for m in msgs if m.kind is MsgKind.RENEW_RESP]
    return {
        "loads": rows[OpKind.LOAD] + rows[OpKind.SPIN],
        "stores": rows[OpKind.STORE],
        "fences": (rows[OpKind.FENCE] + rows[OpKind.ACQUIRE]
                   + rows[OpKind.RELEASE]),
        "llc_accesses": sum(kinds[k] for k in (
            MsgKind.LOAD_REQ, MsgKind.STORE_REQ, MsgKind.RENEW_REQ,
            MsgKind.CHECK_REQ, MsgKind.GETS, MsgKind.GETM)),
        "renew_requests": kinds[MsgKind.RENEW_REQ],
        "renew_ok": sum(not m.data for m in renews),
        "renew_fail": sum(m.data for m in renews),
        "checks_sent": kinds[MsgKind.CHECK_REQ],
        "traffic": traffic,
    }


RECOUNTED = [
    # (config, program, a few of the run's flat() values)
    # a stale spin: renewals fail and the livelock detector checks
    (preset("tardis-live", seed=0), builtin("spin", delay=2000),
     {"renew_fail": 1, "checks_sent": 10}),
    # re-reads of expired leases renew without data
    (preset("tardis-opt", seed=0), builtin("lease_case"), {"renew_ok": 5}),
    # small caches: invalidations and dram traffic
    (preset("directory", seed=0, **CAPACITY_CFG),
     synth(SynthParams(cores=8, ops_per_core=40, hot_lines=2,
                       shared_lines=24, private_lines=8, seed=0)),
     {"msgs_invalidation": 230, "msgs_dram": 259}),
]


@pytest.fixture(scope="module")
def recounted():
    out = []
    for cfg, program, _ in RECOUNTED:
        sim = _SentKept(cfg, program)
        out.append((sim.run(), recount(sim)))
    return out


def test_report_counts_match_their_definitions(recounted):
    for (rep, want), (_, _, known) in zip(recounted, RECOUNTED):
        got = {k: getattr(rep, k) for k in want}
        assert got == want, rep.program
        flat = rep.flat()
        assert {k: flat[k] for k in known} == known, rep.program


def test_recounted_runs_reach_every_count(recounted):
    """A definition no run exercises would be checked against 0 = 0."""
    for key in recounted[0][1]:
        if key == "traffic":
            for cls in TRAFFIC_CLASSES:
                assert any(w["traffic"][cls]["messages"]
                           for _, w in recounted), cls
        else:
            assert any(w[key] for _, w in recounted), key
