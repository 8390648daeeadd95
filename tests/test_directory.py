"""Full-map directory baseline: SWMR, invalidations, forwards, evictions."""

from collections import Counter
from itertools import product

import pytest

from tardisim.audit import CoherenceAuditor
from tardisim.cachemem import LineState
from tardisim.checker import check_trace
from tardisim.directory import DirectoryCore
from tardisim.messages import MsgKind
from tardisim.workloads import SynthParams, builtin, parse_program, synth

from conftest import run
from test_fingerprint import CAPACITY_CFG, CAPACITY_SEEDS, MODELS

M, E, S = LineState.M, LineState.E, LineState.S


def swmr_holds(sim) -> bool:
    for line in sim.llc.lines.lines():
        if line.owner is not None and line.sharers:
            return False
    return True


def test_cold_load_gets_exclusive_under_mesi():
    p = parse_program("[core 0]\nLd A -> r1")
    sim, rep = run(p, "directory", seed=0)
    assert rep.outcome == {"c0.r1": 0}
    assert sim.cores[0].l1.lookup(0, touch=False).state is E
    assert sim.llc.lines.lookup(0, touch=False).owner == 0

    sim, _ = run(p, "directory", mesi=False, seed=0)
    line = sim.cores[0].l1.lookup(0, touch=False)
    assert line.state is S
    assert sim.llc.lines.lookup(0, touch=False).sharers == {0}


def test_store_upgrades_exclusive_line_silently():
    p = parse_program("[core 0]\nLd A -> r1\nSt A 5")
    p.schedule = "sequential"
    sim, rep = run(p, "directory", seed=0)
    line = sim.cores[0].l1.lookup(0, touch=False)
    assert line.state is M
    # the E->M flip never touched the network: same traffic as the bare load
    _, lone = run(parse_program("[core 0]\nLd A -> r1"), "directory", seed=0)
    assert rep.traffic == lone.traffic


def test_getm_invalidates_every_sharer():
    p = parse_program("""
    [core 0]
    Ld A -> r1
    Sleep 400
    St A 3

    [core 1]
    Ld A -> r2
    """)
    p.schedule = "lockstep"
    sim, rep = run(p, "directory", mesi=False, seed=0)
    assert rep.outcome == {"c0.r1": 0, "c1.r2": 0}
    assert sim.cores[1].l1.lookup(0, touch=False) is None
    llc = sim.llc.lines.lookup(0, touch=False)
    assert llc.owner == 0 and not llc.sharers
    # one INV out, one INV_ACK back
    assert rep.traffic["invalidation"]["messages"] == 2
    assert swmr_holds(sim)


def test_read_forward_pulls_data_from_owner():
    p = parse_program("""
    [core 0]
    St A 7

    [core 1]
    Sleep 400
    Ld A -> r1
    """)
    p.schedule = "sequential"
    sim, rep = run(p, "directory", seed=0)
    assert rep.outcome == {"c1.r1": 7}
    assert sim.cores[0].l1.lookup(0, touch=False).state is S
    llc = sim.llc.lines.lookup(0, touch=False)
    assert llc.owner is None and llc.sharers == {0, 1}
    assert llc.value.literal == 7          # dirty data merged home
    assert swmr_holds(sim)


def test_write_forward_steals_ownership():
    p = parse_program("""
    [core 0]
    St A 1

    [core 1]
    Sleep 400
    St A 2
    Ld A -> r1
    """)
    p.schedule = "sequential"
    sim, rep = run(p, "directory", seed=0)
    assert rep.outcome == {"c1.r1": 2}
    assert sim.cores[0].l1.lookup(0, touch=False) is None
    assert sim.llc.lines.lookup(0, touch=False).owner == 1
    assert swmr_holds(sim)


def test_shared_eviction_sends_puts():
    # 1 KiB direct-mapped L1 -> 16 sets, so addresses 1024 apart collide
    p = parse_program("[core 0]\nLd A -> r1\nLd 1024 -> r2")
    p.schedule = "sequential"
    sim, rep = run(p, "directory", mesi=False, l1_kb=1, l1_ways=1, seed=0)
    assert sim.cores[0].l1.lookup(0, touch=False) is None
    assert sim.llc.lines.lookup(0, touch=False).sharers == set()
    # PUTS + PUTS_ACK are accounted as invalidation-class traffic
    assert rep.traffic["invalidation"]["messages"] == 2


def test_owned_eviction_writes_back_dirty_data():
    p = parse_program("[core 0]\nSt A 9\nSt 1024 1\nLd A -> r1")
    p.schedule = "sequential"
    sim, rep = run(p, "directory", l1_kb=1, l1_ways=1, seed=0)
    assert rep.outcome == {"c0.r1": 9}     # PUTM carried the 9 home
    assert rep.traffic["invalidation"]["messages"] == 0
    llc = sim.llc.lines.lookup(0, touch=False)
    assert llc.value.literal == 9


@pytest.mark.parametrize("preset_name", ["directory", "tardis-base"])
def test_home_eviction_recalls_llc_owner(preset_name):
    # 1 KiB direct-mapped LLC: the A/B/C lines all map to set 0 and the
    # first two are owned, so the third fill must park and take one back
    # (a forwarded GETM in the directory, a RECALL to I under tardis)
    p = parse_program("[core 0]\nSt A 1\nSt 1024 2\nSt 2048 3"
                      "\nLd A -> r1\nLd 1024 -> r2\nLd 2048 -> r3")
    p.schedule = "sequential"
    sim, rep = run(p, preset_name, auditor=CoherenceAuditor(), llc_kb=1,
                   llc_ways=1, l1_kb=32, seed=0)
    assert rep.outcome == {"c0.r1": 1, "c0.r2": 2, "c0.r3": 3}
    # every displaced line landed in memory with its dirty data
    held = {l.addr for l in sim.llc.lines.lines()}
    for addr, want in ((0, 1), (1024, 2), (2048, 3)):
        if addr not in held:
            assert sim.mem.read(addr).value.literal == want
    if preset_name == "directory":
        assert swmr_holds(sim)


def test_directory_commits_in_physical_order(monkeypatch):
    """Directory lines carry wts = rts = 0 and the clock never moves by
    itself, so every commit lands at 0.  The small-cache runs reach
    store grants, E upgrades, evictions from both cache levels and more
    accesses per core than the default self-increment period."""
    upgrades = []
    write = DirectoryCore._write

    def recording(core, entry, line, floor):
        upgrades.append(line.state is E)
        write(core, entry, line, floor)

    monkeypatch.setattr(DirectoryCore, "_write", recording)
    runs = [(builtin(name), seed, {}) for name in ("mp", "dekker", "sb")
            for seed in (0, 1, 2)]
    runs += [(synth(SynthParams(cores=8, ops_per_core=120, hot_lines=2,
                                shared_lines=24, private_lines=8,
                                seed=seed)), seed, CAPACITY_CFG)
             for seed in CAPACITY_SEEDS]
    sent = Counter()
    for (p, seed, caches), model in product(runs, MODELS):
        sim, rep = run(p, "directory", model=model, seed=seed, **caches)
        assert all(r.ts == 0 for r in sim.trace)
        assert check_trace(sim.trace, sim.cfg.model) == []
        assert rep.traffic["renew"]["messages"] == 0
        assert swmr_holds(sim)
        assert all(c.clock.current_max == 0 for c in sim.cores)
        lines = [*sim.llc.lines.lines(), *sim.mem.lines.values()]
        lines += [line for c in sim.cores for line in c.l1.lines()]
        assert all(line.wts == line.rts == 0 for line in lines)
        for (kind, _), (n, _) in sim.tally.items():
            sent[kind] += n
    assert any(upgrades)
    assert sent[MsgKind.EXCL_RESP] and sent[MsgKind.PUTM] \
        and sent[MsgKind.MEM_WRITE]
