"""The runtime auditor must catch seeded invariant violations."""

import pytest

from tardisim.audit import AuditError, CoherenceAuditor
from tardisim.cachemem import CacheLine, LineState, ValueToken, initial_token
from tardisim.config import preset
from tardisim.engine import Simulator, TraceOp
from tardisim.workloads import (OpKind, SynthParams, WarmLine, builtin,
                                parse_program, synth)

from conftest import ONE_SET_CACHES, run
from test_fingerprint import CAPACITY_CFG, CAPACITY_PINS, CAPACITY_SEEDS, MODELS


def audited(text, **overrides):
    aud = CoherenceAuditor()
    p = parse_program(text)
    p.schedule = "sequential"
    sim, _ = run(p, auditor=aud, **overrides)
    return sim, aud


def test_clean_run_audits_quietly():
    sim, aud = audited("""
    [core 0]
    St A 1
    Ld A -> r1

    [core 1]
    Ld A -> r2
    St B 2
    """)
    assert aud.checked_ticks > 0
    aud.on_run_end()               # idempotent on a clean end state


def test_shrinking_master_window_is_caught():
    sim, aud = audited("[core 0]\nSt A 1\nLd A -> r1")
    line = sim.cores[0].l1.lookup(0, touch=False)
    line.wts -= 1
    with pytest.raises(AuditError, match="shrank"):
        aud._check_addr(0)


def test_wts_beyond_rts_is_caught():
    sim, aud = audited("[core 0]\nLd A -> r1", mesi=False)
    llc = sim.llc.lines.lookup(0, touch=False)
    llc.wts = llc.rts + 1
    with pytest.raises(AuditError, match="wts"):
        aud._check_addr(0)


def test_master_must_hold_newest_committed_store():
    sim, aud = audited("[core 0]\nSt A 7")
    line = sim.cores[0].l1.lookup(0, touch=False)
    line.value = initial_token(0)
    line.wts += 1                  # dodge the window + wts-tracking checks
    line.rts = line.wts
    with pytest.raises(AuditError, match="newest committed store"):
        aud._check_addr(0)


def test_value_must_carry_its_write_timestamp():
    sim, aud = audited("[core 0]\nSt A 7")
    line = sim.cores[0].l1.lookup(0, touch=False)
    line.wts += 3
    line.rts += 3
    with pytest.raises(AuditError, match="written at ts"):
        aud._check_addr(0)


def test_two_master_copies_are_caught():
    sim, aud = audited("""
    [core 0]
    St A 1

    [core 1]
    Ld B -> r1
    """)
    owned = sim.cores[0].l1.lookup(0, touch=False)
    assert owned.state is LineState.M
    sim.cores[1].l1.insert(CacheLine(
        addr=0, state=LineState.E, wts=owned.wts, rts=owned.rts,
        value=owned.value))
    with pytest.raises(AuditError, match="master copies"):
        aud._check_addr(0)


def test_dirty_shared_line_is_caught():
    sim, aud = audited("""
    [core 0]
    St A 1

    [core 1]
    Ld A -> r1
    """)
    line = sim.cores[1].l1.lookup(0, touch=False)
    assert line.state is LineState.S
    line.dirty = True
    with pytest.raises(AuditError, match="dirty"):
        aud._check_addr(0)


def test_store_inside_live_read_window_is_caught():
    # core 1 starts with a warm shared copy valid through ts 20; a store
    # committing at ts 10 would invalidate lease-based reading
    p = parse_program("[core 0]\nLd B -> r1\n\n[core 1]\nLd B -> r2")
    p.warm = [WarmLine(0, 0, 20, in_l1=(1,))]
    aud = CoherenceAuditor()
    sim = Simulator(preset("tardis-base"), p, auditor=aud)
    intruder = TraceOp(0, 0, OpKind.STORE, 0, ValueToken(0, 1, 5),
                       ts=10, step=1, seq=1)
    with pytest.raises(AuditError, match="window"):
        aud.on_commit(intruder)


def test_directory_single_writer_is_caught():
    p = parse_program("""
    [core 0]
    St A 1

    [core 1]
    Ld B -> r1
    """)
    p.schedule = "sequential"
    aud = CoherenceAuditor()
    sim, _ = run(p, "directory", auditor=aud)
    sim.cores[1].l1.insert(CacheLine(addr=0, state=LineState.S,
                                     value=initial_token(0)))
    with pytest.raises(AuditError, match="single-writer|coexists"):
        aud._check_addr(0)


def test_directory_stale_load_is_caught():
    p = builtin("mp")
    aud = CoherenceAuditor()
    sim, _ = run(p, "directory", auditor=aud)
    aud.last_store[0] = ValueToken(0, 9, 9)
    stale = TraceOp(1, 0, OpKind.LOAD, 0, initial_token(0),
                    ts=0, step=99, seq=9)
    with pytest.raises(AuditError, match="last store"):
        aud.on_commit(stale)


class _IndexChecked(Simulator):
    """Compares the auditor's holder index with a scan of every L1 after
    each tick."""

    ticks_checked = 0

    def tick(self):
        super().tick()
        scan = {}
        for core in self.cores:
            for line in core.l1.lines():
                scan.setdefault(line.addr, {})[core.cid] = id(line)
        index = {addr: {cid: id(line) for cid, line in held.items()}
                 for addr, held in self.auditor.holders.items()}
        assert index == scan, self.step
        self.ticks_checked += 1


@pytest.mark.parametrize("preset_name", sorted(CAPACITY_PINS))
def test_holder_index_matches_every_l1_under_capacity_pressure(preset_name):
    for model in MODELS:
        for seed in CAPACITY_SEEDS:
            sim = _IndexChecked(
                preset(preset_name, model=model, seed=seed, **CAPACITY_CFG),
                synth(SynthParams(cores=8, ops_per_core=40, hot_lines=2,
                                  shared_lines=24, private_lines=8,
                                  seed=seed)),
                auditor=CoherenceAuditor())
            sim.run()
            assert sim.ticks_checked > 0


class _RecordingAuditor(CoherenceAuditor):
    """Adds the addresses handed to on_tick to audited, a set the caller
    resets."""

    def on_tick(self, touched):
        self.audited |= touched
        super().on_tick(touched)


def _line_fields(sim) -> dict:
    """The fields the auditor reads of every L1 and LLC line, keyed by
    (cid or "llc", addr)."""
    out = {}
    for core in sim.cores:
        for l in core.l1.lines():
            out[core.cid, l.addr] = (l.state, l.wts, l.rts, l.value, l.dirty)
    for l in sim.llc.lines.lines():
        out["llc", l.addr] = (l.wts, l.rts, l.value, l.owner,
                              frozenset(l.sharers))
    return out


class _CoverageChecked(Simulator):
    """After each tick, every address whose line changed anywhere (it
    appeared, went, or changed a field the auditor reads) must be among
    the addresses the auditor re-checked in that tick."""

    changes_seen = 0

    def tick(self):
        before = _line_fields(self)
        self.auditor.audited = set()
        super().tick()
        after = _line_fields(self)
        changed = {addr for where, addr in before.keys() | after.keys()
                   if before.get((where, addr)) != after.get((where, addr))}
        missed = changed - self.auditor.audited
        assert not missed, f"step {self.step}: {sorted(missed)} not audited"
        self.changes_seen += len(changed)


@pytest.mark.parametrize("preset_name", sorted(CAPACITY_PINS))
def test_audited_set_covers_every_changed_line(preset_name):
    runs = [(preset(preset_name, model=model, seed=seed, **CAPACITY_CFG),
             synth(SynthParams(cores=8, ops_per_core=40, hot_lines=2,
                               shared_lines=24, private_lines=8, seed=seed)))
            for model in MODELS for seed in CAPACITY_SEEDS]
    # one-set caches make lease_case evict shared lines from the L1s
    runs += [(preset(preset_name, model=model, **caches), builtin(name, **kw))
             for model in MODELS for caches in ({}, ONE_SET_CACHES)
             for name, kw in (("spin", {"delay": 200}), ("lease_case", {}))]
    for cfg, program in runs:
        sim = _CoverageChecked(cfg, program, auditor=_RecordingAuditor())
        sim.run()
        assert sim.changes_seen > 0
