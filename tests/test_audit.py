"""The runtime auditor must catch seeded invariant violations."""

import random

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


def _sharers_out_of_core_order(preset_name):
    """A four-core simulator, not run, whose cores 1 and 3 hold addr 0
    in S with the window (0, 20], core 3 first in the holder index; its
    auditor, and the two lines in core order."""
    p = parse_program("\n\n".join(f"[core {c}]\nLd B -> r{c}"
                                   for c in range(4)))
    p.warm = [WarmLine(0, 0, 20, in_l1=(1, 3))]
    aud = CoherenceAuditor()
    sim = Simulator(preset(preset_name), p, auditor=aud)
    l1 = sim.cores[1].l1
    l1.insert(l1.remove(0))
    assert list(aud.holders[0]) == [3, 1]
    return sim, aud, [sim.cores[c].l1.lookup(0, touch=False) for c in (1, 3)]


def _two_masters(sim, lines):
    lines[0].state, lines[1].state = LineState.M, LineState.E
    sim.llc.lines.lookup(0, touch=False).owner = 1


def _wts_beyond_rts(sim, lines):
    for line in lines:
        line.wts = 21


def _owned_by_core_1(sim, lines):
    lines[0].state = LineState.M
    sim.llc.lines.lookup(0, touch=False).owner = 1


_OUT_OF_ORDER = {
    "two-masters": ("tardis-base", _two_masters,
                    "2 master copies of addr 0: [('l1', 1), ('l1', 3)]"),
    "wts-beyond-rts": ("tardis-base", _wts_beyond_rts,
                       "core 1 line 0 has wts 21 > rts 20"),
    "directory-owned": ("directory", _owned_by_core_1,
                        "directory: owned line 0 coexists with other copies "
                        "at [1, 3]"),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_ORDER))
def test_line_failures_name_cores_in_core_order(case):
    preset_name, corrupt, message = _OUT_OF_ORDER[case]
    sim, aud, lines = _sharers_out_of_core_order(preset_name)
    corrupt(sim, lines)
    with pytest.raises(AuditError) as err:
        aud._check_addr(0)
    assert str(err.value) == f"step 0: {message}"


def test_store_inside_two_windows_names_the_lowest_core():
    sim, aud, _ = _sharers_out_of_core_order("tardis-base")
    intruder = TraceOp(0, 0, OpKind.STORE, 0, ValueToken(0, 1, 5),
                       ts=10, step=1, seq=1)
    with pytest.raises(AuditError) as err:
        aud.on_commit(intruder)
    assert str(err.value) == ("step 0: store ts 10 by core 0 lands inside "
                              "core 1's window (0, 20] for addr 0")


@pytest.mark.parametrize("preset_name", ["tardis-base", "directory"])
def test_run_end_sweeps_every_held_line(preset_name):
    p = parse_program("""
    [core 0]
    St A 1

    [core 1]
    Ld B -> r1
    """)
    p.schedule = "sequential"
    aud = CoherenceAuditor()
    sim, _ = run(p, preset_name, auditor=aud)
    aud.on_run_end()
    b = p.cores[1][0].addr
    # core 1 owns b in E, and the LLC now claims the master copy too
    sim.llc.lines.lookup(b, touch=False).owner = None
    with pytest.raises(AuditError, match=f"2 master copies of addr {b}"):
        aud.on_run_end()


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
            if sim.cfg.protocol == "tardis":
                # the home's victim rule ranks a line with sharers as
                # shared, and a Tardis home never records one
                assert not any(l.sharers for l in sim.llc.lines.lines())


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
            out[core.cid, l.addr] = (l.state, l.wts, l.rts, l.value)
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


def _corrupted(name, old, rng):
    """Another value for field name of a line."""
    if name == "state":
        return rng.choice([s for s in LineState if s is not old])
    if name in ("wts", "rts"):
        return old + rng.choice((-2, -1, 1, 2))
    if name == "value":
        return rng.choice((initial_token(0), ValueToken(0, 10**6, 1)))
    return rng.choice([o for o in (None, *range(8)) if o != old])


class _Corrupting(CoherenceAuditor):
    """At every fifth tick, corrupts one field of one line (an L1 copy
    or the LLC's) of a touched address, runs on_tick and a core-order
    walk of the same addresses, records both outcomes in pairs and puts
    the field back.  ordered_outside counts the core-order walks the
    auditor itself starts on the uncorrupted ticks."""

    def __init__(self, seed):
        super().__init__()
        self.rng = random.Random(seed)
        self.ticks = 0
        self.pairs = []
        self.comparing = False
        self.ordered_outside = 0

    def _check_addr(self, addr, ordered=False):
        self.ordered_outside += ordered and not self.comparing
        super()._check_addr(addr, ordered)

    def _no_store_in_window(self, row, ordered=False):
        self.ordered_outside += ordered
        super()._no_store_in_window(row, ordered)

    def _outcome(self, walk, window) -> str | None:
        self.window = dict(window)
        try:
            walk()
        except AuditError as exc:
            return str(exc)
        return None

    def on_tick(self, touched):
        self.ticks += 1
        if self.ticks % 5 == 0:
            self._compare(touched)
        super().on_tick(touched)

    def _compare(self, touched):
        rng = self.rng
        addr = rng.choice(sorted(touched))
        lines = [line for _, line in sorted(self.holders.get(addr, {}).items())]
        llc_line = self.llc.lookup(addr, touch=False)
        if llc_line is not None:
            lines.append(llc_line)
        if not lines:
            return
        line = rng.choice(lines)
        name = rng.choice([f for f in ("state", "wts", "rts", "value", "owner")
                           if hasattr(line, f)])
        old, window = getattr(line, name), self.window
        setattr(line, name, _corrupted(name, old, rng))
        self.comparing = True

        def ordered():
            for a in touched:
                self._check_addr(a, ordered=True)

        self.pairs.append((self._outcome(lambda: super(_Corrupting, self)
                                         .on_tick(touched), window),
                           self._outcome(ordered, window)))
        self.comparing = False
        self.window = window
        setattr(line, name, old)


@pytest.mark.parametrize("preset_name", sorted(CAPACITY_PINS))
def test_unsorted_walk_fails_exactly_when_the_ordered_walk_does(preset_name):
    pairs = []
    for model in MODELS:
        for seed in CAPACITY_SEEDS:
            aud = _Corrupting(seed)
            Simulator(preset(preset_name, model=model, seed=seed,
                             **CAPACITY_CFG),
                      synth(SynthParams(cores=8, ops_per_core=40, hot_lines=2,
                                        shared_lines=24, private_lines=8,
                                        seed=seed)),
                      auditor=aud).run()
            assert aud.ordered_outside == 0
            pairs += aud.pairs
    for unsorted, ordered in pairs:
        assert unsorted == ordered
    failed = sum(got is not None for got, _ in pairs)
    assert 0 < failed < len(pairs)
