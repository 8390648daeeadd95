"""Engine behavior: determinism, buffering, tracing, traffic."""

import copy
import gc
import io
import math
import random
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from enum import Enum
from itertools import islice

import pytest

from tardisim import engine
from tardisim.audit import CoherenceAuditor
from tardisim.cachemem import ValueToken
from tardisim.checker import check_trace, oracle_outcomes
from tardisim.config import preset
from tardisim.directory import DirectoryLlc
from tardisim.engine import (DRAW_BITS, ENUM_OP_LIMIT, DeadlockError,
                             SimulationError, Simulator, StepLimitError,
                             StoreEntry, TraceOp, _World, actor, burn_draws,
                             draw_numerator, draw_threshold,
                             enumerate_outcomes, trace_from_json)
from tardisim.messages import LLC, MEM, Msg, MsgKind
from tardisim.workloads import (LITMUS_NAMES, MemOp, OpKind, SynthParams,
                                WarmLine, builtin, parse_program, synth)
from conftest import ONE_SET_CACHES, ONE_WAY_CACHES, run
from test_fingerprint import (CAPACITY_CFG, CAPACITY_SEEDS,
                              ENUM_SEARCH_PINS, MODELS, PROGRAMS, RUN_PINS,
                              msg_fields, searched)


CONTended = SynthParams(cores=4, ops_per_core=60, hot_lines=2,
                        shared_lines=4, write_frac=0.4, hot_frac=0.5, seed=2)


def test_same_seed_same_run():
    prog = synth(CONTended)
    sim1, rep1 = run(prog, model="tso", seed=11)
    sim2, rep2 = run(prog, model="tso", seed=11)
    assert [r.to_json() for r in sim1.trace] == [r.to_json() for r in sim2.trace]
    assert rep1.to_json() == rep2.to_json()


def test_per_core_commit_steps_strictly_increase():
    sim, _ = run(synth(CONTended), model="tso", seed=5)
    per_core = {}
    for row in sorted(sim.trace, key=lambda r: (r.core, r.seq)):
        prev = per_core.get(row.core)
        if prev is not None:
            assert row.step > prev
        per_core[row.core] = row.step
    # physio keys are unique across the whole trace
    keys = [r.physio_key() for r in sim.trace]
    assert len(keys) == len(set(keys))


def test_store_buffer_forwards_newest_entry():
    prog = parse_program("""
    [core 0]
    St A 1
    St A 2
    Ld A -> r1
    """)
    sim, rep = run(prog, model="tso", seed=0)
    assert rep.outcome == {"c0.r1": 2}
    ld = next(r for r in sim.trace if r.kind is OpKind.LOAD)
    assert ld.fwd and ld.ts == 0           # early read, lts untouched


def test_sc_never_forwards():
    prog = parse_program("""
    [core 0]
    St A 1
    Ld A -> r1
    """)
    sim, rep = run(prog, model="sc", seed=0)
    assert rep.outcome == {"c0.r1": 1}
    st, ld = (next(r for r in sim.trace if r.kind is k)
              for k in (OpKind.STORE, OpKind.LOAD))
    assert not ld.fwd
    assert ld.step > st.step               # the store drained first
    assert ld.ts >= st.ts


def test_fence_drains_buffer():
    prog = parse_program("""
    [core 0]
    St A 1
    Fence
    Ld A -> r1
    """)
    sim, rep = run(prog, model="tso", seed=0)
    fence = next(r for r in sim.trace if r.kind is OpKind.FENCE)
    ld = next(r for r in sim.trace if r.kind is OpKind.LOAD)
    st = next(r for r in sim.trace if r.kind is OpKind.STORE)
    assert st.step < fence.step < ld.step
    assert not ld.fwd and ld.ts >= st.ts
    assert rep.fences == 1


def test_sleep_defers_the_next_op():
    prog = parse_program("""
    [core 0]
    Sleep 10
    St A 1
    """)
    prog.schedule = "sequential"
    sim, _ = run(prog, seed=0)
    st = next(r for r in sim.trace if r.kind is OpKind.STORE)
    assert st.step > 10


def test_sequential_schedule_runs_cores_in_order():
    prog = builtin("sb")
    prog.schedule = "sequential"
    sim, _ = run(prog, model="tso", seed=0)
    c0 = [r.step for r in sim.trace if r.core == 0]
    c1 = [r.step for r in sim.trace if r.core == 1]
    assert max(c0) < min(c1)


def test_trace_json_round_trip():
    sim, _ = run(synth(CONTended), model="rc", seed=8)
    # blank lines, as an editor may leave them, are skipped
    text = "\n\n".join(r.to_json() for r in sim.trace) + "\n \n"
    back = trace_from_json(io.StringIO(text))
    assert len(back) == len(sim.trace)
    for a, b in zip(sim.trace, back):
        assert a.physio_key() == b.physio_key()
        assert (a.kind, a.addr, a.value, a.fwd) == (b.kind, b.addr, b.value, b.fwd)


def test_trace_records_are_compact():
    """Rows, ops and buffered stores are slotted records or tuples, and
    a row's JSON text is pinned byte for byte."""
    tok = ValueToken(2, 7, 5)
    store = TraceOp(2, 3, OpKind.STORE, 128, tok, 41, 40, 6)
    fence = TraceOp(0, 1, OpKind.FENCE, None, None, 9, 12, 2)
    assert store.to_json() == ('{"addr": 128, "core": 2, "i": 3, "op": "St", '
                               '"pt": 40, "seq": 6, "ts": 41, '
                               '"val": [2, 7, 5]}')
    assert fence.to_json() == ('{"core": 0, "i": 1, "op": "Fence", "pt": 12, '
                               '"seq": 2, "ts": 9}')
    assert trace_from_json([store.to_json(), fence.to_json()]) == [store,
                                                                    fence]
    entry = StoreEntry(3, 128, tok)
    op = MemOp(OpKind.LOAD, 64)
    for record in (store, entry, op, tok):
        assert not hasattr(record, "__dict__"), type(record).__name__
    assert hash(entry) == hash((3, 128, tok))
    for record, name in ((op, "addr"), (entry, "addr"), (tok, "seq")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    store.ts, store.step = 42, 41   # rows stay mutable: checker tests edit them
    assert store.physio_key() == (42, 41, 2, 6)


# Bytes that the trace and the program of one synth run hold per committed
# op (trace row), measured with tracemalloc on Python 3.11.7: 176.4 (118,848
# program bytes and 727,844 trace bytes over 4,800 rows).  The guard allows
# 10% above it.
FOOTPRINT_BYTES_PER_OP = 176.4


def test_trace_and_program_footprint_per_op():
    """A footprint guard: the program (measured as synth builds it) and
    the trace (measured as it is dropped after the run) of one 16-core
    run stay compact."""
    params = SynthParams(cores=16, ops_per_core=300, seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        program = synth(params)
        program_bytes = tracemalloc.get_traced_memory()[0] - before
        sim = Simulator(preset("tardis-opt", seed=0), program)
        sim.run()
        rows = sim.trace
        sim.trace = []
        held = tracemalloc.get_traced_memory()[0]
        n = len(rows)
        del rows
        trace_bytes = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n == params.cores * params.ops_per_core
    per_op = (program_bytes + trace_bytes) / n
    assert per_op <= 1.1 * FOOTPRINT_BYTES_PER_OP, per_op


def test_cold_load_traffic_and_dram_latency():
    prog = parse_program("""
    [core 0]
    Ld A -> r1
    """)
    sim, rep = run(prog, seed=0)
    # request/response with the LLC plus a DRAM round trip
    assert rep.traffic["common"]["messages"] == 2
    assert rep.traffic["dram"]["messages"] == 2
    data_flits = sim.cfg.data_flits
    assert rep.traffic["common"]["flits"] == 1 + (1 + data_flits)
    assert rep.traffic["dram"]["flits"] == 1 + (1 + data_flits)
    assert sim.step >= sim.cfg.dram_latency


def test_livelock_without_forced_progress_hits_step_limit():
    prog = builtin("spin", delay=5)
    with pytest.raises(StepLimitError):
        run(prog, model="tso", livelock_detector=False,
            self_increment_period=10 ** 9, max_steps=30_000, seed=0)


class _LosesCore1Loads(Simulator):
    """A network that drops core 1's load requests."""

    def send(self, msg):
        if not (msg.kind is MsgKind.LOAD_REQ and msg.src == 1):
            super().send(msg)


def test_deadlock_detected_after_another_core_finishes():
    prog = parse_program("""
    [core 0]
    Ld A -> r1
    [core 1]
    Ld B -> r2
    """)
    sim = _LosesCore1Loads(preset("tardis-base", max_steps=20_000), prog)
    with pytest.raises(DeadlockError):
        sim.run()
    assert sim.cores[0].done and sim.cores[1].waiting is not None
    assert sim.step < 1_000


def test_sequential_deadlock_behind_a_blocked_core_is_detected():
    # core 2 stays ready behind the blocked core 1 but never gets a turn
    prog = parse_program("""
    [core 0]
    Ld A -> r1
    [core 1]
    Ld B -> r2
    [core 2]
    Ld C -> r3
    """)
    prog.schedule = "sequential"
    sim = _LosesCore1Loads(preset("tardis-base", max_steps=20_000), prog)
    with pytest.raises(DeadlockError):
        sim.run()
    assert sim.cores[0].done and sim.cores[1].waiting is not None
    assert sim.cores[2].pc == 0
    assert sim.step < 1_000


_BOTH_STORE = """
[core 0]
St A 1
[core 1]
St A 2
"""
_STUCK_TXN = [("directory", MsgKind.FWD_RESP, "getm_fwd"),
              ("tardis-base", MsgKind.WB_RESP, "recall")]


class _Drops(Simulator):
    """Loses every message of one kind."""

    drop = None

    def send(self, msg):
        if msg.kind is not self.drop:
            super().send(msg)


@pytest.mark.parametrize("preset_name,drop,txn", _STUCK_TXN)
def test_deadlock_dump_names_the_home_transaction(preset_name, drop, txn):
    prog = parse_program(_BOTH_STORE)
    sim = _Drops(preset(preset_name, max_steps=20_000), prog)
    sim.drop = drop
    # the second store's transaction waits on the first store's core
    with pytest.raises(DeadlockError, match=(
            rf"in_flight=0 (.|\n)* home 0x0: queued=[01] txn={txn}->[01]$")):
        sim.run()


@pytest.mark.parametrize("preset_name,drop,txn", _STUCK_TXN)
def test_enumeration_deadlock_dumps_the_world(preset_name, drop, txn,
                                              monkeypatch):
    send = _World.send
    monkeypatch.setattr(_World, "send",
                        lambda w, msg: msg.kind is drop or send(w, msg))
    stats = {}
    with pytest.raises(DeadlockError, match=rf"home 0x0: .* txn={txn}->"):
        enumerate_outcomes(parse_program(_BOTH_STORE), "tso",
                           cfg=preset(preset_name), stats=stats)
    # the size of the failed search is still reported
    assert stats["popped"] >= stats["unique"] > 1


def test_step_limit_counts_skipped_ticks():
    # the load waits 400 ticks for DRAM with no core ready; the clock
    # skips ahead but stops at the limit
    prog = parse_program("""
    [core 0]
    Ld A -> r1
    """)
    sim = Simulator(preset("tardis-base", dram_latency=400, max_steps=50),
                    prog)
    # the dump names the DRAM read still out, and when it lands
    with pytest.raises(StepLimitError,
                       match=r"\n  msg MEM_READ 0x0 llc->mem due=202\n"):
        sim.run()
    assert sim.step == 50


@pytest.mark.parametrize("seed", (0, 1, 7, 2**40 + 3))
def test_draw_words_reproduce_random(seed):
    """The seeded schedule takes a tick's draws with one getrandbits;
    this holds only while getrandbits(64 m) consumes the generator
    exactly as m random() calls do and lays their bits out as assumed."""
    m = 37
    single, bulk = random.Random(seed), random.Random(seed)
    values = [single.random() for _ in range(m)]
    words = bulk.getrandbits(DRAW_BITS * m)
    assert bulk.getstate() == single.getstate()
    for i, value in enumerate(values):
        num = draw_numerator(words >> DRAW_BITS * i)
        assert num / 2**53 == value
        for p in (0.0, 0.25, 0.5, 1.0, math.nan, value,
                  math.nextafter(value, 0), math.nextafter(value, 1)):
            assert (num >= draw_threshold(p)) == (value >= p), p
    n = 70_000   # more than one getrandbits call's worth
    burn_draws(bulk, n)
    for _ in range(n):
        single.random()
    assert bulk.getstate() == single.getstate()


class _Sandbox:
    """Stands in for the simulator under a probe copy of a core and
    records every message and commit the copy makes."""

    def __init__(self, sim):
        self.cfg = sim.cfg
        self.step = sim.step + 1   # the probe takes the next tick's turn
        self.effects = []

    def send(self, msg):
        self.effects.append(msg)

    def trace_append(self, row):
        self.effects.append(row)


class _ReadyChecked(Simulator):
    """After every tick, each core outside the ready set must be parked,
    and a turn of a copy of it must do nothing."""

    parked_seen = 0

    def tick(self):
        super().tick()
        for core in self.cores:
            if core.cid in self._ready:
                continue
            where = f"step {self.step}, core {core.cid}"
            assert core.parked(), f"{where}: left the ready set unparked"
            box = _Sandbox(self)
            probe = core.clone(box)
            probe.turn()
            # the key holds the clock and the lines themselves, so it is
            # compared with the untouched core's rather than taken before
            assert probe.state_key() == core.state_key(), \
                f"{where}: a turn changed it"
            assert not box.effects, f"{where}: a turn sent {box.effects}"
            self.parked_seen += 1


PRESETS = sorted({p for p, _ in RUN_PINS})


def _capacity_runs(preset_name):
    """The (config, program) pairs of the capacity matrix of
    test_fingerprint under one preset."""
    return [(preset(preset_name, model=model, seed=seed, **CAPACITY_CFG),
             synth(SynthParams(cores=8, ops_per_core=40, hot_lines=2,
                               shared_lines=24, private_lines=8, seed=seed)))
            for model in MODELS for seed in CAPACITY_SEEDS]


@pytest.mark.parametrize("preset_name", PRESETS)
def test_ready_set_only_drops_parked_cores(preset_name):
    runs = _capacity_runs(preset_name)
    runs += [(preset(preset_name, model=model, seed=0), PROGRAMS[name]())
             for model in MODELS for name in ("spin", "lease_case")]
    for cfg, program in runs:
        sim = _ReadyChecked(cfg, program)
        sim.run()
        assert sim.parked_seen, (cfg.model, program.name)


class _SentKept(Simulator):
    """Keeps every sent message with its key at the time of sending."""

    def __init__(self, cfg, program):
        self.sent = []
        super().__init__(cfg, program)

    def send(self, msg):
        self.sent.append((msg, msg_fields(msg)))
        super().send(msg)


@pytest.mark.parametrize("preset_name", PRESETS)
def test_messages_never_change_once_sent(preset_name):
    """Enumerated worlds share messages, which is exact only while no
    handler writes into one it was delivered."""
    for cfg, program in _capacity_runs(preset_name):
        sim = _SentKept(cfg, program)
        sim.run()
        changed = sum(msg_fields(msg) != key for msg, key in sim.sent)
        assert changed == 0, (cfg.model, cfg.seed, changed, len(sim.sent))


class _SendOrder(Simulator):
    """Asserts that messages on one (src, dst, addr) are routed in the
    order they were sent, and counts the messages routed after a later
    send on the same (src, dst) link."""

    def __init__(self, cfg, program):
        self.unrouted = {}      # (src, dst, addr) -> messages, send order
        self.link_sends = {}    # (src, dst) -> messages sent
        self.link_routed = {}   # (src, dst) -> highest send number routed
        self.sent_at = {}       # id(message) -> its send number
        self.overtaken = 0
        super().__init__(cfg, program)

    def send(self, msg):
        self.unrouted.setdefault((msg.src, msg.dst, msg.addr), []).append(msg)
        link = msg.src, msg.dst
        self.sent_at[id(msg)] = n = self.link_sends.get(link, 0)
        self.link_sends[link] = n + 1
        super().send(msg)

    def route(self, msg):
        first = self.unrouted[msg.src, msg.dst, msg.addr].pop(0)
        assert first is msg, (self.step, msg, first)
        link, n = (msg.src, msg.dst), self.sent_at.pop(id(msg))
        if n < self.link_routed.get(link, -1):
            self.overtaken += 1
        self.link_routed[link] = max(n, self.link_routed.get(link, -1))
        super().route(msg)


@pytest.mark.parametrize("preset_name", PRESETS)
def test_timed_network_keeps_send_order_per_address(preset_name):
    """A Tardis owner's WB_RESP behind its own WRITEBACK relies on this.
    A link as a whole is not FIFO: the hops, and so the latency, differ
    by address, and a DRAM read takes one tick more than a write when
    dram_latency is odd."""
    runs = _capacity_runs(preset_name)
    cfg, program = runs[0]
    runs.append((replace(cfg, dram_latency=101), program))
    overtaken = 0
    for cfg, program in runs:
        sim = _SendOrder(cfg, program)
        sim.run()
        assert not any(sim.unrouted.values())
        overtaken += sim.overtaken
    assert overtaken   # the channel key matters: whole links reorder


class _SeesBlocked(Simulator):
    """Notes whether a fill ever waits for a way of its home set."""

    blocked_seen = False

    def route(self, msg):
        self.blocked_seen |= bool(self.llc.blocked)
        super().route(msg)


# Runs in which a fill finds every way of its home set busy: (preset,
# program, caches, committed ops).  Each seed is both the program's and
# the run's.
_BLOCKED_FILL_RUNS = {
    "tardis-live": (SynthParams(cores=16, ops_per_core=40, hot_lines=2,
                                shared_lines=8, private_lines=2,
                                write_frac=0.15, fence_frac=0, seed=13),
                    {"l1_kb": 1, "l1_ways": 2, "llc_kb": 1, "llc_ways": 4},
                    640),
    "directory": (SynthParams(cores=16, ops_per_core=20, hot_lines=2,
                              shared_lines=16, private_lines=4,
                              write_frac=0.3, fence_frac=0, seed=105),
                  {"l1_kb": 1, "l1_ways": 4, "llc_kb": 1, "llc_ways": 4},
                  320),
}


@pytest.mark.parametrize("preset_name", list(_BLOCKED_FILL_RUNS))
def test_fill_waits_for_a_way_of_a_busy_home_set(preset_name):
    params, caches, ops = _BLOCKED_FILL_RUNS[preset_name]
    cfg = preset(preset_name, seed=params.seed, **caches)
    sim = _SeesBlocked(cfg, synth(params), auditor=CoherenceAuditor())
    sim.run()
    assert sim.blocked_seen and not sim.llc.blocked
    assert len(sim.trace) == ops
    assert check_trace(sim.trace, cfg.model) == []


# A store grant lands in a one-way L1 set whose only line a renewing
# load waits on, so the store is written through to the home.  The seed
# is both the program's and the run's.
_WRITE_THROUGH = SynthParams(cores=4, ops_per_core=60, hot_lines=2,
                             shared_lines=24, private_lines=8, seed=15)


@pytest.mark.parametrize("preset_name",
                         ("tardis-base", "tardis-live", "tardis-opt"))
def test_store_writes_through_a_set_a_renewing_load_holds(preset_name,
                                                         monkeypatch):
    install, through = engine.BaseCore._install, []

    def noted(core, line):
        got = install(core, line)
        through.append(got is None)
        return got

    monkeypatch.setattr(engine.BaseCore, "_install", noted)
    cfg = preset(preset_name, model="pso", seed=_WRITE_THROUGH.seed,
                 l1_kb=1, l1_ways=1, llc_kb=64, llc_ways=8)
    sim = Simulator(cfg, synth(_WRITE_THROUGH), auditor=CoherenceAuditor())
    sim.run()
    assert any(through)
    assert len(sim.trace) == 240
    assert check_trace(sim.trace, cfg.model) == []


@pytest.mark.parametrize("preset_name", PRESETS)
def test_enumeration_with_a_one_way_home_stays_inside_the_oracle(
        preset_name):
    cfg = replace(preset(preset_name), **ONE_WAY_CACHES)
    for model in MODELS:
        got = enumerate_outcomes(builtin("mp"), model, cfg=cfg)
        assert got and got <= oracle_outcomes(builtin("mp"), model), model


def test_enumeration_takes_the_protocol_from_the_config(monkeypatch):
    cfg = preset("directory")
    [world] = _popped_worlds(monkeypatch, builtin("mp"), cfg, 1)
    assert world.cfg.protocol == "directory"
    assert isinstance(world.llc, DirectoryLlc)
    with pytest.raises(ValueError, match="conflicts"):
        enumerate_outcomes(builtin("mp"), "tso", protocol="tardis", cfg=cfg)


def test_enumeration_stats_count_the_search(searched):
    stats = {}
    _, size = searched(builtin("mp"), "tso", stats=stats)
    assert (stats["popped"], stats["unique"]) == size
    assert size == ENUM_SEARCH_PINS[("mp", "tardis")][MODELS.index("tso")]
    assert 1 < stats["peak_frontier"] < stats["unique"]
    assert stats["seconds"] > 0
    # what the sleep sets saved, and how often a revisit woke an action
    assert (stats["slept"], stats["reopened"]) == (182, 24)


def test_enumerate_rejects_big_and_conditional_programs():
    big = synth(SynthParams(cores=2, ops_per_core=ENUM_OP_LIMIT, seed=0))
    with pytest.raises(ValueError):
        enumerate_outcomes(big, "tso", "tardis")
    with pytest.raises(ValueError):
        enumerate_outcomes(builtin("spin"), "tso", "tardis")


def test_enumeration_stops_past_the_state_limit(monkeypatch):
    monkeypatch.setattr(engine, "ENUM_STATE_LIMIT", 5)
    stats = {}
    with pytest.raises(SimulationError, match="state limit"):
        enumerate_outcomes(builtin("mp"), "tso", stats=stats)
    assert stats["unique"] == 6   # the sixth unique state is one too many


def test_enumerate_covers_every_seeded_run():
    prog = builtin("dekker")
    outs = enumerate_outcomes(prog, "tso", "tardis")
    seen = set()
    for seed in range(25):
        sim = Simulator(preset("tardis-base", model="tso", seed=seed), prog)
        sim.run()
        seen.add(sim.outcome())
    assert seen <= outs


def test_enumeration_skips_sleeps():
    plain = "[core 0]\nSt A 1\nSt B 1\n[core 1]\nLd B -> r1\nLd A -> r2"
    slept = ("[core 0]\nSleep 5\nSt A 1\nSt B 1\n"
             "[core 1]\nLd B -> r1\nSleep 3\nLd A -> r2\nSleep 1")
    assert parse_program(slept).dynamic_ops() == 7
    for model in MODELS:
        assert (enumerate_outcomes(parse_program(slept), model)
                == enumerate_outcomes(parse_program(plain), model)
                == {(0, 0), (0, 1), (1, 1)}), model


def test_enumeration_limit_counts_the_ops_it_searches():
    fences = "[core 0]\n" + "Fence\n" * ENUM_OP_LIMIT
    assert enumerate_outcomes(parse_program(fences + "Sleep 5"), "tso") == {()}
    with pytest.raises(ValueError, match=f"program has {ENUM_OP_LIMIT + 1}"):
        enumerate_outcomes(parse_program(fences + "Fence"), "tso")


# The searches the reduction is checked on: every litmus program but the
# four-core iriw pair, under MSI Tardis, the MSI directory and MESI
# Tardis with one-set caches, at SC and TSO
_REDUCED = [(name, label, model)
            for name in LITMUS_NAMES if name not in ("iriw", "iriw_fence")
            for label in ("tardis", "directory", "tardis-base one-set")
            for model in ("sc", "tso")]


def _reduced_search(name, label, model):
    cfg = None
    if label == "tardis-base one-set":
        cfg = replace(preset("tardis-base"), **ONE_SET_CACHES)
    return enumerate_outcomes(builtin(name), model,
                              protocol=None if cfg else label, cfg=cfg)


def _plain_search(root):
    """The worlds, by value, and the outcomes reachable from root, by a
    depth-first search that expands every enabled action.  It computes
    its steps through tables of its own, so it reuses none of the
    search's."""
    root = _isolated(root)
    seen, outcomes, stack = set(), set(), [root]
    while stack:
        world = stack.pop()
        k = world.key()
        if k in seen:
            continue
        seen.add(k)
        if world.terminal():
            outcomes.add(world.outcome())
        for action in world.actions():
            nxt = copy.deepcopy(world)
            nxt.apply(action)
            stack.append(nxt)
    return set(map(_by_value(root._search), seen)), outcomes


@pytest.mark.parametrize("name,label,model", _REDUCED)
def test_sleep_sets_reach_every_world(name, label, model, monkeypatch):
    """The sleep sets only skip transitions: the search reaches the same
    worlds and outcomes as a search that expands everything.  The two
    searches number their slots apart, so worlds compare by value."""
    key, keys, roots = _World.key, set(), []

    def kept(world):
        k = key(world)
        if not roots:
            roots.append(world)
        keys.add(k)
        return k

    monkeypatch.setattr(_World, "key", kept)
    got = _reduced_search(name, label, model)
    monkeypatch.undo()
    # the root is never applied to, so the plain search starts where
    # the reduced one did
    reached = set(map(_by_value(roots[0]._search), keys))
    assert _plain_search(roots[0]) == (reached, got)


@pytest.mark.parametrize("name,label,model", _REDUCED)
def test_actions_change_only_their_actor(name, label, model, monkeypatch):
    """The premise of the independence relation: an action replaces only
    its actor's component, and every message it sends leaves from it."""
    apply, send, compute = _World.apply, _World.send, _World._compute
    acting = []

    def applied(world, action):
        who = actor(action)
        before = list(world._slots)
        acting.append(who)
        apply(world, action)
        acting.pop()
        for target in _positions(world):
            if target != who:
                assert world._slots[target] == before[target], action

    def sent(world, msg):
        assert msg.src == acting[-1], msg
        send(world, msg)

    def computed(world, target, what, msg):
        assert target == acting[-1]
        return compute(world, target, what, msg)

    monkeypatch.setattr(_World, "apply", applied)
    monkeypatch.setattr(_World, "send", sent)
    monkeypatch.setattr(_World, "_compute", computed)
    assert _reduced_search(name, label, model)


@pytest.mark.parametrize("name,label,model", _REDUCED)
def test_memoized_transitions_are_exact(name, label, model, monkeypatch):
    """Every step the search replays from its memo is the step computed
    anew: on an isolated copy of the world with a memo of its own, the
    actor ends with the same state key, and the step sends the same
    messages and appends the same rows."""
    apply, send, append = _World.apply, _World.send, _World.trace_append
    made = []   # (sent, rows) of each apply in progress, innermost last

    def sent(world, msg):
        made[-1][0].append(msg)
        send(world, msg)

    def appended(world, row):
        made[-1][1].append(row)
        append(world, row)

    def applied(world, action):
        if made:   # the recomputation below
            return apply(world, action)
        # a copy shares the stored components, which no apply changes
        before, n = copy.deepcopy(world), len(world._search.memo)
        made.append(([], []))
        apply(world, action)
        got = made.pop()
        if len(world._search.memo) > n:
            return   # computed here, not replayed
        made.append(([], []))
        ref = _recomputed(before, action)
        assert made.pop() == got, action
        assert _fresh_key(world) == _fresh_key(ref), action

    monkeypatch.setattr(_World, "apply", applied)
    monkeypatch.setattr(_World, "send", sent)
    monkeypatch.setattr(_World, "trace_append", appended)
    assert _reduced_search(name, label, model)


# A state graph whose actions commute exactly when their actors differ:
# three components that talk through one-slot channels, found by a
# random search over small such systems.  A search that skips every
# revisit reaches states 0-8 only: states 9 and 10 are found only because
# a world reached again with fewer actions asleep is explored again.
_REVISIT_GRAPH = {
    0: {("drain", 0): 6, ("drain", 2): 4, ("op", 0): 5},
    1: {("deliver", (0, 1)): 3, ("drain", 0): 7},
    2: {("deliver", (0, 1)): 4, ("drain", 0): 8, ("op", 2): 1},
    3: {("deliver", (2, 0)): 2, ("drain", 0): 9, ("op", 0): 7},
    4: {("drain", 0): 10, ("op", 0): 8, ("op", 2): 3},
    5: {("deliver", (0, 1)): 6, ("drain", 2): 8},
    6: {("drain", 2): 10},
    7: {("deliver", (0, 1)): 9},
    8: {("deliver", (0, 1)): 10, ("op", 2): 7},
    9: {("deliver", (2, 0)): 8},
    10: {("op", 2): 9},
}


def test_a_revisit_with_fewer_asleep_explores_again(monkeypatch):
    graph = _REVISIT_GRAPH
    for succ in graph.values():   # the premise: actors differ, so commute
        for a, s in succ.items():
            for b, t in succ.items():
                if actor(a) != actor(b):
                    assert graph[s].get(b) == graph[t].get(a) is not None
    reached = set()

    class GraphWorld:
        """Stands in for _World: a world is a state of the graph."""

        # the search counts the steps memoized: none here
        _search = engine._Search()

        def __init__(self, cfg, program):
            self.state = 0

        def key(self):
            reached.add(self.state)
            return self.state

        def actions(self):
            return sorted(graph[self.state])

        def apply(self, action):
            self.state = graph[self.state][action]

        def terminal(self):
            return False

    monkeypatch.setattr(engine, "_World", GraphWorld)
    stats = {}
    assert enumerate_outcomes(builtin("single"), "sc", stats=stats) == set()
    assert reached == set(graph)
    assert stats["reopened"] > 0


# Three addresses, so that one-set caches make the home evict and park
# fills, and repeated loads of a line core 1 starts with in S, so that
# the livelock detector (with its threshold at 1) sends checks.
CLONE_PROGRAM = """
[core 0]
St A 1
Ld B -> r1
[core 1]
St B 1
Ld A -> r2
Ld A -> r3
Ld C -> r4
"""


def _clone_program():
    prog = parse_program(CLONE_PROGRAM, name="clone")
    prog.warm = [WarmLine(0, 0, 10, in_l1=(1,))]
    return prog


class _Enough(Exception):
    pass


def _positions(world):
    """The targets of a world's slots: each core id, then MEM and LLC."""
    return (*range(len(world._slots) - 2), MEM, LLC)


def _popped_worlds(monkeypatch, program, cfg, n):
    """The first n worlds the enumerator pops, in search order.  At each
    pop, the slot at each position must be the one the search stored
    for the state key its component has now."""
    worlds = []
    key = _World.key

    def collect(world):
        slot_of = world._search.slot_of
        for target in _positions(world):
            part = world._part(target)
            assert (slot_of.get((target, part.state_key()))
                    == world._slots[target]), part
        worlds.append(world)
        if len(worlds) == n:
            raise _Enough
        return key(world)

    with monkeypatch.context() as m:
        m.setattr(_World, "key", collect)
        try:
            enumerate_outcomes(program, "tso", cfg=cfg)
        except _Enough:
            pass
    return worlds


def _graph(root, shared=frozenset()):
    """Everything reachable from root through attributes and container
    items, as nested tuples, plus the ids of every object visited and of
    the mutable ones among them.  A message is visited in full but does
    not count as mutable: none may change once sent, so worlds share
    them.  A component's sim is a back-reference to the world that
    cloned it during a step, else None, not state, so it is not
    followed.  Objects whose id is in shared stand in by id only."""
    number, mutable = {}, set()

    def visit(obj):
        if obj is None or isinstance(obj, (bool, int, float, str, Enum)):
            return obj
        if id(obj) in shared:
            return ("shared", id(obj))
        if id(obj) in number:
            return ("ref", number[id(obj)])
        number[id(obj)] = len(number)
        kind = type(obj).__name__
        if isinstance(obj, (list, set, dict)):
            mutable.add(id(obj))
        if isinstance(obj, dict):
            return kind, tuple((visit(k), visit(v)) for k, v in obj.items())
        if isinstance(obj, (set, frozenset)):
            return kind, tuple(sorted(map(visit, obj), key=repr))
        if isinstance(obj, (list, tuple)):
            return kind, tuple(map(visit, obj))
        if not (is_dataclass(obj) and obj.__dataclass_params__.frozen
                or isinstance(obj, Msg)):
            mutable.add(id(obj))
        # a slotted dataclass has no __dict__: its fields are its state
        items = (vars(obj).items() if hasattr(obj, "__dict__") else
                 ((f.name, getattr(obj, f.name)) for f in fields(obj)))
        return kind, tuple((k, "back-reference" if k == "sim" else visit(v))
                           for k, v in items)

    return visit(root), set(number), mutable


# the tables that number messages
_INTERNED = ("msgs", "numbers", "by_id")


def _isolated(world):
    """A copy of world that shares no component with it and computes
    every step anew: its search has slots, stored components and a memo
    of its own, each component stored as a clone of world's.  It shares
    only the tables that number messages, so that its channels read as
    world's do.  Its slots are numbered apart from world's, so the two
    compare by value (_fresh_key)."""
    new = copy.deepcopy(world)
    search = new._search = engine._Search()
    for name in _INTERNED:
        setattr(search, name, getattr(world._search, name))
    for target in _positions(world):
        new._slots[target] = search.store(target,
                                          world._part(target).clone(new))
    return new


def _recomputed(world, action):
    """world after action, with the step computed anew: an isolated copy
    applies it."""
    ref = _isolated(world)
    ref.apply(action)
    return ref


def _fresh_key(world):
    """world.key() by value, with nothing taken from a slot or a message
    number: each position's state key, taken now, and the messages in
    flight.  Worlds of different searches compare by it."""
    msgs = world._search.msgs
    parts = (world._part(t).state_key() for t in _positions(world))
    flying = ((ch, tuple(msgs[n] for n in q))
              for ch, q in sorted(world.channels.items()))
    return (*parts, *flying)


def _by_value(search):
    """A function from a world key of search to the same key by value,
    as _fresh_key gives it: each slot read as its component's state
    key, and each channel as its messages."""
    state = {slot: key for (_, key), slot in search.slot_of.items()}
    msgs = search.msgs.__getitem__
    return lambda key: tuple(
        state[k] if isinstance(k, int) else (k[0], tuple(map(msgs, k[1])))
        for k in key)


def _state(world, but=None):
    """What a world's state is made of, for _graph: its components by
    position, None at but, and the messages in each channel."""
    msgs = world._search.msgs
    return ([None if t == but else world._part(t)
             for t in _positions(world)],
            {ch: [msgs[n] for n in q] for ch, q in world.channels.items()})


# the caches of each test_world_copies_are_exact_and_independent case
_COPY_CACHES = {False: {}, True: ONE_SET_CACHES, "one_way": ONE_WAY_CACHES}


def _situations(w):
    """The names of the states of the fabric that world w is in."""
    llc = w.llc
    return {name for name, hit in {
        "message in flight": w.channels,
        "request queued at the home": any(
            h.queue for h in llc.waitq.values()),
        "directory transaction": any(
            h.txn.kind not in ("recall", "fill", "parked", "blocked",
                               "evict")
            for h in llc.waitq.values()),
        "livelock history": any(
            c.detector is not None and c.detector.ahb for c in w.cores),
        "check out": any(
            m.kind in (MsgKind.CHECK_REQ, MsgKind.CHECK_RESP)
            for q in ([m for _, m in w.in_flight()],
                      *(h.queue for h in llc.waitq.values()))
            for m in q),
        "parked fill": any(
            h.txn.kind == "parked" for h in llc.waitq.values()),
        "blocked fill": llc.blocked,
    }.items() if hit}


@pytest.mark.parametrize("one_set", list(_COPY_CACHES))
@pytest.mark.parametrize("preset_name",
                         ("tardis-base", "tardis-opt", "directory"))
def test_world_copies_are_exact_and_independent(preset_name, one_set,
                                                monkeypatch):
    """A copy is a slot list and a channel map of its own: it shares
    every stored component, and the search's tables, with its parent
    until an action puts a new slot at the one position it changes.
    Branching must still be exact: each sibling ends in the state the
    step computed anew on an isolated copy reaches, and neither the
    parent nor any other sibling changes meanwhile.  The worlds checked
    are the first 200 popped, plus the first popped of each situation
    they miss, looked for among the first 600."""
    cfg = replace(preset(preset_name, thresh_min=1), **_COPY_CACHES[one_set])
    popped = _popped_worlds(monkeypatch, _clone_program(), cfg, 600)
    worlds = popped[:200]
    reached = set().union(*map(_situations, worlds))
    for w in popped[200:]:
        if not _situations(w) <= reached:
            worlds.append(w)
            reached |= _situations(w)
    for w in worlds:
        # the config, the program and its op lists may be shared, and
        # so may messages (see _graph)
        shared = set()
        for part in (w.cfg, w.program, *(c.ops for c in w.cores)):
            shared |= _graph(part)[1]
        key = w.key(), _fresh_key(w)
        # every component's clone is exact and shares nothing mutable;
        # both states stay referenced, so no id is reused meanwhile
        mine_state = _state(w)
        before, _, mine = _graph(mine_state, shared)
        iso = _isolated(w)
        iso_state = _state(iso)
        after, _, theirs = _graph(iso_state, shared)
        assert after == before
        assert _fresh_key(iso) == key[1]
        assert not mine & theirs, "a clone shares mutable state"
        assert all(c.sim is None for c in iso.cores + [iso.llc])
        # one sibling per action, each applied in turn
        acts = w.actions()
        family = [w] + [copy.deepcopy(w) for _ in acts]
        for sib in family[1:]:
            assert sib._search is w._search
            assert sib._slots is not w._slots and sib._slots == w._slots
            assert sib.channels is not w.channels
        graphs = [_graph(_state(x), shared)[0] for x in family]
        keys = [key] * len(family)
        for i, action in enumerate(acts, 1):
            sib = family[i]
            sib.apply(action)
            keys[i] = sib.key(), _fresh_key(sib)
            graphs[i] = _graph(_state(sib), shared)[0]
            # the step computed anew reaches the same state keys and the
            # same other components and messages in flight.  The
            # actor's own graph is not compared, since a stored
            # component keeps the insertion order of dicts whose order
            # no step reads (waitq, for one)
            fresh, who = _recomputed(w, action), actor(action)
            assert _fresh_key(fresh) == keys[i][1], action
            assert (_graph(_state(sib, but=who), shared)[0]
                    == _graph(_state(fresh, but=who), shared)[0]), action
            for x, graph, k in zip(family, graphs, keys):
                assert (x.key(), _fresh_key(x)) == k, (action, x is sib)
                assert _graph(_state(x), shared)[0] == graph, (action,
                                                               x is sib)
            # the actor's slot is the search's stored object for its new
            # state, which has no sim; every other position keeps the
            # parent's slot
            for target in _positions(w):
                if target != who:
                    assert sib._slots[target] == w._slots[target], action
            part = sib._part(who)
            assert (sib._search.slot_of[who, part.state_key()]
                    == sib._slots[who]), action
            assert getattr(part, "sim", None) is None, action
    want = {"message in flight", "request queued at the home"}
    if preset_name == "directory":
        want.add("directory transaction")
    if preset_name == "tardis-opt":
        want |= {"livelock history", "check out"}
    if one_set:
        want.add("parked fill")
    if one_set == "one_way":
        want.add("blocked fill")
    assert want <= reached


def _deep_hash(key):
    """hash(key), but with each frozenset's hash computed afresh where
    hash() would reuse the one the set cached when first hashed."""
    if isinstance(key, tuple):
        return hash(tuple(map(_deep_hash, key)))
    if isinstance(key, frozenset):
        return hash(frozenset(map(_deep_hash, key)))
    return hash(key)


@pytest.mark.parametrize("caches", list(_COPY_CACHES))
@pytest.mark.parametrize("preset_name",
                         ("tardis-base", "tardis-opt", "directory"))
def test_state_keys_never_change_once_taken(preset_name, caches,
                                            monkeypatch):
    """A world key is ints: the slot of each position and the numbers of
    the messages in flight.  The search's dicts hold the records behind
    them: slot_of those of each stored component's state key (lines,
    clocks, messages, transactions) and numbers each message.  They are
    exact only while no search step changes a record after it was
    keyed, and a slot only while its stored component keeps the state
    key it was stored with."""
    cfg = replace(preset(preset_name, thresh_min=1), **_COPY_CACHES[caches])
    key, taken, tracked = _World.key, [], {}

    def kept(world):
        k = key(world)
        taken.append((k, _deep_hash(k)))
        search = world._search
        # the component keys and messages stored since the last call,
        # hashed as they were then
        for table in (search.slot_of, search.numbers):
            n = tracked.setdefault(id(table), [table, 0, search])
            taken.extend((c, _deep_hash(c))
                         for c in islice(table, n[1], None))
            n[1] = len(table)
        return k

    monkeypatch.setattr(_World, "key", kept)
    for name in ("mp", "corr", "sb_fence"):
        enumerate_outcomes(builtin(name), "tso", cfg=cfg)
    changed = sum(_deep_hash(k) != h for k, h in taken)
    assert taken and changed == 0, (changed, len(taken))
    searches = {id(n[2]): n[2] for n in tracked.values()}
    assert len(searches) == 3
    for search in searches.values():
        for (target, state), slot in search.slot_of.items():
            assert search.parts[slot].state_key() == state, target
