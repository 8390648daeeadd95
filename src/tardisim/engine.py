"""Deterministic simulation engine.

A run advances in ticks.  Each tick first delivers every network
message that is due, then gives cores a turn according to the schedule
(seeded round robin with random sit-outs by default; `sequential` and
`lockstep` exist for reproducing hand-worked executions).  A core
commits at most one operation per tick, so per-core commit steps are
strictly increasing, which is what lets the physical step serve as the
second component of physiological time.

Only ready cores take turns.  A core leaves the ready set after a turn
that leaves it parked (nothing a later turn could do until a message
arrives) and rejoins when a message is delivered to it.  When no core
is ready the clock jumps to the tick before the next delivery.  The
seeded schedule still consumes one `random()` draw per core per tick,
skipped ticks included, so runs are the same as polling every core.

The same protocol components also run under an exhaustive enumerator
(`enumerate_outcomes`) that replaces the clocked network with
explicitly scheduled message deliveries and explores every
interleaving of core micro-steps and deliveries, deduplicating states.
"""

from __future__ import annotations

import copy
import heapq
import json
import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .cachemem import (MIN_LEASE, CacheLine, LineState, LlcLine, MemLine,
                       SetAssocCache, ValueToken, copy_record, initial_token)
from .config import ConfigError, SimConfig, hop_table
from .consistency import CLOCKS
from .messages import LLC, MEM, Msg, MsgKind
from .workloads import MemOp, OpKind, ParseError, Program


class SimulationError(RuntimeError):
    pass


class DeadlockError(SimulationError):
    pass


class StepLimitError(SimulationError):
    pass


# ---------------------------------------------------------------------------
# trace


_KIND_STR = {OpKind.LOAD: "Ld", OpKind.STORE: "St", OpKind.FENCE: "Fence",
             OpKind.ACQUIRE: "Acq", OpKind.RELEASE: "Rel", OpKind.SPIN: "Spin"}
_STR_KIND = {v: k for k, v in _KIND_STR.items()}
_MEMORY_KINDS = {OpKind.LOAD, OpKind.STORE, OpKind.SPIN}   # rows with addr, val
_LOAD_KINDS = {OpKind.LOAD, OpKind.SPIN}                   # rows that may fwd


@dataclass(slots=True)
class TraceOp:
    """One committed operation."""

    core: int
    idx: int                 # program index (spins repeat theirs)
    kind: OpKind
    addr: int | None
    value: ValueToken | None
    ts: int
    step: int
    seq: int                 # per-core commit sequence, tie-break key
    fwd: bool = False        # load served from the store buffer

    def physio_key(self) -> tuple:
        return (self.ts, self.step, self.core, self.seq)

    def to_json(self) -> str:
        """The line json.dumps(sort_keys=True) writes for this row's
        fields, built directly."""
        addr = "" if self.addr is None else f'"addr": {self.addr}, '
        fwd = '"fwd": true, ' if self.fwd else ""
        val = ("" if self.value is None
               else ', "val": [%d, %d, %d]' % self.value)
        return (f'{{{addr}"core": {self.core}, {fwd}"i": {self.idx}, '
                f'"op": "{_KIND_STR[self.kind]}", "pt": {self.step}, '
                f'"seq": {self.seq}, "ts": {self.ts}{val}}}')


# one call into the C scanner per line: (value, end), or StopIteration
_scan_json = json.JSONDecoder().scan_once


def trace_from_json(lines) -> list[TraceOp]:
    """The rows TraceOp.to_json wrote, one a line; a line that is not
    such a row, or whose fields do not fit its op, raises ParseError
    naming it."""
    out = []
    for n, raw in enumerate(lines, 1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            d, end = _scan_json(raw, 0)
            if end != len(raw):
                raise ValueError(f"extra data from column {end + 1}")
            core, idx, ts, step, seq = (d["core"], d["i"], d["ts"], d["pt"],
                                        d["seq"])
            kind = _STR_KIND[d["op"]]
            addr, val, fwd = d.get("addr"), d.get("val"), d.get("fwd", False)
        except StopIteration:
            raise ParseError(f"trace line {n}: not a JSON value") from None
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"trace line {n}: {exc!r}") from None
        if not (int is type(core) is type(idx) is type(ts) is type(step)
                is type(seq) and (addr is None or type(addr) is int)
                and type(fwd) is bool
                and (val is None or type(val) is list and len(val) == 3
                     and int is type(val[0]) is type(val[1]) is type(val[2]))):
            raise ParseError(f"trace line {n}: a field has the wrong type")
        memory = kind in _MEMORY_KINDS
        if (addr is not None, val is not None) != (memory, memory):
            raise ParseError(f"trace line {n}: a {d['op']} row " + (
                "needs addr and val" if memory else "takes no addr or val"))
        if fwd and kind not in _LOAD_KINDS:
            raise ParseError(f"trace line {n}: a {d['op']} row is never "
                             "forwarded")
        out.append(TraceOp(core, idx, kind, addr,
                           None if val is None else ValueToken(*val),
                           ts, step, seq, fwd))
    return out


class StoreEntry(NamedTuple):
    idx: int
    addr: int
    token: ValueToken


# ---------------------------------------------------------------------------
# protocol-agnostic core frontend


class BaseCore:
    """Program sequencing, store buffer, private cache and commit
    bookkeeping: every line-backed load and store commits here, through
    the clock at the fabric's step (_read, _filled, _write).

    Protocol subclasses provide _load (commit a hit or send a request
    and block), _drain_issue (retire the store buffer head), handle
    (process an incoming message) and _evicted (tell the home about an
    L1 victim).
    """

    SPIN_PAUSE = 1

    def __init__(self, sim, cid: int, ops: list[MemOp]):
        cfg = sim.cfg
        self.sim = sim
        self.cid = cid
        self.ops = ops
        self.l1 = SetAssocCache(cfg.l1_kb, cfg.l1_ways, cfg.line_bytes)
        self.pc = 0
        self.regs: dict[str, int] = {}
        self.clock = CLOCKS[cfg.memory_model]()
        self.buffer: list[StoreEntry] = []
        self.buffer_cap = sim.cfg.store_buffer_size
        self.drain_inflight = False
        self.waiting = None          # the blocked load's address; op at pc
        self.sleep_left = 0
        self.seq = 0                 # per-core commit counter
        self.store_seq = 0
        self.access_count = 0
        self.si_period = cfg.si_period
        self.committed_step = -1
        self.detector = None

    # -- status --------------------------------------------------------

    @property
    def done(self) -> bool:
        return (self.pc >= len(self.ops) and not self.buffer
                and self.waiting is None)

    def parked(self) -> bool:
        """Whether turn() can do nothing until a message arrives: the
        core is done, or it is not sleeping and can neither drain nor
        issue."""
        if self.done:
            return True
        return not (self.sleep_left > 0 or self.can_drain()
                    or self.can_exec())

    # -- the next move: a turn, and each enumerated action -------------

    def turn(self) -> None:
        if self.done or self.committed_step == self.sim.step:
            return
        if self.sleep_left > 0:
            self.sleep_left -= 1
            return
        if self.can_drain():
            self._drain_issue(self.buffer[0])
            if self.committed_step == self.sim.step:
                return
        if self.can_exec():
            self.exec_op()

    def can_drain(self) -> bool:
        """Whether the store buffer head can start retiring now."""
        return bool(self.buffer) and not self.drain_inflight

    def can_exec(self) -> bool:
        """Whether the op at pc can issue now: no load is blocked and
        the store buffer lets it."""
        if self.waiting is not None or self.pc >= len(self.ops):
            return False
        if self.buffer_cap == 0 and self.buffer:
            return False  # unbuffered mode: a store in flight blocks everything
        k = self.ops[self.pc].kind
        if k is OpKind.STORE:
            return not (self.buffer_cap and len(self.buffer) >= self.buffer_cap)
        if k in (OpKind.FENCE, OpKind.ACQUIRE, OpKind.RELEASE):
            return not self.buffer or (k is OpKind.ACQUIRE
                                       and not self.clock.ACQUIRE_DRAINS)
        return True

    def exec_op(self) -> None:
        """Issue the op at pc; the caller has checked can_exec()."""
        op = self.ops[self.pc]
        k = op.kind
        if k is OpKind.STORE:
            self.store_seq += 1
            tok = ValueToken(self.cid, self.store_seq, op.value)
            self.buffer.append(StoreEntry(self.pc, op.addr, tok))
            self.pc += 1
            return
        if k in (OpKind.FENCE, OpKind.ACQUIRE, OpKind.RELEASE):
            ts = self.clock.sync(k)
            self.seq += 1
            step = self.committed_step = self.sim.step
            self.sim.trace_append(TraceOp(self.cid, self.pc, k, None, None,
                                          ts, step, self.seq))
            self.pc += 1
            return
        if k is OpKind.SLEEP:
            self.sleep_left = op.n
            self.pc += 1
            return
        # LOAD / SPIN: newest store-buffer entry wins
        for entry in reversed(self.buffer):
            if entry.addr == op.addr:
                pre = self.clock.read_ts
                ts = self.clock.commit_load(0, dirty_by_self=True)
                self._finish_load(entry.token, ts, pre, fwd=True)
                return
        self._load(op)

    # -- commit plumbing -----------------------------------------------

    def _read(self, line: CacheLine) -> None:
        """Commit the load or spin at pc from line.  A load past the
        line's lease stretches it: only an owner may, with no message."""
        pre = self.clock.read_ts
        ts = self.clock.commit_load(line.wts, dirty_by_self=line.dirty)
        if ts > line.rts:
            assert line.state is not LineState.S
            line.rts = ts
        self._finish_load(line.value, ts, pre)

    def _filled(self, msg: Msg) -> None:
        """LOAD_RESP or DATA_RESP: install the line the blocked load
        waits on and commit the load from it."""
        assert self.waiting == msg.addr
        self.waiting = None
        self._read(self._install(CacheLine(
            addr=msg.addr, state=LineState.E if msg.excl else LineState.S,
            wts=msg.wts, rts=msg.rts, value=msg.value, lease=msg.lease)))

    def _write(self, entry: StoreEntry, line: CacheLine, floor: int) -> None:
        """Write the buffer head into line, now in M, at or above floor,
        and retire it; rts never shrinks below an owner's own stretch."""
        pre = self.clock.read_ts
        ts = self.clock.commit_store(floor)
        line.wts = ts
        line.rts = max(line.rts, ts)
        line.state = LineState.M
        line.value = entry.token
        line.dirty = True
        self.buffer.pop(0)
        self.commit_memory(entry.idx, OpKind.STORE, entry.addr, entry.token,
                           ts, pre)

    def _finish_load(self, token: ValueToken, ts: int, pre_read_ts: int,
                     fwd: bool = False) -> None:
        """Commit the load or spin at pc, which a blocked load holds; a
        spin has no register and pauses at pc until it reads its value."""
        idx = self.pc
        op = self.ops[idx]
        if op.reg:
            self.regs[op.reg] = token.literal
        self.commit_memory(idx, op.kind, op.addr, token, ts, pre_read_ts,
                           fwd=fwd)
        if op.kind is OpKind.SPIN and token.literal != op.value:
            self.sleep_left = self.SPIN_PAUSE
        else:
            self.pc = idx + 1

    def commit_memory(self, idx: int, kind: OpKind, addr: int,
                      token: ValueToken, ts: int, pre_read_ts: int,
                      fwd: bool = False) -> None:
        self.seq += 1
        step = self.committed_step = self.sim.step
        self.sim.trace_append(TraceOp(self.cid, idx, kind, addr, token, ts,
                                      step, self.seq, fwd=fwd))
        if self.detector is not None and self.clock.read_ts > pre_read_ts:
            self.detector.reset_on_ts_advance()
        self.access_count += 1
        if self.access_count >= self.si_period and self.waiting is None:
            self.clock.self_increment()
            self.access_count = 0

    def _store_granted(self, msg: Msg) -> None:
        """EXCL_RESP: the home granted the buffer head's line in M."""
        entry = self.buffer[0]
        assert self.drain_inflight and entry.addr == msg.addr
        self.drain_inflight = False
        line = self.l1.lookup(msg.addr)
        through = False
        if line is None:
            line = CacheLine(addr=msg.addr, state=LineState.M)
            through = self._install(line) is None
        self._write(entry, line, msg.floor)
        if through:
            # no way to keep it in: the store goes straight home, and a
            # recall that crosses it finds no line
            self._evicted(line)

    def _install(self, line: CacheLine) -> CacheLine | None:
        """Put line in the L1 in place of its set's LRU line.  None when
        every way holds the line a renewing load waits on: then line
        stays out."""
        l1 = self.l1
        if not l1.has_room(line.addr):
            locked = self.waiting
            victim = l1.lru_victim(line.addr, avoid=lambda l: l.addr == locked)
            if victim is None:
                return None
            l1.remove(victim.addr)
            self._evicted(victim)
        l1.insert(line)
        return line

    def state_key(self) -> tuple:
        return (self.pc, tuple(sorted(self.regs.items())), self.clock,
                tuple(self.buffer), self.drain_inflight, self.waiting,
                self.sleep_left, self.store_seq, tuple(self.l1.lines()))

    def clone(self, sim) -> BaseCore:
        """An exact, independent copy of this core inside sim.  The op
        list and the buffered stores are immutable, so they are shared."""
        new = copy_record(self)
        new.sim = sim
        new.l1 = self.l1.clone()
        new.regs = dict(self.regs)
        new.clock = copy_record(self.clock)
        new.buffer = list(self.buffer)
        return new


# ---------------------------------------------------------------------------
# protocol-agnostic home node: fills and capacity


@dataclass(unsafe_hash=True)
class Txn:
    """Why the home is busy with one line: a DRAM read out (fill), a
    fill waiting for a victim to come home (parked) or for a way (blocked),
    or a transaction out to the cores: a Tardis recall or evict, or a
    directory gets_fwd, getm_fwd, getm_inv, evict_fwd or evict_inv."""

    kind: str
    req: Msg | None = None      # the request it serves, or a waiting fill
    need: int = 0               # invalidation acks still to come
    target: int | None = None   # the core whose answer ends it
    was_sharer: bool = False
    fill: int | None = None     # an eviction's: the line that takes the way


@dataclass
class HomeWait:
    """What the home holds for one line it is busy with: the requests
    queued on it and its one transaction.  A record is busy exactly when
    txn is set, and at rest every record holds one."""

    queue: list = field(default_factory=list)
    txn: Txn | None = None

    def clone(self) -> HomeWait:
        """An independent copy.  Messages never change once sent, so the
        queued ones and the transaction's request are shared; the
        transaction is copied because its ack count moves."""
        new = copy_record(self)
        new.queue = list(self.queue)
        new.txn = copy_record(self.txn)
        return new


class BaseLlc:
    """The shared-cache array, DRAM fills, capacity eviction and the one
    record per busy line.

    A request for a line with no record is admitted (_admit): a missing
    line starts a fill, a resident one goes to the protocol's _serve.
    A fill takes a free way, else its set's LRU line with no record,
    clean ones (no owner, no sharers) first, then shared, then owned.
    A clean victim leaves at once; any other parks the fill while the
    home takes it back from the cores, and the victim's return (_close)
    installs the fill.  A fill that finds every way of its set busy
    waits in blocked until a record in that set goes.  Requests for a
    busy line queue in its waitq record and _drain replays them once it
    is free.  Protocol subclasses provide handle (every message the home
    gets), warm_install (a pre-run resident line), _serve (act on a
    request for a resident line with no transaction: answer it or open
    one), _replay (act on the head of a free line's queue) and
    _take_back (send what takes a held victim back from the cores and
    return its eviction transaction).
    """

    def __init__(self, sim):
        self.sim = sim
        cfg = sim.cfg
        self.lines = SetAssocCache(cfg.llc_kb, cfg.llc_ways, cfg.line_bytes)
        self.waitq: dict[int, HomeWait] = {}
        self.blocked: list[int] = []   # blocked fill addrs, oldest first

    def _admit(self, msg: Msg) -> None:
        """Serve a request for a line with no record, or fetch the line."""
        line = self.lines.lookup(msg.addr)
        if line is None:
            self.waitq[msg.addr] = HomeWait([msg], Txn("fill"))
            self.sim.send(Msg(MsgKind.MEM_READ, msg.addr, LLC, MEM))
        else:
            self._serve(msg, line)

    def _awaits(self, addr: int, core: int) -> bool:
        """Whether the line's transaction waits on an answer from core."""
        wait = self.waitq.get(addr)
        return wait is not None and wait.txn.target == core

    def _drain(self, addr: int) -> None:
        """Replay the line's queue while it is free; the record goes once
        it holds nothing, and only here."""
        wait = self.waitq.get(addr)
        if wait is None:
            return
        while wait.queue and wait.txn is None:
            line = self.lines.lookup(addr)
            if line is None:
                # an evicted victim with demand queued on it
                wait.txn = Txn("fill")
                self.sim.send(Msg(MsgKind.MEM_READ, addr, LLC, MEM))
                return
            self._replay(wait, line)
        if wait.txn is None:
            del self.waitq[addr]
            if self.blocked and self.lines.lookup(addr, touch=False):
                self._unblock(addr)

    def _unblock(self, addr: int) -> None:
        """Run again the oldest fill blocked on addr's set, which the
        resident line addr no longer ties up."""
        s = self.lines.set_index(addr)
        for i, fill in enumerate(self.blocked):
            if self.lines.set_index(fill) == s:
                del self.blocked[i]
                self._fill(self.waitq[fill].txn.req)
                return

    def _fill(self, msg: Msg) -> None:
        addr = msg.addr
        wait = self.waitq[addr]
        if not self.lines.has_room(addr):
            victim = self.lines.lru_victim(
                addr, avoid=lambda l: l.addr in self.waitq,
                rank=lambda l: (l.owner is not None, bool(l.sharers)))
            if victim is None:
                wait.txn = Txn("blocked", req=msg)
                self.blocked.append(addr)
                return
            if victim.owner is not None or victim.sharers:
                # held by the cores: park the fill until it is home
                self.waitq[victim.addr] = HomeWait(
                    txn=self._take_back(victim, addr))
                wait.txn = Txn("parked", req=msg)
                return
            self._evict(victim)
        wait.txn = None
        self._install_fill(msg)
        self._drain(addr)

    def _close(self, addr: int) -> Txn | None:
        """End the line's transaction.  An eviction ends here: the line
        goes, the fill parked on it takes its way, and demand that queued
        on it meanwhile is replayed.  Any other transaction is returned
        for the protocol to finish."""
        wait = self.waitq[addr]
        txn, wait.txn = wait.txn, None
        if txn.fill is None:
            return txn
        self._evict(self.lines.lookup(addr, touch=False))
        self._fill(self.waitq[txn.fill].txn.req)
        self._drain(addr)
        return None

    def _evict(self, victim: LlcLine) -> None:
        self.lines.remove(victim.addr)
        self.sim.send(Msg(MsgKind.MEM_WRITE, victim.addr, LLC, MEM, data=True,
                          value=victim.value, wts=victim.wts, rts=victim.rts,
                          lease=victim.cur_lease))

    def _install_fill(self, msg: Msg) -> None:
        self.lines.insert(LlcLine(addr=msg.addr, wts=msg.wts, rts=msg.rts,
                                  value=msg.value, e_bit=True,
                                  cur_lease=msg.lease))

    def state_key(self) -> tuple:
        waits = tuple((a, tuple(w.queue), w.txn)
                      for a, w in sorted(self.waitq.items()))
        return tuple(self.lines.lines()), waits, tuple(self.blocked)

    def clone(self, sim) -> BaseLlc:
        """An exact, independent copy of this home node inside sim."""
        new = copy_record(self)
        new.sim = sim
        new.lines = self.lines.clone()
        new.waitq = {a: w.clone() for a, w in self.waitq.items()}
        new.blocked = list(self.blocked)
        return new


# ---------------------------------------------------------------------------
# main memory: the DRAM end of every fill and writeback


class MainMemory:
    """Backing store.  Timestamps and the predictor lease survive LLC
    eviction/refill round trips through here."""

    def __init__(self, sim):
        self.sim = sim
        self.lines: dict[int, MemLine] = {}

    def read(self, addr: int) -> MemLine:
        line = self.lines.get(addr)
        if line is None:
            line = MemLine(value=initial_token(addr))
            self.lines[addr] = line
        return line

    def write(self, addr: int, value: ValueToken, wts: int, rts: int,
              lease: int = MIN_LEASE) -> None:
        self.lines[addr] = MemLine(value=value, wts=wts, rts=rts, lease=lease)

    def handle(self, msg: Msg) -> None:
        if msg.kind is MsgKind.MEM_READ:
            line = self.read(msg.addr)
            self.sim.send(Msg(MsgKind.MEM_DATA, msg.addr, MEM, LLC, data=True,
                              value=line.value, wts=line.wts, rts=line.rts,
                              lease=line.lease))
        elif msg.kind is MsgKind.MEM_WRITE:
            self.write(msg.addr, msg.value, msg.wts, msg.rts, msg.lease)

    def state_key(self) -> frozenset:
        return frozenset(self.lines.items())

    def clone(self, sim) -> MainMemory:
        """An exact, independent copy of this memory inside sim; a
        MemLine is immutable, so it is shared."""
        new = copy_record(self)
        new.sim = sim
        new.lines = dict(self.lines)
        return new


# ---------------------------------------------------------------------------
# the timed simulator


def _build_parts(sim, program: Program):
    if not program.cores:
        raise ConfigError("cores must be >= 1")
    if sim.cfg.protocol == "tardis":
        from .tardis import TardisCore, TardisLlc
        cores = [TardisCore(sim, cid, ops) for cid, ops in enumerate(program.cores)]
        llc = TardisLlc(sim)
    else:
        from .directory import DirectoryCore, DirectoryLlc
        cores = [DirectoryCore(sim, cid, ops) for cid, ops in enumerate(program.cores)]
        llc = DirectoryLlc(sim)
    return cores, llc


def _assemble(sim, program: Program) -> list:
    """The components of a run by position, [*cores, mem, llc], so that a
    core id, MEM or LLC indexes them, each holding the program's warm
    lines."""
    cores, llc = _build_parts(sim, program)
    mem = MainMemory(sim)
    for warm in program.warm:
        tok = initial_token(warm.addr)
        mem.write(warm.addr, tok, warm.wts, warm.rts)
        llc.warm_install(warm.addr, tok, warm.wts, warm.rts,
                         sharers=warm.in_l1)
        for cid in warm.in_l1:
            cores[cid].l1.insert(CacheLine(addr=warm.addr, state=LineState.S,
                                           wts=warm.wts, rts=warm.rts,
                                           value=tok))
    return [*cores, mem, llc]


# The seeded schedule draws one random.Random.random() per core per
# tick.  random() is built from two 32-bit outputs a, b of the generator
# as ((a >> 5) * 2**26 + (b >> 6)) / 2**53, and getrandbits(64 * m)
# consumes the same 2m outputs, first output in the lowest bits.  A tick
# therefore takes its n draws as one 64n-bit word and compares just the
# ready cores' 53-bit numerators against a threshold, in integers.

DRAW_BITS = 64
_DRAW_MASK = (1 << DRAW_BITS) - 1
_BURN_DRAWS = 1 << 16        # draws per getrandbits call when skipping


def draw_numerator(word: int) -> int:
    """The 53-bit integer random() divides by 2**53, from the 64 bits
    that call would consume."""
    return ((word & 0xFFFFFFFF) >> 5) << 26 | (word & _DRAW_MASK) >> 38


def draw_threshold(p: float) -> int:
    """The least numerator whose random() value is >= p."""
    if p <= 0:
        return 0
    if p < 1:
        return math.ceil(p * 2**53)   # exact: scaled by a power of two
    return 1 << 53                    # p >= 1 or NaN: no draw passes


def burn_draws(rng: random.Random, n: int) -> None:
    """Advance rng past n random() draws."""
    while n > 0:
        chunk = min(n, _BURN_DRAWS)
        rng.getrandbits(DRAW_BITS * chunk)
        n -= chunk


_END = {LLC: "llc", MEM: "mem"}   # endpoint names in a dump; cores by id


class Simulator:
    def __init__(self, cfg: SimConfig, program: Program,
                 auditor=None):
        self.cfg = cfg
        self.program = program
        self.step = 0
        self.rng = random.Random(cfg.seed)
        # lockstep is the seeded schedule with no core ever sitting out
        self._pass_at = (0 if program.schedule == "lockstep"
                         else draw_threshold(cfg.skip_prob))
        # one tile per core; a line's home is its line number mod tiles
        self._tiles = program.n_cores
        self._hops = hop_table(self._tiles)
        # (kind, carries a line) -> [messages sent, hops they travelled];
        # the report derives every message count and the traffic from it
        self.tally: defaultdict[tuple, list] = defaultdict(lambda: [0, 0])
        self.trace: list[TraceOp] = []
        self._queue: list = []
        self._msg_seq = 0
        self.auditor = auditor
        # the addresses the auditor re-checks at the end of this tick:
        # every delivery's, every commit's, and every address an
        # audited cache inserts or removes
        self._touched: set[int] | None = None if auditor is None else set()
        # every endpoint by position: a message's dst indexes it
        self.parts = _assemble(self, program)
        *self.cores, self.mem, self.llc = self.parts
        self._ready = set(range(len(self.cores)))
        if auditor is not None:
            auditor.attach(self)

    # -- fabric interface (the enumerator replaces send) ---------------

    def send(self, msg: Msg) -> None:
        cfg = self.cfg
        if msg.dst == MEM or msg.src == MEM:   # dram traffic
            hops = 1
            half = cfg.dram_latency // 2
            latency = max(1, (cfg.dram_latency - half)
                          if msg.kind is MsgKind.MEM_READ else half)
        else:
            core_end = msg.src if msg.src >= 0 else msg.dst
            home = msg.addr // cfg.line_bytes % self._tiles
            hops = self._hops[core_end][home]
            latency = max(1, hops * cfg.hop_cycles)
        tally = self.tally[msg.kind, msg.data]
        tally[0] += 1
        tally[1] += hops
        self._msg_seq += 1
        heapq.heappush(self._queue, (self.step + latency, self._msg_seq, msg))

    def trace_append(self, row: TraceOp) -> None:
        self.trace.append(row)
        if self.auditor is not None:
            if row.addr is not None:
                self._touched.add(row.addr)
            self.auditor.on_commit(row)

    # -- run loop --------------------------------------------------------

    def all_done(self) -> bool:
        return all(c.done for c in self.cores)

    def tick(self) -> None:
        self.step = step = self.step + 1
        queue, ready, touched = self._queue, self._ready, self._touched
        while queue and queue[0][0] <= step:
            msg = heapq.heappop(queue)[2]
            self.route(msg)
            if msg.dst >= 0:
                ready.add(msg.dst)   # a delivery may unpark its core
            if touched is not None and msg.dst != MEM:
                touched.add(msg.addr)
        cores = self.cores
        for cid in self._turn_order():
            core = cores[cid]
            core.turn()
            if core.parked():
                ready.discard(cid)
        if touched:
            self.auditor.on_tick(touched)
            touched.clear()

    def route(self, msg: Msg) -> None:
        self.parts[msg.dst].handle(msg)

    def _turn_order(self) -> list[int]:
        """The ready cores that take a turn this tick, in core order."""
        sched = self.program.schedule
        if sched == "sequential":
            for core in self.cores:
                if not core.done:
                    return [core.cid] if core.cid in self._ready else []
            return []
        # one draw per core, ready or not
        words = self.rng.getrandbits(DRAW_BITS * len(self.cores))
        at = self._pass_at
        return [cid for cid in sorted(self._ready)
                if draw_numerator(words >> DRAW_BITS * cid) >= at]

    def _head_parked(self) -> bool:
        """Sequential schedule: whether the one core allowed to move, the
        first that is not done, waits for a delivery (the cores behind
        it stay ready without ever taking a turn)."""
        for core in self.cores:
            if not core.done:
                return core.cid not in self._ready
        return True

    def _skip_idle(self, limit: int) -> None:
        """No core is ready, so no tick before the next delivery does
        anything: move the clock to the tick before it, never past limit,
        consuming the draws those ticks would have made."""
        k = min(self._queue[0][0] - 1, limit) - self.step
        if k <= 0:
            return
        self.step += k
        if self.program.schedule != "sequential":
            burn_draws(self.rng, k * len(self.cores))

    def run(self):
        from .metrics import build_report
        limit = self.cfg.max_steps
        sequential = self.program.schedule == "sequential"
        # after every core is done, fire-and-forget traffic (freshness
        # checks, eviction writebacks triggered by the last fill) may
        # still be in flight; let it land
        while self._queue or not self.all_done():
            if self.step >= limit:
                raise StepLimitError(f"exceeded {limit} steps\n{self._dump()}")
            self.tick()
            if self._ready and not (sequential and self._head_parked()):
                continue
            if self._queue:
                self._skip_idle(limit)
            elif not self.all_done():
                raise DeadlockError("no core can advance and the network is "
                                    f"idle\n{self._dump()}")
        self.trace.sort(key=lambda r: (r.core, r.idx, r.seq))
        if self.auditor is not None:
            self.auditor.on_run_end()
        return build_report(self)

    def in_flight(self) -> list:
        """(due step, message) for each message in flight, in delivery
        order."""
        return [(due, msg) for due, _, msg in sorted(self._queue)]

    def _dump(self) -> str:
        """The cores, the messages in flight and the home records, for a
        failure message."""
        flying = self.in_flight()
        lines = [f"step={self.step} in_flight={len(flying)}"
                 f" ready={sorted(self._ready or ())}"]
        for c in self.cores:
            lines.append(
                f"  core {c.cid}: pc={c.pc}/{len(c.ops)} waiting={c.waiting}"
                f" buffer={len(c.buffer)} inflight={c.drain_inflight}"
                f" sleep={c.sleep_left}")
        for due, msg in flying:
            lines.append(f"  msg {msg.kind.name} {msg.addr:#x} "
                         f"{_END.get(msg.src, msg.src)}->"
                         f"{_END.get(msg.dst, msg.dst)}"
                         + ("" if due is None else f" due={due}"))
        for addr, w in sorted(self.llc.waitq.items()):
            txn = w.txn
            lines.append(
                f"  home {addr:#x}: queued={len(w.queue)}"
                f" txn={txn.kind}->{txn.target}"
                + ("" if txn.fill is None else f" fill={txn.fill:#x}"))
        return "\n".join(lines)

    def outcome(self) -> tuple:
        return tuple(self.cores[cid].regs.get(reg, 0)
                     for cid, reg in self.program.registers())


# ---------------------------------------------------------------------------
# exhaustive enumeration


class _Search:
    """The tables every world of one search shares, which let a world be
    a few small ints: its components as slot ids and its channels as
    message numbers (the collapse compression of SPIN, Holzmann 1997).

    A slot is one stored component: the first one the search met at a
    position (a core id, MEM or LLC) with a given state key.  A stored
    component never changes, since a step takes place on a clone of it.
    Every one has sim None, memory and the home included, so the tables
    keep no world alive and go with a search's last world; only a core
    has moves."""

    def __init__(self):
        self.slot_of: dict[tuple, int] = {}   # (position, state key) -> slot
        self.parts: list = []              # slot -> stored component
        self.moves: list[tuple] = []       # slot -> a core's enabled actions
        self.done: list[bool] = []         # slot -> whether a core is done
        self.msgs: list[Msg] = []          # number -> message
        self.numbers: dict[Msg, int] = {}  # message -> number, by value
        # id(msg) -> number of each message in msgs, which keeps it alive
        self.by_id: dict[int, int] = {}
        # (slot, action kind or message number) -> (result slot, numbers
        # of the messages sent, rows appended)
        self.memo: dict[tuple, tuple] = {}

    def store(self, target: int, part) -> int:
        """The slot of part, a component at target that no step will
        change: a new one if part is the first in its state."""
        slot = self.slot_of.setdefault((target, part.state_key()),
                                       len(self.parts))
        if slot == len(self.parts):
            part.sim = None
            moves = ()
            if target >= 0:
                if part.can_exec():
                    moves += (("op", target),)
                if part.can_drain():
                    moves += (("drain", target),)
            self.parts.append(part)
            self.moves.append(moves)
            self.done.append(target < 0 or part.done)
        return slot

    def number(self, msg: Msg) -> int:
        """The number of a message a step has just made.  It is hashed
        once; the first of equal messages is stored, and found by
        identity from then on."""
        n = self.numbers.get(msg)
        if n is None:
            n = self.numbers[msg] = self.by_id[id(msg)] = len(self.msgs)
            self.msgs.append(msg)
        return n


class _World(Simulator):
    """Fabric for enumeration.  It differs from Simulator in delivery
    and in how it holds its state.  Messages sit in per-channel FIFOs
    until the search delivers them, so there is no clock (step stays 0),
    schedule, send tally or trace.

    A world is its slot list and its channel map.  The slot list holds,
    at each position of Simulator.parts (a core id, MEM or LLC), the
    slot id of the component there; a channel holds message numbers.
    Slots, messages and steps live in the search's _Search, which every
    copy of a world shares, so a copy is two small containers.  The key
    of a world is its slots and its channels.

    apply() memoizes steps.  A step is looked up by the actor's slot and
    the action kind or the delivered message's number.  The first time,
    the stored component at any position is cloned into the world and
    its move or its handle runs on the clone; the clone is stored,
    unless its position already has a slot with the same state key, and
    the step's result slot, sends and rows go in the memo.  Every later
    time, the world takes the result slot, and the step's messages and
    rows are replayed through send and trace_append.  Each slot's
    enabled actions and whether its core is done are computed once,
    when it is stored.

    Nothing a component holds outside its state key changes a step's
    result, its sends or its rows: seq and access_count count commits,
    which follow from the key (pc, store_seq and the buffer), and
    access_count only times forced self-increments, which
    enumerate_outcomes puts 10**9 accesses apart; committed_step is the
    world's step, which stays 0; and sim is the fabric."""

    step = 0
    _ready = None   # read by _dump: a world has no schedule

    def __init__(self, cfg: SimConfig, program: Program):
        self.cfg = cfg
        self.program = program
        self.channels: dict[tuple, tuple] = {}   # (src, dst) -> numbers
        self._log = None   # ([numbers sent], [rows]) while a step runs
        self._search = search = _Search()
        parts = _assemble(self, program)
        self._slots = [search.store(target, part) for target, part in zip(
            (*range(len(parts) - 2), MEM, LLC), parts)]

    @property
    def cores(self) -> list:
        parts = self._search.parts
        return [parts[s] for s in self._slots[:-2]]

    @property
    def llc(self):
        return self._search.parts[self._slots[LLC]]

    def _part(self, target: int):
        """The component at target: a core id, LLC or MEM."""
        return self._search.parts[self._slots[target]]

    def send(self, msg: Msg) -> None:
        # a channel is a tuple, so copies of a world share it until one
        # of them sends on it or delivers from it; a replayed message is
        # the stored one, found by identity
        n = self._search.by_id.get(id(msg))
        if n is None:
            n = self._search.number(msg)
        ch = (msg.src, msg.dst)
        self.channels[ch] = self.channels.get(ch, ()) + (n,)
        if self._log is not None:
            self._log[0].append(n)

    def trace_append(self, row: TraceOp) -> None:
        # outcomes come from registers, so there is no trace; a step
        # being computed records its rows for the memo
        if self._log is not None:
            self._log[1].append(row)

    def in_flight(self) -> list:
        """(None, message) for each message in flight, channel by
        channel: a world has no clock."""
        msgs = self._search.msgs
        return [(None, msgs[n]) for _, q in sorted(self.channels.items())
                for n in q]

    def actions(self) -> list:
        acts = [("deliver", ch) for ch in sorted(self.channels)]
        moves = self._search.moves
        for slot in self._slots:
            acts += moves[slot]
        return acts

    def apply(self, action) -> None:
        what, target = action
        search = self._search
        msg = None
        if what == "deliver":
            q = self.channels.pop(target)
            if len(q) > 1:
                self.channels[target] = q[1:]
            what = q[0]   # a delivery is looked up by its message number
            msg = search.msgs[what]
            target = msg.dst
        look = (self._slots[target], what)
        step = search.memo.get(look)
        if step is None:
            step = search.memo[look] = self._compute(target, what, msg)
        else:
            msgs = search.msgs
            for n in step[1]:
                self.send(msgs[n])
            for row in step[2]:
                self.trace_append(row)
        self._slots[target] = step[0]

    def _compute(self, target: int, what, msg: Msg | None) -> tuple:
        """Take the step on a clone of the component at target: the slot
        of the result, and the numbers of the messages the step sent and
        the rows it appended."""
        part = self._part(target).clone(self)
        self._log = sent, rows = [], []
        if msg is not None:
            part.handle(msg)
        elif what == "op":
            part.exec_op()
        else:
            part._drain_issue(part.buffer[0])
        self._log = None
        return self._search.store(target, part), tuple(sent), tuple(rows)

    def terminal(self) -> bool:
        done = self._search.done
        return not self.channels and all(done[s] for s in self._slots)

    def __deepcopy__(self, memo) -> _World:
        """The copy the search branches with: its own slot list and
        channel map.  Everything else is shared: the config, the
        program, and the search's tables."""
        new = object.__new__(type(self))
        new.__dict__ = d = self.__dict__.copy()
        d["channels"] = self.channels.copy()
        d["_slots"] = self._slots.copy()
        return new

    def key(self) -> tuple:
        """The world's state key: each position's slot, then the
        channels.  A component's state key holds the records themselves
        (lines, clocks, messages, transactions), which compare by value;
        it is taken once, when its component is stored, which is exact
        because a stored component never changes."""
        return (*self._slots, *sorted(self.channels.items()))


# Two actions are independent, so either order reaches the same world,
# exactly when their actors differ.  The actor of an action is the one
# component it changes: the destination of a delivery, the core of an
# op or a drain.
# - apply() puts a new slot at the actor's position only: the step's
#   result, computed on a clone of the actor's component or replayed.
# - A handler reaches other components only through send and
#   trace_append, and reads none of them.
# - Every message a component sends has itself as src, so an action
#   appends only to channels that start at its actor.
# - A delivery pops the head of a channel that is not empty; another
#   actor can only append to that channel's tail.
# - Whether a core can take an op or a drain depends on its own state
#   alone, so neither action disables the other.
# - A world has no clock: its step stays 0, so no state reads how
#   many actions led to it.
def actor(action) -> int:
    what, arg = action
    return arg[1] if what == "deliver" else arg


ENUM_OP_LIMIT = 10
ENUM_STATE_LIMIT = 2_000_000   # unique states a search may visit


def enumerate_outcomes(program: Program, model: str,
                       protocol: str | None = None,
                       cfg: SimConfig | None = None,
                       stats: dict | None = None) -> set:
    """Every register outcome reachable under the protocol, over all
    interleavings of core micro-steps and message deliveries.

    The protocol is cfg's when a cfg is given (an explicit protocol must
    agree with it), else protocol, by default tardis.  A stats dict, if
    given, receives the size of the search, also when it fails: the
    worlds popped, the unique states, the peak frontier (the most worlds
    on the stack at once), the seconds taken, the enabled actions left
    unexpanded (slept), the revisits explored again (reopened), the
    component steps computed (transitions) and the steps replayed from
    the search's memo (reused).

    The search is a depth-first search with sleep sets and a state
    cache (Godefroid, LNCS 1032, 1996), with the revisit rule of Yang,
    Chen, Gopalakrishnan and Kirby (SPIN 2008).  An action asleep at a
    world is one that a commuting path already covers, so the search
    does not expand it there.  A world reached again with a sleep set
    that lacks some of what it was explored with is explored again,
    for those actions only.  Every reachable world is still visited.
    A sleep set is an int, one bit per action in the order the search
    first meets them, and a world key is ints (see _World), so the
    stack and the state cache hold no records."""
    for ops in program.cores:
        for op in ops:
            if op.kind is OpKind.SPIN:
                raise ValueError("conditional spins cannot be enumerated")
    if cfg is None:
        cfg = SimConfig("tardis" if protocol is None else protocol, mesi=False)
    elif protocol not in (None, cfg.protocol):
        raise ValueError(f"protocol {protocol!r} conflicts with the config's "
                         f"{cfg.protocol!r}")
    cfg = replace(cfg, model=model, self_increment_period=10**9)
    # a sleep only passes time, and enumeration has no clock
    cores = [[op for op in ops if op.kind is not OpKind.SLEEP]
             for ops in program.cores]
    prog = Program(program.name, cores, warm=program.warm,
                   schedule=None, addr_names=program.addr_names)
    if prog.dynamic_ops() > ENUM_OP_LIMIT:
        raise ValueError(f"enumeration is limited to {ENUM_OP_LIMIT} ops, "
                         f"program has {prog.dynamic_ops()}")
    start = time.perf_counter()
    root = _World(cfg, prog)
    seen: dict[tuple, int] = {}   # key -> the sleep set explored with
    outcomes = set()
    # a sleep set is an int with one bit per action asleep; actions are
    # numbered as the search meets them, and each actor's mask holds
    # the bits of its actions
    bits: dict[tuple, tuple] = {}   # action -> (its bit, its actor)
    masks: dict[int, int] = {}
    stack = [(root, 0)]
    popped = peak = slept = reopened = applied = 0
    try:
        while stack:
            popped += 1
            if len(stack) > peak:
                peak = len(stack)
            world, sleep = stack.pop()
            key = world.key()
            old = seen.get(key)
            if old is None:
                seen[key] = sleep
                if len(seen) > ENUM_STATE_LIMIT:
                    raise SimulationError("enumeration state limit exceeded")
                if world.terminal():
                    outcomes.add(world.outcome())
                    continue
                acts = world.actions()
                if not acts:
                    raise DeadlockError(f"enumeration wedged\n{world._dump()}")
                wake = ~sleep
            elif not old & ~sleep:
                continue
            else:
                # explored before with more asleep: expand only what
                # stayed asleep then and is awake now
                seen[key] = sleep = old & sleep
                acts = world.actions()
                wake = old & ~sleep
                reopened += 1
            todo = []
            for a in acts:
                got = bits.get(a)
                if got is None:
                    who = actor(a)
                    got = bits[a] = (1 << len(bits), who)
                    masks[who] = masks.get(who, 0) | got[0]
                if got[0] & wake:
                    todo.append((a, *got))
            slept += len(acts) - len(todo)
            done = sleep   # asleep, then each action once explored
            for action, bit, who in todo:
                nxt = copy.deepcopy(world)
                nxt.apply(action)
                applied += 1
                stack.append((nxt, done & ~masks[who]))
                done |= bit
    finally:
        if stats is not None:
            # each step applied is computed once, then replayed
            computed = len(root._search.memo)
            stats.update(popped=popped, unique=len(seen),
                         peak_frontier=peak, slept=slept, reopened=reopened,
                         transitions=computed, reused=applied - computed,
                         seconds=time.perf_counter() - start)
    return outcomes
