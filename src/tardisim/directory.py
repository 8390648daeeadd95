"""Full-map MESI directory baseline.

The home node tracks every copy (an exact sharer list plus at most one
owner) and keeps writes single-writer by invalidating sharers before
granting M.  The home blocks per line: requests that hit a line with a
transaction in flight queue up and are replayed in arrival order.

Everything commits at timestamp zero — ordering comes entirely from
invalidation, so traces carry physical order only and the consistency
checker treats them as sequentially consistent executions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cachemem import CacheLine, LineState, LlcLine, ValueToken
from .engine import BaseCore, BaseLlc, HomeWait, StoreEntry, copy_record
from .messages import LLC, Msg, MsgKind
from .workloads import MemOp

M, E, S = LineState.M, LineState.E, LineState.S


class DirectoryCore(BaseCore):
    def __init__(self, sim, cid, ops):
        super().__init__(sim, cid, ops)
        self.si_period = 10 ** 18   # logical clocks are unused here

    def _load(self, op: MemOp, step: int) -> None:
        line = self.l1.lookup(op.addr)
        if line is not None:
            self._finish_load(op, self.pc, line.value, 0, step, 0)
            return
        self.sim.send(Msg(MsgKind.GETS, op.addr, self.cid, LLC))
        self.waiting = {"op": op, "idx": self.pc, "addr": op.addr}

    def _drain_issue(self, entry: StoreEntry, step: int) -> None:
        line = self.l1.lookup(entry.addr)
        if line is not None and line.state in (M, E):
            self._commit_store(entry, line, 0, step, 0)
            return
        self.drain_inflight = True
        self.sim.send(Msg(MsgKind.GETM, entry.addr, self.cid, LLC))

    def handle(self, msg: Msg, step: int) -> None:
        kind = msg.kind
        if kind is MsgKind.DATA_RESP:
            ctx = self.waiting
            assert ctx is not None and ctx["addr"] == msg.addr
            self.waiting = None
            line = self._install(CacheLine(
                addr=msg.addr, state=E if msg.excl else S, value=msg.value))
            self._finish_load(ctx["op"], ctx["idx"], line.value, 0, step, 0)
        elif kind is MsgKind.EXCL_RESP:
            self._store_granted(msg, step)
        elif kind is MsgKind.INV:
            line = self.l1.lookup(msg.addr, touch=False)
            if line is not None:
                assert line.state is S, "invalidation hit an owned line"
                self.l1.remove(msg.addr)
                self.sim.touch(msg.addr)
            self.sim.send(Msg(MsgKind.INV_ACK, msg.addr, self.cid, LLC))
        elif kind is MsgKind.FWD_GETS:
            line = self.l1.lookup(msg.addr, touch=False)
            if line is None or line.state is S:
                self.sim.send(Msg(MsgKind.FWD_RESP, msg.addr, self.cid, LLC,
                                  data=False))
                return
            line.state = S
            line.dirty = False
            self.sim.touch(msg.addr)
            self.sim.send(Msg(MsgKind.FWD_RESP, msg.addr, self.cid, LLC,
                              data=True, value=line.value))
        elif kind is MsgKind.FWD_GETM:
            line = self.l1.lookup(msg.addr, touch=False)
            if line is None or line.state is S:
                self.sim.send(Msg(MsgKind.FWD_RESP, msg.addr, self.cid, LLC,
                                  data=False))
                return
            value = line.value
            self.l1.remove(msg.addr)
            self.sim.touch(msg.addr)
            self.sim.send(Msg(MsgKind.FWD_RESP, msg.addr, self.cid, LLC,
                              data=True, value=value))
        elif kind in (MsgKind.PUTS_ACK, MsgKind.PUTM_ACK):
            pass
        else:
            raise AssertionError(f"core got {kind}")

    def _evicted(self, victim: CacheLine) -> None:
        if victim.state is S:
            self.sim.send(Msg(MsgKind.PUTS, victim.addr, self.cid, LLC))
        else:
            self.sim.send(Msg(MsgKind.PUTM, victim.addr, self.cid, LLC,
                              data=victim.dirty, value=victim.value))

    def _store_ts(self, line: CacheLine, floor: int) -> int:
        return 0   # invalidation orders stores; lines carry no timestamps

    def state_key(self) -> tuple:
        lines = tuple(sorted(
            (l.addr, l.state.value, l.value.as_tuple(), l.dirty)
            for l in self.l1.lines()))
        return super().state_key() + (lines,)


# ---------------------------------------------------------------------------


@dataclass
class _Txn:
    kind: str                 # gets_fwd | getm_fwd | getm_inv | evict_fwd | evict_inv
    req: Msg | None = None
    need: int = 0
    got: int = 0
    fwd_target: int | None = None
    was_sharer: bool = False

    def clone(self) -> _Txn:
        new = copy_record(self)
        if self.req is not None:
            new.req = copy_record(self.req)
        return new


class DirectoryLlc(BaseLlc):
    def __init__(self, sim):
        super().__init__(sim)
        self.busy: dict[int, _Txn] = {}

    def warm_install(self, addr: int, value: ValueToken, wts: int,
                     rts: int, sharers=()) -> None:
        self.lines.insert(LlcLine(addr=addr, wts=0, rts=0, value=value,
                                  sharers=set(sharers)))

    # -- entry ---------------------------------------------------------

    def handle(self, msg: Msg, step: int) -> None:
        kind = msg.kind
        if kind in (MsgKind.GETS, MsgKind.GETM):
            self.sim.counters.llc_accesses += 1
            if msg.addr in self.busy or msg.addr in self.waitq:
                self.waitq.setdefault(msg.addr, HomeWait()).queue.append(msg)
            else:
                self._admit(msg)
        elif kind is MsgKind.INV_ACK:
            txn = self.busy[msg.addr]
            txn.got += 1
            if txn.got >= txn.need:
                self._acks_done(msg.addr)
        elif kind is MsgKind.FWD_RESP:
            txn = self.busy.get(msg.addr)
            if txn is not None and txn.fwd_target == msg.src:
                self._fwd_done(msg.addr, msg if msg.data else None,
                               owner_kept_copy=True)
        elif kind is MsgKind.PUTS:
            line = self.lines.lookup(msg.addr, touch=False)
            if line is not None:
                line.sharers.discard(msg.src)
                self.sim.touch(msg.addr)
            self.sim.send(Msg(MsgKind.PUTS_ACK, msg.addr, LLC, msg.src))
        elif kind is MsgKind.PUTM:
            self._putm(msg)
        elif kind is MsgKind.MEM_DATA:
            self._fill(msg)
        else:
            raise AssertionError(f"home got {kind}")

    def _putm(self, msg: Msg) -> None:
        addr = msg.addr
        line = self.lines.lookup(addr, touch=False)
        if line is not None and line.owner == msg.src:
            if msg.data:
                line.value = msg.value
            line.owner = None
            self.sim.touch(addr)
            txn = self.busy.get(addr)
            if txn is not None and txn.fwd_target == msg.src:
                # the owner's eviction answered our forward for us
                self._fwd_done(addr, None, owner_kept_copy=False)
        self.sim.send(Msg(MsgKind.PUTM_ACK, addr, LLC, msg.src))

    # -- request admission ------------------------------------------------

    def _admit(self, msg: Msg) -> None:
        line = self.lines.lookup(msg.addr)
        if line is None:
            self._start_fill(msg)
            return
        if msg.kind is MsgKind.GETS:
            self._gets(msg, line)
        else:
            self._getm(msg, line)

    def _gets(self, msg: Msg, line: LlcLine) -> None:
        if line.owner is not None:
            self.busy[msg.addr] = _Txn("gets_fwd", req=msg,
                                       fwd_target=line.owner)
            self.sim.send(Msg(MsgKind.FWD_GETS, msg.addr, LLC, line.owner))
            return
        if self.sim.cfg.mesi and not line.sharers:
            line.owner = msg.src
            self.sim.touch(msg.addr)
            self.sim.send(Msg(MsgKind.DATA_RESP, msg.addr, LLC, msg.src,
                              data=True, excl=True, value=line.value))
            return
        line.sharers.add(msg.src)
        self.sim.touch(msg.addr)
        self.sim.send(Msg(MsgKind.DATA_RESP, msg.addr, LLC, msg.src,
                          data=True, value=line.value))

    def _getm(self, msg: Msg, line: LlcLine) -> None:
        if line.owner is not None:
            self.busy[msg.addr] = _Txn("getm_fwd", req=msg,
                                       fwd_target=line.owner)
            self.sim.send(Msg(MsgKind.FWD_GETM, msg.addr, LLC, line.owner))
            return
        was = msg.src in line.sharers
        others = line.sharers - {msg.src}
        if others:
            self.busy[msg.addr] = _Txn("getm_inv", req=msg, need=len(others),
                                       was_sharer=was)
            for s in sorted(others):
                self.sim.send(Msg(MsgKind.INV, msg.addr, LLC, s))
            return
        self._grant_m(msg, line, was)

    def _grant_m(self, msg: Msg, line: LlcLine, was_sharer: bool) -> None:
        line.sharers.clear()
        line.owner = msg.src
        self.sim.touch(msg.addr)
        self.sim.send(Msg(MsgKind.EXCL_RESP, msg.addr, LLC, msg.src,
                          data=not was_sharer, value=line.value))

    # -- transaction completion --------------------------------------------

    def _fwd_done(self, addr: int, data_msg, owner_kept_copy: bool) -> None:
        txn = self.busy.pop(addr)
        line = self.lines.lookup(addr, touch=False)
        assert line is not None
        old_owner = line.owner if line.owner is not None else txn.fwd_target
        if data_msg is not None:
            line.value = data_msg.value
        line.owner = None
        self.sim.touch(addr)
        if txn.kind == "gets_fwd":
            if owner_kept_copy:
                line.sharers.add(old_owner)
            line.sharers.add(txn.req.src)
            self.sim.send(Msg(MsgKind.DATA_RESP, addr, LLC, txn.req.src,
                              data=True, value=line.value))
        elif txn.kind == "getm_fwd":
            self._grant_m(txn.req, line, was_sharer=False)
        else:
            assert txn.kind == "evict_fwd"
            self._finish_eviction(addr)
            return
        self._drain(addr)

    def _acks_done(self, addr: int) -> None:
        txn = self.busy.pop(addr)
        line = self.lines.lookup(addr, touch=False)
        assert line is not None
        if txn.kind == "getm_inv":
            self._grant_m(txn.req, line, txn.was_sharer)
            self._drain(addr)
        else:
            assert txn.kind == "evict_inv"
            line.sharers.clear()
            self._finish_eviction(addr)

    def _drain(self, addr: int) -> None:
        w = self.waitq.get(addr)
        if w is None:
            return
        while w.queue:
            if (addr in self.busy or w.fill_out
                    or w.parked_fill is not None):
                return
            self._admit_queued(w.queue.pop(0))
        if not w.fill_out and w.parked_fill is None:
            del self.waitq[addr]

    def _admit_queued(self, msg: Msg) -> None:
        line = self.lines.lookup(msg.addr)
        assert line is not None
        if msg.kind is MsgKind.GETS:
            self._gets(msg, line)
        else:
            self._getm(msg, line)

    # -- capacity -----------------------------------------------------------

    def _clean(self, line: LlcLine) -> bool:
        return line.owner is None and not line.sharers

    def _tied(self) -> set:
        return super()._tied() | set(self.busy)

    def _reclaim(self, fill_addr: int, tied: set) -> LlcLine | None:
        victim = self.lines.lru_victim(
            fill_addr, avoid=lambda l: l.addr in tied or l.owner is not None)
        if victim is not None:
            self.busy[victim.addr] = _Txn("evict_inv",
                                          need=len(victim.sharers))
            for s in sorted(victim.sharers):
                self.sim.send(Msg(MsgKind.INV, victim.addr, LLC, s))
            return victim
        victim = self.lines.lru_victim(fill_addr,
                                       avoid=lambda l: l.addr in tied)
        if victim is not None:
            self.busy[victim.addr] = _Txn("evict_fwd", fwd_target=victim.owner)
            self.sim.send(Msg(MsgKind.FWD_GETM, victim.addr, LLC,
                              victim.owner))
        return victim

    def state_key(self) -> tuple:
        lines = tuple(sorted(
            (l.addr, l.value.as_tuple(), l.owner, tuple(sorted(l.sharers)))
            for l in self.lines.lines()))
        busy = tuple(sorted(
            (a, t.kind, t.need, t.got, t.fwd_target, t.was_sharer,
             t.req.key() if t.req else None) for a, t in self.busy.items()))
        waits = tuple(sorted(
            (a, tuple(m.key() for m in w.queue), w.fill_out,
             w.parked_fill is not None) for a, w in self.waitq.items()))
        return (lines, busy, waits, tuple(sorted(self.evict_wait.items())))

    def clone(self, sim) -> DirectoryLlc:
        new = super().clone(sim)
        new.busy = {a: t.clone() for a, t in self.busy.items()}
        return new
