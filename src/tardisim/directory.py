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

from .cachemem import CacheLine, LineState, LlcLine, ValueToken
from .engine import BaseCore, BaseLlc, HomeWait, StoreEntry, Txn
from .messages import LLC, Msg, MsgKind
from .workloads import MemOp

M, E, S = LineState.M, LineState.E, LineState.S

# a request on an owned line: its transaction, and what goes to the owner
_FORWARD = {MsgKind.GETS: ("gets_fwd", MsgKind.FWD_GETS),
            MsgKind.GETM: ("getm_fwd", MsgKind.FWD_GETM)}


class DirectoryCore(BaseCore):
    def __init__(self, sim, cid, ops):
        super().__init__(sim, cid, ops)
        # the clock never moves by itself, and every line carries wts 0,
        # so each commit's max of zeros is 0
        self.si_period = 10 ** 18

    def _load(self, op: MemOp) -> None:
        line = self.l1.lookup(op.addr)
        if line is not None:
            self._read(line)
            return
        self.sim.send(Msg(MsgKind.GETS, op.addr, self.cid, LLC))
        self.waiting = op.addr

    def _drain_issue(self, entry: StoreEntry) -> None:
        line = self.l1.lookup(entry.addr)
        if line is not None and line.state in (M, E):
            self._write(entry, line, line.wts)
            return
        self.drain_inflight = True
        self.sim.send(Msg(MsgKind.GETM, entry.addr, self.cid, LLC))

    def handle(self, msg: Msg) -> None:
        kind = msg.kind
        if kind is MsgKind.DATA_RESP:
            self._filled(msg)
        elif kind is MsgKind.EXCL_RESP:
            self._store_granted(msg)
        elif kind is MsgKind.INV:
            line = self.l1.lookup(msg.addr, touch=False)
            if line is not None:
                assert line.state is S, "invalidation hit an owned line"
                self.l1.remove(msg.addr)
            self.sim.send(Msg(MsgKind.INV_ACK, msg.addr, self.cid, LLC))
        elif kind in (MsgKind.FWD_GETS, MsgKind.FWD_GETM):
            line = self.l1.lookup(msg.addr, touch=False)
            if line is None or line.state is S:
                self.sim.send(Msg(MsgKind.FWD_RESP, msg.addr, self.cid, LLC,
                                  data=False))
                return
            if kind is MsgKind.FWD_GETS:
                line.state = S
            else:
                self.l1.remove(msg.addr)
            self.sim.send(Msg(MsgKind.FWD_RESP, msg.addr, self.cid, LLC,
                              data=True, value=line.value))
        elif kind in (MsgKind.PUTS_ACK, MsgKind.PUTM_ACK):
            pass
        else:
            raise AssertionError(f"core got {kind}")

    def _evicted(self, victim: CacheLine) -> None:
        if victim.state is S:
            self.sim.send(Msg(MsgKind.PUTS, victim.addr, self.cid, LLC))
        else:
            self.sim.send(Msg(MsgKind.PUTM, victim.addr, self.cid, LLC,
                              data=victim.state is M, value=victim.value))


# ---------------------------------------------------------------------------


class DirectoryLlc(BaseLlc):
    """A line's transaction forwards to its owner (gets_fwd, getm_fwd,
    evict_fwd) or collects invalidation acks (getm_inv, evict_inv)."""

    def warm_install(self, addr: int, value: ValueToken, wts: int,
                     rts: int, sharers=()) -> None:
        self.lines.insert(LlcLine(addr=addr, wts=0, rts=0, value=value,
                                  sharers=frozenset(sharers)))

    # -- entry ---------------------------------------------------------

    def handle(self, msg: Msg) -> None:
        kind = msg.kind
        if kind in (MsgKind.GETS, MsgKind.GETM):
            wait = self.waitq.get(msg.addr)
            if wait is not None:
                wait.queue.append(msg)
            else:
                self._admit(msg)
        elif kind is MsgKind.INV_ACK:
            txn = self.waitq[msg.addr].txn
            txn.need -= 1
            if txn.need <= 0:
                self._acks_done(msg.addr)
        elif kind is MsgKind.FWD_RESP:
            if self._awaits(msg.addr, msg.src):
                self._fwd_done(msg.addr, msg if msg.data else None,
                               owner_kept_copy=True)
        elif kind is MsgKind.PUTS:
            line = self.lines.lookup(msg.addr, touch=False)
            if line is not None:
                line.sharers -= {msg.src}
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
            if self._awaits(addr, msg.src):
                # the owner's eviction answered our forward for us
                self._fwd_done(addr, None, owner_kept_copy=False)
        self.sim.send(Msg(MsgKind.PUTM_ACK, addr, LLC, msg.src))

    # -- serving a resident line -------------------------------------------

    def _serve(self, msg: Msg, line: LlcLine) -> None:
        if line.owner is not None:
            kind, fwd = _FORWARD[msg.kind]
            self.waitq.setdefault(msg.addr, HomeWait()).txn = Txn(
                kind, req=msg, target=line.owner)
            self.sim.send(Msg(fwd, msg.addr, LLC, line.owner))
        elif msg.kind is MsgKind.GETS:
            if self.sim.cfg.mesi and not line.sharers:
                line.owner = msg.src   # a lone reader gets E
            else:
                line.sharers |= {msg.src}
            self.sim.send(Msg(MsgKind.DATA_RESP, msg.addr, LLC, msg.src,
                              data=True, excl=line.owner is not None,
                              value=line.value))
        else:
            was = msg.src in line.sharers
            others = line.sharers - {msg.src}
            if others:
                self.waitq.setdefault(msg.addr, HomeWait()).txn = Txn(
                    "getm_inv", req=msg, need=len(others), was_sharer=was)
                for s in sorted(others):
                    self.sim.send(Msg(MsgKind.INV, msg.addr, LLC, s))
            else:
                self._grant_m(msg, line, was)

    def _grant_m(self, msg: Msg, line: LlcLine, was_sharer: bool) -> None:
        line.sharers = frozenset()
        line.owner = msg.src
        self.sim.send(Msg(MsgKind.EXCL_RESP, msg.addr, LLC, msg.src,
                          data=not was_sharer, value=line.value))

    # -- transaction completion --------------------------------------------

    def _fwd_done(self, addr: int, data_msg, owner_kept_copy: bool) -> None:
        line = self.lines.lookup(addr, touch=False)
        assert line is not None
        old_owner = (line.owner if line.owner is not None
                     else self.waitq[addr].txn.target)
        if data_msg is not None:
            line.value = data_msg.value
        line.owner = None
        txn = self._close(addr)
        if txn is None:
            return   # evict_fwd
        if txn.kind == "gets_fwd":
            if owner_kept_copy:
                line.sharers |= {old_owner}
            line.sharers |= {txn.req.src}
            self.sim.send(Msg(MsgKind.DATA_RESP, addr, LLC, txn.req.src,
                              data=True, value=line.value))
        else:
            assert txn.kind == "getm_fwd"
            self._grant_m(txn.req, line, was_sharer=False)
        self._drain(addr)

    def _acks_done(self, addr: int) -> None:
        txn = self._close(addr)
        if txn is not None:   # not evict_inv
            assert txn.kind == "getm_inv"
            self._grant_m(txn.req, self.lines.lookup(addr, touch=False),
                          txn.was_sharer)
            self._drain(addr)

    def _replay(self, wait: HomeWait, line: LlcLine) -> None:
        self._serve(wait.queue.pop(0), line)

    # -- capacity -----------------------------------------------------------

    def _take_back(self, victim: LlcLine, fill_addr: int) -> Txn:
        if victim.owner is not None:
            self.sim.send(Msg(MsgKind.FWD_GETM, victim.addr, LLC,
                              victim.owner))
            return Txn("evict_fwd", target=victim.owner, fill=fill_addr)
        for s in sorted(victim.sharers):
            self.sim.send(Msg(MsgKind.INV, victim.addr, LLC, s))
        return Txn("evict_inv", need=len(victim.sharers), fill=fill_addr)
