"""Timestamp-based coherence.

No invalidations: shared copies are leases (valid through rts) that
expire in logical time, and a writer simply claims a timestamp above
every lease the home node has granted.  The LLC keeps the master copy
unless a single owner holds the line exclusively, in which case
requests recall it — to shared for reads (the owner keeps a snapshot
and its lease is extended along with everyone else's), to invalid for
writes.

Expired shared copies are renewed in place: if the line was not
written since (the requester's wts still matches), the home extends
rts and answers with a control message instead of a data transfer.
"""

from __future__ import annotations

from .cachemem import CacheLine, LineState, LlcLine, MIN_LEASE, ValueToken
from .engine import BaseCore, BaseLlc, HomeWait, StoreEntry, Txn, copy_record
from .leasepred import predict
from .livelock import LivelockDetector
from .messages import LLC, Msg, MsgKind, TO_I, TO_S
from .workloads import MemOp

M, E, S = LineState.M, LineState.E, LineState.S


class TardisCore(BaseCore):
    def __init__(self, sim, cid, ops):
        super().__init__(sim, cid, ops)
        cfg = sim.cfg
        if cfg.livelock_detector:
            self.detector = LivelockDetector(
                entries=cfg.ahb_entries, min_count=cfg.thresh_min,
                max_count=cfg.thresh_max, check_thresh=cfg.check_thresh)

    # -- loads -----------------------------------------------------------

    def _load(self, op: MemOp) -> None:
        addr = op.addr
        clock = self.clock
        line = self.l1.lookup(addr)
        if line is not None and line.state in (M, E):
            self._read(line)
            return
        if line is not None and line.state is S and clock.read_ts <= line.rts:
            # not _read: the detector reads read_ts before self-increment
            pre = clock.read_ts
            ts = clock.commit_load(line.wts)
            if (self.detector is not None and clock.read_ts == pre
                    and self.detector.on_shared_load(addr)):
                self._send_check(line)
            self._finish_load(line.value, ts, pre)
            return
        if line is not None and line.state is S:
            # expired: ask the home to stretch the lease
            self.sim.send(Msg(MsgKind.RENEW_REQ, addr, self.cid, LLC,
                              req_ts=clock.read_ts, req_wts=line.wts,
                              req_lease=line.lease))
        else:
            self.sim.send(Msg(MsgKind.LOAD_REQ, addr, self.cid, LLC,
                              req_ts=clock.read_ts))
        self.waiting = addr

    def _send_check(self, line: CacheLine) -> None:
        self.sim.send(Msg(MsgKind.CHECK_REQ, line.addr, self.cid, LLC,
                          req_wts=line.wts))

    # -- stores ----------------------------------------------------------

    def _drain_issue(self, entry: StoreEntry) -> None:
        addr = entry.addr
        line = self.l1.lookup(addr)
        if line is not None and line.state is M:
            self._write(entry, line, line.wts)
            return
        if line is not None and line.state is E:
            # silent upgrade; the new version starts past the windows the
            # home could have promised before handing the line over
            self._write(entry, line, line.rts + 1)
            return
        self.drain_inflight = True
        self.sim.send(Msg(MsgKind.STORE_REQ, addr, self.cid, LLC,
                          have_line=line is not None))

    # -- incoming --------------------------------------------------------

    def handle(self, msg: Msg) -> None:
        kind = msg.kind
        if kind is MsgKind.LOAD_RESP:
            self._filled(msg)
        elif kind is MsgKind.RENEW_RESP:
            assert self.waiting == msg.addr
            self.waiting = None
            line = self.l1.lookup(msg.addr)
            assert line is not None and line.state is S
            if not msg.data:   # renewed: the copy is still current
                line.rts = max(line.rts, msg.rts)
            else:
                line.wts, line.rts = msg.wts, msg.rts
                line.value = msg.value
            line.lease = msg.lease
            # rts >= req_ts + lease, and a blocked read_ts stood still
            self._read(line)
        elif kind is MsgKind.EXCL_RESP:
            self._store_granted(msg)
        elif kind is MsgKind.CHECK_RESP:
            if self.detector is not None:
                self.detector.on_check_response(msg.data)
            if msg.data:   # the copy was stale
                line = self.l1.lookup(msg.addr)
                if line is not None and line.state is S:
                    line.wts, line.rts = msg.wts, msg.rts
                    line.value = msg.value
                    line.lease = msg.lease
        elif kind is MsgKind.RECALL:
            self._recall(msg)
        else:
            raise AssertionError(f"core got {kind}")

    def _recall(self, msg: Msg) -> None:
        line = self.l1.lookup(msg.addr, touch=False)
        if line is None or line.state is S:
            # our writeback is already on its way; FIFO delivery means the
            # home merges it before this answer arrives
            self.sim.send(Msg(MsgKind.WB_RESP, msg.addr, self.cid, LLC,
                              data=False))
            return
        was_dirty = line.state is M
        if msg.downgrade == TO_S:
            line.state = S
            if msg.extend_ts is not None:
                line.rts = max(line.rts, msg.extend_ts + msg.lease)
                line.lease = msg.lease
        else:
            self.l1.remove(msg.addr)
        self.sim.send(Msg(MsgKind.WB_RESP, msg.addr, self.cid, LLC,
                          data=was_dirty, value=line.value,
                          wts=line.wts, rts=line.rts))

    # -- BaseCore hooks ----------------------------------------------------

    def _evicted(self, victim: CacheLine) -> None:
        if victim.state in (M, E):
            self.sim.send(Msg(MsgKind.WRITEBACK, victim.addr, self.cid,
                              LLC, data=True, value=victim.value,
                              wts=victim.wts, rts=victim.rts))
        # shared victims just vanish; their lease expires on its own

    def state_key(self) -> tuple:
        det = self.detector   # its AHB's items run in LRU order
        return super().state_key() + (
            None if det is None else
            (det.thresh_count, det.check_count, tuple(det.ahb.items())),)

    def clone(self, sim) -> TardisCore:
        new = super().clone(sim)
        if self.detector is not None:
            det = new.detector = copy_record(self.detector)
            det.ahb = det.ahb.copy()
        return new


# ---------------------------------------------------------------------------


class TardisLlc(BaseLlc):
    """The home's one transaction kind is a recall: the line's owner is
    asked to give it back before the head of its queue is served."""

    def warm_install(self, addr: int, value: ValueToken, wts: int,
                     rts: int, sharers=()) -> None:
        self.lines.insert(LlcLine(addr=addr, wts=wts, rts=rts, value=value))

    # -- entry -------------------------------------------------------------

    def handle(self, msg: Msg) -> None:
        kind = msg.kind
        if kind in (MsgKind.WRITEBACK, MsgKind.WB_RESP):
            self._merge(msg)
        elif kind is MsgKind.MEM_DATA:
            self._fill(msg)
        else:
            pend = self.waitq.get(msg.addr)
            if pend is not None:
                # behind a recall, queue a marked copy (the delivered
                # message is shared with other enumerated worlds).  A
                # line being taken back keeps its owner, so its first
                # request is marked as on any owned line; a fill's
                # record always holds the request that opened it.
                pend.queue.append(
                    copy_record(msg, recalled=True)
                    if pend.txn.kind == "recall" or not pend.queue else msg)
            else:
                self._admit(msg)

    # -- serving a resident line --------------------------------------------

    def _lease_for(self, line: LlcLine, req: Msg) -> int:
        cfg = self.sim.cfg
        if not cfg.lease_predictor:
            return cfg.static_lease
        line.cur_lease = predict(line.cur_lease, req.kind, req.req_lease)
        return line.cur_lease

    def _serve(self, msg: Msg, line: LlcLine) -> None:
        if line.owner is not None:
            # the owner gives it back first; msg waits, marked, meanwhile
            msg = copy_record(msg, recalled=True)
            pend = self.waitq[msg.addr] = HomeWait([msg])
            self._send_recall(line, msg, pend)
            return
        cfg = self.sim.cfg
        kind = msg.kind
        if kind is MsgKind.LOAD_REQ:
            if cfg.mesi and line.e_bit and not msg.recalled:
                line.e_bit = False
                line.owner = msg.src
                self.sim.send(Msg(MsgKind.LOAD_RESP, msg.addr, LLC, msg.src,
                                  data=True, excl=True, value=line.value,
                                  wts=line.wts, rts=line.rts,
                                  lease=line.cur_lease))
                return
            lease = self._lease_for(line, msg)
            line.rts = max(line.rts, msg.req_ts + lease)
            line.e_bit = False
            self.sim.send(Msg(MsgKind.LOAD_RESP, msg.addr, LLC, msg.src,
                              data=True, value=line.value, wts=line.wts,
                              rts=line.rts, lease=lease))
        elif kind is MsgKind.RENEW_REQ:
            lease = self._lease_for(line, msg)
            line.rts = max(line.rts, msg.req_ts + lease)
            if msg.req_wts == line.wts:
                self.sim.send(Msg(MsgKind.RENEW_RESP, msg.addr, LLC, msg.src,
                                  rts=line.rts, lease=lease))
            else:
                # stale data: the lease still moves, but the reply must
                # carry the current version
                self.sim.send(Msg(MsgKind.RENEW_RESP, msg.addr, LLC, msg.src,
                                  data=True, value=line.value,
                                  wts=line.wts, rts=line.rts, lease=lease))
        elif kind is MsgKind.CHECK_REQ:
            if msg.req_wts == line.wts:
                self.sim.send(Msg(MsgKind.CHECK_RESP, msg.addr, LLC, msg.src))
            else:
                self.sim.send(Msg(MsgKind.CHECK_RESP, msg.addr, LLC, msg.src,
                                  data=True, value=line.value,
                                  wts=line.wts, rts=line.rts,
                                  lease=line.cur_lease))
        elif kind is MsgKind.STORE_REQ:
            floor = line.rts + 1
            self._lease_for(line, msg)
            line.owner = msg.src
            line.e_bit = False
            self.sim.send(Msg(MsgKind.EXCL_RESP, msg.addr, LLC, msg.src,
                              data=not msg.have_line, floor=floor))
        else:
            raise AssertionError(f"llc got {kind}")

    # -- recalls and writebacks ---------------------------------------------

    def _send_recall(self, line: LlcLine, first: Msg, pend: HomeWait) -> None:
        if first.kind is MsgKind.STORE_REQ:
            down, extend, lease = TO_I, None, MIN_LEASE
        elif first.kind is MsgKind.CHECK_REQ:
            down, extend, lease = TO_S, None, MIN_LEASE
        else:
            down = TO_S
            extend = first.req_ts
            lease = (line.cur_lease if self.sim.cfg.lease_predictor
                     else self.sim.cfg.static_lease)
        pend.txn = Txn("recall", target=line.owner)
        self.sim.send(Msg(MsgKind.RECALL, line.addr, LLC, line.owner,
                          downgrade=down, extend_ts=extend, lease=lease))

    def _merge(self, msg: Msg) -> None:
        addr = msg.addr
        line = self.lines.lookup(addr, touch=False)
        if line is None:
            return  # answer for a line the home has already evicted
        if msg.kind is MsgKind.WRITEBACK:
            if line.owner != msg.src:
                return  # eviction notice from a previous owner
        elif not self._awaits(addr, msg.src):
            return  # a writeback already settled this recall or eviction
        if msg.data:
            line.value = msg.value
            line.wts = msg.wts
        line.rts = max(line.rts, msg.rts)
        line.owner = None
        line.e_bit = True
        if addr in self.waitq and self._close(addr) is not None:
            self._drain(addr)   # the recall is over

    def _replay(self, wait: HomeWait, line: LlcLine) -> None:
        if line.owner is not None:
            self._send_recall(line, wait.queue[0], wait)
        else:
            self._serve(wait.queue.pop(0), line)

    # -- capacity ------------------------------------------------------------

    def _take_back(self, victim: LlcLine, fill_addr: int) -> Txn:
        self.sim.send(Msg(MsgKind.RECALL, victim.addr, LLC, victim.owner,
                          downgrade=TO_I, extend_ts=None))
        return Txn("evict", target=victim.owner, fill=fill_addr)
