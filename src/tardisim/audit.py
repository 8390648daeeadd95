"""Runtime coherence auditing.

Attached to a simulator, the auditor watches every line an event
touches and fails fast when a structural invariant breaks:

* at most one master copy per address (an L1 line in M/E, or the
  shared-cache line when no core owns it);
* the master's wts/rts only ever grow, and wts always tracks the
  timestamp the current value was written at;
* the master holds the globally newest committed store;
* no store ever lands inside another core's live read window — the
  property that makes lease-based reads safe without invalidations;
* directory mode instead gets the classic single-writer check plus
  "every load returns the last committed store".

These are brute-force checks over the actual cache structures, kept
affordable by only visiting addresses that may have changed this tick,
and only the cores whose L1 holds the line.  The protocols report
nothing: the simulator collects the addresses of the tick's deliveries
and commits, and attach swaps the class of every L1 and of the LLC for
a subclass that adds each address it inserts or removes (an L1 also
keeps the holders index), so an unaudited cache does no extra work.
"""

from __future__ import annotations

from .cachemem import LineState, SetAssocCache
from .workloads import OpKind

M, E, S = LineState.M, LineState.E, LineState.S


class AuditError(AssertionError):
    pass


class _Watched(SetAssocCache):
    """A cache that adds every address it inserts or removes to touched,
    the simulator's re-check set.  An L1 (holders set) also keeps
    holders[addr], {cid: line} of the cores holding addr; attach gives it
    touched, holders and cid."""

    holders = None

    def insert(self, line) -> None:
        super().insert(line)
        self.touched.add(line.addr)
        if self.holders is not None:
            self.holders.setdefault(line.addr, {})[self.cid] = line

    def remove(self, addr: int):
        line = super().remove(addr)
        if line is not None:
            self.touched.add(addr)
            if self.holders is not None:
                held = self.holders[addr]
                del held[self.cid]
                if not held:
                    del self.holders[addr]
        return line


class CoherenceAuditor:
    def __init__(self):
        self.sim = None
        self.holders: dict[int, dict] = {}         # addr -> {cid: L1 line}
        self.token_when: dict[tuple, tuple] = {}   # token -> (ts, step)
        self.window: dict[int, tuple] = {}         # addr -> (wts, rts)
        self.max_store: dict[int, tuple] = {}      # addr -> (physio, token)
        self.last_store: dict[int, object] = {}    # addr -> token (directory)
        self.checked_ticks = 0

    def attach(self, sim) -> None:
        self.sim = sim
        self.tardis = sim.cfg.protocol == "tardis"
        for core in sim.cores:
            l1 = core.l1
            for line in l1.lines():
                self.holders.setdefault(line.addr, {})[core.cid] = line
            l1.__class__ = _Watched
            l1.touched, l1.holders = sim._touched, self.holders
            l1.cid = core.cid
        sim.llc.lines.__class__ = _Watched
        sim.llc.lines.touched = sim._touched

    def _held(self, addr: int) -> list:
        """(cid, line) for every core whose L1 holds addr, in core order."""
        held = self.holders.get(addr)
        return sorted(held.items()) if held else []

    def _fail(self, what: str) -> None:
        raise AuditError(f"step {self.sim.step}: {what}")

    # -- commit-time checks -------------------------------------------------

    def on_commit(self, row) -> None:
        if row.kind is OpKind.STORE:
            tok = row.value.as_tuple()
            self.token_when[tok] = (row.ts, row.step)
            key = row.physio_key()
            cur = self.max_store.get(row.addr)
            if cur is None or key > cur[0]:
                self.max_store[row.addr] = (key, row.value)
            self.last_store[row.addr] = row.value
            if self.tardis:
                self._no_store_in_window(row)
        elif row.kind in (OpKind.LOAD, OpKind.SPIN) and not self.tardis:
            if row.fwd:
                return
            expected = self.last_store.get(row.addr)
            if expected is not None and row.value != expected:
                self._fail(f"directory load on core {row.core} addr "
                           f"{row.addr} got {row.value}, last store was "
                           f"{expected}")

    def _no_store_in_window(self, row) -> None:
        for cid, line in self._held(row.addr):
            if cid == row.core or line.state is not S:
                continue
            wts_when = self.token_when.get(line.value.as_tuple(), (0, -1))
            snap = (line.wts, wts_when[1])
            if snap < (row.ts, row.step) and row.ts <= line.rts:
                self._fail(
                    f"store ts {row.ts} by core {row.core} lands inside "
                    f"core {cid}'s window ({line.wts}, {line.rts}] "
                    f"for addr {row.addr}")

    # -- structural checks over touched lines -------------------------------

    def on_tick(self, touched) -> None:
        self.checked_ticks += 1
        for addr in touched:
            self._check_addr(addr)

    def _check_addr(self, addr: int) -> None:
        sim = self.sim
        llc_line = sim.llc.lines.lookup(addr, touch=False)
        masters = []
        held = self._held(addr)
        for cid, line in held:
            if line.state in (M, E):
                masters.append(("l1", cid, line))
            if line.state is not LineState.I:
                if self.tardis and line.wts > line.rts:
                    self._fail(f"core {cid} line {addr} has wts "
                               f"{line.wts} > rts {line.rts}")
            if line.dirty and line.state is not M:
                self._fail(f"core {cid} line {addr} dirty in "
                           f"{line.state.name}")
        if llc_line is not None and llc_line.owner is None:
            masters.append(("llc", -1, llc_line))
            if self.tardis and llc_line.wts > llc_line.rts:
                self._fail(f"llc line {addr} has wts {llc_line.wts} > rts "
                           f"{llc_line.rts}")
        if len(masters) > 1:
            self._fail(f"{len(masters)} master copies of addr {addr}: "
                       f"{[(m[0], m[1]) for m in masters]}")
        if not self.tardis and any(l.state in (M, E) for _, l in held):
            if len(held) > 1:
                self._fail(f"directory: owned line {addr} coexists with "
                           f"other copies at {[c for c, _ in held]}")
        if not masters:
            return  # ownership in transit
        _, _, master = masters[0]
        if self.tardis:
            prev = self.window.get(addr)
            if prev is not None and (master.wts < prev[0]
                                     or master.rts < prev[1]):
                self._fail(f"master window of addr {addr} shrank: "
                           f"{prev} -> ({master.wts}, {master.rts})")
            self.window[addr] = (master.wts, master.rts)
            when = self.token_when.get(master.value.as_tuple())
            if when is not None and when[0] != master.wts:
                self._fail(f"addr {addr} master wts {master.wts} but its "
                           f"value was written at ts {when[0]}")
            newest = self.max_store.get(addr)
            if newest is not None and master.value != newest[1]:
                self._fail(f"addr {addr} master holds {master.value}, newest "
                           f"committed store is {newest[1]}")

    def on_run_end(self) -> None:
        for addr in list(self.window):
            self._check_addr(addr)
