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
and only the cores whose L1 holds the line, in the holder index's own
order: a passing check sorts nothing and builds no list, and a failing
one walks the address again in core order to word its error.  The
protocols report nothing: the simulator collects the addresses of the
tick's deliveries and commits, and attach swaps the class of every L1
and of the LLC for a subclass that adds each address it inserts or
removes (an L1 also keeps the holders index), so an unaudited cache
does no extra work.
"""

from __future__ import annotations

from .cachemem import LineState, SetAssocCache
from .workloads import LOADS, OpKind

M, E, S = LineState.M, LineState.E, LineState.S
STORE = OpKind.STORE
_NONE: dict = {}             # the holders of an address no L1 holds
_UNWRITTEN = (0, -1)         # token_when of a value no store wrote


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
        # tardis: token -> (ts, step), addr -> (wts, rts) of its master,
        # addr -> (physio, token) of its newest store
        self.token_when: dict[tuple, tuple] = {}
        self.window: dict[int, tuple] = {}
        self.max_store: dict[int, tuple] = {}
        self.last_store: dict[int, object] = {}    # addr -> token (directory)
        self.checked_ticks = 0

    def attach(self, sim) -> None:
        self.sim = sim
        self.tardis = sim.cfg.protocol == "tardis"
        self.llc = sim.llc.lines
        for core in sim.cores:
            l1 = core.l1
            for line in l1.lines():
                self.holders.setdefault(line.addr, {})[core.cid] = line
            l1.__class__ = _Watched
            l1.touched, l1.holders = sim._touched, self.holders
            l1.cid = core.cid
        self.llc.__class__ = _Watched
        self.llc.touched = sim._touched

    def _fail(self, what: str) -> None:
        raise AuditError(f"step {self.sim.step}: {what}")

    # -- commit-time checks -------------------------------------------------

    def on_commit(self, row) -> None:
        kind = row.kind
        if kind is STORE:
            if not self.tardis:
                self.last_store[row.addr] = row.value
                return
            self.token_when[row.value] = (row.ts, row.step)
            key = row.physio_key()
            cur = self.max_store.get(row.addr)
            if cur is None or key > cur[0]:
                self.max_store[row.addr] = (key, row.value)
            self._no_store_in_window(row)
        elif kind in LOADS and not self.tardis:
            if row.fwd:
                return
            expected = self.last_store.get(row.addr)
            if expected is not None and row.value != expected:
                self._fail(f"directory load on core {row.core} addr "
                           f"{row.addr} got {row.value}, last store was "
                           f"{expected}")

    def _no_store_in_window(self, row, ordered: bool = False) -> None:
        """A failure found in the holders' dict order is worded by a
        second walk in core order, so that it names the lowest core."""
        ts, step = row.ts, row.step
        held = self.holders.get(row.addr, _NONE)
        for cid, line in sorted(held.items()) if ordered else held.items():
            if (line.state is S and line.wts <= ts <= line.rts
                    and cid != row.core
                    and (line.wts < ts or self.token_when.get(
                        line.value, _UNWRITTEN)[1] < step)):
                if not ordered:
                    return self._no_store_in_window(row, True)
                self._fail(
                    f"store ts {ts} by core {row.core} lands inside "
                    f"core {cid}'s window ({line.wts}, {line.rts}] "
                    f"for addr {row.addr}")

    # -- structural checks over touched lines -------------------------------

    def on_tick(self, touched) -> None:
        self.checked_ticks += 1
        for addr in touched:
            self._check_addr(addr)

    def _check_addr(self, addr: int, ordered: bool = False) -> None:
        """Check every copy of addr.  The holders are walked in dict
        order; a line that breaks a rule sends the check round again in
        core order, so that the error names the lowest such core.  Lists
        of cores are sorted only to word a failure."""
        tardis = self.tardis
        held = self.holders.get(addr, _NONE)
        owned = None      # the L1 copy in M or E, if there is one
        masters = 0
        for cid, line in sorted(held.items()) if ordered else held.items():
            state = line.state
            if state is M or state is E:
                owned = line
                masters += 1
            if tardis and line.wts > line.rts:
                if not ordered:
                    return self._check_addr(addr, True)
                self._fail(f"core {cid} line {addr} has wts "
                           f"{line.wts} > rts {line.rts}")
        master = owned
        llc_line = self.llc.lookup(addr, touch=False)
        at_llc = llc_line is not None and llc_line.owner is None
        if at_llc:
            master = llc_line
            masters += 1
            if tardis and llc_line.wts > llc_line.rts:
                self._fail(f"llc line {addr} has wts {llc_line.wts} > rts "
                           f"{llc_line.rts}")
        if masters > 1:
            where = [("l1", cid) for cid, line in sorted(held.items())
                     if line.state in (M, E)]
            if at_llc:
                where.append(("llc", -1))
            self._fail(f"{masters} master copies of addr {addr}: {where}")
        if not tardis:
            if owned is not None and len(held) > 1:
                self._fail(f"directory: owned line {addr} coexists with "
                           f"other copies at {sorted(held)}")
            return
        if master is None:
            return  # ownership in transit
        prev = self.window.get(addr)
        if prev is not None and (master.wts < prev[0]
                                 or master.rts < prev[1]):
            self._fail(f"master window of addr {addr} shrank: "
                       f"{prev} -> ({master.wts}, {master.rts})")
        self.window[addr] = (master.wts, master.rts)
        when = self.token_when.get(master.value)
        if when is not None and when[0] != master.wts:
            self._fail(f"addr {addr} master wts {master.wts} but its "
                       f"value was written at ts {when[0]}")
        newest = self.max_store.get(addr)
        if newest is not None and master.value != newest[1]:
            self._fail(f"addr {addr} master holds {master.value}, newest "
                       f"committed store is {newest[1]}")

    def on_run_end(self) -> None:
        """A final sweep over every address an L1 or the LLC holds."""
        addrs = set(self.holders)
        addrs.update(line.addr for line in self.llc.lines())
        for addr in sorted(addrs):
            self._check_addr(addr)
