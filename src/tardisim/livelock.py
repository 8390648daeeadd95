"""Stale-read livelock detection.

A core that keeps loading the same shared line without its load
timestamp moving may be spinning on a stale copy.  Each core keeps a
small LRU address history buffer (AHB); when one address is hit
thresh_count times in a row a check request is sent to verify the
cached copy against the shared cache.  The threshold adapts upward
(doubling, up to max_count) while checks keep coming back clean, so a
polling loop that is merely slow does not flood the network.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass
class LivelockDetector:
    entries: int = 8
    min_count: int = 100
    max_count: int = 800
    check_thresh: int = 10

    thresh_count: int = field(init=False)
    check_count: int = field(init=False, default=0)
    ahb: OrderedDict = field(init=False, default_factory=OrderedDict)

    def __post_init__(self):
        self.thresh_count = self.min_count

    def on_shared_load(self, addr: int) -> bool:
        """Count a load that hit a shared L1 line.  True => send a check."""
        if addr in self.ahb:
            self.ahb[addr] += 1
            self.ahb.move_to_end(addr)
            if self.ahb[addr] >= self.thresh_count:
                self.ahb[addr] = 0
                return True
            return False
        if len(self.ahb) >= self.entries:
            self.ahb.popitem(last=False)   # LRU entry
        self.ahb[addr] = 0
        return False

    def on_check_response(self, updated: bool) -> None:
        """Adapt the threshold from a check result (Algorithm step).

        A stale copy (updated) means detection was useful: drop back to
        the fast threshold.  check_thresh consecutive clean checks mean
        we are probably just polling; double the threshold, up to
        max_count.  check_count restarts with each plateau so plateau
        lengths stay uniform.
        """
        if updated:
            self.thresh_count = self.min_count
            self.check_count = 0
            return
        self.check_count += 1
        if self.check_count >= self.check_thresh and self.thresh_count < self.max_count:
            self.thresh_count = min(2 * self.thresh_count, self.max_count)
            self.check_count = 0

    def reset_on_ts_advance(self) -> None:
        """The core's read timestamp moved because of a memory access:
        it is not livelocking, so restart all access counts.  Entries
        stay resident; only the counts clear."""
        for addr in self.ahb:
            self.ahb[addr] = 0
