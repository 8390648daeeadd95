"""Per-core timestamp policies for the supported consistency models.

Each core keeps one clock record of its model's class (CLOCKS), holding
only that model's fields.  Loads, stores and the sync ops (fence,
acquire, release) pick their commit timestamps here; whether a load is
servable from a cached copy (the lease check) is the cache's problem.

  SC        pts                  program timestamp, every op commits at pts
  TSO       lts, sts             load timestamp / store timestamp
  PSO       lts, sts             sts is a running max, stores only floor on lts
  RC        acquire_ts, release_ts, max_ts

read_ts is the timestamp a non-dirty load commits at or above: a shared
line is servable iff read_ts <= line.rts.  current_max is the largest
timestamp the core has committed anything at.  commit_load's
dirty_by_self marks data produced by this core's own store that has not
been observed elsewhere (a dirty line or a store-buffer forward); such
loads do not drag the load timestamp forward, which is exactly the
store-to-load relaxation under TSO and weaker models.  self_increment is
forced forward progress: it bumps the read-side timestamp by one.
ACQUIRE_DRAINS says whether an acquire waits for the store buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .workloads import OpKind


class MemoryModel(str, Enum):
    SC = "sc"
    TSO = "tso"
    PSO = "pso"
    RC = "rc"


@dataclass(unsafe_hash=True)
class ScClock:
    pts: int = 0
    ACQUIRE_DRAINS = True

    @property
    def read_ts(self) -> int:
        return self.pts

    @property
    def current_max(self) -> int:
        return self.pts

    def commit_load(self, line_wts: int, dirty_by_self: bool = False) -> int:
        self.pts = max(self.pts, line_wts)
        return self.pts

    def commit_store(self, floor: int) -> int:
        self.pts = max(self.pts, floor)
        return self.pts

    def sync(self, kind: OpKind) -> int:
        """Every op is already in order: a sync op commits at pts."""
        return self.pts

    def self_increment(self) -> None:
        self.pts += 1


@dataclass(unsafe_hash=True)
class TsoClock:
    lts: int = 0
    sts: int = 0
    ACQUIRE_DRAINS = True

    @property
    def read_ts(self) -> int:
        return self.lts

    @property
    def current_max(self) -> int:
        return max(self.lts, self.sts)

    def commit_load(self, line_wts: int, dirty_by_self: bool = False) -> int:
        if not dirty_by_self:
            self.lts = max(self.lts, line_wts)
        return self.lts

    def commit_store(self, floor: int) -> int:
        """A store stays above every earlier load and store."""
        self.sts = max(self.sts, self.lts, floor)
        return self.sts

    def sync(self, kind: OpKind) -> int:
        """Every sync op is a fence: pull lts up to sts."""
        self.lts = max(self.lts, self.sts)
        return self.lts

    def self_increment(self) -> None:
        self.lts += 1


class PsoClock(TsoClock):
    def commit_store(self, floor: int) -> int:
        """Stores are unordered among themselves: only lts floors one,
        and sts is their running max for the fence."""
        ts = max(self.lts, floor)
        self.sts = max(self.sts, ts)
        return ts


@dataclass(unsafe_hash=True)
class RcClock:
    acquire_ts: int = 0
    release_ts: int = 0
    max_ts: int = 0
    ACQUIRE_DRAINS = False

    @property
    def read_ts(self) -> int:
        return self.acquire_ts

    @property
    def current_max(self) -> int:
        return self.max_ts

    def commit_load(self, line_wts: int, dirty_by_self: bool = False) -> int:
        ts = self.acquire_ts if dirty_by_self else max(self.acquire_ts, line_wts)
        self.max_ts = max(self.max_ts, ts)
        return ts

    def commit_store(self, floor: int) -> int:
        ts = max(self.acquire_ts, floor)
        self.max_ts = max(self.max_ts, ts)
        return ts

    def sync(self, kind: OpKind) -> int:
        """A release lands above everything committed, an acquire at or
        above the last release; a fence is a release then an acquire."""
        if kind is not OpKind.ACQUIRE:
            self.release_ts = max(self.release_ts, self.max_ts)
            if kind is OpKind.RELEASE:
                return self.release_ts
        self.acquire_ts = max(self.acquire_ts, self.release_ts)
        self.max_ts = max(self.max_ts, self.acquire_ts)
        return self.acquire_ts

    def self_increment(self) -> None:
        self.acquire_ts += 1
        self.max_ts = max(self.max_ts, self.acquire_ts)


CLOCKS = {MemoryModel.SC: ScClock, MemoryModel.TSO: TsoClock,
          MemoryModel.PSO: PsoClock, MemoryModel.RC: RcClock}
