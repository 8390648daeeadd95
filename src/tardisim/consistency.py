"""Per-core timestamp policies for the supported consistency models.

Each core keeps a small clock record.  Loads, stores, fences and
acquire/release operations pick their commit timestamps here; whether
a load is actually servable from a cached copy (the lease check) is
the cache's problem, not the clock's.

Clock fields by model:
  SC        pts                  program timestamp, every op commits at pts
  TSO       lts, sts             load timestamp / store timestamp
  PSO       lts, sts             sts is a running max, stores only floor on lts
  RC        acquire_ts, release_ts, max_ts
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class MemoryModel(str, Enum):
    SC = "sc"
    TSO = "tso"
    PSO = "pso"
    RC = "rc"


class ModelError(Exception):
    """Operation not defined under the active memory model."""


@dataclass(unsafe_hash=True)
class CoreClock:
    model: MemoryModel
    pts: int = 0
    lts: int = 0
    sts: int = 0
    acquire_ts: int = 0
    release_ts: int = 0
    max_ts: int = 0

    # ---- helpers ----------------------------------------------------

    @property
    def read_ts(self) -> int:
        """Timestamp a non-dirty load would have to commit at or above.

        Used by caches for lease checks: a shared line is servable iff
        read_ts <= line.rts.
        """
        if self.model is MemoryModel.SC:
            return self.pts
        if self.model is MemoryModel.RC:
            return self.acquire_ts
        return self.lts

    @property
    def current_max(self) -> int:
        """Largest timestamp this core has committed anything at."""
        if self.model is MemoryModel.SC:
            return self.pts
        if self.model is MemoryModel.RC:
            return self.max_ts
        return max(self.lts, self.sts)

    # ---- commit rules -----------------------------------------------

    def commit_load(self, line_wts: int, dirty_by_self: bool = False) -> int:
        """Commit a load of a line written at line_wts, return its ts.

        dirty_by_self marks data produced by this core's own store that
        has not been observed elsewhere (a dirty line or a store-buffer
        forward).  Such loads do not drag the load timestamp forward,
        which is exactly the store-to-load relaxation under TSO and
        weaker models.
        """
        m = self.model
        if m is MemoryModel.SC:
            self.pts = max(self.pts, line_wts)
            return self.pts
        if m in (MemoryModel.TSO, MemoryModel.PSO):
            if dirty_by_self:
                return self.lts
            self.lts = max(self.lts, line_wts)
            return self.lts
        # RC
        ts = self.acquire_ts if dirty_by_self else max(self.acquire_ts, line_wts)
        self.max_ts = max(self.max_ts, ts)
        return ts

    def commit_store(self, floor: int) -> int:
        """Commit a store that must land at or above floor, return its ts."""
        m = self.model
        if m is MemoryModel.SC:
            ts = max(self.pts, floor)
            self.pts = ts
            return ts
        if m is MemoryModel.TSO:
            ts = max(self.sts, self.lts, floor)
            self.sts = ts
            return ts
        if m is MemoryModel.PSO:
            ts = max(self.lts, floor)
            self.sts = max(self.sts, ts)
            return ts
        # RC
        ts = max(self.acquire_ts, floor)
        self.max_ts = max(self.max_ts, ts)
        return ts

    def fence(self) -> int:
        """TSO/PSO fence: pull lts up to sts.  Returns the fence's ts."""
        if self.model not in (MemoryModel.TSO, MemoryModel.PSO):
            raise ModelError(f"fence has no timestamp rule under {self.model.value}")
        self.lts = max(self.lts, self.sts)
        return self.lts

    def release(self) -> int:
        if self.model is not MemoryModel.RC:
            raise ModelError(f"release is only defined under rc, not {self.model.value}")
        self.release_ts = max(self.release_ts, self.max_ts)
        return self.release_ts

    def acquire(self) -> int:
        if self.model is not MemoryModel.RC:
            raise ModelError(f"acquire is only defined under rc, not {self.model.value}")
        self.acquire_ts = max(self.acquire_ts, self.release_ts)
        self.max_ts = max(self.max_ts, self.acquire_ts)
        return self.acquire_ts

    def self_increment(self) -> None:
        """Forced forward progress: bump the read-side timestamp by one."""
        if self.model is MemoryModel.SC:
            self.pts += 1
        elif self.model is MemoryModel.RC:
            self.acquire_ts += 1
            self.max_ts = max(self.max_ts, self.acquire_ts)
        else:
            self.lts += 1
