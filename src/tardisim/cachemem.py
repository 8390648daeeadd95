"""Cache line records, set-associative containers and main-memory lines.

Data is modeled as opaque value tokens (writer core + per-core store
sequence + the program-level literal).  A token is enough to check the
value axiom of every memory model without simulating real bytes.  Main
memory itself is engine.MainMemory, a component like the cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

# The four lease values a 2-bit lease field can encode.
LEASE_VALUES = (8, 16, 32, 64)
MIN_LEASE = LEASE_VALUES[0]
MAX_LEASE = LEASE_VALUES[-1]


class ValueToken(NamedTuple):
    """Identity of one dynamic store (or of pre-run memory contents).
    A tuple, so it hashes and compares in C, and its hash is that of
    (writer, seq, literal)."""

    writer: int          # core id, -1 for initial memory contents
    seq: int             # per-core store sequence; the address for initials
    literal: int = 0     # program-level value, 0 for initials

    @property
    def is_initial(self) -> bool:
        return self.writer < 0


def initial_token(addr: int) -> ValueToken:
    return ValueToken(-1, addr, 0)


def copy_record(obj, **changes):
    """A shallow copy of a plain attribute record (a dataclass, a
    message) with changes set on it, without the reduce protocol
    copy.copy goes through."""
    new = object.__new__(type(obj))
    new.__dict__ = obj.__dict__.copy()
    if changes:
        new.__dict__.update(changes)
    return new


class LineState(str, Enum):
    M = "M"
    E = "E"
    S = "S"


@dataclass(unsafe_hash=True)
class CacheLine:
    """One private-cache line: MESI state plus the timestamp pair.  A
    line is dirty exactly when it is in M, and a line that is not held
    is not in the cache, so there is no invalid state.  It compares and
    hashes by every field, which is how an enumeration state keys it."""

    addr: int
    state: LineState
    wts: int = 0
    rts: int = 0
    value: ValueToken | None = None
    lease: int = MIN_LEASE   # lease this copy was granted with (renew echo)


@dataclass(unsafe_hash=True)
class LlcLine:
    """One shared-cache line, compared and hashed like CacheLine.

    owner is None while the LLC holds the master copy (Shared state);
    otherwise it names the core whose private cache owns the line in
    E or M.  cur_lease is the lease predictor's per-line state.  The
    e_bit marks lines that are probably private (exclusive grant hint).
    """

    addr: int
    wts: int = 0
    rts: int = 0
    value: ValueToken | None = None
    owner: int | None = None
    e_bit: bool = False
    cur_lease: int = MIN_LEASE
    # directory bookkeeping (replaced, never changed); unused in tardis
    sharers: frozenset = frozenset()


class SetAssocCache:
    """Set-associative container with LRU replacement.

    Stores whatever line objects the caller hands it; the only contract
    is an .addr attribute.  Each set is a dict kept in LRU order, least
    recently used first: insert appends, and a touching lookup moves
    the line to the end.  Victim selection is the caller's job
    (protocols differ on which lines are evictable), so the cache just
    reports the resident lines of a set.  Only sets that hold lines are
    stored, so an empty cache costs nothing to copy.
    """

    def __init__(self, size_kb: int, ways: int, line_bytes: int):
        self.ways = ways
        self.line_bytes = line_bytes
        self.n_sets = (size_kb * 1024) // (ways * line_bytes)
        self.sets: dict[int, dict] = {}   # set index -> {addr: line}

    def set_index(self, addr: int) -> int:
        return (addr // self.line_bytes) % self.n_sets

    # lookup and has_room are the hot path: they inline set_index
    def lookup(self, addr: int, touch: bool = True):
        s = self.sets.get((addr // self.line_bytes) % self.n_sets)
        line = s.get(addr) if s else None
        if line is not None and touch:
            del s[addr]
            s[addr] = line
        return line

    def has_room(self, addr: int) -> bool:
        s = self.sets.get((addr // self.line_bytes) % self.n_sets, ())
        return len(s) < self.ways

    def lru_victim(self, addr: int, avoid=None, rank=None):
        """Least recently used line of addr's set, skipping lines for
        which avoid(line) is true; given rank, the least recently used
        of those with the lowest rank(line).  None if the set has a free
        way or every candidate is excluded."""
        s = self.sets.get(self.set_index(addr), ())
        if len(s) < self.ways:
            return None
        lines = (l for l in s.values() if avoid is None or not avoid(l))
        return next(lines, None) if rank is None else min(
            lines, key=rank, default=None)

    def insert(self, line) -> None:
        idx = self.set_index(line.addr)
        if idx not in self.sets:
            self.sets[idx] = {}
        s = self.sets[idx]
        assert line.addr not in s and len(s) < self.ways, "insert needs a free way"
        s[line.addr] = line

    def remove(self, addr: int):
        idx = self.set_index(addr)
        if idx not in self.sets:
            return None
        s = self.sets[idx]
        line = s.pop(addr, None)
        if not s:
            del self.sets[idx]
        return line

    def lines(self):
        """The resident lines, set by set in index order, each set least
        recently used first: the order victim choice reads, so a tuple
        of them keys the cache exactly."""
        for idx in sorted(self.sets):
            yield from self.sets[idx].values()

    def clone(self) -> SetAssocCache:
        """An independent copy.  A line's fields are all immutable, so a
        shallow copy of each line is exact."""
        new = copy_record(self)
        new.sets = {idx: {a: copy_record(l) for a, l in s.items()}
                    for idx, s in self.sets.items()}
        return new


@dataclass(frozen=True, slots=True)
class MemLine:
    value: ValueToken
    wts: int = 0
    rts: int = 0
    lease: int = MIN_LEASE
