"""Cache containers, value tokens, lease values."""

import pytest

from tardisim.cachemem import (CacheLine, LEASE_VALUES, MIN_LEASE, LineState,
                               MemLine, SetAssocCache, ValueToken,
                               initial_token)
from tardisim.config import preset
from tardisim.engine import MainMemory, Simulator
from tardisim.messages import LLC, MEM, Msg, MsgKind
from tardisim.workloads import builtin


def test_lease_codes_round_trip():
    assert LEASE_VALUES == (8, 16, 32, 64)


def test_value_tokens_distinguish_writers():
    a = ValueToken(0, 1, literal=7)
    b = ValueToken(1, 1, literal=7)
    assert a != b
    assert initial_token(64).is_initial
    assert not a.is_initial


def test_value_token_is_a_compact_record():
    """A token hashes as the tuple of its fields, the hash every pinned
    set and dict order keyed by tokens was taken with; it prints with
    its field names and cannot change.  A memory line is frozen and
    slotted."""
    tok = ValueToken(3, 7, 2)
    assert hash(tok) == hash((3, 7, 2))
    assert hash(initial_token(64)) == hash((-1, 64, 0))
    assert repr(tok) == "ValueToken(writer=3, seq=7, literal=2)"
    assert str(ValueToken(0, 1)) == "ValueToken(writer=0, seq=1, literal=0)"
    with pytest.raises(AttributeError):
        tok.literal = 5
    line = MemLine(tok, wts=1, rts=2)
    with pytest.raises(AttributeError):
        line.wts = 3
    assert not hasattr(line, "__dict__")
    assert hash(line) == hash((tok, 1, 2, line.lease))


def test_set_indexing_and_lru():
    cache = SetAssocCache(size_kb=1, ways=2, line_bytes=64)
    assert cache.n_sets == 8
    s0 = [addr for addr in range(0, 64 * 64, 64)
          if cache.set_index(addr) == 0]
    a, b, c = s0[:3]
    cache.insert(CacheLine(addr=a, state=LineState.S))
    cache.insert(CacheLine(addr=b, state=LineState.S))
    assert not cache.has_room(c)
    cache.lookup(a)                       # refresh a; b becomes LRU
    victim = cache.lru_victim(c)
    assert victim.addr == b
    victim = cache.lru_victim(c, avoid=lambda l: l.addr == b)
    assert victim.addr == a
    assert cache.lru_victim(c, avoid=lambda l: True) is None
    # the lowest rank first, then the least recently used
    assert cache.lru_victim(c, rank=lambda l: l.addr != a).addr == a
    assert cache.lru_victim(c, rank=lambda l: 0).addr == b
    assert cache.remove(64) is None       # set 1 holds nothing


def _filled(cache, addrs):
    for addr in addrs:
        cache.insert(CacheLine(addr=addr, state=LineState.S))
    return cache


def test_lru_order_is_in_the_key():
    """Victim choice reads each set's LRU order, so caches and cores
    that hold the same lines in different orders must key apart."""
    a, b = 0, 8 * 64   # set 0 of both caches
    first = _filled(SetAssocCache(size_kb=1, ways=2, line_bytes=64), (a, b))
    second = _filled(SetAssocCache(size_kb=1, ways=2, line_bytes=64), (b, a))
    assert set(first.lines()) == set(second.lines())
    assert tuple(first.lines()) != tuple(second.lines())
    sim = Simulator(preset("tardis-base"), builtin("single"))
    core = sim.cores[0]
    a, b = 0, core.l1.n_sets * 64
    other = core.clone(sim)
    _filled(core.l1, (a, b))
    _filled(other.l1, (b, a))
    assert core.state_key() != other.state_key()
    other.l1.lookup(b)   # touched: now in core's order
    assert core.state_key() == other.state_key()


def test_lru_victim_none_while_room():
    cache = SetAssocCache(size_kb=1, ways=2, line_bytes=64)
    cache.insert(CacheLine(addr=0))
    assert cache.lru_victim(0) is None


def test_insert_requires_free_way():
    cache = SetAssocCache(size_kb=1, ways=1, line_bytes=64)
    cache.insert(CacheLine(addr=0))
    with pytest.raises(AssertionError):
        cache.insert(CacheLine(addr=1024))  # same set, no room


def test_memory_keeps_timestamps_and_lease():
    mem = MainMemory(None)
    line = mem.read(128)
    assert line.value == initial_token(128) and line.wts == 0
    tok = ValueToken(2, 5, literal=3)
    mem.write(128, tok, wts=10, rts=40, lease=32)
    back = mem.read(128)
    assert (back.value, back.wts, back.rts, back.lease) == (tok, 10, 40, 32)


class _Outbox:
    """A fabric that keeps what a component sends."""

    def __init__(self):
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)


@pytest.mark.parametrize("written", [None, (ValueToken(2, 5, 3), 10, 40, 32)])
def test_memory_answers_a_read_with_the_line_it_holds(written):
    """A read of a line never written gets the initial contents at
    timestamp 0 and the least lease; a written line comes back as
    written."""
    fabric = _Outbox()
    mem = MainMemory(fabric)
    if written is not None:
        mem.handle(Msg(MsgKind.MEM_WRITE, 128, LLC, MEM, data=True,
                       value=written[0], wts=written[1], rts=written[2],
                       lease=written[3]))
    mem.handle(Msg(MsgKind.MEM_READ, 128, LLC, MEM))
    value, wts, rts, lease = written or (initial_token(128), 0, 0, MIN_LEASE)
    assert fabric.sent == [Msg(MsgKind.MEM_DATA, 128, MEM, LLC, data=True,
                               value=value, wts=wts, rts=rts, lease=lease)]


def test_memory_stores_a_write_and_sends_nothing():
    fabric = _Outbox()
    mem = MainMemory(fabric)
    tok = ValueToken(1, 2, literal=7)
    mem.handle(Msg(MsgKind.MEM_WRITE, 64, LLC, MEM, data=True, value=tok,
                   wts=3, rts=9, lease=16))
    assert mem.lines == {64: MemLine(tok, 3, 9, 16)} and not fabric.sent


def test_memory_clone_lives_in_its_own_fabric():
    """clone(sim) takes the sim every component's clone takes, and the
    copy's lines are its own."""
    mem = MainMemory(_Outbox())
    mem.write(64, initial_token(64), wts=1, rts=2)
    fabric = _Outbox()
    new = mem.clone(fabric)
    assert new.sim is fabric and new.lines == mem.lines
    assert new.lines is not mem.lines
    new.handle(Msg(MsgKind.MEM_READ, 128, LLC, MEM))
    assert 128 in new.lines and 128 not in mem.lines
    assert len(fabric.sent) == 1 and not mem.sim.sent


def test_memory_state_key_holds_the_lease():
    """A refill grants the lease memory kept, so memories that differ
    only in it must not merge in an enumeration."""
    keys = []
    for lease in (8, 16):
        mem = MainMemory(None)
        mem.write(128, initial_token(128), wts=10, rts=40, lease=lease)
        keys.append(mem.state_key())
    assert keys[0] != keys[1]
