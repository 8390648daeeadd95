"""Clock commit rules per memory model."""

import pytest

from tardisim.consistency import CLOCKS, MemoryModel
from tardisim.workloads import OpKind


def clock(model):
    return CLOCKS[MemoryModel(model)]()


def test_sc_single_timestamp():
    c = clock("sc")
    assert c.commit_load(0) == 0
    assert c.commit_store(5) == 5          # floor pulls pts up
    assert c.commit_load(0) == 5           # loads can never go below a store
    assert c.commit_load(9) == 9
    assert c.read_ts == 9 and c.current_max == 9


def test_tso_store_passes_load():
    c = clock("tso")
    assert c.commit_store(7) == 7
    # a later load is free to sit below the store: that is the TSO
    # store->load relaxation
    assert c.commit_load(0) == 0
    assert c.sts == 7 and c.lts == 0
    assert c.read_ts == 0 and c.current_max == 7


def test_tso_second_store_keeps_order():
    c = clock("tso")
    c.commit_store(7)
    assert c.commit_store(0) == 7          # sts is a floor for later stores
    c.commit_load(9)
    assert c.commit_store(0) == 9          # so is the load timestamp


def test_tso_fence_pulls_lts_to_sts():
    c = clock("tso")
    c.commit_store(12)
    assert c.sync(OpKind.FENCE) == 12
    assert c.lts == 12
    assert c.commit_load(0) == 12


def test_pso_stores_unordered():
    c = clock("pso")
    assert c.commit_store(9) == 9
    # under PSO a later store ignores sts: only lts floors it
    assert c.commit_store(2) == 2
    assert c.sts == 9                      # running max for the fence
    assert c.sync(OpKind.FENCE) == 9


def test_dirty_by_self_load_leaves_lts():
    c = clock("tso")
    c.commit_load(4)
    assert c.commit_load(100, dirty_by_self=True) == 4
    assert c.lts == 4


def test_rc_acquire_release():
    c = clock("rc")
    assert c.commit_load(6) == 6           # ordinary load: above acquire_ts
    assert c.commit_store(2) == 2          # stores ignore earlier loads
    assert c.sync(OpKind.RELEASE) == 6     # release >= everything committed
    assert c.sync(OpKind.ACQUIRE) == 6     # next acquire catches up
    assert c.commit_load(0) == 6
    assert c.current_max == 6


def test_sync_kinds_per_model():
    sc = clock("sc")
    sc.commit_store(4)
    assert [sc.sync(k) for k in (OpKind.FENCE, OpKind.ACQUIRE,
                                 OpKind.RELEASE)] == [4, 4, 4]
    for model in ("tso", "pso"):
        # every sync op is a fence under TSO and PSO
        for k in (OpKind.FENCE, OpKind.ACQUIRE, OpKind.RELEASE):
            c = clock(model)
            c.commit_store(5)
            assert c.sync(k) == 5 and c.read_ts == 5, (model, k)
    rc = clock("rc")
    rc.commit_store(3)
    assert rc.sync(OpKind.FENCE) == 3      # a release, then an acquire
    assert rc.release_ts == rc.acquire_ts == 3
    assert [clock(m).ACQUIRE_DRAINS for m in ("sc", "tso", "pso", "rc")] \
        == [True, True, True, False]
    assert clock("pso") != clock("tso")    # same fields, different rules


def test_self_increment_moves_read_side():
    for model in ("sc", "tso", "pso", "rc"):
        c = clock(model)
        before = c.read_ts
        c.self_increment()
        assert c.read_ts == before + 1, model


@pytest.mark.parametrize("model", ["sc", "tso", "pso", "rc"])
def test_read_ts_never_decreases(model):
    import random
    rng = random.Random(3)
    c = clock(model)
    prev = c.read_ts
    for _ in range(300):
        op = rng.randrange(5)
        if op == 0:
            c.commit_load(rng.randrange(20))
        elif op == 1:
            c.commit_store(rng.randrange(20))
        elif op == 2:
            c.self_increment()
        elif op == 3 and model in ("tso", "pso"):
            c.sync(OpKind.FENCE)
        elif op == 4 and model == "rc":
            c.sync(OpKind.RELEASE)
            c.sync(OpKind.ACQUIRE)
        assert c.read_ts >= prev
        assert c.current_max >= c.read_ts
        prev = c.read_ts
