"""Program DSL, builtin corpus, synthetic generator."""

import random
from types import SimpleNamespace

import pytest

from tardisim import workloads
from tardisim.workloads import (BUILTIN_NAMES, LITMUS_NAMES, OpKind,
                                ParseError, SynthParams, builtin,
                                parse_program, synth)


def test_parse_symbolic_addresses_in_first_use_order():
    p = parse_program("""
    [core 0]
    St B 2          # B claims line 0
    Ld A -> r1

    [core 1]
    Ld B -> r2
    Fence
    """)
    assert p.n_cores == 2
    assert p.addr_names == {0: "B", 64: "A"}
    st = p.cores[0][0]
    assert st.kind is OpKind.STORE and st.addr == 0 and st.value == 2
    assert p.cores[0][1].reg == "r1"
    assert p.cores[1][1].kind is OpKind.FENCE


def test_parse_numeric_addresses_and_spin():
    p = parse_program("""
    [core 0]
    SpinUntil F == 3
    Sleep 12
    Acquire
    Release
    Ld 128
    """)
    ops = p.cores[0]
    assert ops[0].kind is OpKind.SPIN and ops[0].value == 3
    assert ops[1].n == 12
    assert ops[2].kind is OpKind.ACQUIRE and ops[3].kind is OpKind.RELEASE
    assert ops[4].addr == 128 and ops[4].reg is None


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_program("St A 1")               # op before a section
    with pytest.raises(ParseError):
        parse_program("[core 0]\nLd 100")     # unaligned address
    with pytest.raises(ParseError):
        parse_program("[core 0]\nFlush A")
    with pytest.raises(ParseError):
        parse_program("   \n# only comments\n")
    # trailing tokens are an error, not ignored
    for op in ("St A 1 2", "Ld A -> r1 r2", "Fence now", "Sleep 5 6", "Acq x"):
        with pytest.raises(ParseError, match="line 2"):
            parse_program(f"[core 0]\n{op}")


def test_registers_in_first_use_order():
    p = builtin("dekker")
    assert p.registers() == [(0, "r1"), (1, "r2")]


def test_litmus_corpus_shape():
    assert len(LITMUS_NAMES) >= 12
    for name in LITMUS_NAMES:
        p = builtin(name)
        assert p.dynamic_ops() <= 8, name
        assert p.registers(), name


def test_builtin_names_all_resolve():
    for name in BUILTIN_NAMES:
        assert builtin(name).n_cores >= 1
    with pytest.raises(ParseError):
        builtin("nope")


def test_fig_programs_are_warm():
    fig1 = builtin("fig1")
    assert fig1.schedule == "sequential"
    assert {w.addr for w in fig1.warm} == set(fig1.addr_names)
    fig2 = builtin("fig2")
    by_name = {fig2.addr_names[w.addr]: w for w in fig2.warm}
    assert by_name["A"].rts == 5 and by_name["B"].rts == 10
    assert by_name["A"].in_l1 == (0, 1)


def test_spin_workload_params():
    p = builtin("spin", delay=77)
    assert p.cores[1][0].n == 77
    assert p.warm and p.warm[0].in_l1 == (0,)


def test_lease_case_iterations():
    p = builtin("lease_case", iterations=3)
    assert len(p.cores[0]) == 12 and len(p.cores[1]) == 12
    assert builtin("lease_case", iterations="3") == p


@pytest.mark.parametrize("value", (1.5, 2.0, None, "1.5", "x"))
def test_builtin_count_rejects_a_non_integer(value):
    with pytest.raises(ParseError, match="iterations wants int"):
        builtin("lease_case", iterations=value)


def test_integer_literals_read_alike():
    """St, Sleep and SpinUntil all read a literal as Python source does."""
    p = parse_program("""
    [core 0]
    St A 0x10
    Sleep 0x10
    SpinUntil A == 0x10
    SpinUntil A == -0b11
    """)
    st, sleep, spin, negative = p.cores[0]
    assert (st.value, sleep.n, spin.value, negative.value) == (16, 16, 16, -3)
    with pytest.raises(ParseError, match="malformed op"):
        parse_program("[core 0]\nSpinUntil A == x")


def test_synth_is_deterministic():
    params = SynthParams(cores=4, ops_per_core=50, seed=9)
    assert synth(params) == synth(params)
    other = synth(SynthParams(cores=4, ops_per_core=50, seed=10))
    assert synth(params) != other


def test_synth_shares_one_record_per_load_address():
    """Ops are immutable, so every load of one address in a synth
    program is one record, and so is every store of one literal to one
    address, across cores; each core numbers its own literals and gets
    an op list of its own."""
    params = SynthParams(cores=4, ops_per_core=200, write_frac=0.3, seed=3)
    p = synth(params)
    loads, stores = {}, {}
    for ops in p.cores:
        for op in ops:
            if op.kind is OpKind.LOAD:
                assert loads.setdefault(op.addr, op) is op
            elif op.kind is OpKind.STORE:
                assert stores.setdefault((op.addr, op.value), op) is op
    assert sum(op.kind is OpKind.LOAD for ops in p.cores
               for op in ops) > 2 * len(loads)
    assert sum(op.kind is OpKind.STORE for ops in p.cores
               for op in ops) > len(stores)
    for ops in p.cores:
        own = [op.value for op in ops if op.kind is OpKind.STORE]
        assert own == list(range(1, len(own) + 1))
    assert len({id(ops) for ops in p.cores}) == params.cores
    again = synth(params)
    assert again == p
    assert all(a is not b for a, b in zip(again.cores, p.cores))


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("pool", ["hot", "shared", "private"])
def test_synth_draw_reproduces_choice(pool, seed, monkeypatch):
    """synth draws a pool index inline; for every pool size n it must
    return what Random.choice(range(n)) returns and leave the generator
    in the same state.  With one core and one pool, line i of the pool
    is address 64 i."""
    made = []

    class Kept(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(workloads, "random", SimpleNamespace(Random=Kept))
    shape = {"hot": {"hot_frac": 1},
             "shared": {"hot_frac": 0, "hot_lines": 0, "private_lines": 0},
             "private": {"hot_frac": 0, "hot_lines": 0, "shared_lines": 0,
                         "private_frac": 1}}[pool]
    for n in range(1, 71):
        params = SynthParams(**{**shape, f"{pool}_lines": n}, cores=1,
                             ops_per_core=30, fence_frac=0, write_frac=0,
                             seed=seed)
        p = synth(params)
        ref = random.Random(seed)
        for op in p.cores[0]:
            ref.random()                   # fence or not
            ref.random()                   # which pool
            assert op.addr == 64 * ref.choice(range(n)), n
            if pool != "private":
                ref.random()               # store or load
        assert made.pop().getstate() == ref.getstate(), n


def test_synth_respects_shape():
    params = SynthParams(cores=3, ops_per_core=40, hot_lines=2,
                         shared_lines=4, private_lines=2, private_frac=0.5,
                         write_frac=0.5, seed=1)
    p = synth(params)
    assert p.n_cores == 3
    assert all(len(ops) == 40 for ops in p.cores)
    base = (params.hot_lines + params.shared_lines) * 64
    for cid, ops in enumerate(p.cores):
        for op in ops:
            if op.addr is not None and op.addr >= base:
                # private block: read-only and owned by this core
                lo = base + cid * params.private_lines * 64
                assert lo <= op.addr < lo + params.private_lines * 64
                assert op.kind is OpKind.LOAD
