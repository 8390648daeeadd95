"""Axiomatic trace checker and the small-program outcome oracle."""

import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest

from tardisim.audit import CoherenceAuditor
from tardisim.cachemem import ValueToken, initial_token
from tardisim.checker import check_trace, ordered, oracle_outcomes
from tardisim.config import preset
from tardisim.consistency import MemoryModel
from tardisim.engine import Simulator, TraceOp, enumerate_outcomes
from tardisim.workloads import OpKind, SynthParams, builtin, parse_program, synth

SC, TSO, PSO, RC = (MemoryModel.SC, MemoryModel.TSO, MemoryModel.PSO,
                    MemoryModel.RC)
LD, ST, FE = OpKind.LOAD, OpKind.STORE, OpKind.FENCE
AQ, RL = OpKind.ACQUIRE, OpKind.RELEASE


def row(core, idx, kind, addr, value, ts, step, seq=None):
    return TraceOp(core, idx, kind, addr, value, ts, step,
                   seq if seq is not None else idx + 1)


# --- the per-model ordering predicate ----------------------------------


def test_sc_orders_everything():
    for a in (LD, ST):
        for b in (LD, ST):
            assert ordered(SC, a, b)


def test_tso_relaxes_store_to_load_only():
    assert not ordered(TSO, ST, LD)
    assert ordered(TSO, ST, ST)
    assert ordered(TSO, LD, ST)
    assert ordered(TSO, LD, LD)


def test_pso_relaxes_stores_except_same_address():
    assert not ordered(PSO, ST, LD)
    assert not ordered(PSO, ST, ST)
    assert ordered(PSO, ST, ST, same_addr=True)
    assert ordered(PSO, LD, ST)
    assert ordered(PSO, LD, LD)


def test_rc_orders_nothing_but_synchronization():
    for a in (LD, ST):
        for b in (LD, ST):
            assert not ordered(RC, a, b)
    assert ordered(RC, ST, ST, same_addr=True)
    assert ordered(RC, AQ, LD) and ordered(RC, AQ, ST)
    assert ordered(RC, LD, RL) and ordered(RC, ST, RL)
    assert ordered(RC, RL, AQ) and ordered(RC, RL, RL)
    assert not ordered(RC, LD, AQ)      # ops may float above an acquire
    assert not ordered(RC, RL, ST)      # and below a release


def test_fences_order_in_every_model():
    for model in (SC, TSO, PSO, RC):
        assert ordered(model, ST, FE) and ordered(model, FE, LD)


def test_ordered_takes_a_model_name():
    for model in MemoryModel:
        for a in OpKind:
            for b in OpKind:
                for same in (False, True):
                    assert (ordered(model.value, a, b, same)
                            == ordered(model, a, b, same)), (model, a, b)
    with pytest.raises(ValueError):
        ordered("xyz", ST, LD)


# --- check_trace rules --------------------------------------------------


def test_clean_sc_interleaving_passes():
    v1 = ValueToken(0, 1, 1)
    trace = [
        row(0, 0, ST, 0, v1, ts=1, step=10),
        row(1, 0, LD, 0, v1, ts=2, step=20),
    ]
    assert check_trace(trace, "sc") == []


def test_value_rule_catches_stale_read():
    v1 = ValueToken(0, 1, 1)
    trace = [
        row(0, 0, ST, 0, v1, ts=1, step=10),
        row(1, 0, LD, 0, initial_token(0), ts=2, step=20),  # reads past the store
    ]
    bad = check_trace(trace, "sc")
    assert [v.rule for v in bad] == ["value"]


def test_value_rule_catches_overwritten_read():
    v1, v2 = ValueToken(0, 1, 1), ValueToken(0, 2, 2)
    trace = [
        row(0, 0, ST, 0, v1, ts=1, step=10),
        row(0, 1, ST, 0, v2, ts=2, step=20, seq=2),
        row(1, 0, LD, 0, v1, ts=5, step=50),    # v2 is newer and visible
    ]
    assert [v.rule for v in check_trace(trace, "sc")] == ["value"]


def test_program_order_rule_is_model_sensitive():
    # a store physio-ordered after a later load: illegal under SC,
    # exactly the relaxation TSO grants
    trace = [
        row(0, 0, ST, 0, ValueToken(0, 1, 1), ts=5, step=50),
        row(0, 1, LD, 64, initial_token(64), ts=3, step=30, seq=2),
    ]
    assert [v.rule for v in check_trace(trace, "sc")] == ["program-order"]
    assert check_trace(trace, "tso") == []


def test_same_address_stores_must_stay_ordered_even_under_pso():
    v1, v2 = ValueToken(0, 1, 1), ValueToken(0, 2, 2)
    trace = [
        row(0, 0, ST, 0, v1, ts=9, step=90),
        row(0, 1, ST, 0, v2, ts=2, step=20, seq=2),
    ]
    assert any(v.rule == "program-order" for v in check_trace(trace, "pso"))


def test_store_buffer_forwarding_is_legal_outside_sc():
    # the load reads its own core's later-committed store
    v1 = ValueToken(0, 1, 1)
    trace = [
        row(0, 0, ST, 0, v1, ts=7, step=70),
        row(0, 1, LD, 0, v1, ts=2, step=20, seq=2),
    ]
    assert check_trace(trace, "tso") == []
    assert any(v.rule == "value" for v in check_trace(trace, "sc"))


def test_tied_stores_from_two_cores_conflict():
    trace = [
        row(0, 0, ST, 0, ValueToken(0, 1, 1), ts=4, step=40),
        row(1, 0, ST, 0, ValueToken(1, 1, 2), ts=4, step=40),
    ]
    assert [v.rule for v in check_trace(trace, "sc")] == ["simultaneous-conflict"]


def test_tied_load_store_resolves_by_value():
    # a load sharing a store's instant may read either side of the tie
    st = ValueToken(1, 1, 3)
    for read in (initial_token(0), st):
        trace = [
            row(1, 0, ST, 0, st, ts=4, step=40),
            row(0, 0, LD, 0, read, ts=4, step=40),
        ]
        assert check_trace(trace, "sc") == []
    trace = [
        row(1, 0, ST, 0, st, ts=4, step=40),
        row(0, 0, LD, 0, ValueToken(1, 9, 9), ts=4, step=40),
    ]
    assert [v.rule for v in check_trace(trace, "sc")] == ["value"]


def test_same_core_tie_is_decided_by_sequence():
    # a same-core store sharing the load's instant is visible only when
    # it committed first
    v1 = ValueToken(0, 1, 1)
    before = [row(0, 0, ST, 0, v1, ts=4, step=40, seq=1)]
    for model in ("sc", "tso"):
        assert check_trace(before + [row(0, 1, LD, 0, v1, ts=4, step=40,
                                         seq=2)], model) == []
        assert [v.rule for v in check_trace(
            before + [row(0, 1, LD, 0, initial_token(0), ts=4, step=40,
                          seq=2)], model)] == ["value"]
    after = [row(0, 2, ST, 0, v1, ts=4, step=40, seq=3)]
    for model in ("sc", "tso"):
        assert check_trace(after + [row(0, 1, LD, 0, initial_token(0),
                                        ts=4, step=40, seq=2)], model) == []
        assert [v.rule for v in check_trace(
            after + [row(0, 1, LD, 0, v1, ts=4, step=40, seq=2)],
            model)] == ["value"]


def test_cross_core_tie_admits_either_side_but_not_older_values():
    v0, v1 = ValueToken(2, 1, 5), ValueToken(1, 1, 3)
    stores = [row(2, 0, ST, 0, v0, ts=4, step=39),   # one step earlier
              row(1, 0, ST, 0, v1, ts=4, step=40),   # tied with the load
              row(2, 1, ST, 0, ValueToken(2, 2, 6), ts=4, step=41, seq=2)]
    for read in (v0, v1):
        assert check_trace(stores + [row(0, 0, LD, 0, read, ts=4, step=40)],
                           "sc") == []
    assert [v.rule for v in check_trace(
        stores + [row(0, 0, LD, 0, initial_token(0), ts=4, step=40)],
        "sc")] == ["value"]


def test_program_earlier_own_store_with_later_timestamp():
    # core 0's own store commits at ts 7, after core 1's at ts 3 and
    # after its own load at ts 5: SC breaks program order and reads core
    # 1's value, TSO forwards core 0's own
    own, other = ValueToken(0, 1, 1), ValueToken(1, 1, 2)
    trace = [row(0, 0, ST, 0, own, ts=7, step=70),
             row(1, 0, ST, 0, other, ts=3, step=30)]
    sc_ok = trace + [row(0, 1, LD, 0, other, ts=5, step=50, seq=2)]
    tso_ok = trace + [row(0, 1, LD, 0, own, ts=5, step=50, seq=2)]
    assert [v.rule for v in check_trace(sc_ok, "sc")] == ["program-order"]
    assert [v.rule for v in check_trace(tso_ok, "sc")] == ["program-order",
                                                           "value"]
    assert check_trace(tso_ok, "tso") == []
    assert [v.rule for v in check_trace(sc_ok, "tso")] == ["value"]


def test_program_order_violations_are_exactly_the_ordered_pairs():
    # two ops of one core, the later one physio-ordered first: a
    # program-order violation exactly when ordered() keeps the pair, at
    # one address and at two (sync ops have none)
    addressed = (LD, ST, OpKind.SPIN)

    def op_row(idx, kind, addr, ts):
        if kind not in addressed:
            addr = value = None
        elif kind is ST:
            value = ValueToken(0, idx + 1, idx + 1)
        else:
            value = initial_token(addr)
        return row(0, idx, kind, addr, value, ts=ts, step=10 * ts)

    kinds = [k for k in OpKind if k is not OpKind.SLEEP]
    wrong = []
    for model in MemoryModel:
        for a in kinds:
            for b in kinds:
                for b_addr in (0, 64):
                    first, later = op_row(0, a, 0, 5), op_row(1, b, b_addr, 3)
                    same = first.addr is not None and first.addr == later.addr
                    flagged = any(v.rule == "program-order"
                                  for v in check_trace([first, later], model))
                    if flagged != ordered(model, a, b, same):
                        wrong.append((model.value, a.name, b.name, same))
    assert wrong == []


# --- equivalence corpus -------------------------------------------------

MODELS = ("sc", "tso", "pso", "rc")

# sha256 over every violation, str() of each plus a newline, of the
# corrupted-trace corpus below (traces in order, models in MODELS order
# per trace), and the number of violations; CORPUS_COUNTS splits that
# number per (model, rule), so a re-pin shows what moved
CORPUS_PIN = ("5d9a2eab1cc87b7e69910fb37cdf13084d3afb2d4b38d0df7a05899520409417",
              7111)
CORPUS_COUNTS = {
    ("sc", "program-order"): 2847, ("sc", "value"): 833,
    ("tso", "program-order"): 1120, ("tso", "value"): 388,
    ("pso", "program-order"): 1018, ("pso", "value"): 388,
    ("rc", "program-order"): 121, ("rc", "value"): 388,
    **{(model, "simultaneous-conflict"): 2 for model in MODELS},
}


def _corrupted(trace, rng):
    """A copy of trace with a few rows' values swapped, their ts, step
    or idx nudged, or their instant tied with a same-address row's."""
    rows = [replace(r) for r in trace]
    valued = [r for r in rows if r.value is not None]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(valued, 2)
        a.value, b.value = b.value, a.value
    for _ in range(rng.randint(1, 4)):
        r = rng.choice(rows)
        field = rng.choice(("ts", "step", "idx", "instant"))
        if field == "instant":
            other = rng.choice([o for o in rows if o.addr == r.addr])
            r.ts, r.step = other.ts, other.step
        else:
            setattr(r, field,
                    max(0, getattr(r, field) + rng.choice((-2, -1, 1, 2))))
    return rows


def test_violations_match_pinned_corpus():
    h = hashlib.sha256()
    counts = Counter()
    for preset_name in ("tardis-live", "directory"):
        for seed in range(5):
            sim = Simulator(
                preset(preset_name, model=MODELS[seed % 4], seed=seed),
                synth(SynthParams(cores=4, ops_per_core=40, hot_lines=2,
                                  shared_lines=4, seed=seed)),
                auditor=CoherenceAuditor())
            sim.run()
            rng = random.Random(seed)
            for _ in range(8):
                bad = _corrupted(sim.trace, rng)
                for model in MODELS:
                    for v in check_trace(bad, model):
                        h.update((str(v) + "\n").encode())
                        counts[model, v.rule] += 1
    assert dict(counts) == CORPUS_COUNTS
    assert (h.hexdigest(), counts.total()) == CORPUS_PIN


# --- the outcome oracle --------------------------------------------------


def test_oracle_dekker_separates_sc_from_tso():
    p = builtin("dekker")
    sc = oracle_outcomes(p, "sc")
    tso = oracle_outcomes(p, "tso")
    assert (0, 0) not in sc
    assert (0, 0) in tso
    assert sc <= tso


def test_oracle_mp_separates_tso_from_pso():
    p = builtin("mp")
    assert (1, 0) not in oracle_outcomes(p, "tso")
    assert (1, 0) in oracle_outcomes(p, "pso")


def test_oracle_lb_separates_pso_from_rc():
    # load buffering needs a load to pass a program-later store
    p = builtin("lb")
    assert (1, 1) not in oracle_outcomes(p, "pso")
    assert (1, 1) in oracle_outcomes(p, "rc")


def test_oracle_nesting_holds_per_model():
    for name in ("dekker", "mp", "sb", "lb", "corr"):
        p = builtin(name)
        sc = oracle_outcomes(p, "sc")
        tso = oracle_outcomes(p, "tso")
        pso = oracle_outcomes(p, "pso")
        rc = oracle_outcomes(p, "rc")
        assert sc <= tso <= pso <= rc


def test_oracle_rejects_oversized_and_spinning_programs():
    big = parse_program("[core 0]\n" + "\n".join("Ld A -> r1" for _ in range(9)))
    with pytest.raises(ValueError):
        oracle_outcomes(big, "sc")
    with pytest.raises(ValueError):
        oracle_outcomes(builtin("spin"), "sc")


def test_oracle_restores_a_register_a_later_load_overwrote():
    # both loads write r1, which ends with the second one's value
    p = parse_program("[core 0]\nLd A -> r1\nLd B -> r1\n\n"
                      "[core 1]\nSt B 1\nSt A 1")
    for model in ("sc", "tso", "pso", "rc"):
        assert oracle_outcomes(p, model) == {(0,), (1,)}
        assert enumerate_outcomes(p, model) == {(0,), (1,)}


def test_oracle_register_takes_its_program_last_load():
    # RC may arrange the two loads into r1 out of program order; r1
    # still ends with Ld B's value, never the first Ld A's 2
    p = parse_program("[core 0]\nLd A -> r1\nLd B -> r1\nLd A -> r2\n"
                      "[core 1]\nSt B 1\nSt A 2")
    rc = oracle_outcomes(p, "rc")
    assert rc == {(0, 0), (0, 2), (1, 0), (1, 2)}
    for protocol in ("tardis", "directory"):
        assert enumerate_outcomes(p, "rc", protocol) <= rc


def test_oracle_single_core_is_deterministic():
    p = parse_program("[core 0]\nSt A 1\nLd A -> r1\nSt A 2\nLd A -> r2")
    for model in ("sc", "tso", "pso", "rc"):
        assert oracle_outcomes(p, model) == {(1, 2)}
