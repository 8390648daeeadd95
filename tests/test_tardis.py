"""Timestamp-coherence protocol behavior."""

from tardisim.cachemem import LineState
from tardisim.messages import MsgKind
from tardisim.workloads import OpKind, WarmLine, parse_program
from conftest import run


def prog_with_warm(text, warm=(), schedule="sequential"):
    p = parse_program(text)
    sym = {v: k for k, v in p.addr_names.items()}
    p.warm = [WarmLine(sym[a], wts, rts, in_l1=l1) for a, wts, rts, l1 in warm]
    p.schedule = schedule
    return p


def test_fresh_shared_hit_needs_no_renewal():
    p = prog_with_warm("""
    [core 0]
    Ld A -> r1
    """, warm=[("A", 0, 11, (0,))])
    sim, rep = run(p, model="sc", static_lease=8, seed=0)
    assert rep.renew_requests == 0
    assert rep.traffic["total"]["messages"] == 0
    assert sim.llc.lines.lookup(0, touch=False).rts == 11


def test_renew_rts_is_max_of_old_edge_and_request_window():
    # reader at ts 12 renews a line whose lease ends at 11: the window
    # becomes max(11, 12 + 8) = 20
    p = prog_with_warm("""
    [core 0]
    St A 9          # ts 12 (floor = warm A rts 11 + 1)
    Ld B -> r1      # B's lease ended at 11 < 12: renew
    """, warm=[("A", 0, 11, ()), ("B", 0, 11, (0,))])
    sim, rep = run(p, model="sc", static_lease=8, seed=0)
    assert rep.renew_requests == 1 and rep.renew_ok == 1
    b = next(ad for ad, n in sim.program.addr_names.items() if n == "B")
    llc_b = sim.llc.lines.lookup(b, touch=False)
    line = sim.cores[0].l1.lookup(b, touch=False)
    assert llc_b.rts == line.rts == max(11, 12 + 8)


def test_expired_shared_copy_renews_without_data():
    p = prog_with_warm("""
    [core 0]
    St A 1          # pts jumps to 12
    Ld B -> r1      # B's lease (rts 4) is expired at ts 12: renew
    """, warm=[("A", 0, 11, ()), ("B", 0, 4, (0,))])
    sim, rep = run(p, model="sc", static_lease=8, seed=0)
    assert rep.renew_requests == 1 and rep.renew_ok == 1
    b = next(ad for ad, n in sim.program.addr_names.items() if n == "B")
    llc_b = sim.llc.lines.lookup(b, touch=False)
    assert llc_b.rts == 12 + 8             # extended from the reader's ts
    # renewal carried no data either way
    assert rep.traffic["renew"]["messages"] == 2
    assert rep.traffic["renew"]["flits"] == 2


def test_failed_renewal_returns_fresh_data_and_still_extends():
    p = prog_with_warm("""
    [core 0]
    St A 1          # ts 12: core 1's copy of A is now stale
    St B 1          # published after A

    [core 1]
    Ld B -> r1      # cold miss: lts = wts(B) = 13
    Ld A -> r2      # stale + expired -> failed renewal, fresh data
    """, warm=[("A", 0, 11, (1,))])
    sim, rep = run(p, model="tso", static_lease=8, seed=0)
    assert rep.outcome["c1.r2"] == 1       # stale value was not served
    assert rep.renew_fail == 1
    a = next(ad for ad, n in sim.program.addr_names.items() if n == "A")
    line = sim.cores[1].l1.lookup(a, touch=False)
    ld_a = next(r for r in sim.trace if r.core == 1 and r.addr == a)
    assert line.wts == 12                  # replaced with the new version
    assert line.rts >= ld_a.ts + 8         # and the lease still moved


def test_store_claims_timestamp_above_every_lease():
    p = prog_with_warm("""
    [core 0]
    St A 5
    """, warm=[("A", 3, 42, ())])
    sim, rep = run(p, model="tso", seed=0)
    st = sim.trace[0]
    assert st.ts == 43                     # rts + 1, no invalidation needed
    assert rep.traffic["invalidation"]["messages"] == 0


def test_exclusive_to_modified_is_silent():
    p = parse_program("""
    [core 0]
    Ld A -> r1
    St A 2
    Ld A -> r2
    """)
    p.schedule = "sequential"
    sim, rep = run(p, model="sc", mesi=True, seed=0)
    a = 0
    ld1, st, ld2 = (r for r in sim.trace if r.addr == a)
    # exclusive grant: the line came back E, the store upgraded in place.
    # an owner's load never takes a lease, so the store lands right above it
    assert st.ts == ld1.ts + 1
    line = sim.cores[0].l1.lookup(a, touch=False)
    assert line.state is LineState.M
    msgs = rep.traffic["common"]["messages"] + rep.traffic["dram"]["messages"]
    assert msgs == 4                       # miss round trip only, no upgrade


def test_owner_load_extends_lease_with_zero_messages():
    p = parse_program("""
    [core 0]
    St A 1
    Ld A -> r1
    Ld A -> r2
    """)
    p.schedule = "sequential"
    sim, rep = run(p, model="sc", seed=0)
    before = rep.traffic["total"]["messages"]
    line = sim.cores[0].l1.lookup(0, touch=False)
    assert line.state is LineState.M
    assert line.rts >= line.wts            # loads stretched the window
    sim2, rep2 = run(parse_program("""
    [core 0]
    St A 1
    """), model="sc", seed=0)
    assert before == rep2.traffic["total"]["messages"]


def test_read_recall_keeps_owner_snapshot_and_extends_it():
    p = parse_program("""
    [core 0]
    St A 7

    [core 1]
    Ld A -> r1
    """)
    p.schedule = "sequential"
    sim, rep = run(p, model="sc", static_lease=10, seed=0)
    assert rep.outcome == {"c1.r1": 7}
    owner = sim.cores[0].l1.lookup(0, touch=False)
    reader = sim.cores[1].l1.lookup(0, touch=False)
    llc = sim.llc.lines.lookup(0, touch=False)
    assert owner.state is LineState.S      # downgraded, not invalidated
    assert owner.rts == reader.rts == llc.rts
    assert llc.owner is None               # merged back into the LLC
    assert not llc.e_bit                   # shared serve drops the hint


def test_write_recall_invalidates_owner():
    p = parse_program("""
    [core 0]
    St A 1

    [core 1]
    St A 2
    """)
    p.schedule = "sequential"
    sim, _ = run(p, model="sc", seed=0)
    assert sim.cores[0].l1.lookup(0, touch=False) is None
    sts = sorted((r for r in sim.trace if r.kind is OpKind.STORE),
                 key=lambda r: r.physio_key())
    assert sts[0].core == 0 and sts[1].core == 1
    assert sts[1].ts > sts[0].ts


def test_exclusive_grant_needs_mesi_and_e_bit():
    text = """
    [core 0]
    Ld A -> r1
    """
    p = parse_program(text)
    sim, _ = run(p, model="sc", mesi=True, seed=0)
    assert sim.cores[0].l1.lookup(0, touch=False).state is LineState.E
    p = parse_program(text)
    sim, _ = run(p, model="sc", mesi=False, seed=0)
    assert sim.cores[0].l1.lookup(0, touch=False).state is LineState.S
    # a second reader finds the e_bit cleared and gets S
    p = parse_program(text + """
    [core 1]
    Ld A -> r2
    """)
    p.schedule = "sequential"
    sim, _ = run(p, model="sc", mesi=True, seed=0)
    assert sim.cores[1].l1.lookup(0, touch=False).state is LineState.S
    assert not sim.llc.lines.lookup(0, touch=False).e_bit


def test_check_probe_never_extends_lease():
    p = prog_with_warm("""
    [core 0]
    Ld A -> r1
    Ld A -> r2
    Ld A -> r3
    """, warm=[("A", 0, 6, (0,))])
    # threshold 1: every second stale-looking hit sends a check
    sim, rep = run(p, model="sc", livelock_detector=True, thresh_min=1,
                   thresh_max=1, seed=0)
    assert rep.checks_sent >= 1
    llc_a = sim.llc.lines.lookup(0, touch=False)
    assert llc_a.rts == 6                  # probe left the lease alone
    assert rep.traffic["renew"]["flits"] == 2 * rep.checks_sent


def test_renewals_double_the_predicted_lease():
    p = prog_with_warm("""
    [core 0]
    Ld A -> r1      # cold grant at the minimum lease
    St Z 1          # ts 21: A expired
    Ld A -> r2      # renew echoing lease 8 -> doubled to 16
    St W 1          # ts 51: expired again
    Ld A -> r3      # renew echoing 16 -> 32
    """, warm=[("Z", 0, 20, ()), ("W", 0, 50, ())])
    sim, rep = run(p, model="sc", mesi=False, lease_predictor=True, seed=0)
    assert rep.renew_ok == 2
    a = next(ad for ad, n in sim.program.addr_names.items() if n == "A")
    line = sim.cores[0].l1.lookup(a, touch=False)
    assert line.lease == 32
    assert sim.llc.lines.lookup(a, touch=False).cur_lease == 32
    assert line.rts == 51 + 32


def test_predicted_lease_survives_llc_eviction():
    # grow A's lease, push the line out of a tiny LLC with filler
    # loads, touch it again: the refill grants the learned lease
    body = "\n".join(f"Ld L{i}" for i in range(64))
    p = prog_with_warm(f"""
    [core 0]
    Ld A -> r1
    St Z 1
    Ld A -> r2
    {body}
    Ld A -> r4
    """, warm=[("Z", 0, 20, ())])
    sim, rep = run(p, model="sc", mesi=False, lease_predictor=True,
                   llc_kb=2, llc_ways=2, l1_kb=32, seed=0)
    a = next(ad for ad, n in sim.program.addr_names.items() if n == "A")
    assert sim.mem.read(a).lease == 16     # eviction wrote the lease back
    line = sim.cores[0].l1.lookup(a, touch=False)
    assert line is not None and line.lease == 16
