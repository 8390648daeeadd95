"""Axiomatic consistency checking.

A committed-operation trace is correct when (1) every same-core pair
the memory model keeps ordered is ordered in physiological time
(timestamp first, physical commit step second, core/sequence as the
final tie-break), and (2) every load returns the newest store that is
either physiologically before it or earlier in its own program order —
the second disjunct is what lets a relaxed core read its own buffered
store early, and it drops out where `ordered` keeps a store before a
later same-address load (under SC).

`oracle_outcomes` answers the same question model-side instead of
trace-side: it enumerates every linear arrangement of a small program
that respects the model's ordering rules and collects the register
results, giving an implementation-independent reference set.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby

from .cachemem import initial_token
from .consistency import MemoryModel
from .workloads import LOADS, OpKind, Program


def ordered(model: MemoryModel | str, a: OpKind, b: OpKind,
            same_addr: bool = False) -> bool:
    """Must op a stay before op b (same core, a earlier in program order)?

    The module's one program-order rule: `check_trace` and
    `oracle_outcomes` take every same-core pair from it, and let a load
    read its own buffered store early exactly when a store need not stay
    before a later same-address load.  model is a MemoryModel or its
    name ("sc", "tso", "pso" or "rc").
    """
    model = MemoryModel(model)
    if a is OpKind.FENCE or b is OpKind.FENCE:
        return True
    if model is MemoryModel.RC:
        if a is OpKind.ACQUIRE or b is OpKind.RELEASE:
            return True
        if a is OpKind.RELEASE and b in (OpKind.ACQUIRE, OpKind.RELEASE):
            return True
        # per-location coherence: a store never passes a same-address
        # access (a load may still run ahead of an older same-address
        # store -- that is plain forwarding)
        return same_addr and b is OpKind.STORE
    if a in (OpKind.ACQUIRE, OpKind.RELEASE) or b in (OpKind.ACQUIRE,
                                                      OpKind.RELEASE):
        return True
    store_a = a is OpKind.STORE
    if model is MemoryModel.SC:
        return True
    if model is MemoryModel.TSO:
        return not (store_a and b in LOADS)
    # PSO: only loads order later ordinary ops, same-address stores stay put
    if store_a:
        return b is OpKind.STORE and same_addr
    return True


@dataclass
class Violation:
    rule: str
    detail: str

    def __str__(self):
        return f"[{self.rule}] {self.detail}"


def check_trace(trace, model) -> list[Violation]:
    out: list[Violation] = []
    rows = sorted(trace, key=lambda r: (r.core, r.idx, r.seq))

    # rule 1: required program-order pairs are physio-ordered.  Each row's
    # kind is numbered once (a spin counts as a load), so the pair tests
    # index lists instead of hashing enums.  A row of kind b is tested
    # against the newest key on its core of each kind a with must[a][b],
    # which is ordered(model, a, b); if none fails, against the newest key
    # at its own address of each kind a in same[b], the pairs that only
    # ordered(model, a, b, same_addr=True) adds.
    kinds = list(OpKind)
    num = {k: i for i, k in enumerate(kinds)}
    num.update(dict.fromkeys(LOADS, num[OpKind.LOAD]))
    must = [[ordered(model, a, b) for b in kinds] for a in kinds]
    same = [[i for i, a in enumerate(kinds) if not must[i][j]
             and ordered(model, a, b, same_addr=True)]
            for j, b in enumerate(kinds)]
    per_addr = {i for s in same for i in s}    # kinds keyed by address
    for core, group in groupby(rows, key=lambda r: r.core):
        last: dict[int, tuple] = {}
        last_at: dict[tuple, tuple] = {}         # (addr, kind) -> key
        for row in group:
            kind = num[row.kind]
            key = row.physio_key()
            worst = None
            for prev_kind, prev_key in last.items():
                if must[prev_kind][kind] and prev_key >= key:
                    if worst is None or prev_key > worst[0]:
                        worst = (prev_key, prev_kind)
            if worst is None:
                for prev_kind in same[kind]:
                    p = last_at.get((row.addr, prev_kind))
                    if p is not None and p >= key and (worst is None
                                                       or p > worst[0]):
                        worst = (p, prev_kind)
            if worst is not None:
                out.append(Violation(
                    "program-order",
                    f"core {core}: {kinds[worst[1]].name}@{worst[0]} not "
                    f"before {kinds[kind].name} idx {row.idx}@{key}"))
            cur = last.get(kind)
            if cur is None or key > cur:
                last[kind] = key
            if kind in per_addr:
                p = last_at.get((row.addr, kind))
                if p is None or key > p:
                    last_at[row.addr, kind] = key

    # rule 2: loads read the newest store before them.  Each address's
    # stores sit in physio order next to their sorted (ts, step)
    # instants, so a load bisects to the stores strictly before its
    # instant and the group tied with it.
    stores_by_addr: dict[int, list] = {}
    for row in rows:
        if row.kind is OpKind.STORE:
            stores_by_addr.setdefault(row.addr, []).append(row)
    instants: dict[int, list] = {}
    for addr, group in stores_by_addr.items():
        group.sort(key=lambda r: r.physio_key())
        instants[addr] = [(r.ts, r.step) for r in group]

    # own_newest[core, addr] is the own store a relaxed load may read
    # early: of the core's stores to addr with a smaller idx than the
    # rows being visited, the first in program order with the greatest
    # physio key.  A (core, idx) group's stores join it after the
    # group's loads are checked.
    own_newest: dict[tuple, tuple] = {}   # (core, addr) -> (key, row)
    relaxed = not ordered(model, OpKind.STORE, OpKind.LOAD,
                          same_addr=True)
    for _, group in groupby(rows, key=lambda r: (r.core, r.idx)):
        group = list(group)
        for row in group:
            if row.kind not in LOADS:
                continue
            addr = row.addr
            instant = (row.ts, row.step)
            cand = None
            tied = []
            stores = stores_by_addr.get(addr)
            if stores is not None:
                keys = instants[addr]
                lo = bisect_left(keys, instant)
                if lo:
                    cand = stores[lo - 1]
                for st in stores[lo:bisect_right(keys, instant, lo)]:
                    # a store sharing the load's instant is unordered
                    # against it unless it is the same core's (sequence
                    # decides then); either serialization of a
                    # cross-core tie is legal
                    if st.core == row.core:
                        if st.seq < row.seq:
                            cand = st
                    else:
                        tied.append(st)
            if relaxed:
                own = own_newest.get((row.core, addr))
                if own is not None and (cand is None
                                        or own[0] > cand.physio_key()):
                    cand = own[1]
            newest = cand.value if cand is not None else initial_token(addr)
            if row.value == newest:
                continue
            acceptable = {newest}
            acceptable.update(st.value for st in tied)
            if row.value not in acceptable:
                out.append(Violation(
                    "value",
                    f"core {row.core} idx {row.idx} read {row.value} from "
                    f"addr {addr}, newest visible store was {acceptable}"))
        if relaxed:
            for row in group:
                if row.kind is OpKind.STORE:
                    key = row.physio_key()
                    own = own_newest.get((row.core, row.addr))
                    if own is None or key > own[0]:
                        own_newest[row.core, row.addr] = (key, row)

    # conflicting writes may not share a physiological instant (a tied
    # load is resolved by the value it returns; two tied stores have no
    # defensible serialization)
    for addr, group in stores_by_addr.items():
        for _, tied in groupby(group, key=lambda r: (r.ts, r.step)):
            tied = list(tied)
            if len(tied) >= 2 and len({r.core for r in tied}) >= 2:
                out.append(Violation(
                    "simultaneous-conflict",
                    f"two stores to addr {addr} share instant "
                    f"({tied[0].ts},{tied[0].step})"))
    return out


# ---------------------------------------------------------------------------
# outcome oracle


ORACLE_OP_LIMIT = 8


def oracle_outcomes(program: Program, model) -> set:
    """All register outcomes the model's axioms admit for a small program."""
    per_core = []
    for cid, core_ops in enumerate(program.cores):
        seq = [op for op in core_ops if op.kind is not OpKind.SLEEP]
        for op in seq:
            if op.kind is OpKind.SPIN:
                raise ValueError("conditional spins have no finite oracle")
        per_core.append(seq)
    total = sum(len(s) for s in per_core)
    if total > ORACLE_OP_LIMIT:
        raise ValueError(f"oracle is limited to {ORACLE_OP_LIMIT} ops, "
                         f"program has {total}")

    # preds[c][k] = indices j < k whose order over op k is required
    preds = []
    for cid, seq in enumerate(per_core):
        p = []
        for k, op in enumerate(seq):
            req = [j for j in range(k)
                   if ordered(model, seq[j].kind, op.kind,
                              same_addr=seq[j].addr == op.addr
                              and op.addr is not None)]
            p.append(req)
        preds.append(p)

    # a register ends with its program-last load's value, wherever the
    # arrangement puts that load: each load's value is read at the end
    last_load = {(cid, op.reg): k for cid, seq in enumerate(per_core)
                 for k, op in enumerate(seq) if op.kind is OpKind.LOAD}
    slots = [(cid, last_load[cid, reg]) for cid, reg in program.registers()]
    loaded = [[0] * len(s) for s in per_core]   # each load's value
    outcomes = set()
    n_cores = len(per_core)
    placed = [[False] * len(s) for s in per_core]

    def run(done: int, last_store: dict):
        if done == total:
            outcomes.add(tuple(loaded[c][k] for c, k in slots))
            return
        for cid in range(n_cores):
            seq = per_core[cid]
            for k in range(len(seq)):
                if placed[cid][k]:
                    continue
                if any(not placed[cid][j] for j in preds[cid][k]):
                    continue
                op = seq[k]
                placed[cid][k] = True
                if op.kind is OpKind.STORE:
                    saved = last_store.get(op.addr, 0)
                    last_store[op.addr] = op.value
                    run(done + 1, last_store)
                    last_store[op.addr] = saved
                elif op.kind is OpKind.LOAD:
                    # a program-earlier own store that is still unplaced
                    # lands later in the arrangement and therefore wins;
                    # preds leaves one unplaced only where ordered() lets
                    # a load pass a same-address store
                    val = last_store.get(op.addr, 0)
                    for j in range(k - 1, -1, -1):
                        o = seq[j]
                        if (o.kind is OpKind.STORE and o.addr == op.addr
                                and not placed[cid][j]):
                            val = o.value
                            break
                    loaded[cid][k] = val
                    run(done + 1, last_store)
                else:
                    run(done + 1, last_store)
                placed[cid][k] = False

    run(0, {})
    return outcomes
