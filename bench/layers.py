"""Per-layer metrics: where the traced run hooks into the library, and how
the recorded spans and counts become the numbers the benchmark prints.

Every hook wraps a call that one module of `src/tardisim` makes into
another (or that the benchmark makes into the library), from outside the
library.  Nothing here is installed in an untraced run.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

from tardisim import (audit, cachemem, checker, directory, engine, livelock,
                      metrics, tardis, workloads)
from tardisim.messages import MsgKind


def ratio(num, den) -> float:
    return num / den if den else 0.0


def install(tr) -> None:
    """Wrap the library calls each layer metric is measured at."""
    c = tr.counts
    pending = []     # commit count before the tick in progress
    keys = set()     # state keys seen by the enumeration in progress

    def mark_llc(args, kwargs, parts):
        # deepcopy carries the mark into every enumerated world
        parts[1].lines.bench_llc = True

    def before_tick(args, kwargs):
        pending.append(len(args[0].trace))

    def after_tick(args, kwargs, result):
        c["ticks"] += 1
        if len(args[0].trace) == pending.pop():
            c["idle_ticks"] += 1

    def after_send(args, kwargs, result):
        if args[1].kind is MsgKind.INV:
            c["inv_msgs"] += 1

    def after_lookup(args, kwargs, line):
        if not kwargs.get("touch", args[2] if len(args) > 2 else True):
            return   # probes by recalls and the auditor, not accesses
        level = "llc" if getattr(args[0], "bench_llc", False) else "l1"
        c[level + "_lookups"] += 1
        if line is not None:
            c[level + "_hits"] += 1

    def after_check(args, kwargs, result):
        if kwargs.get("updated", args[1] if len(args) > 1 else False):
            c["check_updated"] += 1

    def after_predict(args, kwargs, lease):
        c["lease_sum"] += lease

    def before_enumerate(args, kwargs):
        keys.clear()
        c["enumerations"] += 1

    def after_key(args, kwargs, key):
        if key not in keys:
            keys.add(key)
            c["unique_states"] += 1

    tr.wrap(engine, "_build_parts", "engine.build_parts", after=mark_llc)
    tr.wrap(engine.BaseCore, "turn", "engine.turn")
    tr.wrap(engine.Simulator, "tick", "engine.tick", before=before_tick,
            after=after_tick)
    tr.wrap(engine.Simulator, "send", "engine.send", after=after_send)
    tr.wrap(engine.Simulator, "route", "engine.route")
    tr.wrap(engine.TraceOp, "to_json", "engine.trace_dump")
    tr.wrap(engine, "trace_from_json", "engine.trace_load")
    tr.wrap(engine, "enumerate_outcomes", "engine.enumerate",
            before=before_enumerate)
    tr.wrap(engine._World, "key", "engine.world_key", after=after_key)
    tr.wrap(engine._World, "apply", "engine.world_apply")
    # only the enumerator's own deepcopy calls, not the recursion inside
    shim = SimpleNamespace(deepcopy=copy.deepcopy)
    tr.wrap(shim, "deepcopy", "engine.deepcopy")
    tr.patch(engine, "copy", shim)
    tr.wrap(tardis.TardisCore, "handle", "tardis.core_handle")
    tr.wrap(tardis.TardisLlc, "handle", "tardis.llc_handle")
    tr.wrap(directory.DirectoryCore, "handle", "directory.core_handle")
    tr.wrap(directory.DirectoryLlc, "handle", "directory.llc_handle")
    tr.wrap(cachemem.SetAssocCache, "lookup", "cachemem.lookup",
            after=after_lookup)
    tr.wrap(livelock.LivelockDetector, "on_check_response",
            "livelock.on_check_response", after=after_check)
    tr.wrap(tardis, "predict", "leasepred.predict", after=after_predict)
    for hook in ("on_commit", "on_tick", "on_run_end"):
        tr.wrap(audit.CoherenceAuditor, hook, "audit." + hook)
    tr.wrap(checker, "check_trace", "checker.check_trace")
    tr.wrap(checker, "oracle_outcomes", "checker.oracle_outcomes")
    tr.wrap(workloads, "synth", "workloads.synth")
    tr.wrap(workloads, "builtin", "workloads.builtin")
    tr.wrap(metrics, "build_report", "metrics.build_report")


def per_layer(tr, traced, untraced_run_s: float, rates: dict,
              audit_ratio: float) -> dict[str, float]:
    """Every per-layer value from one traced repetition, 0 for a layer
    the workload does not use and for a ratio whose base is 0.

    untraced_run_s is the median timed part of the untraced repetitions,
    rates holds their host rates (mem_ops_per_s, check_rows_per_s,
    enum_s), audit_ratio is audited / unaudited simulator time.
    """
    totals = tr.totals()
    c = tr.counts

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    reports = traced.reports
    tardis_reps = [r for r in reports.values() if r.protocol == "tardis"]
    unique = c["unique_states"]
    out = {
        "engine.turn_calls_per_commit": ratio(calls("engine.turn"),
                                              traced.mem_ops),
        "engine.turn_self_s": self_s("engine.turn"),
        "engine.idle_tick_frac": ratio(c["idle_ticks"], c["ticks"]),
        "engine.send_calls": calls("engine.send"),
        "engine.send_s": self_s("engine.send"),
        "engine.trace_dump_s": self_s("engine.trace_dump"),
        "engine.trace_load_s": self_s("engine.trace_load"),
        "engine.enum_states_popped": calls("engine.world_key"),
        "engine.enum_unique_states": unique,
        "engine.enum_copies": calls("engine.deepcopy"),
        # every enumerated world but the root of each search is a copy
        "engine.enum_copy_useful_ratio": ratio(unique - c["enumerations"],
                                               calls("engine.deepcopy")),
        "engine.enum_copy_s": self_s("engine.deepcopy"),
        "engine.enum_key_s": self_s("engine.world_key"),
        "engine.enum_apply_s": self_s("engine.world_apply"),
        "engine.enum_states_per_s": ratio(unique, rates["enum_s"]),
        "tardis.core_handle_s": self_s("tardis.core_handle"),
        "tardis.llc_handle_s": self_s("tardis.llc_handle"),
        "tardis.llc_handle_calls": calls("tardis.llc_handle"),
        "tardis.renew_ok_ratio": ratio(
            sum(r.renew_ok for r in tardis_reps),
            sum(r.renew_requests for r in tardis_reps)),
        "directory.core_handle_s": self_s("directory.core_handle"),
        "directory.llc_handle_s": self_s("directory.llc_handle"),
        "directory.inval_msgs": c["inv_msgs"],
        "cachemem.lookup_calls": calls("cachemem.lookup"),
        "cachemem.lookup_s": self_s("cachemem.lookup"),
        "cachemem.l1_hit_ratio": ratio(c["l1_hits"], c["l1_lookups"]),
        "cachemem.llc_hit_ratio": ratio(c["llc_hits"], c["llc_lookups"]),
        "livelock.checks_sent": sum(r.checks_sent for r in tardis_reps),
        "livelock.check_hit_ratio": ratio(
            c["check_updated"], sum(r.checks_sent for r in tardis_reps)),
        "leasepred.predict_calls": calls("leasepred.predict"),
        "leasepred.mean_lease": ratio(c["lease_sum"],
                                      calls("leasepred.predict")),
        "audit.on_commit_s": self_s("audit.on_commit"),
        "audit.on_tick_s": self_s("audit.on_tick"),
        "audit.overhead_ratio": audit_ratio,
        "checker.check_s": self_s("checker.check_trace"),
        "checker.oracle_s": self_s("checker.oracle_outcomes"),
        "workloads.synth_s": self_s("workloads.synth"),
        "workloads.builtin_s": self_s("workloads.builtin"),
        "metrics.build_report_s": self_s("metrics.build_report"),
        "trace_overhead_ratio": ratio(traced.run_s, untraced_run_s),
        "mem_ops_per_s": rates["mem_ops_per_s"],
        "check_rows_per_s": rates["check_rows_per_s"],
    }
    out.update(simulated(traced))
    return out


def simulated(rep) -> dict[str, float]:
    """The simulated (S) statistics of one repetition; 0 where the
    workload runs no timed simulation under that protocol."""
    by_protocol = {r.protocol: r for r in rep.reports.values()}
    out = {}
    for proto in ("tardis", "directory"):
        r = by_protocol.get(proto)
        out["sim_cycles." + proto] = r.steps if r else 0
        out["flit_hops." + proto] = (r.traffic["total"]["flit_hops"]
                                     if r else 0)
    t = by_protocol.get("tardis")
    out["renew_rate"] = t.renew_rate if t else 0.0
    out["ts_increase_rate"] = t.ts_increase_rate if t else 0.0
    return out
