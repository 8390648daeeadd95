"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed (`setup`), runs
its timed part through the library's entry points (`run`), and checks
and fingerprints the outputs afterwards (`finish`).  Library calls go
through the module attributes (`engine.enumerate_outcomes`, ...) so that
a traced run can wrap them; see layers.py.

Modelled caches start cold in every repetition, the same as `sim run`.
"""

from __future__ import annotations

import gc
import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from tardisim import (AuditError, CoherenceAuditor, SimulationError,
                      Simulator, SynthParams, checker, engine, preset,
                      workloads)
from tardisim.workloads import OpKind

import layers

MODELS = ("sc", "tso", "pso", "rc")
PROTOCOLS = ("tardis", "directory")
# AuditError is an AssertionError; both are listed for the reader
FAILURES = (SimulationError, AuditError, AssertionError)

# Input sizes.  "full" is what the benchmark measures; "tiny" keeps the
# smoke test short.
SIZES = {
    "full": {"timed_ops": 1000, "audited_ops": 3000,
             "litmus": ("mp", "sb_fence", "rc_mp", "listing2")},
    "tiny": {"timed_ops": 20, "audited_ops": 100,
             "litmus": ("corr", "mp")},
}


@dataclass
class Rep:
    """One repetition of a workload: timed part and results."""

    run_s: float = 0.0
    parts: dict = field(default_factory=lambda: defaultdict(float))
    mem_ops: int = 0          # committed loads+stores of all simulator runs
    rows: int = 0             # trace rows checked
    attempted: int = 0        # simulator runs, trace checks, enumerations
    errors: list = field(default_factory=list)
    reports: dict = field(default_factory=dict)    # label -> Report
    traces: dict = field(default_factory=dict)     # label -> JSONL lines
    outcomes: dict = field(default_factory=dict)   # label -> sorted outcomes
    digests: dict = field(default_factory=dict)    # label -> sha256 hex

    def fail(self, what: str) -> None:
        self.errors.append(what)


def _first_line(exc: Exception) -> str:
    # deadlock and step-limit errors carry a multi-line state dump
    return f"{type(exc).__name__}: {str(exc).partition(chr(10))[0]}"


def _timed(rep: Rep, part: str, fn, *args, **kwargs):
    t = perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        rep.parts[part] += perf_counter() - t


class _SynthWorkload:
    """Timed simulator runs of one `synth` program under several presets."""

    presets: tuple = ()
    cores = 0
    write_frac = 0.25
    audited = False      # attach the auditor, then dump, reload and check

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.ops = size[self.ops_key]

    def params(self) -> str:
        return (f"synth cores={self.cores} ops_per_core={self.ops} "
                f"write_frac={self.write_frac} seed={self.seed}; presets "
                f"{', '.join(self.presets)}; schedule seed {self.seed}")

    def setup(self, audit: bool = True):
        program = workloads.synth(SynthParams(
            cores=self.cores, ops_per_core=self.ops,
            write_frac=self.write_frac, seed=self.seed))
        return [(name, Simulator(preset(name, seed=self.seed), program,
                                 auditor=CoherenceAuditor()
                                 if audit and self.audited else None))
                for name in self.presets]

    def run(self, sims, rep: Rep) -> None:
        for label, sim in sims:
            if self.simulate(label, sim, rep) and self.audited:
                self._check(label, sim, rep)

    def simulate(self, label: str, sim, rep: Rep) -> bool:
        rep.attempted += 1
        try:
            report = _timed(rep, "sim", sim.run)
        except FAILURES as exc:
            rep.fail(f"{label}: run raised {_first_line(exc)}")
            return False
        rep.reports[label] = report
        rep.mem_ops += report.loads + report.stores
        return True

    def _check(self, label: str, sim, rep: Rep) -> None:
        rep.attempted += 1
        lines = _timed(rep, "dump",
                       lambda: [row.to_json() for row in sim.trace])
        rep.traces[label] = lines
        loaded = _timed(rep, "load", engine.trace_from_json, lines)
        try:
            violations = _timed(rep, "check", checker.check_trace, loaded,
                                sim.cfg.memory_model)
        except FAILURES as exc:
            rep.fail(f"{label}: check raised {_first_line(exc)}")
            return
        rep.rows += len(loaded)
        if violations:
            rep.fail(f"{label}: {len(violations)} violation(s), first "
                     f"{violations[0]}")

    def finish(self, sims, rep: Rep) -> None:
        for label, sim in sims:
            report = rep.reports.get(label)
            if report is None:
                continue
            want = sum(op.kind in (OpKind.LOAD, OpKind.STORE)
                       for ops in sim.program.cores for op in ops)
            if report.loads + report.stores < want:
                rep.fail(f"{label}: committed {report.loads + report.stores}"
                         f" of {want} memory ops")
            lines = rep.traces.get(label)
            if lines is None:
                lines = [row.to_json() for row in sim.trace]
            # the bytes `sim run --json R --trace T` writes to R then T
            text = report.to_json() + "\n" + "".join(l + "\n" for l in lines)
            rep.digests[label] = hashlib.sha256(text.encode()).hexdigest()
        rep.traces.clear()


class TimedSynth(_SynthWorkload):
    """timed-64c: the engine's tick loop at 64 cores, nothing else."""

    name = "timed-64c"
    presets = ("tardis-opt",)
    cores = 64
    ops_key = "timed_ops"


class AuditedSynth(_SynthWorkload):
    """audited-8c: audited runs under both protocols, then dump, reload
    and check each trace."""

    name = "audited-8c"
    presets = ("tardis-live", "directory")
    cores = 8
    write_frac = 0.4
    ops_key = "audited_ops"
    audited = True


class EnumerateLitmus:
    """enumerate-litmus: exhaustive enumeration of litmus programs under
    every model and both protocols, checked against the oracle."""

    name = "enumerate-litmus"
    audited = False

    def __init__(self, seed: int, size: dict):
        # enumeration is exhaustive: the seed changes nothing
        self.names = size["litmus"]

    def params(self) -> str:
        return (f"builtins {', '.join(self.names)} x models "
                f"{'/'.join(MODELS)} x protocols {'/'.join(PROTOCOLS)}")

    def setup(self):
        return [workloads.builtin(name) for name in self.names]

    def run(self, programs, rep: Rep) -> None:
        for prog in programs:
            allowed = {m: _timed(rep, "oracle", checker.oracle_outcomes,
                                 prog, m) for m in MODELS}
            for proto in PROTOCOLS:
                got = {}
                for model in MODELS:
                    label = f"{prog.name}/{proto}/{model}"
                    rep.attempted += 1
                    try:
                        got[model] = _timed(rep, "enumerate",
                                            engine.enumerate_outcomes, prog,
                                            model, protocol=proto)
                    except FAILURES as exc:
                        rep.fail(f"{label}: raised {_first_line(exc)}")
                        continue
                    rep.outcomes[label] = sorted(got[model])
                    extra = got[model] - allowed[model]
                    if extra:
                        rep.fail(f"{label}: outcomes {sorted(extra)} not "
                                 "admitted by the oracle")
                for weak, strong in zip(MODELS, MODELS[1:]):
                    if (weak in got and strong in got
                            and not got[weak] <= got[strong]):
                        rep.fail(f"{prog.name}/{proto}: {weak} outcomes not "
                                 f"a subset of {strong} outcomes")

    def finish(self, programs, rep: Rep) -> None:
        text = json.dumps(rep.outcomes, sort_keys=True)
        rep.digests["outcomes"] = hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {w.name: w for w in (TimedSynth, AuditedSynth, EnumerateLitmus)}


def time_setup(wl, min_s: float = 0.01) -> float:
    """Seconds per set-up, from back-to-back set-ups lasting min_s or
    more: a single set-up of a few litmus programs is too short to time."""
    gc.collect()
    n = 0
    t = perf_counter()
    while True:
        wl.setup()
        n += 1
        elapsed = perf_counter() - t
        if elapsed >= min_s:
            return elapsed / n


def one_rep(wl, tracer=None) -> Rep:
    """Set up and run one repetition, then check it.  A tracer's
    wrappers are installed for the set-up and timed part only."""
    gc.collect()
    if tracer is not None:
        layers.install(tracer)
    try:
        state = wl.setup()
        rep = Rep()
        t = perf_counter()
        wl.run(state, rep)
        rep.run_s = perf_counter() - t
    finally:
        if tracer is not None:
            tracer.uninstall()
    wl.finish(state, rep)
    return rep
