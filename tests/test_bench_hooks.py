"""The benchmark's traced mode hooks named library attributes
(bench/layers.py).  Its tracer reads each one from vars(owner), so an
attribute that moves from the owner to a base class breaks the traced
run; this test breaks first."""

import copy
import sys
from collections import Counter, defaultdict
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

import jobs  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from tardisim import directory, engine, tardis  # noqa: E402
from tardisim.config import preset  # noqa: E402
from tardisim.workloads import SynthParams, builtin, synth  # noqa: E402

_SEARCH_COUNTS = ("popped", "unique", "slept", "reopened", "transitions",
                  "reused")


class _Recorder:
    """Records what install() hooks, and changes nothing."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.hooked = []

    def wrap(self, owner, attr, name, before=None, after=None):
        self.hooked.append((owner, attr))

    def patch(self, owner, attr, value):
        self.hooked.append((owner, attr))


def test_every_bench_hook_point_is_defined_on_its_owner():
    rec = _Recorder()
    layers.install(rec)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in rec.hooked if attr not in vars(owner)]
    assert not missing
    for point in [(tardis.TardisLlc, "handle"),
                  (directory.DirectoryLlc, "handle"),
                  (engine, "copy"), (tardis, "predict")]:
        assert point in rec.hooked


def test_enumerate_litmus_search_totals():
    """The full search statistics summed over the 32 searches of the
    benchmark's enumerate-litmus workload.  A faster search must make
    the same search: the same worlds popped and kept, the same actions
    slept and reopened, the same steps computed and replayed."""
    totals = Counter()
    for name in jobs.SIZES["full"]["litmus"]:
        for protocol in jobs.PROTOCOLS:
            for model in jobs.MODELS:
                stats = {}
                engine.enumerate_outcomes(builtin(name), model,
                                          protocol=protocol, stats=stats)
                totals.update({k: stats[k] for k in _SEARCH_COUNTS})
    assert totals == {"popped": 12_275, "unique": 9_219, "slept": 7_673,
                      "reopened": 987, "transitions": 3_196,
                      "reused": 9_047}


def test_traced_enumerator_counts_match_the_search():
    """The traced benchmark counts worlds popped by world.key() calls and
    copies by the enumerator's copy.deepcopy calls.  Over one search
    with the real tracer installed, those counts equal the search's own
    statistics: one key per pop, one copy and one apply per step."""
    tr = spans.Tracer()
    layers.install(tr)
    try:
        stats = {}
        engine.enumerate_outcomes(builtin("mp"), "tso", stats=stats)
    finally:
        tr.uninstall()
    calls = {name: n for name, (n, _) in tr.totals().items()}
    steps = stats["transitions"] + stats["reused"]
    assert calls["engine.world_key"] == stats["popped"]
    assert calls["engine.deepcopy"] == calls["engine.world_apply"] == steps
    assert tr.counts["unique_states"] == stats["unique"]
    # uninstall put every hooked attribute back
    assert engine.copy.deepcopy is copy.deepcopy
    assert "wrapper" not in engine._World.key.__qualname__


def test_traced_timed_run_marks_the_llc_and_routes_every_message():
    """mark_llc takes the shared cache from the (cores, llc) pair that
    engine._build_parts returns, so a traced timed run counts lookups in
    sim.llc.lines as LLC ones and no L1's.  route runs once per message
    sent: the send tally, which the report counts from, matches the
    deliveries."""
    tr = spans.Tracer()
    layers.install(tr)
    try:
        sim = engine.Simulator(preset("tardis-opt", seed=0),
                               synth(SynthParams(cores=4, seed=0)))
        sim.run()
    finally:
        tr.uninstall()
    assert getattr(sim.llc.lines, "bench_llc", False)
    assert not any(hasattr(core.l1, "bench_llc") for core in sim.cores)
    routed = tr.totals()["engine.route"][0]
    assert routed == sum(n for n, _ in sim.tally.values()) > 0
