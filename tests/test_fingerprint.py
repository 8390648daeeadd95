"""Behaviour fingerprints.

Pins six things a refactor must leave exactly as they are: the builtin
and synthetic programs, the bytes `sim run --json R --trace T` writes
for a fixed run matrix, the same bytes plus every message sent for a
matrix with caches small enough to evict, the column layout of
`Report.flat()` (the CSV row), and the exact outcome sets of
exhaustive enumeration together with the size of each search (states
popped and unique states).  Re-pin only in a change that alters
behaviour on purpose, and say why in CHANGES.md.
"""

import hashlib
from collections import Counter
from dataclasses import replace
from operator import attrgetter

import pytest

from tardisim.audit import CoherenceAuditor
from tardisim.checker import check_trace
from tardisim.config import preset
from tardisim.directory import DirectoryCore
from tardisim.engine import Simulator, _World, enumerate_outcomes
from tardisim.messages import Msg, MsgKind
from tardisim.tardis import TardisCore
from tardisim.workloads import SynthParams, builtin, synth
from conftest import ONE_SET_CACHES, appended

MODELS = ("sc", "tso", "pso", "rc")
SEEDS = (0, 1, 2)
PROGRAMS = {
    "synth": lambda: synth(SynthParams(cores=4, ops_per_core=100)),
    "spin": lambda: builtin("spin", delay=200),
    "lease_case": lambda: builtin("lease_case"),
}

# sha256 over the repr of each builtin program below, one per line: the
# builtins of BUILTIN_PIN_NAMES at line_bytes 64 and 1024, then
# BUILTIN_PIN_PARAMS.  The names are listed here, not taken from
# BUILTIN_NAMES, so that a new builtin does not move the pin.
BUILTIN_PIN_NAMES = (
    "dekker", "sb_fence", "mp", "mp_fence", "lb", "lb_fence", "iriw",
    "iriw_fence", "wrc", "wrc_fence", "corr", "listing2", "rc_mp", "single",
    "fig1", "fig2", "sb", "spin", "lease_case")
BUILTIN_PIN_PARAMS = (("spin", {"delay": 77}),
                      ("lease_case", {"iterations": 3}),
                      ("lease_case", {"iterations": 0}))
BUILTIN_PIN = "86f8f3e9982e74edaf023213b5264d42f2720b542132c57d4d35783eb3416835"

# sha256 over the rows of each synth program below, one `(kind name,
# addr, value)` repr per op and a blank line after each core: the
# benchmark's two synth shapes (timed-64c, audited-8c), then edge cases
# (one hot line, where the draw still redraws; shared pools of 3 and 5
# lines, not powers of two; no private lines; no hot accesses; no
# writes; only writes; only fences; 32-byte lines) at 200 ops per core,
# each under SEEDS
SYNTH_PIN_CASES = (
    ({"cores": 64, "ops_per_core": 1000, "write_frac": 0.25}, 64),
    ({"cores": 8, "ops_per_core": 3000, "write_frac": 0.4}, 64),
    ({"hot_lines": 1}, 64),
    ({"shared_lines": 3}, 64),
    ({"shared_lines": 5}, 64),
    ({"private_lines": 0}, 64),
    ({"hot_frac": 0}, 64),
    ({"write_frac": 0}, 64),
    ({"write_frac": 1}, 64),
    ({"fence_frac": 1}, 64),
    ({}, 32),
)
SYNTH_PIN = "b01c7c91f8cda365ca665fafd909b00eb45916a8fcbadc1fa802186277c253a8"

# sha256 over the 12 runs (models x seeds, in that order) of one preset
# and program, each contributing its report JSON, a newline, then its
# trace as JSONL
RUN_PINS = {
    ("directory", "lease_case"):
        "a4f75f02471b03434583f0f66549e5c759a1d7ebdb2fe222a19a49b223867dd5",
    ("directory", "spin"):
        "72b5bc95095c7b93908c17dde3715245a044b44372e9d32e5f64a28eab9e57f1",
    ("directory", "synth"):
        "5fcc4371585e2a974272c6e45c5aea182b339ce55fcb3c6538c17a8af9585b05",
    ("tardis-base", "lease_case"):
        "6f73fba6f934c93c5554caaff4160d9f47a268b0b0ebd965d2653420cc0ef431",
    ("tardis-base", "spin"):
        "e3bb8818afdc39a8feb5aa6bcd1584fa5c49795d9a21be0b583ab3743d5a24d7",
    ("tardis-base", "synth"):
        "7f41f32664f7e1f011a5b5684c3dbb8a5a71230c4d053fcab7926a4149869b41",
    ("tardis-live", "lease_case"):
        "b0b6f97344a184240ef3343090f13547c65c2c9b6816922991c3f73721933146",
    ("tardis-live", "spin"):
        "981f8094e357ac2aea260d5b121e7ef57df06ab85b55b634228fce845e2db3c5",
    ("tardis-live", "synth"):
        "ad076b08a393315668ddf87105019c923b988e5db59e1b1b3706d79fec49e843",
    ("tardis-opt", "lease_case"):
        "699b116064cf4b200bff92d8cdb84dd1ff643b76710cf8a94863f9f59efe6e71",
    ("tardis-opt", "spin"):
        "abb509424997095e3504f224636a9c76ae0eafc62eb76748f1d48df3d43ced08",
    ("tardis-opt", "synth"):
        "192986d30071dd46a0070bd8371cafd521d6a8cbb8274b8e15c9d4a0457c34d1",
}

# Caches small enough that the home runs out of ways: fills evict clean
# lines, park while the home takes a line back from the cores, and
# requests queue on lines on their way out.  Each seed is both the
# program's and the run's.
CAPACITY_CFG = {"l1_kb": 1, "l1_ways": 2, "llc_kb": 2, "llc_ways": 4}
CAPACITY_SEEDS = (0, 2)

_MSG_HEAD = attrgetter("kind", "addr", "src", "dst", "data", "value", "wts",
                       "rts", "req_ts", "req_wts", "req_lease", "lease",
                       "floor", "excl")
_MSG_TAIL = attrgetter("downgrade", "extend_ts", "have_line", "recalled")


def msg_fields(msg) -> tuple:
    """Every fact a message holds, as the 20-value tuple the pins below
    hash.  When they were pinned, Msg also had a success field (False
    only on a RENEW_RESP that carries a line) and an updated field (True
    only on a CHECK_RESP that carries one), placed after excl.  The
    protocol set both from data, so deriving them the same way keeps the
    pinned bytes."""
    kind, data = msg.kind, msg.data
    return (*_MSG_HEAD(msg), not (data and kind is MsgKind.RENEW_RESP),
            data and kind is MsgKind.CHECK_RESP, *_MSG_TAIL(msg))

# per preset, over the 8 runs (models x seeds, in that order): sha256 of
# the report JSON + trace JSONL as in RUN_PINS, and sha256 of every sent
# message's repr(msg_fields(msg)), one a line, in send order
CAPACITY_PINS = {
    "directory": (
        "01531722b0f7291d0d4894435d250a9909b1e3728bb43397f2077c941dccb16f",
        "9047f359c694fed1a43a560e951da24fc0443c5f067fc1e3b8e5191cb9cc3a7b"),
    "tardis-base": (
        "22bf07b0591b7e7793b948cca90c89333449948d9b38947cf5193dc312f9dd6b",
        "0679e884c5ed5917017459b262b0c5dd375d11825ff891eb4f6fd253eebfedfb"),
    "tardis-live": (
        "4e911be98d51a82882ecc2b2883fe842de41fffe0184bf38521de470e7a5537d",
        "0679e884c5ed5917017459b262b0c5dd375d11825ff891eb4f6fd253eebfedfb"),
    "tardis-opt": (
        "dd81e29fdec10b7520af6408d1aa8a99ece549caeeef54f810f3dad664ec9fe4",
        "088d05f9798d744d87b550294671e631f6ef4651dc84b76717fb9b788dedca6c"),
}

# lease_case under directory with ONE_SET_CACHES, audited, seed 0, over
# MODELS: the two hashes as in CAPACITY_PINS.  Its L1 victims include
# shared lines, which the capacity matrix's never are, so the home gets
# PUTS.
SHARED_EVICTION_PIN = (
    "15b0befd7d2b7a0550713179d5699a681e0782953a0974de1907b87c6d22d9f2",
    "e00e10c0804974ded32b0dff58b6e2d9ba73614dc2d33766f17e14e75f551dc0")

# tardis-opt, synth, tso, seed 1
FLAT_PIN = [
    ("program", "synth-0"), ("protocol", "tardis"), ("model", "tso"),
    ("cores", 4), ("seed", 1), ("steps", 1828), ("loads", 296),
    ("stores", 78), ("fences", 26), ("llc_accesses", 181),
    ("renew_requests", 28), ("renew_ok", 7), ("renew_fail", 21),
    ("checks_sent", 0), ("renew_rate", 0.154696), ("ts_max", 126),
    ("ts_increase_rate", 0.336898), ("flits_common", 1112),
    ("msgs_common", 448), ("flits_renew", 140), ("msgs_renew", 56),
    ("flits_invalidation", 0), ("msgs_invalidation", 0),
    ("flits_dram", 306), ("msgs_dram", 102), ("flits_total", 1558),
    ("flit_hops_total", 1552),
]

# every model yields the same set for each of these programs
ENUM_PINS = {
    ("corr", "tardis"): {(0, 0), (1, 1)},
    ("corr", "directory"): {(0, 0), (0, 1), (1, 1)},
    ("single", "tardis"): {(7,)},
    ("single", "directory"): {(7,)},
    ("mp", "tardis"): {(0, 0), (0, 1), (1, 1)},
    ("mp", "directory"): {(0, 0), (0, 1), (1, 1)},
    ("lb", "tardis"): {(0, 0), (0, 1), (1, 0)},
    ("lb", "directory"): {(0, 0), (0, 1), (1, 0)},
    ("mp_fence", "tardis"): {(0, 0), (0, 1), (1, 1)},
    ("mp_fence", "directory"): {(0, 0), (0, 1), (1, 1)},
    ("rc_mp", "tardis"): {(0, 0), (0, 1), (1, 1)},
    ("rc_mp", "directory"): {(0, 0), (0, 1), (1, 1)},
    # the first program whose search renews (see test_renew_fence_renews)
    ("renew_fence", "tardis"): {
        (0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 0, 1, 1),
        (0, 0, 1, 1, 0), (0, 1, 0, 0, 0), (0, 1, 0, 0, 1), (0, 1, 0, 1, 0),
        (0, 1, 1, 1, 0), (1, 0, 0, 1, 0), (1, 0, 1, 1, 0), (1, 1, 0, 0, 0),
        (1, 1, 0, 0, 1), (1, 1, 0, 1, 0), (1, 1, 1, 1, 0)},
    ("renew_fence", "directory"): {
        (0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 0, 1, 1),
        (0, 0, 1, 1, 0), (0, 1, 0, 0, 0), (0, 1, 0, 0, 1), (0, 1, 0, 1, 0),
        (0, 1, 0, 1, 1), (0, 1, 1, 1, 0), (1, 0, 0, 1, 0), (1, 0, 1, 1, 0),
        (1, 1, 0, 0, 0), (1, 1, 0, 0, 1), (1, 1, 0, 1, 0), (1, 1, 0, 1, 1),
        (1, 1, 1, 1, 0)},
}

# (states popped, unique states) of each ENUM_PINS search, one pair per
# model in MODELS order
ENUM_SEARCH_PINS = {
    ("corr", "tardis"): ((52, 48),) * 4,
    ("corr", "directory"): ((60, 56),) * 4,
    ("single", "tardis"): ((8, 8),) + ((18, 13),) * 3,
    ("single", "directory"): ((8, 8),) + ((18, 13),) * 3,
    ("mp", "tardis"): ((195, 158),) + ((269, 211),) * 3,
    ("mp", "directory"): ((197, 156),) + ((271, 210),) * 3,
    ("lb", "tardis"): ((166, 134),) * 4,
    ("lb", "directory"): ((202, 158),) * 4,
    ("mp_fence", "tardis"): ((232, 186),) * 4,
    ("mp_fence", "directory"): ((235, 183),) * 4,
    ("rc_mp", "tardis"): ((232, 186),) * 4,
    ("rc_mp", "directory"): ((235, 183),) * 4,
    ("renew_fence", "tardis"): ((3004, 2116),) * 4,
    ("renew_fence", "directory"): ((4112, 2677),) * 4,
}

# Enumeration under the configurations the paper is about: MESI
# (tardis-base), the lease predictor plus the livelock detector
# (tardis-opt) and the directory baseline, each with its default caches
# and with ONE_SET_CACHES, which evict from the L1 inside the search.
# Every model, preset and cache size yields the same set for each of
# these programs.
ENUM_PRESETS = ("tardis-base", "tardis-opt", "directory")
PRESET_ENUM_PINS = {
    "mp": {(0, 0), (0, 1), (1, 1)},
    "sb_fence": {(0, 1), (1, 0), (1, 1)},
    "lb": {(0, 0), (0, 1), (1, 0)},
    "corr": {(0, 0), (0, 1), (1, 1)},
    "rc_mp": {(0, 0), (0, 1), (1, 1)},
}

# (states popped, unique states) per model in MODELS order, keyed by
# program, preset and whether the caches are ONE_SET_CACHES.  A cache
# keys each set's LRU order, so the one-set searches keep apart worlds
# that hold the same lines in different orders
PRESET_SEARCH_PINS = {
    ("mp", "tardis-base", False): ((257, 212),) + ((333, 270),) * 3,
    ("mp", "tardis-opt", False): ((257, 212),) + ((333, 270),) * 3,
    ("mp", "directory", False): ((197, 156),) + ((271, 210),) * 3,
    ("sb_fence", "tardis-base", False): ((301, 249),) * 4,
    ("sb_fence", "tardis-opt", False): ((301, 249),) * 4,
    ("sb_fence", "directory", False): ((227, 183),) * 4,
    ("lb", "tardis-base", False): ((258, 210),) * 4,
    ("lb", "tardis-opt", False): ((258, 210),) * 4,
    ("lb", "directory", False): ((202, 158),) * 4,
    ("corr", "tardis-base", False): ((70, 68),) * 4,
    ("corr", "tardis-opt", False): ((70, 68),) * 4,
    ("corr", "directory", False): ((60, 56),) * 4,
    ("rc_mp", "tardis-base", False): ((306, 246),) * 4,
    ("rc_mp", "tardis-opt", False): ((306, 246),) * 4,
    ("rc_mp", "directory", False): ((235, 183),) * 4,
    ("mp", "tardis-base", True): ((323, 270),) + ((412, 337),) * 3,
    ("mp", "tardis-opt", True): ((323, 270),) + ((412, 337),) * 3,
    ("mp", "directory", True): ((324, 265),) + ((415, 332),) * 3,
    ("sb_fence", "tardis-base", True): ((390, 333),) * 4,
    ("sb_fence", "tardis-opt", True): ((390, 333),) * 4,
    ("sb_fence", "directory", True): ((410, 337),) * 4,
    ("lb", "tardis-base", True): ((315, 256),) * 4,
    ("lb", "tardis-opt", True): ((315, 256),) * 4,
    ("lb", "directory", True): ((315, 252),) * 4,
    ("corr", "tardis-base", True): ((70, 68),) * 4,
    ("corr", "tardis-opt", True): ((70, 68),) * 4,
    ("corr", "directory", True): ((60, 56),) * 4,
    ("rc_mp", "tardis-base", True): ((387, 315),) * 4,
    ("rc_mp", "tardis-opt", True): ((387, 315),) * 4,
    ("rc_mp", "directory", True): ((381, 306),) * 4,
}


def test_builtin_programs():
    h = hashlib.sha256()
    cases = [(name, {"line_bytes": lb}) for name in BUILTIN_PIN_NAMES
             for lb in (64, 1024)]
    for name, kwargs in cases + list(BUILTIN_PIN_PARAMS):
        h.update((repr(builtin(name, **kwargs)) + "\n").encode())
    assert h.hexdigest() == BUILTIN_PIN


def test_synth_programs():
    h = hashlib.sha256()
    for kwargs, line_bytes in SYNTH_PIN_CASES:
        for seed in SEEDS:
            params = replace(SynthParams(ops_per_core=200, seed=seed),
                             **kwargs)
            p = synth(params, line_bytes=line_bytes)
            for ops in p.cores:
                h.update("".join(f"{(op.kind.name, op.addr, op.value)}\n"
                                 for op in ops).encode() + b"\n")
    assert h.hexdigest() == SYNTH_PIN


def run_bytes(sim: Simulator) -> bytes:
    report = sim.run()
    text = report.to_json() + "\n" + "".join(r.to_json() + "\n"
                                             for r in sim.trace)
    return text.encode()


@pytest.mark.parametrize("preset_name,program", sorted(RUN_PINS))
def test_run_matrix_bytes(preset_name, program):
    h = hashlib.sha256()
    for model in MODELS:
        for seed in SEEDS:
            h.update(run_bytes(Simulator(
                preset(preset_name, model=model, seed=seed),
                PROGRAMS[program]())))
    assert h.hexdigest() == RUN_PINS[(preset_name, program)]


class _Recording(Simulator):
    """Keeps every sent message, counts them by kind and notes which
    capacity paths the home is on whenever a message is delivered."""

    def __init__(self, cfg, program, auditor=None):
        self.sent = []
        self.kinds = Counter()
        self.paths = set()
        super().__init__(cfg, program, auditor=auditor)

    def send(self, msg):
        self.sent.append(repr(msg_fields(msg)) + "\n")
        self.kinds[msg.kind] += 1
        super().send(msg)

    def route(self, msg):
        waitq = self.llc.waitq
        for addr, wait in waitq.items():
            # an idle record would queue every later request forever
            assert wait.txn is not None, f"idle record for {addr:#x}"
            if wait.txn.fill is not None:   # a victim on its way home
                assert waitq[wait.txn.fill].txn.kind == "parked"
                self.paths |= {"parked fill", wait.txn.kind}
                if wait.queue:
                    self.paths.add("queued on victim")
        super().route(msg)


@pytest.mark.parametrize("preset_name", sorted(CAPACITY_PINS))
def test_capacity_matrix_bytes_and_messages(preset_name):
    runs, sent = hashlib.sha256(), hashlib.sha256()
    paths = set()
    for model in MODELS:
        for seed in CAPACITY_SEEDS:
            sim = _Recording(
                preset(preset_name, model=model, seed=seed, **CAPACITY_CFG),
                synth(SynthParams(cores=8, ops_per_core=40, hot_lines=2,
                                  shared_lines=24, private_lines=8,
                                  seed=seed)))
            runs.update(run_bytes(sim))
            sent.update("".join(sim.sent).encode())
            paths |= sim.paths
    assert (runs.hexdigest(), sent.hexdigest()) == CAPACITY_PINS[preset_name]
    want = {"parked fill", "queued on victim"}
    if preset_name == "directory":
        want |= {"evict_inv", "evict_fwd"}
    assert want <= paths


def test_directory_shared_evictions_bytes_and_messages():
    runs, sent = hashlib.sha256(), hashlib.sha256()
    for model in MODELS:
        sim = _Recording(
            preset("directory", model=model, seed=0, **ONE_SET_CACHES),
            builtin("lease_case"), auditor=CoherenceAuditor())
        runs.update(run_bytes(sim))
        sent.update("".join(sim.sent).encode())
        assert sim.kinds[MsgKind.PUTS] == sim.kinds[MsgKind.PUTS_ACK] > 0
        assert check_trace(sim.trace, model) == [], model
    assert (runs.hexdigest(), sent.hexdigest()) == SHARED_EVICTION_PIN


def test_flat_report_columns_and_values():
    sim = Simulator(preset("tardis-opt", model="tso", seed=1),
                    PROGRAMS["synth"]())
    assert list(sim.run().flat().items()) == FLAT_PIN


@pytest.fixture
def searched(monkeypatch):
    """enumerate_outcomes that also returns the size of its search,
    (states popped, unique states), counted on _World.key."""
    keys = []
    key = _World.key

    def counted(world):
        k = key(world)
        keys.append(k)
        return k

    monkeypatch.setattr(_World, "key", counted)

    def run(*args, **kwargs):
        keys.clear()
        got = enumerate_outcomes(*args, **kwargs)
        return got, (len(keys), len(set(keys)))
    return run


@pytest.mark.parametrize("name,protocol", list(ENUM_PINS))
def test_enumerated_outcome_sets(name, protocol, searched):
    sizes = []
    for model in MODELS:
        got, size = searched(builtin(name), model, protocol=protocol)
        assert got == ENUM_PINS[(name, protocol)], model
        sizes.append(size)
    assert tuple(sizes) == ENUM_SEARCH_PINS[(name, protocol)]


@pytest.mark.parametrize("one_set", (False, True))
@pytest.mark.parametrize("preset_name", ENUM_PRESETS)
def test_enumerated_outcome_sets_under_presets(preset_name, one_set,
                                               searched, monkeypatch):
    evictions = []
    for cls in (TardisCore, DirectoryCore):
        def evicted(core, victim, hook=cls._evicted):
            evictions.append(victim.addr)
            hook(core, victim)
        monkeypatch.setattr(cls, "_evicted", evicted)
    cfg = preset(preset_name)
    if one_set:
        cfg = replace(cfg, **ONE_SET_CACHES)
    for name, want in PRESET_ENUM_PINS.items():
        sizes = []
        for model in MODELS:
            got, size = searched(builtin(name), model,
                                 protocol=cfg.protocol, cfg=cfg)
            assert got == want, (name, model)
            sizes.append(size)
        assert tuple(sizes) == PRESET_SEARCH_PINS[(name, preset_name, one_set)], name
    # only the one-set caches push lines out of an L1 during the search
    assert bool(evictions) == one_set


def test_renew_fence_renews(monkeypatch):
    """The MSI Tardis search of renew_fence sends RENEW_REQ and both
    kinds of RENEW_RESP, so the exhaustive gate runs the renewal path."""
    sent = Counter()
    apply = _World.apply

    def counted(world, action):
        channels = dict(world.channels)
        apply(world, action)
        for _, n in appended(channels, world, action):
            msg = world._search.msgs[n]
            if msg.kind is MsgKind.RENEW_RESP:
                sent[msg.kind, not msg.data] += 1   # True: renewed
            elif msg.kind is MsgKind.RENEW_REQ:
                sent[msg.kind] += 1

    monkeypatch.setattr(_World, "apply", counted)
    enumerate_outcomes(builtin("renew_fence"), "tso", protocol="tardis")
    # sends are counted over the transitions the search expands, so the
    # sleep sets lower these counts; both kinds of RENEW_RESP remain
    assert sent == {MsgKind.RENEW_REQ: 86, (MsgKind.RENEW_RESP, True): 51,
                    (MsgKind.RENEW_RESP, False): 27}
