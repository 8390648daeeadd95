"""Behaviour fingerprints.

Pins three things a refactor must leave exactly as they are: the bytes
`sim run --json R --trace T` writes for a fixed run matrix, the column
layout of `Report.flat()` (the CSV row), and the exact outcome sets of
exhaustive enumeration.  Re-pin only in a change that alters behaviour
on purpose, and say why in CHANGES.md.
"""

import hashlib

import pytest

from tardisim.config import preset
from tardisim.engine import Simulator, enumerate_outcomes
from tardisim.workloads import SynthParams, builtin, synth

MODELS = ("sc", "tso", "pso", "rc")
SEEDS = (0, 1, 2)
PROGRAMS = {
    "synth": lambda: synth(SynthParams(cores=4, ops_per_core=100)),
    "spin": lambda: builtin("spin", delay=200),
    "lease_case": lambda: builtin("lease_case"),
}

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
}


def run_bytes(preset_name: str, program: str, model: str, seed: int) -> bytes:
    sim = Simulator(preset(preset_name, model=model, seed=seed),
                    PROGRAMS[program]())
    report = sim.run()
    text = report.to_json() + "\n" + "".join(r.to_json() + "\n"
                                             for r in sim.trace)
    return text.encode()


@pytest.mark.parametrize("preset_name,program", sorted(RUN_PINS))
def test_run_matrix_bytes(preset_name, program):
    h = hashlib.sha256()
    for model in MODELS:
        for seed in SEEDS:
            h.update(run_bytes(preset_name, program, model, seed))
    assert h.hexdigest() == RUN_PINS[(preset_name, program)]


def test_flat_report_columns_and_values():
    sim = Simulator(preset("tardis-opt", model="tso", seed=1),
                    PROGRAMS["synth"]())
    assert list(sim.run().flat().items()) == FLAT_PIN


@pytest.mark.parametrize("name,protocol", list(ENUM_PINS))
def test_enumerated_outcome_sets(name, protocol):
    for model in MODELS:
        got = enumerate_outcomes(builtin(name), model, protocol=protocol)
        assert got == ENUM_PINS[(name, protocol)], model
