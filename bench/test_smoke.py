"""Smoke test of the benchmark itself, at the tiny input size.

    python3 -m pytest bench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that exact counts and behaviour digests repeat for a seed, and that the
benchmark refuses to run without the library source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer metrics that are exact counts: identical in every traced run
# of one seed and size
EXACT = ["engine.turn_calls_per_commit", "engine.idle_tick_frac",
         "engine.send_calls", "engine.enum_states_popped",
         "engine.enum_unique_states", "engine.enum_copies",
         "engine.enum_copy_useful_ratio", "tardis.llc_handle_calls",
         "tardis.renew_ok_ratio", "directory.inval_msgs",
         "cachemem.lookup_calls", "cachemem.l1_hit_ratio",
         "cachemem.llc_hit_ratio", "livelock.checks_sent",
         "livelock.check_hit_ratio", "leasepred.predict_calls",
         "leasepred.mean_lease", "sim_cycles.tardis", "sim_cycles.directory",
         "flit_hops.tardis", "flit_hops.directory", "renew_rate",
         "ts_increase_rate"]


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def result(out):
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


def units(res) -> dict:
    return {name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload):
    res = result(run(workload, 0))
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_and_digests_repeat(workload):
    first, second = run(workload, 1), run(workload, 1)
    a, b = result(first), result(second)
    assert units(a) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in EXACT:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], \
            name

    def digests(out):
        return [line for line in out.stdout.splitlines()
                if line.startswith(("digest ", "outcomes "))]
    assert digests(first) and digests(first) == digests(second)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
