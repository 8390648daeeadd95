"""End-to-end command line behavior: exit codes, files, formats."""

import csv
import json
import os
import subprocess
import sys

import pytest

import tardisim
from tardisim.cli import main, resolve_program
from tardisim.config import SimConfig, preset
from tardisim.engine import Simulator
from tardisim.workloads import builtin


def test_run_prints_report_json(capsys):
    assert main(["run", "--program", "mp", "--seed", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["program"] == "mp"
    assert data["protocol"] == "tardis"
    assert "traffic" in data and "outcome" in data


def test_run_writes_report_and_trace_files(tmp_path, capsys):
    report = tmp_path / "r.json"
    trace = tmp_path / "t.jsonl"
    argv = ["run", "--program", "dekker", "--seed", "7",
            "--json", str(report), "--trace", str(trace)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    data = json.loads(report.read_text())
    assert data["seed"] == 7
    rows = [json.loads(l) for l in trace.read_text().splitlines()]
    assert rows and {"core", "i", "op", "ts", "pt", "seq"} <= set(rows[0])
    # rerunning with the same seed reproduces both artifacts exactly
    before = report.read_bytes(), trace.read_bytes()
    assert main(argv) == 0
    assert (report.read_bytes(), trace.read_bytes()) == before


def test_run_check_passes_on_clean_trace(capsys):
    assert main(["run", "--program", "mp", "--seed", "0", "--check",
                 "--json", "/dev/null"]) == 0
    assert "no violations" in capsys.readouterr().err


def test_run_audit_flag(capsys):
    assert main(["run", "--program", "sb", "--seed", "3", "--audit"]) == 0


def test_run_rejects_unknown_program(capsys):
    assert main(["run", "--program", "nonesuch"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_rejects_unknown_config_key(capsys):
    assert main(["run", "--program", "mp", "--set", "warp_factor=9"]) == 2


def test_run_rejects_bad_model(capsys):
    assert main(["run", "--program", "mp", "--set", "model=weird"]) == 2


def test_config_file_with_set_overrides(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("# comment\nprotocol = tardis\nmodel = sc\n"
                   "static_lease = 16\ncores = 2\n")
    assert main(["run", "--program", "mp", "--config", str(cfg),
                 "--set", "static_lease=32", "--seed", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["model"] == "sc"
    assert data["config"]["static_lease"] == 32


def test_enumerate_with_oracle_agrees(capsys):
    assert main(["enumerate", "--program", "dekker", "--model", "tso",
                 "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "registers: c0.r1 c1.r2" in out
    assert "admitted" in out


def test_enumerate_stats_go_to_stderr(capsys):
    assert main(["enumerate", "--program", "mp", "--model", "tso",
                 "--stats"]) == 0
    out, err = capsys.readouterr()
    # the search size tests/test_fingerprint.py pins for mp under tso
    assert "search: popped=269 unique=211 peak_frontier=" in err
    assert " slept=182 reopened=24 " in err
    assert "states_per_s=" in err and "popped" not in out


def test_enumerate_rejects_spinning_programs(capsys):
    assert main(["enumerate", "--program", "spin", "--model", "tso"]) == 2


def test_check_flags_relaxed_trace_under_sc(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["run", "--program", "sb", "--seed", "1",
                 "--json", "/dev/null", "--trace", str(trace)]) == 0
    assert main(["check", "--trace", str(trace), "--model", "tso"]) == 0
    assert main(["check", "--trace", str(trace), "--model", "sc"]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_check_missing_trace_file(capsys):
    assert main(["check", "--trace", "/no/such/file.jsonl"]) == 2


_ROW = {"addr": 0, "core": 0, "i": 0, "op": "St", "pt": 1, "seq": 1, "ts": 1,
        "val": [0, 1, 1]}


@pytest.mark.parametrize("bad", [
    "{}", {**_ROW, "op": "Nope"}, {**_ROW, "val": [1]}, [1, 2],
    {**_ROW, "ts": 1.5}, {**_ROW, "core": "0"}, {**_ROW, "addr": True},
    {**_ROW, "val": [0, 1, None]}, "not json", json.dumps(_ROW) + " x",
    json.dumps(_ROW)[:-1],
], ids=["empty", "unknown-op", "short-val", "list", "float-ts", "str-core",
        "bool-addr", "null-in-val", "not-json", "trailing-data", "truncated"])
def test_check_rejects_malformed_trace_line(bad, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    bad = bad if isinstance(bad, str) else json.dumps(bad)
    trace.write_text(json.dumps(_ROW) + "\n" + bad + "\n")
    assert main(["check", "--trace", str(trace)]) == 2
    assert capsys.readouterr().err.startswith("error: trace line 2: ")


def _without(row, *keys):
    return {k: v for k, v in row.items() if k not in keys}


_FENCE = _without(_ROW, "addr", "val") | {"op": "Fence"}


@pytest.mark.parametrize("bad", [
    _without(_ROW, "addr"), _without(_ROW, "val"),
    _without(_ROW, "addr", "val") | {"op": "Ld"},
    _without(_ROW, "val") | {"op": "Ld"},
    _without(_ROW, "addr") | {"op": "Spin"},
    _ROW | {"op": "Fence"}, _FENCE | {"op": "Acq", "addr": 0},
    _FENCE | {"op": "Rel", "val": [0, 1, 1]},
    _ROW | {"fwd": True}, _FENCE | {"fwd": True},
], ids=["st-no-addr", "st-no-val", "ld-no-addr-or-val", "ld-no-val",
        "spin-no-addr", "fence-with-addr-and-val", "acq-with-addr",
        "rel-with-val", "fwd-st", "fwd-fence"])
def test_check_rejects_row_fields_its_op_does_not_fit(bad, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text(json.dumps(_ROW) + "\n" + json.dumps(bad) + "\n")
    assert main(["check", "--trace", str(trace)]) == 2
    assert capsys.readouterr().err.startswith("error: trace line 2: ")


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--program", "mp", "--param", "static_lease",
                 "--values", "8,16", "--repeat", "2",
                 "--csv", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert rows[0]["static_lease"] == "8" and rows[3]["static_lease"] == "16"
    assert {"flits_total", "renew_rate", "steps"} <= set(rows[0])


def test_sweep_over_seed_runs_each_seed(capsys):
    program = "synth:cores=4,ops_per_core=30"
    assert main(["sweep", "--program", program, "--param", "seed",
                 "--values", "1,2,3"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [row["seed"] for row in rows] == ["1", "2", "3"]
    for row in rows:
        cfg = preset("tardis-base", seed=int(row["seed"]))
        flat = Simulator(cfg, resolve_program(program)).run().flat()
        assert row == {k: str(v) for k, v in flat.items()}


def test_compare_prints_table(capsys):
    assert main(["compare", "--presets", "tardis-base,directory",
                 "--program", "mp", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "tardis-base" in out and "directory" in out
    assert "flits_total" in out


def test_compare_set_applies_to_every_preset(capsys):
    # static_lease alone leaves mp's metrics as they are; dram_latency
    # shows in the step counts, so a dropped --set cannot pass
    assert main(["compare", "--presets", "tardis-base,directory",
                 "--program", "mp", "--seed", "3",
                 "--set", "static_lease=32", "--set", "dram_latency=40"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    names = header.split()[1:]
    assert names == ["tardis-base", "directory"]
    table = {cells[0]: cells[1:] for cells in map(str.split, lines)}
    for col, name in enumerate(names):
        cfg = preset(name, static_lease=32, dram_latency=40, seed=3)
        flat = Simulator(cfg, builtin("mp")).run().flat()
        want = {k: str(v) for k, v in flat.items()
                if k not in ("program", "seed")}
        assert {k: cells[col] for k, cells in table.items()} == want


def test_sim_log_env_enables_logging(tmp_path):
    argv = [sys.executable, "-m", "tardisim.cli", "sweep", "--program", "mp",
            "--param", "static_lease", "--values", "8",
            "--csv", str(tmp_path / "s.csv")]
    # the child imports the package this process imports
    src = os.path.dirname(os.path.dirname(tardisim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    quiet = subprocess.run(argv, capture_output=True, text=True,
                           env={**env, "SIM_LOG": ""})
    chatty = subprocess.run(argv, capture_output=True, text=True,
                            env={**env, "SIM_LOG": "INFO"})
    assert quiet.returncode == 0 and chatty.returncode == 0
    assert "sweep static_lease=8" not in quiet.stderr
    assert "sweep static_lease=8" in chatty.stderr


def test_detector_override_matches_its_preset(tmp_path, capsys):
    # the self-increment default follows the detector through --set,
    # as it does through the preset
    outs = []
    for i, head in enumerate((["--preset", "tardis-live"],
                              ["--preset", "tardis-base", "--set",
                               "livelock_detector=on"])):
        report, trace = tmp_path / f"r{i}.json", tmp_path / f"t{i}.jsonl"
        assert main(["run", "--program", "spin:delay=300", "--seed", "0",
                     "--json", str(report), "--trace", str(trace)] + head) == 0
        outs.append((report.read_bytes(), trace.read_bytes()))
    assert outs[0] == outs[1]


def _run_mp(*sets):
    return ["run", "--program", "mp"] + [a for kv in sets for a in ("--set", kv)]


@pytest.mark.parametrize("argv", [
    _run_mp("flit_bits=0"), _run_mp("line_bytes=0"), _run_mp("l1_ways=0"),
    _run_mp("llc_ways=0"), _run_mp("l1_kb=0"), _run_mp("llc_kb=0"),
    ["run", "--preset", "tardis-live", "--program", "spin:delay=300",
     "--set", "ahb_entries=0"],
    _run_mp("store_buffer=-1"), _run_mp("skip_prob=1.0"),
    _run_mp("max_steps=0"), _run_mp("max_steps=-5"),
    _run_mp("dram_latency=0"), _run_mp("hop_cycles=0"),
    _run_mp("hop_cycles=-2"),
    _run_mp("skip_prob=nan"), _run_mp("skip_prob=-0.5"),
    _run_mp("line_bytes=4096", "l1_kb=1"), _run_mp("llc_kb=1", "llc_ways=32"),
    ["sweep", "--program", "mp", "--param", "static_lease", "--values", "8",
     "--repeat", "-1"],
    ["sweep", "--program", "mp", "--param", "seed", "--values", "1,2",
     "--repeat", "2"],
    ["run", "--program", "synth:hot_lines=0"],
    ["run", "--program", "synth:shared_lines=0"],
    ["run", "--program", "mp:foo=1"], ["run", "--program", "spin:dealy=300"],
    ["run", "--program", "spin:delay=-5"],
    ["run", "--program", "lease_case:iterations=-2"],
    ["run", "--program", "negative_sleep.prog"],
    ["run", "--program", "synth:ops_per_core=-1"],
    ["run", "--program", "synth:private_lines=-2"],
    ["run", "--program", "synth:write_frac=2"],
    ["run", "--program", "synth:hot_frac=-1"],
    _run_mp("protocol=bogus"), _run_mp("cores=0"),
    _run_mp("self_increment_period=-1"), _run_mp("mesi=maybe"),
    _run_mp("static_lease=abc"), _run_mp("mesi"),
    # the predictor's range check: the one way a lease enters from outside
    ["run", "--preset", "tardis-opt", "--program", "mp",
     "--set", "static_lease=10"],
    # a zero threshold never doubles, so every repeated hit sends a check
    ["run", "--preset", "tardis-live", "--program", "mp",
     "--set", "thresh_min=0"],
    ["run", "--preset", "tardis-live", "--program", "mp",
     "--set", "thresh_max=50"],
    ["run", "--program", "synth:warp=1"], ["run", "--program", "synth:cores=x"],
    ["run", "--program", "mp", "--config", "no_equals.cfg"],
    ["run", "--program", "two_addr_load.prog"],
    ["run", "--program", "spin_no_eq.prog"],
    ["run", "--program", "bare_store.prog"],
    ["run", "--program", "no_section.prog"],
    ["run", "--program", "store_two_values.prog"],
    ["run", "--program", "load_two_regs.prog"],
], ids=lambda argv: " ".join(argv[2:]))
def test_out_of_range_input_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in (("negative_sleep.prog", "[core 0]\nSleep -3\n"),
                       ("no_equals.cfg", "cores = 2\nmesi\n"),
                       ("two_addr_load.prog", "[core 0]\nLd A B\n"),
                       ("spin_no_eq.prog", "[core 0]\nSpinUntil A 1\n"),
                       ("bare_store.prog", "[core 0]\nSt\n"),
                       ("no_section.prog", "Ld A\n[core 0]\nLd A\n"),
                       ("store_two_values.prog", "[core 0]\nSt A 1 2\n"),
                       ("load_two_regs.prog", "[core 0]\nLd A -> r1 r2\n")):
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    _run_mp("mesi=off"), ["run", "--program", "mp", "--model", "sc"],
    _run_mp("thresh_min=0"),   # the detector is off
], ids=lambda argv: " ".join(argv[2:]))
def test_in_range_input_is_accepted(argv, capsys):
    assert main(argv) == 0


@pytest.mark.parametrize("spec", ["synth:cores=x", "synth:write_frac=x",
                                  "spin:delay=x", "lease_case:iterations=1.5"],
                         ids=lambda spec: spec.split(":")[1].split("=")[0])
def test_bad_synth_value_names_its_parameter(spec, capsys):
    assert main(["run", "--program", spec]) == 2
    err = capsys.readouterr().err
    param, value = spec.split(":")[1].split("=")
    assert param in err and repr(value) in err, err


def test_step_limit_exits_1(capsys):
    assert main(_run_mp("max_steps=5")) == 1
    assert "exceeded 5 steps" in capsys.readouterr().err


def test_small_caches_stay_accepted():
    for ways in (1, 2, 3, 4):
        SimConfig(l1_kb=1, l1_ways=ways, llc_kb=1, llc_ways=ways)
    SimConfig(line_bytes=1024, l1_kb=1, l1_ways=1, llc_kb=1, llc_ways=1,
              store_buffer=0, skip_prob=0.0)
