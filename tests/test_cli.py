"""End-to-end command line behavior: exit codes, files, formats."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import fields

import pytest

import tardisim
from tardisim import cli
from tardisim.cli import main, resolve_program
from tardisim.config import PRESETS, ConfigError, SimConfig, preset
from tardisim.engine import Simulator
from tardisim.workloads import builtin
from test_fingerprint import MODELS, PRESET_ENUM_PINS, PRESET_SEARCH_PINS


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


def test_unknown_preset_names_every_preset():
    with pytest.raises(ConfigError, match=re.escape(
            f"unknown preset 'nope'; have {sorted(PRESETS)}")):
        preset("nope")


@pytest.mark.parametrize("overrides,message", [
    ({"mesi": 1}, "mesi wants bool, got 1"),
    ({"static_lease": 2.5}, "static_lease wants int, got 2.5"),
    ({"static_lease": True}, "static_lease wants int, got True"),
    ({"skip_prob": False}, "skip_prob wants float, got False"),
])
def test_config_rejects_a_python_value_of_the_wrong_type(overrides, message):
    # a value that arrives as an object, not text, is checked too: mesi=1
    # used to run and write "mesi": 1 into the report's config block
    with pytest.raises(ConfigError, match=re.escape(message)):
        preset("tardis-base", **overrides)
    with pytest.raises(ConfigError, match=re.escape(message)):
        SimConfig(**overrides)


def test_config_takes_an_int_for_a_float():
    cfg = preset("tardis-base", skip_prob=0, mesi=False)
    assert cfg.skip_prob == 0 and cfg.mesi is False


def test_run_rejects_unknown_config_key(capsys):
    assert main(["run", "--program", "mp", "--set", "warp_factor=9"]) == 2


def test_run_rejects_bad_model(capsys):
    assert main(["run", "--program", "mp", "--set", "model=weird"]) == 2


def test_config_file_with_set_overrides(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("# comment\nprotocol = tardis\nmodel = sc\n"
                   "static_lease = 16\n")
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


def test_enumerate_exits_1_on_an_outcome_the_oracle_rejects(monkeypatch,
                                                            capsys):
    monkeypatch.setattr(cli, "oracle_outcomes", lambda program, model: set())
    assert main(["enumerate", "--program", "dekker", "--model", "tso",
                 "--oracle"]) == 1
    out, err = capsys.readouterr()
    assert "oracle admits 0 outcome(s)" in out
    assert "NOT ADMITTED: (0, 0)" in err


def test_enumerate_stats_go_to_stderr(capsys):
    assert main(["enumerate", "--program", "mp", "--model", "tso",
                 "--stats"]) == 0
    out, err = capsys.readouterr()
    # the search size tests/test_fingerprint.py pins for mp under tso
    assert "search: popped=269 unique=211 peak_frontier=" in err
    assert " slept=182 reopened=24 " in err
    # of the 268 steps applied, 76 are computed and 192 replayed from
    # the search's memo
    assert " transitions=76 reused=192 " in err
    assert "states_per_s=" in err and "popped" not in out


def _enumerated(capsys, argv):
    """The outcomes `sim enumerate` prints and the (popped, unique) pair
    of its --stats line."""
    assert main(["enumerate", "--stats", *argv]) == 0
    out, err = capsys.readouterr()
    got = {tuple(map(int, line.split())) for line in out.splitlines()
           if line.startswith("  ")}
    size = re.search(r"popped=(\d+) unique=(\d+)", err)
    return got, tuple(map(int, size.groups()))


def test_enumerate_takes_a_preset(capsys):
    """--preset reaches the configs the exhaustive gate runs: MESI
    tardis-base gives the pinned outcome sets and search sizes."""
    for name, want in PRESET_ENUM_PINS.items():
        sizes = PRESET_SEARCH_PINS[(name, "tardis-base", False)]
        for model, size in zip(MODELS, sizes):
            got = _enumerated(capsys, ["--program", name, "--model", model,
                                       "--preset", "tardis-base"])
            assert got == (want, size), (name, model)


def test_enumerate_without_a_config_is_the_msi_default(capsys):
    # --set alone overrides the MSI default: mesi=on is tardis-base
    mp = ["--program", "mp", "--model", "tso"]
    assert _enumerated(capsys, mp)[1] == (269, 211)
    assert _enumerated(capsys, mp + ["--set", "mesi=on"]) == _enumerated(
        capsys, mp + ["--preset", "tardis-base"])


def test_enumerate_rejects_a_protocol_the_preset_contradicts(capsys):
    assert main(["enumerate", "--program", "mp", "--preset", "directory",
                 "--protocol", "tardis"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "conflicts" in err


def test_enumerate_oracle_limit_fails_before_the_search(tmp_path, capsys):
    # 9 ops: the search takes them, the oracle does not
    prog = tmp_path / "nine.prog"
    prog.write_text("[core 0]\n" + "Ld A -> r1\n" * 9)
    assert main(["enumerate", "--program", str(prog), "--oracle"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "oracle is limited to 8 ops" in err


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


@pytest.mark.parametrize("argv", [
    ["check", "--trace", "{dir}"],
    ["run", "--program", "{dir}"],
    ["run", "--program", "mp", "--config", "{dir}"],
    ["run", "--program", "mp", "--json", "{dir}"],
    ["run", "--program", "mp", "--json", "/dev/null", "--trace", "{dir}"],
    ["sweep", "--program", "mp", "--param", "static_lease", "--values", "8",
     "--csv", "{dir}"],
], ids=["check-trace", "run-program", "run-config", "run-json", "run-trace",
        "sweep-csv"])
def test_a_directory_for_a_file_is_bad_input(argv, tmp_path, capsys):
    """A path that cannot be opened as the file asked for is bad input
    (exit 2), not an invariant failure (exit 1) or a traceback."""
    argv = [a.format(dir=tmp_path) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    """With SIM_LOG set, a sweep logs one INFO line per run, naming that
    run's seed; unset, it logs none.  The CLI runs in a child process,
    since pytest's own root handlers make basicConfig do nothing here."""
    out = tmp_path / "s.csv"
    argv = [sys.executable, "-m", "tardisim.cli", "sweep", "--program", "mp",
            "--param", "seed", "--values", "0,1", "--csv", str(out)]
    # the child imports the package this process imports
    src = os.path.dirname(os.path.dirname(tardisim.__file__))
    env = {k: v for k, v in os.environ.items() if k != "SIM_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    quiet = subprocess.run(argv, capture_output=True, text=True, env=env)
    chatty = subprocess.run(argv, capture_output=True, text=True,
                            env={**env, "SIM_LOG": "info"})
    assert quiet.returncode == 0 and chatty.returncode == 0
    assert "INFO" not in quiet.stderr
    with open(out, newline="") as f:
        steps = [row["steps"] for row in csv.DictReader(f)]
    assert [ln for ln in chatty.stderr.splitlines() if "INFO" in ln] == [
        f"INFO tardisim: sweep seed={seed} seed={seed} steps={n}"
        for seed, n in zip((0, 1), steps)]


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


def _one_way(command, program, level):
    """argv that leaves one 1 KiB line per set of the L1s or the LLC."""
    return [command, "--program", program, "--set", "line_bytes=1024",
            "--set", f"{level}_kb=1", "--set", f"{level}_ways=1"]


def _argv_id(arg):
    """A row's id: its arguments after --program, led by the subcommand
    unless that is run, so rows apart only in subcommand keep apart."""
    if not isinstance(arg, list):
        return "err"
    return " ".join(arg[2:] if arg[0] == "run" else [arg[0], *arg[2:]])


@pytest.mark.parametrize("argv, words", [
    (["run", "--program", "synth:cores=0"], "cores must be >= 1"),
    (["enumerate", "--program", "synth:cores=0"], "cores must be >= 1"),
    (_run_mp("skip_prob=abc"), "skip_prob wants float, got 'abc'"),
    # the core count is the program's, never the config's
    (_run_mp("cores=4"), "'cores'"),
    (["run", "--program", "mp", "--config", "cores.cfg"], "'cores'"),
    (["sweep", "--program", "mp", "--param", "cores", "--values", "2,8"],
     "'cores'"),
    # an integer reads as in the DSL, where 010 is no literal
    (_run_mp("l1_kb=010"), "l1_kb wants int, got '010'"),
    (["run", "--program", "synth:cores=010"], "cores wants int, got '010'"),
    (["run", "--program", "lease_case:iterations=010"],
     "iterations wants int, got '010'"),
    # steps and commit sequence numbers fit the trace's 64-bit column
    (_run_mp("max_steps=0x4000000000000001"), "max_steps must be <= 2**62"),
    # warm lines that a one-way set cannot hold
    *((_one_way(command, program, level), f"program {program}: warm lines "
       f"overflow a set of {where} ({level}_ways=1)")
      for command in ("run", "enumerate")
      for program, level, where in (("fig2", "l1", "core 0's L1"),
                                    ("fig1", "llc", "the LLC"))),
], ids=_argv_id)
def test_bad_input_exits_2_and_names_its_key(argv, words, tmp_path,
                                             monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cores.cfg").write_text("protocol = tardis\ncores = 2\n")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and words in err, err


def test_synth_reads_integers_as_the_dsl_does(capsys):
    outs = []
    for cores in ("0x4", "4"):
        assert main(["run", "--program", f"synth:cores={cores}",
                     "--seed", "0"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["cores"] == report["config"]["cores"] == 4


def test_readme_configuration_table_lists_every_field():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Configuration", 1)[1]
    section = section.split("\n## ", 1)[0]
    keys = {key for row in section.splitlines() if row.startswith("| `")
            for key in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert keys == {f.name for f in fields(SimConfig)}


def test_step_limit_exits_1(capsys):
    assert main(_run_mp("max_steps=5")) == 1
    assert "exceeded 5 steps" in capsys.readouterr().err


def test_small_caches_stay_accepted():
    for ways in (1, 2, 3, 4):
        SimConfig(l1_kb=1, l1_ways=ways, llc_kb=1, llc_ways=ways)
    SimConfig(line_bytes=1024, l1_kb=1, l1_ways=1, llc_kb=1, llc_ways=1,
              store_buffer=0, skip_prob=0.0)
