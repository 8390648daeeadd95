"""Command line front end.

Subcommands: run a workload and print a metrics report, enumerate all
outcomes of a small program (optionally against the model oracle),
check a dumped trace, sweep a config knob into CSV, and compare
presets side by side.

Exit status: 0 on success, 1 when a check finds violations or a run
fails an invariant, 2 for bad input (a file argument that cannot be
opened, such as a directory, included).
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from typing import get_type_hints

from .audit import AuditError, CoherenceAuditor
from .checker import Violation, check_trace, oracle_outcomes
from .config import (ConfigError, PRESETS, PROTOCOLS, SimConfig, load_config,
                     preset, with_overrides)
from .consistency import MemoryModel
from .engine import (SimulationError, Simulator, enumerate_outcomes,
                     trace_from_json)
from .workloads import (BUILTIN_NAMES, ParseError, Program, SynthParams,
                        builtin, coerce, load_program, synth)

log = logging.getLogger("tardisim")


def _setup_logging() -> None:
    level = os.environ.get("SIM_LOG", "").upper()
    if level:
        logging.basicConfig(
            level=getattr(logging, level, logging.INFO),
            format="%(levelname)s %(name)s: %(message)s")


def _parse_kv(pairs) -> dict:
    out = {}
    for p in pairs:
        if "=" not in p:
            raise ConfigError(f"expected key=value, got {p!r}")
        k, v = p.split("=", 1)
        out[k.strip()] = v.strip()
    return out


# each synth parameter's type, which reads its value from text
_SYNTH_TYPES = get_type_hints(SynthParams)


def resolve_program(spec: str, line_bytes: int = 64) -> Program:
    """`name`, `name:key=val,...`, or a path to a program file."""
    name, _, argstr = spec.partition(":")
    params = _parse_kv(argstr.split(",")) if argstr else {}
    if name == "synth":
        kw = {}
        for k, v in params.items():
            if k not in _SYNTH_TYPES:
                raise ParseError(f"unknown synth parameter {k!r}")
            try:
                kw[k] = coerce(_SYNTH_TYPES[k], v)
            except ValueError as exc:
                raise ParseError(f"synth parameter {k} {exc}") from None
        return synth(SynthParams(**kw), line_bytes=line_bytes)
    if name in BUILTIN_NAMES:
        return builtin(name, line_bytes=line_bytes, **params)
    if os.path.exists(spec):
        return load_program(spec, line_bytes=line_bytes)
    raise ParseError(f"no builtin program or file named {spec!r} "
                     f"(builtins: {', '.join(BUILTIN_NAMES)}, synth)")


def _config_from_args(args, preset_name: str | None = None,
                      default: SimConfig | None = None) -> SimConfig:
    """The --config file, else the preset (preset_name or --preset), else
    default, else tardis-base; then the --set, --model and --seed
    overrides."""
    name = preset_name or getattr(args, "preset", None)
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    elif name or default is None:
        cfg = preset(name or "tardis-base")
    else:
        cfg = default
    sets = _parse_kv(getattr(args, "set", None) or [])
    if getattr(args, "model", None):
        sets.setdefault("model", args.model)
    if getattr(args, "seed", None) is not None:
        sets.setdefault("seed", args.seed)
    return with_overrides(cfg, sets)


def _add_config_args(p, with_seed: bool = True,
                     default: str = "tardis-base") -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help=f"named configuration (default {default})")
    p.add_argument("--set", action="append", metavar="KEY=VAL",
                   help="override a config entry (repeatable)")
    p.add_argument("--model", help="memory model override (sc/tso/pso/rc)")
    if with_seed:
        p.add_argument("--seed", type=int, help="schedule seed")


# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    program = resolve_program(args.program, line_bytes=cfg.line_bytes)
    auditor = CoherenceAuditor() if args.audit else None
    sim = Simulator(cfg, program, auditor=auditor)
    report = sim.run()
    text = report.to_json()
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.trace:
        with open(args.trace, "w") as fh:
            for row in sim.trace:
                fh.write(row.to_json() + "\n")
    if args.check:
        violations = check_trace(sim.trace, cfg.memory_model)
        return _report_violations(violations, len(sim.trace))
    return 0


def _report_violations(violations: list[Violation], n_ops: int) -> int:
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        print(f"FAIL: {len(violations)} violation(s) in {n_ops} ops",
              file=sys.stderr)
        return 1
    print(f"ok: {n_ops} ops, no violations", file=sys.stderr)
    return 0


def cmd_enumerate(args) -> int:
    # with no --config or --preset, the MSI default of the protocol
    cfg = _config_from_args(args, default=SimConfig(
        args.protocol or "tardis", mesi=False))
    program = resolve_program(args.program, line_bytes=cfg.line_bytes)
    # the oracle first, so a program too big for it fails before the search
    allowed = oracle_outcomes(program, cfg.model) if args.oracle else None
    stats = {} if args.stats else None
    try:
        got = enumerate_outcomes(program, cfg.model, protocol=args.protocol,
                                 cfg=cfg, stats=stats)
    finally:
        if stats:
            rate = stats["unique"] / stats["seconds"] if stats["seconds"] else 0
            print(f"search: popped={stats['popped']} unique={stats['unique']}"
                  f" peak_frontier={stats['peak_frontier']}"
                  f" slept={stats['slept']} reopened={stats['reopened']}"
                  f" transitions={stats['transitions']}"
                  f" reused={stats['reused']}"
                  f" states_per_s={rate:.0f}", file=sys.stderr)
    regs = [f"c{c}.{r}" for c, r in program.registers()]
    print("registers: " + " ".join(regs))
    for o in sorted(got):
        print("  " + " ".join(str(v) for v in o))
    if allowed is None:
        return 0
    print(f"oracle admits {len(allowed)} outcome(s)")
    extra = got - allowed
    if extra:
        for o in sorted(extra):
            print(f"NOT ADMITTED: {o}", file=sys.stderr)
        return 1
    print(f"all {len(got)} protocol outcome(s) admitted under {cfg.model}")
    return 0


def cmd_check(args) -> int:
    with open(args.trace) as fh:
        trace = trace_from_json(fh)
    violations = check_trace(trace, args.model)
    return _report_violations(violations, len(trace))


def cmd_sweep(args) -> int:
    base = _config_from_args(args)
    if args.repeat < 0:
        raise ConfigError("--repeat must be >= 0")
    if args.param == "seed" and args.repeat:
        raise ConfigError("--param seed already sets the seeds; drop --repeat")
    values = args.values.split(",")
    seeds = range(args.repeat) if args.repeat else [base.seed]
    rows = []
    for val in values:
        for seed in seeds:
            # the swept value comes last, so it wins over seed as well
            cfg = with_overrides(base, {"seed": seed, args.param: val})
            program = resolve_program(args.program,
                                      line_bytes=cfg.line_bytes)
            sim = Simulator(cfg, program)
            flat = sim.run().flat()
            row = {args.param: val}
            row.update(flat)
            rows.append(row)
            log.info("sweep %s=%s seed=%s steps=%s", args.param, val,
                     cfg.seed, flat["steps"])
    out = open(args.csv, "w", newline="") if args.csv else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.csv:
            out.close()
    return 0


def cmd_compare(args) -> int:
    names = args.presets.split(",")
    flats = []
    for name in names:
        cfg = _config_from_args(args, preset_name=name)
        program = resolve_program(args.program, line_bytes=cfg.line_bytes)
        sim = Simulator(cfg, program)
        flats.append(sim.run().flat())
    keys = [k for k in flats[0] if k not in ("program", "seed")]
    width = max(len(k) for k in keys) + 2
    print("metric".ljust(width) + "".join(n.rjust(16) for n in names))
    for k in keys:
        print(str(k).ljust(width)
              + "".join(str(f[k]).rjust(16) for f in flats))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sim",
        description="timestamp-coherence multicore cache simulator")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="run a workload, print a metrics report")
    _add_config_args(p)
    p.add_argument("--program", required=True,
                   help="builtin name[:k=v,...], synth[:k=v,...], or a file")
    p.add_argument("--json", help="write the report here instead of stdout")
    p.add_argument("--trace", help="dump the committed-op trace (JSONL)")
    p.add_argument("--audit", action="store_true",
                   help="run with the coherence auditor attached")
    p.add_argument("--check", action="store_true",
                   help="check the trace against the configured model")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("enumerate",
                       help="all reachable outcomes of a small program")
    _add_config_args(p, with_seed=False,
                     default="the MSI config of --protocol")
    p.add_argument("--program", required=True)
    p.add_argument("--protocol", choices=PROTOCOLS,
                   help="protocol of the MSI config (default tardis); with "
                   "--config or --preset, it must be the config's")
    p.add_argument("--oracle", action="store_true",
                   help="also compute the axiomatic outcome set and compare")
    p.add_argument("--stats", action="store_true",
                   help="print the search size and speed to stderr")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("check", help="check a dumped trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--model", default="tso",
                   choices=[m.value for m in MemoryModel])
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("sweep", help="sweep one config knob into CSV")
    _add_config_args(p)
    p.add_argument("--program", required=True)
    p.add_argument("--param", required=True, help="config key to sweep")
    p.add_argument("--values", required=True, help="comma separated values")
    p.add_argument("--repeat", type=int, default=0,
                   help="run seeds 0..n-1 per value")
    p.add_argument("--csv", help="output file (default stdout)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("compare", help="same run under several presets")
    p.add_argument("--presets", required=True,
                   help=f"comma separated: {', '.join(sorted(PRESETS))}")
    p.add_argument("--program", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--set", action="append", metavar="KEY=VAL")
    p.set_defaults(fn=cmd_compare)
    return ap


def main(argv=None) -> int:
    _setup_logging()
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AuditError, SimulationError, AssertionError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
