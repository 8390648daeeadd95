#!/usr/bin/env python3
"""Benchmark of the tardisim simulator: one workload, one seed, one process.

Run from the repository root:

    python3 bench/run.py --workload timed-64c --seed 1 --seconds 20 --trace 0

The library is imported from `src/` next to this directory; nothing is
installed or built.  The run repeats set-up plus timed part until
`--seconds` have passed, sampling set-up time after each repetition,
checking every repetition's outputs and comparing its behaviour digest
with the first one.  With `--trace 1` it then makes one more repetition
with the per-layer wrappers of layers.py installed, writes the spans to
`.bench_out/spans-<workload>.bin` and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 when any
operation failed, 2 when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# set-up is sampled at least this often, and after each repetition for
# this share of the repetition's time
SETUP_REPEATS = 5
SETUP_SHARE = 0.1


def load_library():
    sys.path.insert(0, str(SRC))
    try:
        import tardisim
    except ImportError as exc:
        print(f"bench: cannot import tardisim from {SRC}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if Path(tardisim.__file__).resolve().parent.parent != SRC:
        print(f"bench: tardisim resolved to {tardisim.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def machine() -> str:
    return (f"nproc={os.cpu_count()} arch={platform.machine()} "
            f"python={platform.python_version()}")


def _rate(reps, work, part) -> float:
    vals = [getattr(r, work) / r.parts[part] for r in reps if r.parts[part]]
    return median(vals) if vals else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("timed-64c", "audited-8c", "enumerate-litmus"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the smoke test")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_library()
    import jobs
    import layers
    import spans

    wl = jobs.WORKLOADS[args.workload](args.seed, jobs.SIZES[args.size])
    print(f"machine: {machine()}")
    print(f"workload {wl.name} seed={args.seed} size={args.size}: "
          f"{wl.params()}")

    deadline = perf_counter() + args.seconds
    reps, setups = [], []
    # start another repetition only if most of it fits before the deadline
    while not reps or perf_counter() + reps[-1].run_s / 2 < deadline:
        reps.append(jobs.one_rep(wl))
        # set-up samples are spread over the run, so that a slow phase
        # of the host moves few of them
        until = perf_counter() + reps[-1].run_s * SETUP_SHARE
        setups.append(jobs.time_setup(wl))
        while perf_counter() < until:
            setups.append(jobs.time_setup(wl))
    while len(setups) < SETUP_REPEATS:
        setups.append(jobs.time_setup(wl))

    extra = []   # the traced repetition and the unaudited runs
    if args.trace:
        tracer = spans.Tracer()
        traced = jobs.one_rep(wl, tracer)
        bare = jobs.Rep()
        if wl.audited:
            for label, sim in wl.setup(audit=False):
                wl.simulate(label, sim, bare)
        extra = [traced, bare]

    first = reps[0]
    for label, digest in sorted(first.digests.items()):
        print(f"digest {label} sha256={digest}")
    for label, outcomes in first.outcomes.items():
        print(f"outcomes {label}: {outcomes}")
    for i, rep in enumerate(reps[1:] + extra[:1], 1):
        if rep.digests != first.digests:
            rep.fail(f"repetition {i}: behaviour digest differs from the "
                     "first repetition")
    attempted = failed = 0
    for rep in reps + extra:
        attempted += rep.attempted
        failed += min(len(rep.errors), rep.attempted)
        for err in rep.errors:
            print(f"FAIL {err}", file=sys.stderr)

    run_s = median(r.run_s for r in reps)
    rates = {"mem_ops_per_s": _rate(reps, "mem_ops", "sim"),
             "check_rows_per_s": _rate(reps, "rows", "check"),
             "enum_s": median(r.parts["enumerate"] for r in reps)}
    print(f"repetitions: {len(reps)} untraced, set-up samples: "
          f"{len(setups)}, median set-up {median(setups):.6f} s")
    print("run_s samples: " + " ".join(f"{r.run_s:.4f}" for r in reps))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # host (H) and simulated (S) figures of the untraced repetitions
    info = [("mem_ops_per_s", rates["mem_ops_per_s"], "H"),
            ("check_rows_per_s", rates["check_rows_per_s"], "H")]
    info += [(k, v, "S") for k, v in layers.simulated(first).items()]
    for name, value, kind in info:
        print(f"info {name} = {value:.6g} {units[name]} ({kind})")
    print(f"info fail_frac = {failed / attempted:.6g} ratio")

    if args.trace:
        audit_ratio = layers.ratio(median(r.parts["sim"] for r in reps),
                                   bare.parts["sim"])
        values = layers.per_layer(tracer, traced, run_s, rates, audit_ratio)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{wl.name}.bin")
    else:
        values = {"setup_s": median(setups), "run_s": run_s,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
