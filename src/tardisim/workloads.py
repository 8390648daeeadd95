"""Workload corpus: a tiny program DSL, builtin litmus tests and case
studies, and a seeded synthetic generator.

Program text is split into per-core sections:

    [core 0]
    St A 1
    Ld B -> r1
    Fence

    [core 1]
    Sleep 5
    SpinUntil A == 1

Symbolic addresses map to consecutive cache lines in order of first
use.  `St A` with no literal stores 1.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, fields
from enum import Enum, auto


class OpKind(Enum):
    # members are singletons compared by identity, so hashing by identity
    # is exact, and it skips Enum.__hash__, a Python call per dict lookup
    __hash__ = object.__hash__

    LOAD = auto()
    STORE = auto()
    FENCE = auto()
    ACQUIRE = auto()
    RELEASE = auto()
    SLEEP = auto()
    SPIN = auto()


# a spin commits as a load; a sync op orders the store buffer, at no address
LOADS = (OpKind.LOAD, OpKind.SPIN)
SYNCS = (OpKind.FENCE, OpKind.ACQUIRE, OpKind.RELEASE)


@dataclass(frozen=True, slots=True)
class MemOp:
    kind: OpKind
    addr: int | None = None
    reg: str | None = None
    value: int = 1        # store literal / spin target
    n: int = 0            # sleep duration


@dataclass
class WarmLine:
    """Pre-run cache contents: the LLC holds the line Shared with the
    given timestamps; in_l1 lists cores that also start with a Shared
    copy."""
    addr: int
    wts: int = 0
    rts: int = 0
    in_l1: tuple = ()


@dataclass
class Program:
    name: str
    cores: list[list[MemOp]]
    warm: list[WarmLine] = field(default_factory=list)
    schedule: str | None = None        # None/seeded | sequential | lockstep
    addr_names: dict[int, str] = field(default_factory=dict)

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    def dynamic_ops(self) -> int:
        return sum(len(c) for c in self.cores)

    def registers(self) -> list[tuple[int, str]]:
        """(core, reg) pairs in first-use order; defines outcome layout."""
        regs = []
        for cid, ops in enumerate(self.cores):
            for op in ops:
                if op.kind is OpKind.LOAD and op.reg and (cid, op.reg) not in regs:
                    regs.append((cid, op.reg))
        return regs


class ParseError(ValueError):
    pass


_SECTION = re.compile(r"^\[\s*core\s+(\d+)\s*\]$", re.I)
_SPIN = re.compile(r"^SpinUntil\s+(\S+)\s*==\s*(\S+)$", re.I)
# the most tokens an op takes, its name included (SpinUntil has _SPIN)
_MAX_TOKENS = {"st": 3, "ld": 4, "fence": 1, "acq": 1, "acquire": 1,
               "rel": 1, "release": 1, "sleep": 2}


def parse_program(text: str, name: str = "program",
                  line_bytes: int = 64) -> Program:
    cores: dict[int, list[MemOp]] = {}
    addr_of: dict[str, int] = {}
    names: dict[int, str] = {}

    def resolve(tok: str) -> int:
        try:
            raw = int(tok, 0)
        except ValueError:
            raw = None
        if raw is not None:
            if raw % line_bytes:
                raise ParseError(f"address {tok} is not line aligned")
            return raw
        if tok not in addr_of:
            addr_of[tok] = len(addr_of) * line_bytes
            names[addr_of[tok]] = tok
        return addr_of[tok]

    current: list[MemOp] | None = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION.match(line)
        if m:
            cid = int(m.group(1))
            current = cores.setdefault(cid, [])
            continue
        if current is None:
            raise ParseError(f"line {ln}: op before any [core N] section")
        toks = line.split()
        head = toks[0].lower()
        if len(toks) > _MAX_TOKENS.get(head, len(toks)):
            raise ParseError(f"line {ln}: trailing tokens in {line!r}")
        try:
            if head == "st":
                lit = int(toks[2], 0) if len(toks) > 2 else 1
                current.append(MemOp(OpKind.STORE, resolve(toks[1]), value=lit))
            elif head == "ld":
                reg = None
                if len(toks) == 4 and toks[2] == "->":
                    reg = toks[3]
                elif len(toks) != 2:
                    raise ParseError(f"line {ln}: expected 'Ld A [-> r]'")
                current.append(MemOp(OpKind.LOAD, resolve(toks[1]), reg=reg))
            elif head == "fence":
                current.append(MemOp(OpKind.FENCE))
            elif head in ("acq", "acquire"):
                current.append(MemOp(OpKind.ACQUIRE))
            elif head in ("rel", "release"):
                current.append(MemOp(OpKind.RELEASE))
            elif head == "sleep":
                n = int(toks[1], 0)
                if n < 0:
                    raise ParseError(f"line {ln}: negative sleep {n}")
                current.append(MemOp(OpKind.SLEEP, n=n))
            elif head == "spinuntil":
                m = _SPIN.match(line)
                if not m:
                    raise ParseError(f"line {ln}: expected 'SpinUntil A == v'")
                current.append(MemOp(OpKind.SPIN, resolve(m.group(1)),
                                     value=int(m.group(2), 0)))
            else:
                raise ParseError(f"line {ln}: unknown op {toks[0]!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(f"line {ln}: malformed op {line!r}") from None

    if not cores:
        raise ParseError("program has no core sections")
    n = max(cores) + 1
    return Program(name, [cores.get(i, []) for i in range(n)], addr_names=names)


# how text reads as each type: a switch on or off, an int as a DSL literal
_SWITCH = {**dict.fromkeys(("on", "true", "yes", "1"), True),
           **dict.fromkeys(("off", "false", "no", "0"), False)}
_READ = {bool: lambda t: _SWITCH[t.lower()], int: lambda t: int(t, 0),
         float: float, str: str.lower}


def coerce(kind: type, raw: str):
    """raw read as a value of kind (bool, int, float or str), so 0x20 is
    32 and 010 is an error as in the DSL.  Config files, --set, synth:
    and builtin parameters all read values here; the ValueError says
    what was wanted, and the caller names the key."""
    try:
        return _READ[kind](raw.strip())
    except (KeyError, ValueError):
        want = "on/off" if kind is bool else kind.__name__
        raise ValueError(f"wants {want}, got {raw!r}") from None


def load_program(path: str, line_bytes: int = 64) -> Program:
    with open(path) as fh:
        text = fh.read()
    name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return parse_program(text, name=name, line_bytes=line_bytes)


# ---------------------------------------------------------------------------
# builtin programs


# litmus programs by name, one DSL op per line
_LITMUS = {
    "dekker": """
        [core 0]
        St A 1
        Ld B -> r1
        [core 1]
        St B 1
        Ld A -> r2
    """,
    "sb_fence": """
        [core 0]
        St A 1
        Fence
        Ld B -> r1
        [core 1]
        St B 1
        Fence
        Ld A -> r2
    """,
    "mp": """
        [core 0]
        St D 1
        St F 1
        [core 1]
        Ld F -> r1
        Ld D -> r2
    """,
    "mp_fence": """
        [core 0]
        St D 1
        Fence
        St F 1
        [core 1]
        Ld F -> r1
        Fence
        Ld D -> r2
    """,
    "lb": """
        [core 0]
        Ld A -> r1
        St B 1
        [core 1]
        Ld B -> r2
        St A 1
    """,
    "lb_fence": """
        [core 0]
        Ld A -> r1
        Fence
        St B 1
        [core 1]
        Ld B -> r2
        Fence
        St A 1
    """,
    "iriw": """
        [core 0]
        St A 1
        [core 1]
        St B 1
        [core 2]
        Ld A -> r1
        Ld B -> r2
        [core 3]
        Ld B -> r3
        Ld A -> r4
    """,
    "iriw_fence": """
        [core 0]
        St A 1
        [core 1]
        St B 1
        [core 2]
        Ld A -> r1
        Fence
        Ld B -> r2
        [core 3]
        Ld B -> r3
        Fence
        Ld A -> r4
    """,
    "wrc": """
        [core 0]
        St A 1
        [core 1]
        Ld A -> r1
        St B 1
        [core 2]
        Ld B -> r2
        Ld A -> r3
    """,
    "wrc_fence": """
        [core 0]
        St A 1
        [core 1]
        Ld A -> r1
        Fence
        St B 1
        [core 2]
        Ld B -> r2
        Fence
        Ld A -> r3
    """,
    "corr": """
        [core 0]
        St A 1
        [core 1]
        Ld A -> r1
        Ld A -> r2
    """,
    "listing2": """
        [core 0]
        St B 1
        Ld B -> r1
        Ld A -> r2
        [core 1]
        St A 2
        Fence
        Ld B -> r3
    """,
    "rc_mp": """
        [core 0]
        St D 1
        Rel
        St F 1
        [core 1]
        Ld F -> r1
        Acq
        Ld D -> r2
    """,
    "single": """
        [core 0]
        St A 7
        Ld A -> r1
    """,
    # core 1 re-reads X once its store and fence may have moved its clock
    # past X's lease, so Tardis renews X
    "renew_fence": """
        [core 0]
        Ld X -> r1
        Ld Y -> r2
        [core 1]
        Ld X -> r3
        St Y 1
        Fence
        Ld X -> r4
        [core 2]
        Ld Y -> r5
        St X 1
    """,
}

# builtins that reuse a litmus program's text: the worked examples of
# Figures 1 and 2 start from warm lines, (name, wts, rts, L1 holders),
# and run under a fixed schedule
_ALIAS = {
    "fig1": ("dekker", [("A", 0, 0, ()), ("B", 0, 0, ())], "sequential"),
    "fig2": ("listing2", [("A", 0, 5, (0, 1)), ("B", 0, 10, (0, 1))],
             "lockstep"),
    "sb": ("dekker", [], None),
}


def _spin(name: str, line_bytes: int, delay: int) -> Program:
    # the spinner starts with a Shared copy of the flag: the classic
    # stale-lease scenario (an Exclusive copy would just get recalled
    # by the producer's store and never go stale)
    d = 3 * line_bytes
    return Program(name, [
        [MemOp(OpKind.SPIN, d, value=1),
         MemOp(OpKind.LOAD, d, reg="r1")],
        [MemOp(OpKind.SLEEP, n=delay),
         MemOp(OpKind.STORE, d, value=1),
         MemOp(OpKind.SLEEP, n=2)],
    ], warm=[WarmLine(d, 0, 0, in_l1=(0,))], addr_names={d: "D"})


def _lease_case(name: str, line_bytes: int, iterations: int) -> Program:
    a, b = 0, line_bytes
    body = [MemOp(OpKind.LOAD, a, reg=None),    # print(A)
            MemOp(OpKind.LOAD, b, reg=None),    # B++
            MemOp(OpKind.STORE, b, value=1),
            MemOp(OpKind.FENCE)]
    return Program(name, [body * iterations, body * iterations],
                   addr_names={a: "A", b: "B"})


# builtins built in code: the builder and its parameters' defaults
_BUILT = {"spin": (_spin, {"delay": 2000}),
          "lease_case": (_lease_case, {"iterations": 10})}


def builtin(name: str, line_bytes: int = 64, **params) -> Program:
    """Builtin programs by name; see BUILTIN_NAMES."""
    make, defaults = _BUILT.get(name, (None, {}))
    for key in params:
        if key not in defaults:
            raise ParseError(f"builtin {name!r} takes no parameter {key!r}")
    if make:
        counts = {}
        for key, default in defaults.items():
            # read as text, so a float or None is refused, not truncated
            raw = str(params.get(key, default))
            try:
                counts[key] = n = coerce(type(default), raw)
            except ValueError as exc:
                raise ParseError(
                    f"builtin {name} parameter {key} {exc}") from None
            if n < 0:
                raise ParseError(f"{key} must be >= 0, got {n}")
        return make(name, line_bytes, **counts)
    text, warm, schedule = _ALIAS.get(name, (name, [], None))
    if text not in _LITMUS:
        raise ParseError(f"unknown builtin program {name!r}")
    p = parse_program(_LITMUS[text], name=name, line_bytes=line_bytes)
    sym = {v: k for k, v in p.addr_names.items()}
    p.warm = [WarmLine(sym[a], wts, rts, in_l1) for a, wts, rts, in_l1 in warm]
    p.schedule = schedule
    return p


LITMUS_NAMES = list(_LITMUS)
BUILTIN_NAMES = LITMUS_NAMES + list(_ALIAS) + list(_BUILT)


# ---------------------------------------------------------------------------
# synthetic workloads


@dataclass
class SynthParams:
    cores: int = 4
    ops_per_core: int = 60
    hot_lines: int = 4           # shared hot set
    shared_lines: int = 16       # colder shared pool
    private_lines: int = 8       # per-core read-mostly block
    write_frac: float = 0.25
    hot_frac: float = 0.5
    private_frac: float = 0.25
    fence_frac: float = 0.05
    seed: int = 0


def synth(params: SynthParams, line_bytes: int = 64) -> Program:
    """Deterministic random workload; same params+seed => same program.

    A pool's line is drawn inline exactly as `Random.choice` draws it:
    `getrandbits(n.bit_length())`, redrawn until below the pool size n.
    That takes the same draws in the same order as `choice`, without
    its two Python calls per op."""
    for f in fields(params):
        value = getattr(params, f.name)
        if f.name != "seed" and (value < 0 or "frac" in f.name
                                 and not value <= 1):
            raise ParseError(f"synth: {f.name}={value} is out of range")
    priv_frac = params.private_frac if params.private_lines > 0 else 0
    if params.hot_frac > 0 and params.hot_lines < 1:
        raise ParseError("synth: hot_frac > 0 needs hot_lines >= 1")
    if params.hot_frac + priv_frac < 1 and params.shared_lines < 1:
        raise ParseError("synth: some accesses go to shared lines, "
                         "so shared_lines must be >= 1")
    rng = random.Random(params.seed)
    draw, getrandbits = rng.random, rng.getrandbits
    fence_frac, write_frac = params.fence_frac, params.write_frac
    hot_frac = params.hot_frac
    hot_priv = hot_frac + params.private_frac
    # an op is immutable, so every fence, every load of an address and
    # every store of a literal to an address is one shared record
    fence = MemOp(OpKind.FENCE)
    loads: dict[int, MemOp] = {}
    stores: dict[tuple[int, int], MemOp] = {}
    hot = [i * line_bytes for i in range(params.hot_lines)]
    shared = [(params.hot_lines + i) * line_bytes
              for i in range(params.shared_lines)]
    n_hot, n_shared = len(hot), len(shared)
    k_hot, k_shared = n_hot.bit_length(), n_shared.bit_length()
    base = params.hot_lines + params.shared_lines
    cores = []
    for cid in range(params.cores):
        priv = [(base + cid * params.private_lines + i) * line_bytes
                for i in range(params.private_lines)]
        n_priv = len(priv)
        k_priv = n_priv.bit_length()
        ops: list[MemOp] = []
        append = ops.append
        lit = 0
        for _ in range(params.ops_per_core):
            if draw() < fence_frac:
                append(fence)
                continue
            pick = draw()
            if pick < hot_frac:
                pool, n, k, private = hot, n_hot, k_hot, False
            elif pick < hot_priv and priv:
                pool, n, k, private = priv, n_priv, k_priv, True
            else:
                pool, n, k, private = shared, n_shared, k_shared, False
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
            addr = pool[i]
            # private blocks stay read-only so exclusive grants matter
            if not private and draw() < write_frac:
                lit += 1
                store = stores.get((addr, lit))
                if store is None:
                    store = stores[addr, lit] = MemOp(OpKind.STORE, addr,
                                                      value=lit)
                append(store)
            else:
                load = loads.get(addr)
                if load is None:
                    load = loads[addr] = MemOp(OpKind.LOAD, addr)
                append(load)
        cores.append(ops)
    return Program(f"synth-{params.seed}", cores)
