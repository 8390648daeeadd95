"""Simulation configuration.

Configs load from flat key = value text files (# comments allowed) or
plain dicts.  A handful of named presets mirror the interesting
protocol configurations: the directory baseline, base tardis, tardis
with livelock detection, and fully optimized tardis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import get_type_hints

from .cachemem import LEASE_VALUES
from .consistency import MemoryModel
from .workloads import coerce


class ConfigError(ValueError):
    pass


PROTOCOLS = ("tardis", "directory")
# a run's step, and so every step and seq in its trace, stays within
# max_steps: the bound keeps them inside the trace's 64-bit int column
MAX_STEPS_BOUND = 2**62


@dataclass
class SimConfig:
    protocol: str = "tardis"            # tardis | directory
    model: str = "tso"                  # sc | tso | pso | rc
    mesi: bool = True
    static_lease: int = 8
    lease_predictor: bool = False
    livelock_detector: bool = False
    ahb_entries: int = 8
    thresh_min: int = 100
    thresh_max: int = 800
    check_thresh: int = 10
    self_increment_period: int = 0      # 0 = 100, or 1000 with the detector
    store_buffer: int = 8               # entries; SC always runs with 0
    l1_kb: int = 32
    l1_ways: int = 4
    llc_kb: int = 256
    llc_ways: int = 8
    line_bytes: int = 64
    dram_latency: int = 100
    hop_cycles: int = 2
    flit_bits: int = 128
    skip_prob: float = 0.25             # seeded schedule: chance a core sits out a step
    max_steps: int = 5_000_000
    seed: int = 0

    def __post_init__(self):
        for key, kind in _TYPES.items():
            val = getattr(self, key)
            fits = (int, float) if kind is float else kind
            # a bool is an int to isinstance: only a bool field takes one
            if (not isinstance(val, fits)
                    or isinstance(val, bool) is not (kind is bool)):
                raise ConfigError(f"{key} wants {kind.__name__}, "
                                  f"got {val!r}")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        try:
            MemoryModel(self.model)
        except ValueError:
            raise ConfigError(f"unknown model {self.model!r}") from None
        for key in ("static_lease", "ahb_entries", "l1_kb", "l1_ways",
                    "llc_kb", "llc_ways", "line_bytes", "flit_bits",
                    "dram_latency", "hop_cycles", "max_steps"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.max_steps > MAX_STEPS_BOUND:
            raise ConfigError("max_steps must be <= 2**62")
        for kb, ways, level in ((self.l1_kb, self.l1_ways, "l1"),
                                (self.llc_kb, self.llc_ways, "llc")):
            if kb * 1024 < ways * self.line_bytes:
                raise ConfigError(f"{level}_kb={kb} holds less than one set "
                                  f"of {ways} {self.line_bytes}-byte lines")
        if self.store_buffer < 0:
            raise ConfigError("store_buffer must be >= 0")
        if not 0 <= self.skip_prob < 1:
            raise ConfigError("skip_prob must be in [0, 1)")
        if self.lease_predictor and self.static_lease not in LEASE_VALUES:
            raise ConfigError(
                f"lease_predictor needs static_lease in {LEASE_VALUES}")
        if (self.livelock_detector
                and not 1 <= self.thresh_min <= self.thresh_max):
            raise ConfigError(
                "livelock_detector needs 1 <= thresh_min <= thresh_max")
        if self.self_increment_period < 0:
            raise ConfigError("self_increment_period must be >= 0 (0 = default)")

    @property
    def si_period(self) -> int:
        """Accesses between forced self-increments.  0 picks the default
        when it is read, so it follows livelock_detector through
        replace(): detector runs tolerate a slower forced advance."""
        return self.self_increment_period or (
            1000 if self.livelock_detector else 100)

    @property
    def memory_model(self) -> MemoryModel:
        return MemoryModel(self.model)

    @property
    def data_flits(self) -> int:
        return math.ceil(self.line_bytes * 8 / self.flit_bits)

    @property
    def store_buffer_size(self) -> int:
        """Effective store buffer entries; SC drains every store."""
        if self.memory_model is MemoryModel.SC:
            return 0
        return self.store_buffer

    def identity(self, cores: int) -> dict:
        """A report's config block; the core count is the run's."""
        return {
            "protocol": self.protocol,
            "model": self.model,
            "cores": cores,
            "mesi": self.mesi,
            "static_lease": self.static_lease,
            "lease_predictor": self.lease_predictor,
            "livelock_detector": self.livelock_detector,
            "self_increment_period": self.si_period,
            "store_buffer": self.store_buffer_size,
            "seed": self.seed,
        }


@lru_cache(maxsize=16)
def hop_table(cores: int) -> tuple[tuple[int, ...], ...]:
    """XY distances on the smallest square mesh that holds cores tiles,
    tile i at (i % width, i // width).  Built once per core count and
    immutable, so every simulator and enumerated world shares it."""
    width = max(1, math.ceil(math.sqrt(cores)))
    return tuple(tuple(abs(a % width - b % width) + abs(a // width - b // width)
                       for b in range(cores)) for a in range(cores))


# each field's type, which reads its value from text
_TYPES = get_type_hints(SimConfig)


def _checked(mapping: dict) -> dict:
    """Reject unknown keys and read string values as their field type."""
    kwargs = {}
    for key, val in mapping.items():
        if key not in _TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(val, str):
            try:
                val = coerce(_TYPES[key], val)
            except ValueError as exc:
                raise ConfigError(f"{key} {exc}") from None
        kwargs[key] = val
    return kwargs


def config_from_mapping(mapping: dict) -> SimConfig:
    return SimConfig(**_checked(mapping))


def load_config(path: str) -> SimConfig:
    mapping = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key = value")
            key, _, val = line.partition("=")
            mapping[key.strip()] = val.strip()
    return config_from_mapping(mapping)


PRESETS = {
    "directory": {"protocol": "directory", "model": "tso"},
    "tardis-base": {"protocol": "tardis", "model": "tso", "mesi": True,
                    "static_lease": 8, "livelock_detector": False,
                    "lease_predictor": False},
    "tardis-live": {"protocol": "tardis", "model": "tso", "mesi": True,
                    "static_lease": 8, "livelock_detector": True,
                    "lease_predictor": False},
    "tardis-opt": {"protocol": "tardis", "model": "tso", "mesi": True,
                   "static_lease": 8, "livelock_detector": True,
                   "lease_predictor": True},
}
PRESETS["tardis"] = PRESETS["tardis-base"]


def preset(name: str, **overrides) -> SimConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    merged = dict(PRESETS[name])
    merged.update(overrides)
    return config_from_mapping(merged)


def with_overrides(cfg: SimConfig, mapping: dict) -> SimConfig:
    """Apply overrides, checked like a config file, on top of cfg."""
    return replace(cfg, **_checked(mapping))
