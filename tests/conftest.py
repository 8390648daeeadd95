import pytest

from tardisim.config import preset
from tardisim.engine import Simulator
from tardisim.workloads import builtin

# Caches of one set each: one L1 way, so that an access to a second
# address evicts, and two LLC ways, so that a third address makes the
# home evict.
ONE_SET_CACHES = {"line_bytes": 1024, "l1_kb": 1, "l1_ways": 1,
                  "llc_kb": 2, "llc_ways": 2}
# The same with a one-way LLC: a fill finds the home's only way busy
# whenever that line has a record, and waits for it to go.
ONE_WAY_CACHES = {**ONE_SET_CACHES, "llc_kb": 1, "llc_ways": 1}


def appended(channels, world, action):
    """(channel, message number) for each message that applying action
    to a world whose channel map was channels appended to it."""
    added = []
    for ch, q in world.channels.items():
        old = channels.get(ch, ())
        if action == ("deliver", ch):
            old = old[1:]   # the delivered message left the head
        assert q[:len(old)] == old, ch
        added += ((ch, n) for n in q[len(old):])
    return added


def run(program, preset_name="tardis-base", auditor=None, **overrides):
    """Build, run, and hand back the simulator plus its report."""
    cfg = preset(preset_name, **overrides)
    sim = Simulator(cfg, program, auditor=auditor)
    report = sim.run()
    return sim, report


@pytest.fixture
def fig1():
    return builtin("fig1")


@pytest.fixture
def fig2():
    return builtin("fig2")
