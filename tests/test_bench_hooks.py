"""The benchmark's traced mode hooks named library attributes
(bench/layers.py).  Its tracer reads each one from vars(owner), so an
attribute that moves from the owner to a base class breaks the traced
run; this test breaks first."""

import sys
from collections import defaultdict
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

import layers  # noqa: E402
from tardisim import directory, engine, tardis  # noqa: E402


class _Recorder:
    """Records what install() hooks, and changes nothing."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.hooked = []

    def wrap(self, owner, attr, name, before=None, after=None):
        self.hooked.append((owner, attr))

    def patch(self, owner, attr, value):
        self.hooked.append((owner, attr))


def test_every_bench_hook_point_is_defined_on_its_owner():
    rec = _Recorder()
    layers.install(rec)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in rec.hooked if attr not in vars(owner)]
    assert not missing
    for point in [(tardis.TardisLlc, "handle"),
                  (directory.DirectoryLlc, "handle"),
                  (engine, "copy"), (tardis, "predict")]:
        assert point in rec.hooked
