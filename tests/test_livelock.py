"""Address history buffer and adaptive check threshold."""

from tardisim.config import preset
from tardisim.engine import Simulator
from tardisim.livelock import LivelockDetector
from tardisim.workloads import builtin


def spin_until_check(det, addr=0):
    """Loads of addr until the detector asks for a check; returns count."""
    n = 0
    while True:
        n += 1
        if det.on_shared_load(addr):
            return n


def test_check_fires_at_threshold():
    det = LivelockDetector()
    # entry creation counts as hit zero, so the check arrives one load
    # after `thresh` repeats
    assert spin_until_check(det) == det.min_count + 1
    assert spin_until_check(det) == det.min_count


def test_threshold_doubles_after_clean_checks():
    det = LivelockDetector(min_count=100, max_count=800, check_thresh=10)
    seen = []
    for _ in range(40):
        spin_until_check(det)
        seen.append(det.thresh_count)
        det.on_check_response(updated=False)
    # 10 clean checks per plateau, doubling 100 -> 200 -> 400 -> 800,
    # then parked at the maximum
    assert seen == [100] * 10 + [200] * 10 + [400] * 10 + [800] * 10
    det.on_check_response(updated=False)
    assert det.thresh_count == 800


def test_threshold_never_passes_max_count():
    # with one clean check per plateau, each check doubles the threshold
    # until max_count caps it, whether or not max_count is a power of two
    # times min_count
    for lo, hi, want in ((3, 8, [6, 8, 8]), (100, 700, [200, 400, 700])):
        det = LivelockDetector(min_count=lo, max_count=hi, check_thresh=1)
        seen = []
        for _ in want:
            det.on_check_response(updated=False)
            seen.append(det.thresh_count)
        assert seen == want, (lo, hi)


def test_updated_check_resets_threshold():
    det = LivelockDetector()
    for _ in range(10):
        det.on_check_response(updated=False)
    assert det.thresh_count == 200
    det.on_check_response(updated=True)
    assert det.thresh_count == det.min_count
    assert det.check_count == 0


def test_ts_advance_clears_counts():
    det = LivelockDetector()
    for _ in range(60):
        det.on_shared_load(0)
    det.reset_on_ts_advance()
    # the count restarts: another full threshold of loads is needed
    assert spin_until_check(det) == det.min_count


def test_ahb_evicts_least_recent_address():
    det = LivelockDetector(entries=8, min_count=4)
    # 9 addresses round-robin: every load evicts the next address about
    # to be touched, so no entry ever accumulates hits
    for _ in range(50):
        for addr in range(9):
            assert not det.on_shared_load(addr)
    # 8 addresses fit and all reach the threshold
    det = LivelockDetector(entries=8, min_count=4)
    fired = 0
    for _ in range(5):
        for addr in range(8):
            fired += det.on_shared_load(addr)
    assert fired == 8


def test_core_state_key_holds_the_detector():
    """The enumerator must not merge cores whose next check differs:
    clones that differ in one AHB count, in the AHB's LRU order or in
    the threshold have different keys."""
    sim = Simulator(preset("tardis-live", thresh_min=1), builtin("mp"))
    core = sim.cores[0]
    core.detector.on_shared_load(0)
    core.detector.on_shared_load(64)
    same, count, order, thresh = (core.clone(sim) for _ in range(4))
    count.detector.ahb[64] += 1
    order.detector.ahb.move_to_end(0)
    thresh.detector.thresh_count *= 2
    keys = [c.state_key() for c in (core, same, count, order, thresh)]
    assert keys[0] == keys[1]
    assert len(set(keys)) == 4
