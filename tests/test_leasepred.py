"""Per-line lease prediction policy."""

from tardisim.leasepred import predict
from tardisim.messages import MsgKind

LOAD, STORE, RENEW = MsgKind.LOAD_REQ, MsgKind.STORE_REQ, MsgKind.RENEW_REQ


def test_write_resets_to_minimum():
    assert predict(64, STORE, 64) == 8
    assert predict(8, STORE, 8) == 8


def test_renew_with_matching_lease_doubles():
    lease = 8
    for expect in (16, 32, 64):
        lease = predict(lease, RENEW, lease)
        assert lease == expect
    # capped at the top value
    assert predict(64, RENEW, 64) == 64


def test_renew_with_stale_echo_keeps_lease():
    # requester still holds an 8-lease copy of a line already promoted
    # to 32: not evidence that 32 is too short
    assert predict(32, RENEW, 8) == 32


def test_plain_read_keeps_lease():
    for lease in (8, 16, 32, 64):
        assert predict(lease, LOAD, 8) == lease
        # only a renewal's echo counts, not a load's
        assert predict(lease, LOAD, lease) == lease
