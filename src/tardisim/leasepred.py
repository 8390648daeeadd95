"""Per-line lease prediction.

Read-heavy lines deserve long leases (fewer renewals), write-heavy
lines short ones (smaller timestamp jumps at the writer).  The
predictor keeps one current lease per shared-cache line: any write
resets it to the minimum, and a renewal whose requester echoes the
current lease doubles it, because the same core evidently keeps
renewing the line.
"""

from __future__ import annotations

from .cachemem import MAX_LEASE, MIN_LEASE
from .messages import MsgKind


def predict(cur_lease: int, kind: MsgKind, req_lease: int) -> int:
    """Next lease for a line given one shared-cache request of kind.

    Returns the lease to grant; the caller stores it back as the
    line's current lease.  req_lease is the lease the requester's copy
    was granted with (loads after an L1 miss carry the minimum).
    """
    if kind is MsgKind.STORE_REQ:
        return MIN_LEASE
    if kind is MsgKind.RENEW_REQ and req_lease == cur_lease < MAX_LEASE:
        return cur_lease * 2
    return cur_lease
