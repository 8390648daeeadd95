"""Coherence messages and their traffic taxonomy.

Endpoints are small ints: cores are 0..n-1, the shared cache is LLC,
main memory is MEM.  Every message belongs to exactly one accounting
class: common (demand traffic, recalls, writebacks), renew (renewals
and stale-read checks), invalidation (directory invalidations and
shared-eviction notices), or dram.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from .cachemem import MIN_LEASE, ValueToken

LLC = -1
MEM = -2


class MsgKind(Enum):
    # members are singletons compared by identity, so hashing by identity
    # is exact, and it skips Enum.__hash__, a Python call per dict lookup
    __hash__ = object.__hash__

    # tardis protocol
    LOAD_REQ = auto()
    STORE_REQ = auto()
    RENEW_REQ = auto()
    CHECK_REQ = auto()
    LOAD_RESP = auto()      # shared grant
    EXCL_RESP = auto()      # exclusive grant (store, or E on a load)
    RENEW_RESP = auto()
    CHECK_RESP = auto()
    RECALL = auto()         # LLC asks an owner to downgrade or drop
    WB_RESP = auto()        # owner's answer to a RECALL
    WRITEBACK = auto()      # unsolicited M/E eviction writeback
    # directory protocol
    GETS = auto()
    GETM = auto()
    DATA_RESP = auto()
    INV = auto()
    INV_ACK = auto()
    FWD_GETS = auto()
    FWD_GETM = auto()
    FWD_RESP = auto()
    PUTS = auto()
    PUTS_ACK = auto()
    PUTM = auto()
    PUTM_ACK = auto()
    # dram
    MEM_READ = auto()
    MEM_DATA = auto()
    MEM_WRITE = auto()


# the accounting classes, in report order, and the class of every kind
TRAFFIC_CLASSES = ("common", "renew", "invalidation", "dram")
TRAFFIC_CLASS = dict.fromkeys(MsgKind, "common")
TRAFFIC_CLASS.update(dict.fromkeys((MsgKind.RENEW_REQ, MsgKind.RENEW_RESP,
                                    MsgKind.CHECK_REQ, MsgKind.CHECK_RESP),
                                   "renew"))
TRAFFIC_CLASS.update(dict.fromkeys((MsgKind.INV, MsgKind.INV_ACK,
                                    MsgKind.PUTS, MsgKind.PUTS_ACK),
                                   "invalidation"))
TRAFFIC_CLASS.update(dict.fromkeys((MsgKind.MEM_READ, MsgKind.MEM_DATA,
                                    MsgKind.MEM_WRITE), "dram"))


# recall downgrade targets
TO_S = "s"
TO_I = "i"


@dataclass(unsafe_hash=True)
class Msg:
    """One message.  It never changes once sent, so enumerated worlds
    share it and it is its own part of their state keys.  A RENEW_RESP
    renewed the copy exactly when it carries no line (data), and a
    CHECK_RESP found it stale exactly when it carries one."""

    kind: MsgKind
    addr: int
    src: int
    dst: int
    data: bool = False              # carries a full line (drives flit size)
    value: ValueToken | None = None
    wts: int = 0
    rts: int = 0
    req_ts: int = 0                 # requester's read-side timestamp
    req_wts: int = 0                # renew/check: wts of the requester's copy
    req_lease: int = MIN_LEASE      # renew: lease echoed back for prediction
    lease: int = MIN_LEASE          # grant: lease the response was issued with
    floor: int = 0                  # exclusive grant: min store timestamp
    excl: bool = False              # load response grants E instead of S
    downgrade: str = TO_S           # recall target state
    extend_ts: int | None = None    # recall: extend rts to extend_ts + lease
    have_line: bool = False         # store request: upgrade of a shared copy
    recalled: bool = False          # set at the home while queued behind a recall
