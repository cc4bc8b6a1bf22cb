"""Packet and flit definitions for the HMC-style memory network.

The HMC protocol moves traffic in 16-byte *flits*.  With 64 B cache
lines (Section II-B of the paper):

* a read request is a single header flit,
* a write request carries the header plus the 64 B line = 5 flits,
* a read response likewise carries 5 flits.

Writes are *posted*: the network does not generate write responses.  The
paper prioritizes reads over writes at link controllers because writes
do not typically sit on the critical path.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

__all__ = [
    "FLIT_BYTES",
    "LINE_BYTES",
    "PacketKind",
    "Packet",
    "flits_for",
]

#: Size of one flit in bytes (minimum traffic flow unit).
FLIT_BYTES: int = 16
#: Cache line size assumed throughout the paper.
LINE_BYTES: int = 64

#: Identifier of the processor endpoint in src/dest fields.
PROCESSOR: int = -1


class PacketKind(enum.Enum):
    """The three packet types that cross a memory network."""

    READ_REQ = "read_req"
    WRITE_REQ = "write_req"
    READ_RESP = "read_resp"

    def __init__(self, value: str) -> None:
        # Plain member attributes rather than a dict keyed by kind:
        # ``Enum.__hash__`` is a Python-level call, and every packet
        # reads these at construction.
        #: Whether this packet belongs to a read transaction.
        self.is_read = value != "write_req"
        #: Whether this packet travels on request (downstream) links.
        self.is_request = value != "read_resp"
        #: Flit count per Section II-B: only a read request has no data.
        self.flits = 1 if value == "read_req" else 1 + LINE_BYTES // FLIT_BYTES


def flits_for(kind: PacketKind) -> int:
    """Number of flits a packet of ``kind`` occupies."""
    return kind.flits


_packet_ids = itertools.count()


class Packet:
    """A single request or response packet in flight.

    A plain ``__slots__`` class rather than a dataclass: packets are the
    single most-allocated object in a simulation (two per read, one per
    write), and slotted construction is both faster and smaller.

    Attributes
    ----------
    kind:
        Read request, write request, or read response.
    address:
        Physical byte address of the accessed line.
    dest:
        Destination module id (``PROCESSOR`` for responses).
    src:
        Originating endpoint (``PROCESSOR`` for requests).
    issue_time:
        Time the owning transaction was injected at the processor.
    stream:
        Index of the closed-loop workload stream that issued the access;
        used to resume the stream when the read completes.
    link_arrival:
        Time the packet arrived at the link controller it currently
        queues at (recorded while that link keeps epoch counters).
    dram_start:
        Time the DRAM access for this transaction started (responses
        only).
    flits / is_read:
        Flit count and read flag, cached at construction (hot path).
    """

    __slots__ = (
        "kind",
        "address",
        "dest",
        "src",
        "issue_time",
        "stream",
        "pkt_id",
        "link_arrival",
        "dram_start",
        "flits",
        "is_read",
    )

    def __init__(
        self,
        kind: PacketKind,
        address: int,
        dest: int,
        src: int = PROCESSOR,
        issue_time: float = 0.0,
        stream: int = 0,
    ) -> None:
        self.kind = kind
        self.address = address
        self.dest = dest
        self.src = src
        self.issue_time = issue_time
        self.stream = stream
        self.pkt_id: int = next(_packet_ids)
        self.link_arrival: float = 0.0
        self.dram_start: Optional[float] = None
        self.flits: int = kind.flits
        self.is_read: bool = kind.is_read

    @property
    def bytes(self) -> int:
        """Wire footprint in bytes."""
        return self.flits * FLIT_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.pkt_id} {self.kind.value} addr=0x{self.address:x} "
            f"dest={self.dest})"
        )
