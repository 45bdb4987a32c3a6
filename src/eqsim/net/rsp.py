"""Reliable stream protocol: ordered byte streams over lossy multicast.

Every group member owns one writer identity and reassembles the streams
of all other members.  Reliability comes from negative acknowledgements:
a receiver nacks missing sequence ranges NACK_DELAY after it detects a
gap, writers retransmit nacked datagrams at most once per
RETRANSMIT_INTERVAL each, and a sliding window of `num_buffers`
in-flight datagrams throttles a writer until the whole group has
acknowledged.  Receivers acknowledge every ACK_FREQ fully received
datagrams, staggered by their member id so the acks of a group do not
burst.  A writer blocked on unacknowledged data sends an ack request
every ACK_TIMEOUT, and every member announces its last sequence every
BEACON_INTERVAL.

Send pacing: every DATA datagram, fresh or retransmitted, first takes
its size in credits from a token bucket of 16 datagrams.  When the
credits are short, the whole send path waits until the bucket holds
them.  The bucket's rate starts at SEND_RATE_MAX.  An ack that slides
the window raises it by RATE_INCREASE, and a nack that schedules a
retransmission lowers it by RATE_DECREASE, within [SEND_RATE_MIN,
SEND_RATE_MAX].  The rule is additive in both directions because loss on
a LAN is usually a switch enforcing a rate limit: backing off gently
keeps the writer near that limit.

These tunables are module constants; only what a group is deployed
with, or a test needs to reach a behaviour, is an `RspConfig` field.

Wire format, little-endian:

    header (8 bytes): u8 type | u8 flags | u16 writer id | u32 sequence
    DATA    payload: stream bytes (<= mtu - 8)
    ACK     payload: u16 target writer; sequence = highest in-order seq
    NACK    payload: u16 target writer, u8 n, n * (u32 first, u32 last)
    ACKREQ  no payload; sequence = writer's last written seq
    BEACON  no payload; sequence = writer's last written seq

Sequences are consecutive per writer and wrap at 2**32 using
serial-number arithmetic; the window is far smaller than the sequence
space, so expansion against the receiver's expectation is unambiguous.

The state machine is transport-agnostic and driven by `protocol_step`
(incoming datagram) and `poll` (timers); it never blocks and holds no
clock, so the deterministic simulator (simnet.py) drives it on virtual
time.  `Datagram.encode` and `decode` give the wire format above as
bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from ..bytequeue import ByteQueue
from .bucket import TokenBucket

HEADER = struct.Struct("<BBHI")
HEADER_SIZE = HEADER.size  # 8
_SEQ_MOD = 1 << 32

FLAG_RETRANSMIT = 0x01


class DatagramType(IntEnum):
    DATA = 0
    ACK = 1
    NACK = 2
    ACKREQ = 3
    BEACON = 4


class RspError(Exception):
    pass


class RspJoinError(RspError):
    pass


class MemberLostError(RspError):
    pass


class EndpointClosedError(RspError):
    pass


@dataclass(slots=True)
class Datagram:
    type: int
    writer_id: int
    sequence: int = 0
    payload: bytes = b""
    flags: int = 0

    def encode(self) -> bytes:
        return (
            HEADER.pack(self.type, self.flags, self.writer_id, self.sequence & (_SEQ_MOD - 1))
            + self.payload
        )

    @classmethod
    def decode(cls, raw: bytes) -> "Datagram":
        if len(raw) < HEADER_SIZE:
            raise RspError(f"short datagram: {len(raw)} bytes")
        dtype, flags, writer_id, sequence = HEADER.unpack_from(raw)
        return cls(dtype, writer_id, sequence, raw[HEADER_SIZE:], flags)

    @property
    def size(self) -> int:
        return HEADER_SIZE + len(self.payload)


def expand_sequence(wire: int, reference: int) -> int:
    """Map a 32-bit wire sequence to the full value nearest `reference`."""
    return reference + ((wire - reference + _SEQ_MOD // 2) % _SEQ_MOD) - _SEQ_MOD // 2


def validate_nack_ranges(ranges: list[tuple[int, int]]) -> None:
    prev_last = -1
    for first, last in ranges:
        if first > last:
            raise RspError(f"empty nack range ({first}, {last})")
        if first <= prev_last:
            raise RspError("nack ranges must be sorted and disjoint")
        prev_last = last


ACK_FREQ = 17               # fully received datagrams per periodic ack
SEND_RATE_MIN = 1 << 20     # bytes/s
SEND_RATE_MAX = 512 << 20
RATE_INCREASE = 4 << 20     # additive steps, bytes/s
RATE_DECREASE = 8 << 20
NACK_DELAY = 1e-3           # seconds
ACK_TIMEOUT = 10e-3
RETRANSMIT_INTERVAL = 5e-3
BEACON_INTERVAL = 50e-3


@dataclass
class RspConfig:
    """The settings that stay per group.  `mtu` is the network's datagram
    size and `members` the group's writer ids.  `num_buffers` (the window,
    in datagrams) and `max_ack_timeouts` (consecutive stalls before a
    member counts as lost) are small in tests that reach window stalls and
    member loss.  Every other tunable is a module constant above."""

    mtu: int = 1470
    num_buffers: int = 1024
    max_ack_timeouts: int = 50
    members: tuple[int, ...] = ()

    def __post_init__(self):
        if self.mtu < 64:
            raise ValueError(f"mtu {self.mtu} below minimum of 64")
        if self.num_buffers < 2 * ACK_FREQ:
            raise ValueError(f"num_buffers must be at least {2 * ACK_FREQ}")
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate member ids")
        for m in self.members:
            if not 0 <= m < 1 << 16:
                raise ValueError(f"member id {m} out of 16-bit range")

    @property
    def payload_size(self) -> int:
        return self.mtu - HEADER_SIZE

    def max_nack_ranges(self) -> int:
        return min(15, (self.payload_size - 3) // 8)


@dataclass
class RspStats:
    data_sent: int = 0
    retransmitted: int = 0
    acks_sent: int = 0
    acks_periodic: int = 0   # slot-cadence acks only, not ackreq responses
    nacks_sent: int = 0
    duplicates_dropped: int = 0
    unknown_writer: int = 0


class _ReaderState:
    """Reassembly state for one remote writer's stream."""

    __slots__ = (
        "next_expected",
        "pending",
        "delivered",
        "tail",
        "nack_due",
    )

    def __init__(self):
        self.next_expected = 0
        self.pending: dict[int, bytes] = {}
        self.delivered = ByteQueue()  # in-order payloads not yet consumed
        self.tail = -1          # highest sequence known to exist
        self.nack_due: Optional[float] = None

    @property
    def buffered(self) -> int:
        return len(self.pending) + self.delivered.pieces


class RspMember:
    """Protocol state machine for one member of an RSP group.

    Owns no socket and no clock: feed incoming datagrams to
    `protocol_step`, call `poll` whenever `next_event_time` is due, and
    transmit whatever both return.
    """

    def __init__(self, member_id: int, cfg: RspConfig, now: float = 0.0):
        if member_id not in cfg.members:
            raise RspJoinError(f"member {member_id} not in group member list {cfg.members}")
        self.id = member_id
        self.cfg = cfg
        self.peers = tuple(m for m in cfg.members if m != member_id)

        # writer side
        self._outq = ByteQueue()
        self.next_seq = 0
        self.window_base = 0
        self._window: dict[int, bytes] = {}
        self.acked: dict[int, int] = {m: -1 for m in self.peers}
        self._retransmit_due: dict[int, float] = {}
        self._last_retransmit: dict[int, float] = {}
        self.rate = SEND_RATE_MAX
        self.bucket = TokenBucket(16.0 * cfg.mtu, self.rate, last_fill=now)
        self._send_wait_until: Optional[float] = None
        self._next_ackreq: Optional[float] = None
        self._stalls: dict[int, int] = {m: 0 for m in self.peers}
        self._beacon_at = now  # announce immediately on join

        # reader side
        self.readers: dict[int, _ReaderState] = {m: _ReaderState() for m in self.peers}

        self.stats = RspStats()
        self.max_in_flight = 0
        self.failed: Optional[str] = None

    # --- write path -------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return self.next_seq - self.window_base

    @property
    def send_room(self) -> int:
        """Bytes the send buffers can accept right now."""
        return max(0, (self.cfg.num_buffers - self.in_flight) * self.cfg.payload_size - len(self._outq))

    def try_enqueue(self, data: bytes) -> int:
        """Accept as many bytes as fit in free send buffers; returns count."""
        if self.failed:
            raise MemberLostError(self.failed)
        accepted = min(self.send_room, len(data))
        self._outq.append(bytes(data[:accepted]))
        return accepted

    @property
    def write_idle(self) -> bool:
        return not self._outq and self.in_flight == 0

    def _group_acked(self) -> int:
        if not self.peers:
            return self.next_seq - 1
        return min(self.acked.values())

    def _slide_window(self) -> bool:
        new_base = self._group_acked() + 1
        if new_base <= self.window_base:
            return False
        for seq in range(self.window_base, new_base):
            self._window.pop(seq, None)
            self._retransmit_due.pop(seq, None)
            self._last_retransmit.pop(seq, None)
        self.window_base = new_base
        return True

    def _set_rate(self, rate: float, now: float) -> None:
        self.rate = rate
        self.bucket.set_rate(rate, now)

    def _take_credits(self, size: int, now: float) -> bool:
        """Take the bucket credits for a DATA datagram of `size` payload
        bytes, or block the send path until the bucket holds them."""
        wait = self.bucket.acquire(HEADER_SIZE + size, now)
        if wait > 0:
            self._send_wait_until = now + max(wait, 1e-6)
            return False
        return True

    # --- read path ----------------------------------------------------------

    def readable(self, writer: int) -> int:
        return len(self.readers[writer].delivered)

    def consume(self, writer: int, n: int) -> bytes:
        """Pop up to n contiguous stream bytes, freeing receive buffers."""
        delivered = self.readers[writer].delivered
        return delivered.take(min(n, len(delivered)))

    # --- protocol ----------------------------------------------------------

    def protocol_step(self, dgram: Datagram, now: float) -> list[Datagram]:
        """Handle one incoming datagram; returns datagrams to transmit."""
        out: list[Datagram] = []
        writer = dgram.writer_id
        if writer == self.id:
            return out  # own datagram echoed back; multicast loop artifact
        reader = self.readers.get(writer)
        dtype = dgram.type
        if reader is None:
            self.stats.unknown_writer += 1
        elif dtype == DatagramType.DATA:
            self._on_data(reader, writer, dgram, now, out)
        elif dtype == DatagramType.ACK:
            if len(dgram.payload) >= 2 and struct.unpack_from("<H", dgram.payload)[0] == self.id:
                self._on_ack(writer, dgram.sequence, now)
        elif dtype == DatagramType.NACK:
            self._on_nack(writer, dgram.payload, now)
        elif dtype in (DatagramType.ACKREQ, DatagramType.BEACON):
            reader.tail = max(reader.tail, expand_sequence(dgram.sequence, reader.next_expected))
            if dtype == DatagramType.ACKREQ:
                self._answer_ackreq(reader, writer, now, out)
        else:
            self.stats.unknown_writer += 1  # a type this version does not know
        return out

    def _on_data(self, reader: _ReaderState, writer: int, dgram: Datagram, now: float, out: list) -> None:
        seq = expand_sequence(dgram.sequence, reader.next_expected)
        reader.tail = max(reader.tail, seq)
        if seq < reader.next_expected or seq in reader.pending:
            self.stats.duplicates_dropped += 1
            return
        old_pos = reader.next_expected
        if seq == reader.next_expected:
            # a full delivery backlog withholds the ack and so throttles the
            # writer through the sliding window
            if reader.delivered.pieces >= self.cfg.num_buffers:
                return
            reader.delivered.append(dgram.payload)
            reader.next_expected += 1
            while reader.next_expected in reader.pending:
                reader.delivered.append(reader.pending.pop(reader.next_expected))
                reader.next_expected += 1
            if not self._gaps_exist(reader):
                reader.nack_due = None
        else:
            if len(reader.pending) >= self.cfg.num_buffers:
                return
            reader.pending[seq] = dgram.payload
            # new gap: schedule an active nack
            if reader.nack_due is None:
                reader.nack_due = now + NACK_DELAY
        self._maybe_ack(reader, writer, old_pos, out)

    def _gaps_exist(self, reader: _ReaderState) -> bool:
        return bool(reader.pending) or reader.tail >= reader.next_expected

    def _maybe_ack(self, reader: _ReaderState, writer: int, old_pos: int, out: list) -> None:
        new_pos = reader.next_expected
        if new_pos == old_pos:
            return
        r = self.id % ACK_FREQ
        if (new_pos - r) // ACK_FREQ - (old_pos - r) // ACK_FREQ > 0:
            self.stats.acks_periodic += 1
            out.append(self._make_ack(writer, reader))

    def _make_ack(self, writer: int, reader: _ReaderState) -> Datagram:
        self.stats.acks_sent += 1
        return Datagram(
            DatagramType.ACK,
            self.id,
            reader.next_expected - 1,
            struct.pack("<H", writer),
        )

    def _missing_ranges(self, reader: _ReaderState) -> list[tuple[int, int]]:
        ranges: list[tuple[int, int]] = []
        pos = reader.next_expected
        for seq in sorted(reader.pending):
            if seq > pos:
                ranges.append((pos, seq - 1))
            pos = max(pos, seq + 1)
        if reader.tail >= pos:
            ranges.append((pos, reader.tail))
        return ranges

    def _answer_ackreq(self, reader: _ReaderState, writer: int, now: float, out: list) -> None:
        ranges = self._missing_ranges(reader)
        if ranges:
            out.extend(self._make_nacks(writer, ranges))
            reader.nack_due = now + ACK_TIMEOUT
        if reader.next_expected > 0:
            out.append(self._make_ack(writer, reader))

    def _make_nacks(self, writer: int, ranges: list[tuple[int, int]]) -> list[Datagram]:
        validate_nack_ranges(ranges)
        out = []
        per_dgram = self.cfg.max_nack_ranges()
        for i in range(0, len(ranges), per_dgram):
            batch = ranges[i : i + per_dgram]
            payload = struct.pack("<HB", writer, len(batch))
            for first, last in batch:
                payload += struct.pack("<II", first & (_SEQ_MOD - 1), last & (_SEQ_MOD - 1))
            out.append(Datagram(DatagramType.NACK, self.id, 0, payload))
            self.stats.nacks_sent += 1
        return out

    def _on_ack(self, member: int, wire_seq: int, now: float) -> None:
        # any response proves the member alive, even without progress: a
        # receiver with a full delivery backlog throttles us indefinitely
        self._stalls[member] = 0
        seq = expand_sequence(wire_seq, max(self.acked[member], 0))
        if seq > self.acked[member]:
            self.acked[member] = min(seq, self.next_seq - 1)
            if self._slide_window():
                self._set_rate(min(self.rate + RATE_INCREASE, SEND_RATE_MAX), now)

    def _on_nack(self, member: int, payload: bytes, now: float) -> None:
        if len(payload) < 3:
            return
        self._stalls[member] = 0
        target, count = struct.unpack_from("<HB", payload)
        if target != self.id:
            return
        needed = False
        for i in range(count):
            off = 3 + 8 * i
            if off + 8 > len(payload):
                break
            first, last = struct.unpack_from("<II", payload, off)
            first = expand_sequence(first, self.window_base)
            last = expand_sequence(last, self.window_base)
            for seq in range(max(first, self.window_base), min(last, self.next_seq - 1) + 1):
                if seq not in self._retransmit_due:
                    floor = self._last_retransmit.get(seq, -1.0) + RETRANSMIT_INTERVAL
                    self._retransmit_due[seq] = max(now, floor)
                    needed = True
        if needed:
            self._set_rate(max(self.rate - RATE_DECREASE, SEND_RATE_MIN), now)

    # --- timers -------------------------------------------------------------

    def poll(self, now: float) -> list[Datagram]:
        """Run all due timer actions; returns datagrams to transmit."""
        out: list[Datagram] = []
        self._send_wait_until = None

        # retransmission of nacked datagrams, oldest first; each nack earns
        # one retransmission, receivers keep nacking until the gap is filled
        for seq in sorted(self._retransmit_due):
            if self._retransmit_due[seq] > now:
                continue
            payload = self._window[seq]  # the window drops a sequence's retransmit with it
            if not self._take_credits(len(payload), now):
                break
            out.append(Datagram(DatagramType.DATA, self.id, seq, payload, FLAG_RETRANSMIT))
            self.stats.retransmitted += 1
            self._retransmit_due.pop(seq)
            self._last_retransmit[seq] = now

        # fresh data while the window has room and credits allow
        if self._send_wait_until is None:
            while self._outq and self.in_flight < self.cfg.num_buffers:
                size = min(self.cfg.payload_size, len(self._outq))
                if not self._take_credits(size, now):
                    break
                payload = self._outq.take(size)
                seq = self.next_seq
                self.next_seq += 1
                self._window[seq] = payload
                out.append(Datagram(DatagramType.DATA, self.id, seq, payload))
                self.stats.data_sent += 1
                self.max_in_flight = max(self.max_in_flight, self.in_flight)
        self._slide_window()  # no-peer groups ack themselves

        # explicit ack requests while blocked on a full window or a drained
        # queue with unacknowledged data
        if self.peers and self.in_flight > 0 and (
            not self._outq or self.in_flight >= self.cfg.num_buffers
        ):
            if self._next_ackreq is None:
                self._next_ackreq = now + ACK_TIMEOUT
            elif now >= self._next_ackreq:
                out.append(Datagram(DatagramType.ACKREQ, self.id, self.next_seq - 1))
                self._next_ackreq = now + ACK_TIMEOUT
                for m in self.peers:
                    if self.acked[m] < self.next_seq - 1:
                        self._stalls[m] += 1
                        if self._stalls[m] >= self.cfg.max_ack_timeouts:
                            self.failed = (
                                f"member {m} unresponsive for {self._stalls[m]} ack timeouts"
                            )
        else:
            self._next_ackreq = None

        # scheduled nacks for open gaps
        for writer, reader in self.readers.items():
            if reader.nack_due is not None and now >= reader.nack_due:
                ranges = self._missing_ranges(reader)
                if ranges and reader.buffered < self.cfg.num_buffers:
                    out.extend(self._make_nacks(writer, ranges))
                if ranges:
                    reader.nack_due = now + ACK_TIMEOUT  # re-nack until filled
                else:
                    reader.nack_due = None

        if now >= self._beacon_at:
            out.append(Datagram(DatagramType.BEACON, self.id, max(self.next_seq - 1, 0)))
            self._beacon_at = now + BEACON_INTERVAL

        return out

    def next_event_time(self) -> float:
        times = [self._beacon_at]
        if self._send_wait_until is not None:
            # the whole send path (retransmits and fresh data) is blocked on
            # bucket credits; waking earlier cannot make progress
            times.append(self._send_wait_until)
        else:
            if self._retransmit_due:
                times.append(min(self._retransmit_due.values()))
            if self._outq and self.in_flight < self.cfg.num_buffers:
                times.append(0.0)  # sendable right now
        if self._next_ackreq is not None:
            times.append(self._next_ackreq)
        for reader in self.readers.values():
            if reader.nack_due is not None:
                times.append(reader.nack_due)
        return min(times)
