"""Deterministic multicast network simulation for the stream protocol.

A SimTransport carries datagrams between the members of a group over a
virtual clock, applying seeded loss, reordering and duplication per
receiver.  Every link has the same timing: a datagram arrives LATENCY
plus up to JITTER after it was sent, a reordered one up to 4 * JITTER
later still, and a duplicate up to JITTER after its original.  With a
fixed seed the full datagram trace is bit-identical across runs, which
makes protocol behaviour (ack cadence, retransmission ratios, window
stalls) assertable in tests.

Each endpoint owns an application-side sink per remote writer modelling
the consuming application: by default it drains delivered data as fast as
it arrives; a rate-limited or paused sink leaves the protocol's delivery
buffers full, which withholds acknowledgements and throttles the writer
through the sliding window.

Scheduling is event-driven.  Datagrams in flight wait in one heap by
arrival time.  The timers of the members (`RspMember.next_event_time`)
and of the sinks (`_Sink.due_time`) wait in a second heap with lazy
invalidation: each member id or (reader, writer) sink key has at most one
live entry, and a superseded entry is dropped when it surfaces.  A key
whose state changes is marked dirty, and only dirty keys are re-evaluated,
just before the next timer lookup.  A delivery marks its receiver, and a
DATA delivery also the sink of its writer; a poll marks its member; a sink
run marks the sink; `join`, `RspSimEndpoint.send`, `set_consume_rate` and
`pause_consumption` mark what they change.

Invariant: `next_event_time` and `due_time` are pure functions of member
and sink state, and that state changes only through the group or the
endpoint.  Driving an `RspMember` or a `_Sink` directly bypasses the
marks and leaves their timers stale.

`step` is the one call that advances the clock.  It delivers at most one
datagram, then polls the due members in id order and runs the due sinks
in key order, so the seeded random draws, and with them the trace, do
not depend on how timers are found.  `step(deadline)` never processes an
event past `deadline`: it stops the clock at the deadline and returns
False, and a virtual wait (`run_until`, the window stall in `send`) then
raises SimStallError.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Optional

from ..bytequeue import ByteQueue
from .connection import ConnectionDescription
from .rsp import (
    Datagram, DatagramType, EndpointClosedError, MemberLostError, RspConfig, RspError, RspJoinError, RspMember
)

_INF = float("inf")
LATENCY = 100e-6  # seconds, every link
JITTER = 20e-6


class SimStallError(RspError):
    """The simulation ran past its virtual deadline without progress."""


class SimTransport:
    """In-process datagram network with seeded impairments."""

    def __init__(
        self,
        seed: int = 0,
        loss: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
    ):
        self.seed = seed
        self.loss = loss
        self.duplicate = duplicate
        self.reorder = reorder
        self.groups: dict[tuple[str, int], RspSimGroup] = {}

    def join(self, desc: ConnectionDescription, cfg: RspConfig, member_id: int) -> "RspSimEndpoint":
        key = (desc.host, desc.port)
        group = self.groups.get(key)
        if group is None:
            group = RspSimGroup(self, cfg)
            self.groups[key] = group
        return group.join(cfg, member_id)


class _Sink:
    """Models the application consuming one writer's stream: it moves the
    member's delivered bytes into `buffer`, a `ByteQueue` that
    `RspSimEndpoint.recv` takes from."""

    def __init__(self, member: RspMember, writer: int, now: float):
        self.member = member
        self.writer = writer
        self.buffer = ByteQueue()
        self.rate: Optional[float] = None  # bytes/s; None = drain immediately
        self.paused = False
        self.credits = 0.0
        self.last = now

    def due_time(self) -> float:
        readable = self.member.readable(self.writer)
        if self.paused or readable == 0:
            return _INF
        if self.rate is None:
            return 0.0
        # batch to datagram-sized chunks so pacing does not generate an
        # event per byte; the epsilon and floor absorb float rounding
        need = min(readable, self.member.cfg.payload_size)
        if self.credits + 1e-6 >= need:
            return 0.0
        return self.last + max((need - self.credits) / self.rate, 1e-6)

    def _refill(self, now: float) -> None:
        self.credits = min(
            self.member.cfg.payload_size * 16.0,
            self.credits + (now - self.last) * self.rate,
        )
        self.last = now

    def set_rate(self, rate: Optional[float], now: float) -> None:
        """Change the rate from `now` on: credits earned so far count at the
        old rate, and an unlimited sink starts earning at `now`."""
        if self.rate is not None:
            self._refill(now)
        self.last = now
        self.rate = rate

    def run(self, now: float) -> None:
        if self.paused:
            return
        readable = self.member.readable(self.writer)
        if self.rate is not None:
            self._refill(now)
            take = min(readable, int(self.credits + 1e-6))
            if take < min(readable, self.member.cfg.payload_size):
                return
        else:
            take = readable
        if take > 0:
            self.buffer.append(self.member.consume(self.writer, take))
            if self.rate is not None:
                self.credits = max(0.0, self.credits - take)


class RspSimGroup:
    """One multicast group: members, virtual clock and event queues."""

    def __init__(self, transport: SimTransport, cfg: RspConfig):
        self.transport = transport
        self.cfg = cfg
        self.clock = 0.0
        self.members: dict[int, RspMember] = {}
        self._sinks: dict[tuple[int, int], _Sink] = {}
        self._heap: list = []  # datagrams in flight: (arrival, counter, receiver, dgram)
        self._counter = itertools.count()
        self._rng = random.Random(transport.seed)
        self.trace: list[tuple] = []
        # first member loss seen; members only fail inside `poll`, which
        # `step` alone calls, so checking the group is O(1)
        self.failure: Optional[str] = None
        # timers of members (key: member id) and sinks (key: (reader, writer));
        # generations are unique, so heap ties never compare an id to a tuple
        self._timers: list = []  # (time, generation, key); stale entries skipped
        self._live: dict = {}  # key -> (time, generation) of its one valid entry
        self._dirty: set = set()  # keys whose timer must be re-evaluated
        self._generation = itertools.count()

    # --- membership -------------------------------------------------------

    def join(self, cfg: RspConfig, member_id: int) -> "RspSimEndpoint":
        if cfg.mtu != self.cfg.mtu:
            raise RspJoinError(f"mtu mismatch: group {self.cfg.mtu}, member {cfg.mtu}")
        if cfg.members != self.cfg.members:
            raise RspJoinError("member list mismatch within group")
        if member_id in self.members:
            raise RspJoinError(f"writer id {member_id} already joined")
        member = RspMember(member_id, cfg, self.clock)
        self.members[member_id] = member
        self._dirty.add(member_id)
        for writer in member.peers:
            key = (member_id, writer)
            self._sinks[key] = _Sink(member, writer, self.clock)
            self._dirty.add(key)
        return RspSimEndpoint(self, member)

    def sink(self, member_id: int, writer: int) -> _Sink:
        return self._sinks[(member_id, writer)]

    # --- timers -------------------------------------------------------------

    def _flush(self) -> None:
        for key in self._dirty:
            if type(key) is tuple:
                t = self._sinks[key].due_time()
            else:
                t = self.members[key].next_event_time()
            live = self._live.get(key)
            if live is not None and live[0] == t:
                continue
            if t == _INF:
                self._live.pop(key, None)
                continue
            gen = next(self._generation)
            self._live[key] = (t, gen)
            heapq.heappush(self._timers, (t, gen, key))
        self._dirty.clear()

    def _next_timer(self) -> float:
        """Earliest member or sink timer; inf when none is armed."""
        if self._dirty:
            self._flush()
        timers = self._timers
        while timers:
            t, gen, key = timers[0]
            live = self._live.get(key)
            if live is not None and live[1] == gen:
                return t
            heapq.heappop(timers)
        return _INF

    def _pop_due(self) -> tuple[list, list]:
        """Disarm and return the members and sinks due at the clock, sorted."""
        if self._dirty:
            self._flush()
        members, sinks = [], []
        timers = self._timers
        while timers and timers[0][0] <= self.clock:
            _, gen, key = heapq.heappop(timers)
            live = self._live.get(key)
            if live is None or live[1] != gen:
                continue
            del self._live[key]
            (sinks if type(key) is tuple else members).append(key)
        members.sort()
        sinks.sort()
        return members, sinks

    # --- event machinery ----------------------------------------------------

    def _transmit(self, sender: int, dgram: Datagram, now: float) -> None:
        if len(dgram.payload) > self.cfg.payload_size:
            raise RspError("datagram payload exceeds mtu")
        t = self.transport
        self.trace.append(
            ("tx", round(now, 9), sender, dgram.type, dgram.writer_id, dgram.sequence, len(dgram.payload))
        )
        for receiver in sorted(self.members):
            if receiver == sender:
                continue
            if t.loss and self._rng.random() < t.loss:
                self.trace.append(("lost", sender, receiver, dgram.type, dgram.sequence))
                continue
            delay = LATENCY + JITTER * self._rng.random()
            if t.reorder and self._rng.random() < t.reorder:
                delay += 4.0 * JITTER * self._rng.random()
            heapq.heappush(self._heap, (now + delay, next(self._counter), receiver, dgram))
            if t.duplicate and self._rng.random() < t.duplicate:
                dup_delay = delay + JITTER * self._rng.random()
                self.trace.append(("dup", sender, receiver, dgram.type, dgram.sequence))
                heapq.heappush(self._heap, (now + dup_delay, next(self._counter), receiver, dgram))

    def _deliver(self, receiver: int, dgram: Datagram) -> None:
        member = self.members[receiver]
        self.trace.append(
            ("rx", round(self.clock, 9), receiver, dgram.type, dgram.writer_id, dgram.sequence, len(dgram.payload))
        )
        self._dirty.add(receiver)
        if dgram.type == DatagramType.DATA:
            self._dirty.add((receiver, dgram.writer_id))
        for outgoing in member.protocol_step(dgram, self.clock):
            self._transmit(receiver, outgoing, self.clock)

    def step(self, deadline: float = _INF) -> bool:
        """Advance the virtual clock to the next event and process it: at
        most one datagram, then every due member poll in id order and every
        due sink in key order.  An event past `deadline` is left pending:
        the clock stops at the deadline and False is returned."""
        t_heap = self._heap[0][0] if self._heap else _INF
        t_timer = self._next_timer()
        t_next = max(self.clock, min(t_heap, t_timer))
        if t_next > deadline:
            self.clock = max(self.clock, deadline)
            return False
        if t_next == _INF:
            raise SimStallError("no pending events")
        self.clock = t_next
        if t_heap <= t_timer:
            _, _, receiver, dgram = heapq.heappop(self._heap)
            self._deliver(receiver, dgram)
        members, sinks = self._pop_due()
        for member_id in members:
            self._dirty.add(member_id)
            member = self.members[member_id]
            for outgoing in member.poll(self.clock):
                self._transmit(member_id, outgoing, self.clock)
            if member.failed and self.failure is None:
                self.failure = member.failed
        for key in sinks:
            # a sink run only drains its member's delivery backlog, which
            # `next_event_time` does not read, so the member stays clean
            self._dirty.add(key)
            self._sinks[key].run(self.clock)
        return True

    def run_until(self, predicate: Callable[[], bool], max_virtual: float = 300.0) -> None:
        deadline = self.clock + max_virtual
        while not predicate():
            self._check_failures()
            if not self.step(deadline):
                raise SimStallError(f"condition not reached within {max_virtual} virtual seconds")

    def run_for(self, duration: float) -> None:
        target = self.clock + duration
        while self.step(target):
            pass

    def _check_failures(self) -> None:
        if self.failure is not None:
            raise MemberLostError(self.failure)


class RspSimEndpoint:
    """Application-facing handle for one member of a simulated group."""

    def __init__(self, group: RspSimGroup, member: RspMember):
        self.group = group
        self.member = member
        self._closed = False

    @property
    def id(self) -> int:
        return self.member.id

    def set_consume_rate(self, writer: int, rate: Optional[float]) -> None:
        """Limit how fast the simulated application reads `writer`'s stream."""
        self.group.sink(self.id, writer).set_rate(rate, self.group.clock)
        self.group._dirty.add((self.id, writer))

    def pause_consumption(self, writer: int, paused: bool = True) -> None:
        self.group.sink(self.id, writer).paused = paused
        self.group._dirty.add((self.id, writer))

    def send(self, data: bytes, max_virtual: float = 300.0) -> None:
        """Queue `data` into the send window, advancing the simulation while
        buffers are full; returns once everything is queued (not acked)."""
        if self._closed:
            raise EndpointClosedError("endpoint closed")
        view = memoryview(data)
        offset = 0
        deadline = self.group.clock + max_virtual
        while offset < len(data):
            self.group._check_failures()
            room = self.member.send_room
            if room > 0:
                take = min(room, len(data) - offset)
                self.member.try_enqueue(view[offset : offset + take])
                self.group._dirty.add(self.id)
                offset += take
            elif not self.group.step(deadline):
                raise SimStallError("send stalled: window never freed")

    def recv(self, writer: int, n: int, max_virtual: float = 300.0) -> bytes:
        """Blocking in-order read of the next n bytes of `writer`'s stream."""
        if self._closed:
            raise EndpointClosedError("endpoint closed")
        if writer not in self.member.readers:
            raise RspError(f"writer {writer} is not a group member")
        sink = self.group.sink(self.id, writer)
        self.group.run_until(lambda: len(sink.buffer) >= n, max_virtual)
        return sink.buffer.take(n)

    def flush(self, max_virtual: float = 300.0) -> None:
        """Run the group until this member's stream is fully acknowledged."""
        if self._closed:
            raise EndpointClosedError("endpoint closed")
        self.group.run_until(lambda: self.member.write_idle, max_virtual)

    def close(self) -> None:
        self._closed = True

