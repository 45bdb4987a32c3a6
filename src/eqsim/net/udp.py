"""Threaded endpoint running the stream protocol over real UDP multicast.

One protocol thread per group owns the socket and the member state
machine; application threads only touch the thread-safe send/recv calls,
which hand bytes over through conditions.  Exactly the same protocol code
as the simulated transport, driven by the wall clock.  A `timeout` bounds
the whole call; a call fails at once with EndpointClosedError when the
endpoint closes, or with MemberLostError when a member is lost.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Optional

from ..bytequeue import ByteQueue
from .connection import ConnectionDescription
from .rsp import Datagram, EndpointClosedError, MemberLostError, RspConfig, RspError, RspJoinError, RspMember


class UdpMulticastTransport:
    """Thin wrapper over a multicast UDP socket."""

    def __init__(self, desc: ConnectionDescription, mtu: int):
        self.group = desc.host
        self.port = desc.port
        self.mtu = mtu
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM, socket.IPPROTO_UDP)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind(("", desc.port))
            mreq = struct.pack(
                "4s4s",
                socket.inet_aton(desc.host),
                socket.inet_aton(desc.interface or "0.0.0.0"),
            )
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP, mreq)
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1)
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL, 1)
        except OSError as exc:
            sock.close()
            raise RspJoinError(f"cannot join multicast group {desc.host}:{desc.port}: {exc}") from exc
        sock.settimeout(0.001)
        self._sock = sock

    def send(self, raw: bytes) -> None:
        try:
            self._sock.sendto(raw, (self.group, self.port))
        except OSError:
            # the 1 ms socket timeout also bounds sends: a full send buffer
            # drops the datagram, and the protocol recovers it as a loss
            pass

    def recv(self) -> Optional[bytes]:
        try:
            raw, _ = self._sock.recvfrom(self.mtu)
        except OSError:  # the 1 ms tick's timeout included
            return None
        return raw

    def close(self) -> None:
        self._sock.close()


class RspUdpEndpoint:
    """One group member over real UDP, with a dedicated protocol thread."""

    def __init__(self, desc: ConnectionDescription, cfg: RspConfig, member_id: int):
        self.cfg = cfg
        self._transport = UdpMulticastTransport(desc, cfg.mtu)
        self._start = time.monotonic()
        self.member = RspMember(member_id, cfg, 0.0)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self._thread = threading.Thread(
            target=self._protocol_loop, daemon=True, name=f"rsp-{member_id}"
        )
        self._thread.start()

    @property
    def id(self) -> int:
        return self.member.id

    def _protocol_loop(self) -> None:
        while not self._closed:
            raw = self._transport.recv()  # 1 ms tick via socket timeout
            now = time.monotonic() - self._start
            with self._lock:
                out = []
                if raw is not None:
                    try:
                        dgram = Datagram.decode(raw)
                    except RspError:
                        dgram = None
                    if dgram is not None:
                        out.extend(self.member.protocol_step(dgram, now))
                if self.member.next_event_time() <= now:
                    out.extend(self.member.poll(now))
                self._wake.notify_all()
            for dgram in out:
                self._transport.send(dgram.encode())

    def _wait(self, ready, deadline: float, what: str) -> None:
        """With the lock held, wait until `ready()`.  A closed endpoint or,
        unless `ready()`, a failed member raises at once."""
        self._wake.wait_for(lambda: self._closed or ready() or self.member.failed, deadline - time.monotonic())
        if self._closed:
            raise EndpointClosedError("endpoint closed")
        if not ready():
            raise MemberLostError(self.member.failed) if self.member.failed else TimeoutError(what)

    def send(self, data: bytes, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        view = memoryview(data)
        offset = 0
        with self._lock:
            while offset < len(data):
                self._wait(lambda: self.member.send_room > 0, deadline, "send timed out on a full window")
                offset += self.member.try_enqueue(view[offset:])

    def recv(self, writer: int, n: int, timeout: float = 60.0) -> bytes:
        deadline = time.monotonic() + timeout
        out = ByteQueue()
        with self._lock:
            if writer not in self.member.readers:
                raise RspError(f"writer {writer} is not a group member")
            while len(out) < n:
                what = f"recv timed out at {len(out)} of {n} bytes"
                self._wait(lambda: self.member.readable(writer) > 0, deadline, what)
                out.append(self.member.consume(writer, n - len(out)))
        return out.take(n)

    def flush(self, timeout: float = 60.0) -> None:
        with self._lock:
            self._wait(lambda: self.member.write_idle, time.monotonic() + timeout, "flush timed out")

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._wake.notify_all()
        self._thread.join(timeout=2.0)
        self._transport.close()
