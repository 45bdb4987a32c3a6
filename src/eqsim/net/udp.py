"""Threaded endpoint running the stream protocol over real UDP multicast.

One protocol thread per group owns the socket and the member state
machine; application threads only touch the thread-safe send/recv calls,
which hand bytes over through conditions.  Exactly the same protocol code
as the simulated transport, driven by the wall clock.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Optional

from .connection import ConnectionDescription
from .rsp import Datagram, MemberLostError, RspConfig, RspError, RspJoinError, RspMember


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
        except socket.timeout:
            return None
        except OSError:
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

    def _now(self) -> float:
        return time.monotonic() - self._start

    def _protocol_loop(self) -> None:
        while not self._closed:
            raw = self._transport.recv()  # 1 ms tick via socket timeout
            now = self._now()
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

    def send(self, data: bytes, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        view = memoryview(data)
        offset = 0
        while offset < len(data):
            with self._lock:
                if self._closed:
                    raise RspError("endpoint closed")
                if self.member.failed:
                    raise MemberLostError(self.member.failed)
                room = self.member.send_room
                if room > 0:
                    take = min(room, len(data) - offset)
                    self.member.try_enqueue(bytes(view[offset : offset + take]))
                    offset += take
                    continue
                if time.monotonic() > deadline:
                    raise TimeoutError("send timed out waiting for window space")
                self._wake.wait(0.01)

    def recv(self, writer: int, n: int, timeout: float = 60.0) -> bytes:
        deadline = time.monotonic() + timeout
        out = bytearray()
        while len(out) < n:
            with self._lock:
                if writer not in self.member.readers:
                    raise RspError(f"writer {writer} is not a group member")
                avail = self.member.readable(writer)
                if avail > 0:
                    out += self.member.consume(writer, min(avail, n - len(out)))
                    continue
                if self.member.failed:
                    raise MemberLostError(self.member.failed)
                if time.monotonic() > deadline:
                    raise TimeoutError(f"recv timed out at {len(out)} of {n} bytes")
                self._wake.wait(0.01)
        return bytes(out)

    def flush(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if self.member.write_idle:
                    return
                if time.monotonic() > deadline:
                    raise TimeoutError("flush timed out")
                self._wake.wait(0.01)

    def close(self) -> None:
        self._closed = True
        self._thread.join(timeout=2.0)
        self._transport.close()
