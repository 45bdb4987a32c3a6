"""Point-to-point stream connections.

Two unicast transports share one blocking interface: an in-process pipe
(for tests and single-host setups) and TCP.  Both deliver an ordered,
reliable byte stream in each direction, and closing one end is observable
by the peer as end-of-stream after all delivered bytes.  A `timeout` bounds
the whole call, and a read that times out consumes nothing; a read or
accept fails at once with ConnectionClosedError when its end closes.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Optional

from ..bytequeue import ByteQueue
from .bucket import TokenBucket

LOCAL_PIPE = "localPipe"
TCP = "tcp"
RSP_MULTICAST = "rspMulticast"


@dataclass(frozen=True)
class ConnectionDescription:
    protocol: str
    host: str = ""
    port: int = 0

    def __post_init__(self):
        if self.protocol not in (LOCAL_PIPE, TCP, RSP_MULTICAST):
            raise ValueError(f"unknown protocol {self.protocol!r}")


class TransportError(Exception):
    pass


class ConnectError(TransportError):
    pass


class ConnectionClosedError(TransportError):
    pass


class _PipeBuffer:
    """One direction of an in-process pipe: a `ByteQueue` under a condition.

    `write` queues a `bytes` object as it is and copies any other buffer
    (bytearray, memoryview, numpy array), so the reader never sees memory
    the sender may still change; `read_exact` takes from the queue, so an
    exact read hands over the `bytes` object that was sent.
    """

    def __init__(self):
        self._queue = ByteQueue()
        self._cond = threading.Condition()
        self._closed = False

    def write(self, data) -> None:
        piece = data if isinstance(data, bytes) else memoryview(data).tobytes()
        with self._cond:
            if self._closed:
                raise ConnectionClosedError("peer closed")
            self._queue.append(piece)
            self._cond.notify_all()

    def read_exact(self, n: int, timeout: Optional[float] = None) -> bytes:
        with self._cond:
            if len(self._queue) < n:
                if not self._cond.wait_for(lambda: len(self._queue) >= n or self._closed, timeout):
                    raise TimeoutError("read timed out")
                if len(self._queue) < n:
                    raise ConnectionClosedError(f"closed with {len(self._queue)} of {n} bytes available")
            return self._queue.take(n)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class Connection:
    """Abstract ordered reliable byte stream."""

    def send(self, data: bytes) -> None:
        raise NotImplementedError

    def send_pieces(self, *pieces) -> None:
        """Send the concatenation of `pieces`, one `send` per nonempty piece
        unless the transport can gather them into one write."""
        for piece in pieces:
            if len(piece):
                self.send(piece)

    def recv(self, n: int, timeout: Optional[float] = None) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class PipeConnection(Connection):
    def __init__(self, inbound: _PipeBuffer, outbound: _PipeBuffer):
        self._in = inbound
        self._out = outbound

    @staticmethod
    def pair() -> tuple["PipeConnection", "PipeConnection"]:
        a, b = _PipeBuffer(), _PipeBuffer()
        return PipeConnection(a, b), PipeConnection(b, a)

    def send(self, data: bytes) -> None:
        self._out.write(data)

    def recv(self, n: int, timeout: Optional[float] = None) -> bytes:
        return self._in.read_exact(n, timeout)

    def close(self) -> None:
        self._in.close()
        self._out.close()


class RateLimitedConnection(Connection):
    """Wraps a connection, pacing sends through a token bucket.

    Models a bandwidth-limited link; the bucket may be shared between
    several connections to model a shared interface.
    """

    def __init__(self, inner: Connection, bucket: "WallClockBucket"):
        self._inner = inner
        self._bucket = bucket

    def send(self, data: bytes) -> None:
        self._bucket.acquire_blocking(len(data))
        self._inner.send(data)

    def recv(self, n: int, timeout: Optional[float] = None) -> bytes:
        return self._inner.recv(n, timeout)

    def close(self) -> None:
        self._inner.close()


class WallClockBucket:
    """Thread-safe `TokenBucket` against the wall clock, for link shaping."""

    def __init__(self, rate_bytes_per_sec: float, capacity: Optional[float] = None):
        if rate_bytes_per_sec <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate_bytes_per_sec
        self.capacity = capacity if capacity is not None else rate_bytes_per_sec / 100.0
        self._bucket = TokenBucket(self.capacity, self.rate, last_fill=time.monotonic())
        self._lock = threading.Lock()

    def acquire_blocking(self, n: float) -> None:
        # oversized requests drain in capacity-sized slices
        while n > 0:
            take = min(n, self.capacity)
            with self._lock:
                now = time.monotonic()
                wait = self._bucket.acquire(take, now)
                if wait > 0:
                    # pre-charge the sleep, queued behind sleeps that other
                    # threads have pre-charged: it earns the missing credits
                    wait += max(0.0, self._bucket.last_fill - now)
                    self._bucket.credits = 0.0
                    self._bucket.last_fill = now + wait
            if wait > 0:
                time.sleep(wait)
            n -= take


class TcpConnection(Connection):
    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._received = ByteQueue()  # bytes read by a recv that timed out

    def send(self, data: bytes) -> None:
        self.send_pieces(data)

    def send_pieces(self, *pieces) -> None:
        """One `sendmsg` gathers every piece; a short send resends the rest."""
        views = [memoryview(piece).cast("B") for piece in pieces if len(piece)]
        try:
            while views:
                sent = self._sock.sendmsg(views)
                while views and sent >= len(views[0]):
                    sent -= len(views.pop(0))
                if sent:
                    views[0] = views[0][sent:]
        except OSError as exc:
            raise ConnectionClosedError(str(exc)) from exc

    def recv(self, n: int, timeout: Optional[float] = None) -> bytes:
        deadline = None if timeout is None else time.monotonic() + timeout
        received = self._received
        while len(received) < n:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise TimeoutError("read timed out")
            self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(n - len(received))
            except socket.timeout:
                raise TimeoutError("read timed out") from None
            except OSError as exc:
                raise ConnectionClosedError(str(exc)) from exc
            if not chunk:
                raise ConnectionClosedError(f"closed with {len(received)} of {n} bytes available")
            received.append(chunk)
        return received.take(n)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class Listener:
    def accept(self, timeout: Optional[float] = None) -> Connection:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# in-process pipe "ports"
_pipe_listeners: dict[tuple[str, int], "PipeListener"] = {}
_pipe_lock = threading.Lock()


class PipeListener(Listener):
    def __init__(self, key: tuple[str, int]):
        self._key = key
        self._backlog: list[Connection] = []
        self._cond = threading.Condition()
        self._closed = False

    def _offer(self, conn: Connection) -> None:
        with self._cond:
            if self._closed:
                raise ConnectError("listener closed")
            self._backlog.append(conn)
            self._cond.notify()

    def accept(self, timeout: Optional[float] = None) -> Connection:
        with self._cond:
            if not self._cond.wait_for(lambda: self._backlog or self._closed, timeout):
                raise TimeoutError("accept timed out")
            if not self._backlog:
                raise ConnectionClosedError("listener closed")
            return self._backlog.pop(0)

    def close(self) -> None:
        with _pipe_lock:
            _pipe_listeners.pop(self._key, None)
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class TcpListener(Listener):
    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.port = sock.getsockname()[1]

    def accept(self, timeout: Optional[float] = None) -> Connection:
        self._sock.settimeout(timeout)
        try:
            sock, _ = self._sock.accept()
        except socket.timeout:
            raise TimeoutError("accept timed out") from None
        except OSError as exc:
            raise ConnectionClosedError(str(exc)) from exc
        return TcpConnection(sock)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept
        except OSError:
            pass
        self._sock.close()


def listen(desc: ConnectionDescription) -> Listener:
    if desc.protocol == LOCAL_PIPE:
        key = (desc.host, desc.port)
        with _pipe_lock:
            if key in _pipe_listeners:
                raise ConnectError(f"pipe endpoint {key} already bound")
            listener = PipeListener(key)
            _pipe_listeners[key] = listener
        return listener
    if desc.protocol == TCP:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((desc.host or "127.0.0.1", desc.port))
        except OSError as exc:
            sock.close()
            raise ConnectError(str(exc)) from exc
        sock.listen(16)
        return TcpListener(sock)
    raise ConnectError(f"cannot listen on protocol {desc.protocol!r}")


def connect(desc: ConnectionDescription, timeout: Optional[float] = 5.0) -> Connection:
    if desc.protocol == LOCAL_PIPE:
        with _pipe_lock:
            listener = _pipe_listeners.get((desc.host, desc.port))
        if listener is None:
            raise ConnectError(f"no pipe listener at {(desc.host, desc.port)}")
        ours, theirs = PipeConnection.pair()
        listener._offer(theirs)
        return ours
    if desc.protocol == TCP:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect((desc.host or "127.0.0.1", desc.port))
        except OSError as exc:
            sock.close()
            raise ConnectError(str(exc)) from exc
        sock.settimeout(None)
        return TcpConnection(sock)
    raise ConnectError(f"cannot connect with protocol {desc.protocol!r}")
