"""Process abstraction: nodes exchanging framed commands over connections.

A LocalNode listens on one or more connection endpoints.  Both ends of
every link, accepted or outgoing, run one handshake: each sends its
16-byte node id, then reads the other's, and registers the peer as a
RemoteNode.  A dedicated receive thread then reads its commands in
per-peer receive order.  An accepted connection's receive thread runs its
handshake too, so a silent client delays no other connect.  Peer-connected
callbacks run before the peer's first command is dispatched.

A node is one peer: a link to a node already among `peers`, or to the
node itself, is refused with ConnectError and closed on both ends.  Two
nodes that connect to each other at the same moment may both be refused,
so each pair is wired once, from one side.  Every link tears down the
same way, whether its stream ended, the node closed or a handler raised
(the error then goes on up the receive thread): the link is closed,
its peer marked dead and removed from `peers`, its pending requests
fail and the peer-disconnected callbacks run.

`LocalNode.loopback` is a RemoteNode for the node itself, with no
connection and not among `peers`: its `send_raw` dispatches at once, in the
sending thread, so a handler reached through it must not block on its
sender.  Closing the node marks it dead, failing any request pending on it.

`LocalNode.dispatch` is the one way in for a received command, whatever
carried it: the receive threads call it, and so does a multicast channel
such as the object layer's hub.  It resolves replies and hands every
other command to the handler registered for its type.  Commands with an
unknown type are counted and reported, not fatal.

Frame layout: u32 LE frame length | u16 command type | u32 request id |
payload.  The 10-byte header and the payload go to the connection as
two pieces under the peer's send lock (one `sendmsg` on TCP), so the
payload is never copied to prepend the header and frames from concurrent
senders never interleave.  Request id 0 means fire-and-forget; nonzero
ids correlate a blocking `request` with its REPLY; its `timeout` bounds
the whole call, as HANDSHAKE_TIMEOUT bounds connecting.  A request still
pending when its peer's connection ends, or when the local node closes,
fails at once with ConnectionClosedError; closing the node also ends its
accepts and its handshakes, connecting or accepting, at once, and a
closed node refuses every new link.
"""

from __future__ import annotations

import itertools
import struct
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Optional

from .connection import (
    ConnectError,
    Connection,
    ConnectionClosedError,
    ConnectionDescription,
    Listener,
    TransportError,
    connect,
    listen,
)

_FRAME = struct.Struct("<IHI")  # length (type+reqid+payload), type, request id

HANDSHAKE_TIMEOUT = 10.0  # seconds to connect or accept a peer, node-id exchange included

CMD_REPLY = 0xFFFF
CMD_REPLY_ERROR = 0xFFFE


class RemoteError(Exception):
    """An error raised on the remote side of a request."""


@dataclass
class Command:
    node: "LocalNode"
    peer: Optional["RemoteNode"]  # None: multicast from a node with no connection here
    type: int
    request_id: int
    payload: bytes

    def reply(self, payload: bytes = b"") -> None:
        self.peer.send_raw(CMD_REPLY, self.request_id, payload)

    def reply_error(self, message: str) -> None:
        self.peer.send_raw(CMD_REPLY_ERROR, self.request_id, message.encode("utf-8"))


class RemoteNode:
    """Proxy for a peer process reached through one connection."""

    def __init__(self, node_id: uuid.UUID, connection: Optional[Connection], local: "LocalNode"):
        self.node_id = node_id
        self.connection = connection
        self._local = local
        self._send_lock = threading.Lock()
        self.alive = True

    def send_raw(self, cmd_type: int, request_id: int, payload: bytes) -> None:
        header = _FRAME.pack(6 + len(payload), cmd_type, request_id)
        with self._send_lock:
            self.connection.send_pieces(header, payload)

    def send_command(self, cmd_type: int, payload: bytes = b"") -> None:
        self.send_raw(cmd_type, 0, payload)

    def request(self, cmd_type: int, payload: bytes = b"", timeout: float = 30.0) -> bytes:
        return self._local._request(self, cmd_type, payload, timeout)

    def close(self) -> None:
        self.connection.close()


class _Loopback(RemoteNode):
    """The local node as its own peer: sending is dispatching."""

    def send_raw(self, cmd_type: int, request_id: int, payload: bytes) -> None:
        self._local.dispatch(self, cmd_type, request_id, payload)

    def close(self) -> None:
        self.alive = False


@dataclass
class _Waiter:
    peer: RemoteNode
    event: threading.Event = field(default_factory=threading.Event)
    payload: bytes = b""
    error: Optional[Exception] = None


class LocalNode:
    """This process's presence in the cluster."""

    def __init__(self, name: str = ""):
        self.node_id = uuid.uuid4()
        self.name = name or str(self.node_id)[:8]
        self._handlers: dict[int, Callable[[Command], None]] = {}
        self._listeners: list[tuple[Listener, threading.Thread]] = []
        self._peers: dict[uuid.UUID, RemoteNode] = {}
        self._peer_threads: list[threading.Thread] = []
        self._handshakes: set[Connection] = set()  # exchanging ids, not yet a peer
        self._lock = threading.Lock()
        self._closed = False
        self._request_ids = itertools.count(1)
        self._waiters: dict[int, _Waiter] = {}
        self.unknown_commands = 0
        self.peer_connected_callbacks: list[Callable[[RemoteNode], None]] = []
        self.peer_disconnected_callbacks: list[Callable[[RemoteNode], None]] = []
        self.loopback: RemoteNode = _Loopback(self.node_id, None, self)

    # --- wiring ---------------------------------------------------------

    def register_handler(self, cmd_type: int, handler: Callable[[Command], None]) -> None:
        if cmd_type in (CMD_REPLY, CMD_REPLY_ERROR):
            raise ValueError("reserved command type")
        self._handlers[cmd_type] = handler

    def listen(self, desc: ConnectionDescription) -> Listener:
        listener = listen(desc)
        thread = threading.Thread(
            target=self._accept_loop, args=(listener,), daemon=True, name=f"{self.name}-accept"
        )
        thread.start()
        self._listeners.append((listener, thread))
        return listener

    def connect_to(self, desc: ConnectionDescription) -> RemoteNode:
        conn = connect(desc, HANDSHAKE_TIMEOUT)
        peer = self._handshake(conn, time.monotonic() + HANDSHAKE_TIMEOUT)
        self._start_thread(self._receive_loop, peer)
        return peer

    def _accept_loop(self, listener: Listener) -> None:
        while not self._closed:
            try:
                conn = listener.accept()
            except (ConnectionClosedError, TransportError, OSError):
                return
            self._start_thread(self._serve_accepted, conn)

    def _serve_accepted(self, conn: Connection) -> None:
        """Receive thread of an accepted connection: handshake, then dispatch."""
        try:
            peer = self._handshake(conn, time.monotonic() + HANDSHAKE_TIMEOUT)
        except (TransportError, TimeoutError, OSError):
            return
        self._receive_loop(peer)

    def _start_thread(self, target: Callable, arg) -> None:
        thread = threading.Thread(target=target, args=(arg,), daemon=True, name=f"{self.name}-recv")
        thread.start()
        self._peer_threads.append(thread)

    def _handshake(self, conn: Connection, deadline: float) -> RemoteNode:
        """Exchange node ids over `conn` by `deadline` and register the peer.

        Both ends send their id before they read the other's.  The link is
        refused if the node is closed, if the peer is this node or if it is
        already connected; on any failure `conn` is closed and the error
        raised."""
        with self._lock:
            if self._closed:
                conn.close()
                raise ConnectionClosedError(f"node {self.name} is closed")
            self._handshakes.add(conn)  # so that close ends the handshake
        try:
            conn.send(self.node_id.bytes)
            peer_id = uuid.UUID(bytes=conn.recv(16, timeout=deadline - time.monotonic()))
            with self._lock:
                if self._closed:
                    raise ConnectionClosedError(f"node {self.name} is closed")
                if peer_id == self.node_id:
                    raise ConnectError("a node does not connect to itself; use `loopback`")
                if peer_id in self._peers:
                    raise ConnectError(f"already connected to {peer_id}")
                peer = self._peers[peer_id] = RemoteNode(peer_id, conn, self)
        except BaseException:
            conn.close()
            raise
        finally:
            with self._lock:
                self._handshakes.discard(conn)
        for cb in list(self.peer_connected_callbacks):
            cb(peer)
        return peer

    @property
    def peers(self) -> list[RemoteNode]:
        with self._lock:
            return list(self._peers.values())

    def peer(self, node_id: uuid.UUID) -> Optional[RemoteNode]:
        with self._lock:
            return self._peers.get(node_id)

    # --- dispatch -------------------------------------------------------

    def _receive_loop(self, peer: RemoteNode) -> None:
        """Dispatch `peer`'s commands until its link ends, then tear it down,
        also when a handler raises (the error goes on up the thread)."""
        conn = peer.connection
        try:
            while not self._closed:
                try:
                    header = conn.recv(_FRAME.size)
                    length, cmd_type, request_id = _FRAME.unpack(header)
                    payload = conn.recv(length - 6) if length > 6 else b""
                except (TransportError, OSError):
                    break
                self.dispatch(peer, cmd_type, request_id, payload)
        finally:
            peer.close()
            peer.alive = False
            with self._lock:
                self._peers.pop(peer.node_id, None)
            self._fail_waiters(peer)
            for cb in list(self.peer_disconnected_callbacks):
                cb(peer)

    def dispatch(self, peer: Optional[RemoteNode], cmd_type: int, request_id: int, payload: bytes) -> None:
        """Hand one received command to its handler, or resolve the request it answers."""
        if cmd_type in (CMD_REPLY, CMD_REPLY_ERROR):
            self._resolve(request_id, cmd_type, payload)
            return
        handler = self._handlers.get(cmd_type)
        if handler is None:
            with self._lock:
                self.unknown_commands += 1
            if request_id:
                try:
                    peer.send_raw(CMD_REPLY_ERROR, request_id, b"unknown command")
                except TransportError:
                    pass
            return
        handler(Command(self, peer, cmd_type, request_id, payload))

    def _resolve(self, request_id: int, cmd_type: int, payload: bytes) -> None:
        with self._lock:
            waiter = self._waiters.pop(request_id, None)
        if waiter is None:
            return
        if cmd_type == CMD_REPLY_ERROR:
            waiter.error = RemoteError(payload.decode("utf-8", "replace"))
        else:
            waiter.payload = payload
        waiter.event.set()

    def _fail_waiters(self, peer: Optional[RemoteNode]) -> None:
        """Fail the pending requests to `peer`, or to every peer if None."""
        with self._lock:
            lost = [rid for rid, w in self._waiters.items() if peer is None or w.peer is peer]
            waiters = [self._waiters.pop(rid) for rid in lost]
        for waiter in waiters:
            waiter.error = ConnectionClosedError(f"connection to {waiter.peer.node_id} lost")
            waiter.event.set()

    def _request(self, peer: RemoteNode, cmd_type: int, payload: bytes, timeout: float) -> bytes:
        request_id = next(self._request_ids)
        waiter = _Waiter(peer)
        with self._lock:
            # a peer is marked dead before its waiters are failed, so a
            # waiter registered after that sweep is refused here
            if self._closed or not peer.alive:
                raise ConnectionClosedError(f"connection to {peer.node_id} lost")
            self._waiters[request_id] = waiter
        peer.send_raw(cmd_type, request_id, payload)
        if not waiter.event.wait(timeout):
            with self._lock:
                self._waiters.pop(request_id, None)
            raise TimeoutError(f"request {cmd_type} to {peer.node_id} timed out")
        if waiter.error is not None:
            raise waiter.error
        return waiter.payload

    def close(self) -> None:
        self._closed = True
        for listener, _ in self._listeners:
            listener.close()
        with self._lock:
            handshakes = list(self._handshakes)
        for conn in handshakes:
            conn.close()
        for peer in [self.loopback, *self.peers]:
            peer.close()
        self._fail_waiters(None)
        for _, thread in self._listeners:
            thread.join(timeout=2.0)
        for thread in self._peer_threads:
            thread.join(timeout=2.0)
