"""Process abstraction: nodes exchanging framed commands over connections.

A LocalNode listens on one or more connection endpoints.  Every accepted
or outgoing connection is wrapped in a RemoteNode after a node-id
handshake, and a dedicated receive thread reads its commands in per-peer
receive order.  An accepted connection's receive thread runs its
handshake too, so a silent client delays no other connect.  Peer-connected
callbacks run before the peer's first command is dispatched.

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
accepts and handshakes at once.
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

    def __init__(self, node_id: uuid.UUID, connection: Connection, local: "LocalNode"):
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
        self._handshakes: set[Connection] = set()  # accepted, not yet a peer
        self._lock = threading.Lock()
        self._closed = False
        self._request_ids = itertools.count(1)
        self._waiters: dict[int, _Waiter] = {}
        self.unknown_commands = 0
        self.peer_connected_callbacks: list[Callable[[RemoteNode], None]] = []
        self.peer_disconnected_callbacks: list[Callable[[RemoteNode], None]] = []

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
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT
        conn = connect(desc, HANDSHAKE_TIMEOUT)
        try:
            conn.send(self.node_id.bytes)
            peer_id = uuid.UUID(bytes=conn.recv(16, timeout=deadline - time.monotonic()))
        except (TransportError, TimeoutError):
            conn.close()
            raise
        peer = self._add_peer(peer_id, conn)
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
        with self._lock:
            if self._closed:
                conn.close()
                return
            self._handshakes.add(conn)  # so that close ends the handshake
        try:
            peer_id = uuid.UUID(bytes=conn.recv(16, timeout=HANDSHAKE_TIMEOUT))
            conn.send(self.node_id.bytes)
        except (TransportError, TimeoutError, OSError):
            conn.close()
            return
        finally:
            with self._lock:
                self._handshakes.discard(conn)
        self._receive_loop(self._add_peer(peer_id, conn))

    def _start_thread(self, target: Callable, arg) -> None:
        thread = threading.Thread(target=target, args=(arg,), daemon=True, name=f"{self.name}-recv")
        thread.start()
        self._peer_threads.append(thread)

    def _add_peer(self, peer_id: uuid.UUID, conn: Connection) -> RemoteNode:
        peer = RemoteNode(peer_id, conn, self)
        with self._lock:
            self._peers[peer_id] = peer
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
        conn = peer.connection
        while not self._closed:
            try:
                header = conn.recv(_FRAME.size)
                length, cmd_type, request_id = _FRAME.unpack(header)
                payload = conn.recv(length - 6) if length > 6 else b""
            except (TransportError, OSError):
                break
            self.dispatch(peer, cmd_type, request_id, payload)
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
        for peer in self.peers:
            peer.close()
        self._fail_waiters(None)
        for _, thread in self._listeners:
            thread.join(timeout=2.0)
        for thread in self._peer_threads:
            thread.join(timeout=2.0)
