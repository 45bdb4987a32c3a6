import os
import socket
import struct
import sys
import threading
import time
import uuid

import numpy as np
import pytest

from eqsim.net import (
    LOCAL_PIPE,
    TCP,
    Command,
    ConnectError,
    Connection,
    ConnectionClosedError,
    ConnectionDescription,
    LocalNode,
    PipeConnection,
    RateLimitedConnection,
    RemoteError,
    RemoteNode,
    WallClockBucket,
    connect,
    listen,
)
from eqsim.net import node as node_module
from eqsim.net.connection import TcpConnection

_ports = iter(range(4100, 4900))


def pipe_desc():
    return ConnectionDescription(LOCAL_PIPE, "test", next(_ports))


def test_pipe_loopback_megabyte():
    desc = pipe_desc()
    listener = listen(desc)
    client = connect(desc)
    server = listener.accept(timeout=1)
    data = np.random.default_rng(0).integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()
    client.send(data)
    assert server.recv(len(data), timeout=1) == data
    server.send(data)
    assert client.recv(len(data), timeout=1) == data
    listener.close()


def test_pipe_connect_unbound_port_fails():
    with pytest.raises(ConnectError):
        connect(ConnectionDescription(LOCAL_PIPE, "nowhere", 1))


def test_tcp_connect_unbound_port_fails():
    with pytest.raises(ConnectError):
        connect(ConnectionDescription(TCP, "127.0.0.1", 1), timeout=1.0)


def test_pipe_close_observable_after_delivered_bytes():
    desc = pipe_desc()
    listener = listen(desc)
    client = connect(desc)
    server = listener.accept(timeout=1)
    client.send(b"tail")
    client.close()
    assert server.recv(4, timeout=1) == b"tail"
    with pytest.raises(ConnectionClosedError):
        server.recv(1, timeout=1)
    listener.close()


def test_pipe_exact_read_hands_over_the_sent_bytes():
    a, b = PipeConnection.pair()
    data = bytes(range(256)) * 64
    a.send(data)
    assert b.recv(len(data), timeout=1) is data


def test_pipe_reads_split_and_span_pieces():
    a, b = PipeConnection.pair()
    for piece in (b"abcdef", b"gh", b"ijklmno"):
        a.send(piece)
    got = [b.recv(n, timeout=1) for n in (2, 3, 4, 6)]
    assert got == [b"ab", b"cde", b"fghi", b"jklmno"]
    assert all(type(r) is bytes for r in got)


@pytest.mark.parametrize("kind", ["bytearray", "memoryview", "numpy"])
def test_pipe_mutable_buffer_arrives_as_sent(kind):
    a, b = PipeConnection.pair()
    raw = bytearray(b"0123456789")
    data = {"bytearray": raw, "memoryview": memoryview(raw), "numpy": np.frombuffer(raw, np.uint8)}[kind]
    a.send(data)
    raw[:] = b"x" * 10
    assert b.recv(10, timeout=1) == b"0123456789"
    a.send(np.arange(3, dtype=np.int32))  # counted in bytes, not elements
    assert b.recv(12, timeout=1) == np.arange(3, dtype=np.int32).tobytes()


def test_pipe_concurrent_writer_and_reader_see_one_stream():
    a, b = PipeConnection.pair()
    rng = np.random.default_rng(3)
    data = rng.integers(0, 256, 200_000, dtype=np.uint8).tobytes()
    cuts = np.sort(rng.integers(0, len(data), 400))
    reads = np.diff(np.concatenate(([0], np.sort(rng.integers(0, len(data), 300)), [len(data)])))

    def writer():
        for i, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, len(data)])):
            a.send(data[lo:hi] if i % 2 else bytearray(data[lo:hi]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(target=writer)
        thread.start()
        got = b"".join(b.recv(int(n), timeout=10) for n in reads)
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == data


def test_pipe_timeout_consumes_nothing():
    a, b = PipeConnection.pair()
    a.send(b"abc")
    with pytest.raises(TimeoutError):
        b.recv(5, timeout=0.05)
    a.send(b"de")
    assert b.recv(5, timeout=1) == b"abcde"


def test_pipe_close_after_split_pieces():
    a, b = PipeConnection.pair()
    a.send(b"abc")
    a.send(b"defg")
    a.close()
    assert b.recv(2, timeout=1) == b"ab"
    assert b.recv(3, timeout=1) == b"cde"
    with pytest.raises(ConnectionClosedError, match="closed with 2 of 3 bytes"):
        b.recv(3, timeout=1)
    assert b.recv(2, timeout=1) == b"fg"
    with pytest.raises(ConnectionClosedError):
        b.recv(1, timeout=1)
    with pytest.raises(ConnectionClosedError):
        a.send(b"late")


def test_tcp_many_messages_order_preserved():
    desc = ConnectionDescription(TCP, "127.0.0.1", 0)
    listener = listen(desc)
    port = listener.port
    client = connect(ConnectionDescription(TCP, "127.0.0.1", port))
    server = listener.accept(timeout=2)

    rng = np.random.default_rng(1)
    sizes = rng.integers(1, 8193, 2000)
    blobs = [rng.integers(0, 256, s, dtype=np.uint8).tobytes() for s in sizes]

    def pump():
        for blob in blobs:
            client.send(blob)

    t = threading.Thread(target=pump)
    t.start()
    for blob in blobs:
        assert server.recv(len(blob), timeout=5) == blob
    t.join()
    client.close()
    server.close()
    listener.close()


def test_tcp_recv_timeout_bounds_the_whole_read():
    # one byte every 0.3 s: each partial read is quick, the whole read is not
    listener = listen(ConnectionDescription(TCP, "127.0.0.1", 0))
    client = connect(ConnectionDescription(TCP, "127.0.0.1", listener.port))
    server = listener.accept(timeout=2)
    stop = threading.Event()

    def trickle():
        while not stop.is_set():
            client.send(b"x")
            stop.wait(0.3)

    t = threading.Thread(target=trickle)
    t.start()
    try:
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            server.recv(4, timeout=0.5)
        assert time.monotonic() - t0 < 0.5 + 0.25
    finally:
        stop.set()
        t.join(timeout=2)
        client.close()
        server.close()
        listener.close()
    assert not t.is_alive()


class RecordingSocket:
    """Stands in for a TCP socket: records each send call and the bytes it
    took, taking at most `limit` bytes per call."""

    def __init__(self, limit=None):
        self.limit = limit
        self.calls = []
        self.wire = bytearray()

    def setsockopt(self, *args) -> None:
        pass

    def sendall(self, data) -> None:
        self.calls.append("sendall")
        self.wire += data

    def sendmsg(self, buffers) -> int:
        self.calls.append("sendmsg")
        data = b"".join(buffers)[: self.limit]
        self.wire += data
        return len(data)


def test_tcp_command_is_one_sendmsg():
    sock = RecordingSocket()
    peer = RemoteNode(uuid.uuid4(), TcpConnection(sock), None)
    payload = bytes(range(256)) * 40
    peer.send_command(CMD_LOG, payload)
    peer.send_command(CMD_LOG, b"")
    assert sock.calls == ["sendmsg", "sendmsg"]
    assert sock.wire == (
        struct.pack("<IHI", 6 + len(payload), CMD_LOG, 0) + payload + struct.pack("<IHI", 6, CMD_LOG, 0)
    )


def test_tcp_short_sends_still_deliver_the_whole_frame():
    sock = RecordingSocket(limit=7)
    peer = RemoteNode(uuid.uuid4(), TcpConnection(sock), None)
    payload = bytes(range(100))
    peer.send_command(CMD_LOG, payload)
    assert sock.wire == struct.pack("<IHI", 6 + len(payload), CMD_LOG, 0) + payload
    assert sock.calls == ["sendmsg"] * -(-len(sock.wire) // 7)


def test_connect_to_silent_peer_fails_within_the_handshake_timeout(monkeypatch):
    monkeypatch.setattr(node_module, "HANDSHAKE_TIMEOUT", 0.3)
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)  # the kernel completes the connect; nobody ever answers
    node = LocalNode()
    try:
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            node.connect_to(ConnectionDescription(TCP, "127.0.0.1", server.getsockname()[1]))
        assert time.monotonic() - t0 < 0.3 + 0.25
        assert node.peers == []
    finally:
        node.close()
        server.close()


def test_tcp_timeout_consumes_nothing():
    listener = listen(ConnectionDescription(TCP, "127.0.0.1", 0))
    client = connect(ConnectionDescription(TCP, "127.0.0.1", listener.port))
    server = listener.accept(timeout=2)
    try:
        client.send(b"ab")
        with pytest.raises(TimeoutError):
            server.recv(4, timeout=0.2)
        client.send(b"cdef")
        assert server.recv(4, timeout=2) == b"abcd"
        assert server.recv(2, timeout=2) == b"ef"
    finally:
        client.close()
        server.close()
        listener.close()


def test_silent_client_does_not_stall_later_connects(monkeypatch):
    monkeypatch.setattr(node_module, "HANDSHAKE_TIMEOUT", 1.0)
    hub, other = LocalNode("hub"), LocalNode("other")
    listener = hub.listen(ConnectionDescription(TCP, "127.0.0.1", 0))
    silent = socket.create_connection(("127.0.0.1", listener.port))
    try:
        time.sleep(0.05)  # the hub has accepted the silent client
        t0 = time.monotonic()
        peer = other.connect_to(ConnectionDescription(TCP, "127.0.0.1", listener.port))
        assert time.monotonic() - t0 < 0.5
        assert peer.node_id == hub.node_id
    finally:
        silent.close()
        other.close()
        hub.close()


def test_close_ends_accept_and_pending_handshakes_at_once():
    hub = LocalNode("hub")
    listener = hub.listen(ConnectionDescription(TCP, "127.0.0.1", 0))
    silent = socket.create_connection(("127.0.0.1", listener.port))
    silent.settimeout(2)
    try:
        time.sleep(0.05)  # the hub has accepted the silent client
        t0 = time.monotonic()
        hub.close()
        assert time.monotonic() - t0 < 0.5
        assert silent.recv(16) == hub.node_id.bytes  # each end sends its id first
        assert silent.recv(1) == b""  # the hub closed its end
    finally:
        silent.close()


def test_close_ends_a_connecting_handshake_at_once(monkeypatch):
    monkeypatch.setattr(node_module, "HANDSHAKE_TIMEOUT", 2.0)
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)  # the kernel completes the connect; nobody ever answers
    node = LocalNode()
    closer = threading.Timer(0.2, node.close)
    try:
        closer.start()
        t0 = time.monotonic()
        with pytest.raises(ConnectionClosedError):
            node.connect_to(ConnectionDescription(TCP, "127.0.0.1", server.getsockname()[1]))
        assert time.monotonic() - t0 < 0.2 + 0.25
        assert node.peers == []
    finally:
        closer.join(timeout=5)
        node.close()
        server.close()


def test_a_closed_node_connects_to_no_one():
    hub, other = LocalNode("hub"), LocalNode("other")
    desc = pipe_desc()
    hub.listen(desc)
    registered = []
    hub.peer_connected_callbacks.append(registered.append)
    other.close()
    try:
        with pytest.raises(ConnectionClosedError):
            other.connect_to(desc)
        time.sleep(0.2)  # the hub has run its end of the handshake
        assert registered == [] and hub.peers == [] and other.peers == []
    finally:
        hub.close()


def test_a_second_link_between_two_nodes_is_refused_on_both_ends():
    a, b = LocalNode("a"), LocalNode("b")
    desc_a, desc_b = pipe_desc(), pipe_desc()
    a.listen(desc_a)
    b.listen(desc_b)
    lost = []
    for node in (a, b):
        node.peer_disconnected_callbacks.append(lost.append)
    a.register_handler(CMD_PING, lambda cmd: cmd.reply(b"pong"))
    try:
        first = b.connect_to(desc_a)
        wait_until(lambda: len(a.peers) == 1)
        with pytest.raises(ConnectError, match="already connected"):
            a.connect_to(desc_b)
        time.sleep(0.1)  # b has run its end of the refused handshake
        assert [p.node_id for p in a.peers] == [b.node_id]
        assert b.peers == [first]
        assert first.request(CMD_PING, b"", timeout=2) == b"pong"
        assert lost == []
    finally:
        a.close()
        b.close()


def test_a_node_does_not_connect_to_itself():
    node = LocalNode("self")
    desc = pipe_desc()
    node.listen(desc)
    try:
        with pytest.raises(ConnectError, match="itself"):
            node.connect_to(desc)
        time.sleep(0.1)  # the accepting end has refused the link too
        assert node.peers == []
    finally:
        node.close()


def open_sockets() -> int:
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except FileNotFoundError:  # the descriptor that listed the directory
            pass
    return count


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_node_closes_the_connection_of_a_peer_that_left():
    hub, other = LocalNode("hub"), LocalNode("other")
    listener = hub.listen(ConnectionDescription(TCP, "127.0.0.1", 0))
    lost = threading.Event()
    hub.peer_disconnected_callbacks.append(lambda peer: lost.set())
    try:
        before = open_sockets()
        other.connect_to(ConnectionDescription(TCP, "127.0.0.1", listener.port))
        other.close()
        assert lost.wait(2)
        assert open_sockets() <= before
    finally:
        hub.close()


def test_rate_limited_connection_throughput():
    desc = pipe_desc()
    listener = listen(desc)
    raw = connect(desc)
    server = listener.accept(timeout=1)
    bucket = WallClockBucket(1e6, capacity=1e4)  # 1 MB/s
    conn = RateLimitedConnection(raw, bucket)
    t0 = time.monotonic()
    for _ in range(10):
        conn.send(bytes(10_000))  # 100 KB total -> ~0.1 s
    elapsed = time.monotonic() - t0
    assert server.recv(100_000, timeout=2) == bytes(100_000)
    assert 0.05 < elapsed < 0.5
    listener.close()


def test_shared_bucket_paces_concurrent_senders_at_its_rate():
    # a sleep pre-charged by one thread must delay the next one, or threads
    # sharing a bucket sleep side by side and together exceed its rate
    bucket = WallClockBucket(1e6, capacity=1e4)  # 1 MB/s, 10 KB burst
    threads = [threading.Thread(target=bucket.acquire_blocking, args=(25_000,)) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        t0 = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        elapsed = time.monotonic() - t0
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert 0.085 < elapsed < 1.0  # 100 KB less the 10 KB burst at 1 MB/s: 0.09 s


CMD_PING = 10
CMD_LOG = 11


def wait_until(predicate, timeout=5):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert predicate()


def make_node_pair():
    a, b = LocalNode("a"), LocalNode("b")
    desc = pipe_desc()
    a.listen(desc)
    peer_of_b = b.connect_to(desc)
    for _ in range(100):
        if a.peers:
            break
        time.sleep(0.01)
    return a, b, peer_of_b


def test_dispatch_in_order():
    a, b, peer = make_node_pair()
    seen = []
    a.register_handler(CMD_LOG, lambda cmd: seen.append(cmd.payload))
    for i in range(100):
        peer.send_command(CMD_LOG, str(i).encode())
    deadline = time.monotonic() + 5
    while len(seen) < 100 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert seen == [str(i).encode() for i in range(100)]
    a.close()
    b.close()


def test_unknown_command_counted_not_fatal():
    a, b, peer = make_node_pair()
    peer.send_command(999, b"whatever")
    got = []
    a.register_handler(CMD_LOG, lambda cmd: got.append(1))
    peer.send_command(CMD_LOG, b"")
    deadline = time.monotonic() + 5
    while not got and time.monotonic() < deadline:
        time.sleep(0.005)
    assert a.unknown_commands == 1
    assert got == [1]
    a.close()
    b.close()


def test_unknown_commands_from_concurrent_peers_all_counted():
    # every receive thread bumps the one counter: 4 peers, N each, 4N counted
    n = 500
    hub = LocalNode("hub")
    desc = pipe_desc()
    hub.listen(desc)
    senders = [LocalNode(f"s{i}") for i in range(4)]
    peers = [node.connect_to(desc) for node in senders]
    errors = []

    def send(peer):
        for _ in range(n - 1):
            peer.send_command(999)
        try:
            peer.request(999, timeout=10)  # answered after the n - 1 before it
        except RemoteError as exc:
            errors.append(str(exc))

    threads = [threading.Thread(target=send, args=(peer,)) for peer in peers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
    finally:
        sys.setswitchinterval(interval)
    assert errors == ["unknown command"] * 4
    assert hub.unknown_commands == 4 * n
    for node in senders + [hub]:
        node.close()


def test_request_reply_and_remote_error():
    a, b, peer = make_node_pair()

    def ping(cmd: Command):
        if cmd.payload == b"boom":
            cmd.reply_error("refused")
        else:
            cmd.reply(cmd.payload + b"-pong")

    a.register_handler(CMD_PING, ping)
    assert peer.request(CMD_PING, b"hello", timeout=5) == b"hello-pong"
    with pytest.raises(RemoteError, match="refused"):
        peer.request(CMD_PING, b"boom", timeout=5)
    with pytest.raises(RemoteError, match="unknown command"):
        peer.request(777, b"", timeout=5)
    a.close()
    b.close()


def test_two_peers_interleaved_per_peer_order():
    hub = LocalNode("hub")
    desc = pipe_desc()
    hub.listen(desc)
    clients = [LocalNode(f"c{i}") for i in range(2)]
    peers = [c.connect_to(desc) for c in clients]
    received = {0: [], 1: []}
    lock = threading.Lock()

    def handler(cmd: Command):
        who, n = cmd.payload.decode().split(":")
        with lock:
            received[int(who)].append(int(n))

    hub.register_handler(CMD_LOG, handler)
    threads = [
        threading.Thread(target=lambda i=i: [peers[i].send_command(CMD_LOG, f"{i}:{n}".encode()) for n in range(200)])
        for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    deadline = time.monotonic() + 5
    while (len(received[0]) < 200 or len(received[1]) < 200) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert received[0] == list(range(200))
    assert received[1] == list(range(200))
    hub.close()
    for c in clients:
        c.close()


@pytest.mark.parametrize("closing", ["peer", "local"])
def test_pending_request_fails_at_once_when_connection_lost(closing):
    a, b, peer = make_node_pair()
    a.register_handler(CMD_PING, lambda cmd: None)  # never replies
    closer = threading.Timer(0.2, (a if closing == "peer" else b).close)
    closer.start()
    t0 = time.monotonic()
    with pytest.raises(ConnectionClosedError):
        peer.request(CMD_PING, b"", timeout=3)
    assert time.monotonic() - t0 < 2
    closer.join(timeout=5)
    assert not closer.is_alive()
    with pytest.raises(ConnectionClosedError):
        peer.request(CMD_PING, b"", timeout=3)  # a later request fails at once too
    a.close()
    b.close()


def test_a_raising_handler_ends_its_link_on_both_nodes(monkeypatch):
    errors = []
    monkeypatch.setattr(threading, "excepthook", lambda args: errors.append(args.exc_value))
    a, b, peer = make_node_pair()
    error = RuntimeError("handler bug")

    def fail(cmd: Command):
        raise error

    a.register_handler(CMD_LOG, fail)
    a.register_handler(CMD_PING, lambda cmd: cmd.reply(b""))
    try:
        peer.send_command(CMD_LOG, b"")
        t0 = time.monotonic()
        with pytest.raises(ConnectionClosedError):
            peer.request(CMD_PING, b"", timeout=1.0)
        assert time.monotonic() - t0 < 0.5
        wait_until(lambda: errors and not a.peers and not b.peers)
        assert errors == [error]  # the receive thread still reports the bug
    finally:
        a.close()
        b.close()


def test_loopback_dispatches_in_the_sending_thread_and_dies_with_its_node():
    node = LocalNode("self")
    threads = []

    def ping(cmd: Command):
        threads.append(threading.current_thread())
        cmd.reply(cmd.payload + b"-pong")

    node.register_handler(CMD_PING, ping)
    assert node.loopback.node_id == node.node_id
    assert node.loopback not in node.peers
    assert node.loopback.request(CMD_PING, b"hi", timeout=5) == b"hi-pong"
    assert threads == [threading.current_thread()]
    node.register_handler(CMD_PING, lambda cmd: None)  # never replies
    closer = threading.Timer(0.1, node.close)
    closer.start()
    t0 = time.monotonic()
    with pytest.raises(ConnectionClosedError):
        node.loopback.request(CMD_PING, b"", timeout=3)
    assert time.monotonic() - t0 < 0.5
    closer.join(timeout=5)
    assert not node.loopback.alive
    with pytest.raises(ConnectionClosedError):
        node.loopback.request(CMD_PING, b"", timeout=3)  # refused after close


class RecordingConnection(Connection):
    """Records every piece a node writes to one connection."""

    def __init__(self, inner: Connection):
        self._inner = inner
        self.sent = []

    def send(self, data) -> None:
        self.sent.append(data)
        self._inner.send(data)

    def recv(self, n: int, timeout=None) -> bytes:
        return self._inner.recv(n, timeout)

    def close(self) -> None:
        self._inner.close()


def test_command_travels_as_header_and_payload_pieces():
    a, b, peer = make_node_pair()
    received = []
    a.register_handler(CMD_LOG, lambda cmd: received.append(cmd.payload))
    peer.connection = recorder = RecordingConnection(peer.connection)
    payload = bytes(range(200)) * 50
    peer.send_command(CMD_LOG, payload)
    peer.send_command(CMD_LOG, b"")
    deadline = time.monotonic() + 5
    while len(received) < 2 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert [len(piece) for piece in recorder.sent] == [10, len(payload), 10]
    assert recorder.sent[1] is payload
    assert sum(len(piece) for piece in recorder.sent) == 10 + len(payload) + 10
    assert received[0] is payload  # the pipe handed the sent object over
    assert received[1] == b""
    a.close()
    b.close()


class YieldingConnection(RecordingConnection):
    def send(self, data) -> None:
        self._inner.send(data)
        time.sleep(0)


def test_concurrent_senders_keep_frames_whole():
    """Header and payload are two writes: concurrent senders on one peer
    must still never interleave inside a frame."""
    a, b, peer = make_node_pair()
    received = []
    done = threading.Event()
    n_threads, n_frames = 4, 200

    def handler(cmd: Command):
        received.append(cmd.payload)
        if len(received) == n_threads * n_frames:
            done.set()

    a.register_handler(CMD_LOG, handler)
    # yield after every write, so another sender runs between the header
    # and the payload unless the send lock keeps it out
    peer.connection = YieldingConnection(peer.connection)

    def sender(who: int):
        for seq in range(n_frames):
            filler = bytes([who]) * ((seq * 37 + who) % 200)
            peer.send_command(CMD_LOG, struct.pack("<II", who, seq) + filler)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sender, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert not any(t.is_alive() for t in threads)
        assert done.wait(20)
    finally:
        sys.setswitchinterval(interval)
    seen = {who: [] for who in range(n_threads)}
    for payload in received:
        who, seq = struct.unpack_from("<II", payload)
        assert payload[8:] == bytes([who]) * ((seq * 37 + who) % 200)
        seen[who].append(seq)
    assert all(seqs == list(range(n_frames)) for seqs in seen.values())
    a.close()
    b.close()
