import threading
import time

import numpy as np
import pytest

from eqsim.net import (
    LOCAL_PIPE,
    TCP,
    Command,
    ConnectError,
    ConnectionClosedError,
    ConnectionDescription,
    LocalNode,
    RateLimitedConnection,
    RemoteError,
    WallClockBucket,
    connect,
    listen,
)

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


CMD_PING = 10
CMD_LOG = 11


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
