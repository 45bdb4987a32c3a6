"""Test helper: wire up in-process nodes with object managers."""

import itertools
import time
import uuid

from eqsim.codec.streams import InputStream, OutputStream
from eqsim.net import LOCAL_PIPE, ConnectionDescription, LocalNode
from eqsim.objects import ObjectManager, Serializable

_ports = itertools.count(7000)


class Cluster:
    """Star topology: every worker node is connected to nodes[0]."""

    def __init__(self, n: int, **manager_kwargs):
        desc = ConnectionDescription(LOCAL_PIPE, "cluster", next(_ports))
        self.nodes = [LocalNode(f"n{i}") for i in range(n)]
        self.nodes[0].listen(desc)
        for node in self.nodes[1:]:
            node.connect_to(desc)
        deadline = time.monotonic() + 5
        while len(self.nodes[0].peers) < n - 1 and time.monotonic() < deadline:
            time.sleep(0.002)
        assert len(self.nodes[0].peers) == n - 1
        self.managers = [ObjectManager(node, **manager_kwargs) for node in self.nodes]

    def close(self):
        for node in self.nodes:
            node.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class _Recording:
    """A connection that keeps a copy of every byte sent through it."""

    def __init__(self, connection):
        self._connection = connection
        self.sent = bytearray()

    def send(self, data) -> None:
        self.sent += data
        self._connection.send(data)

    def send_pieces(self, *pieces) -> None:
        for piece in pieces:
            self.sent += piece
        self._connection.send_pieces(*pieces)

    def __getattr__(self, name):
        return getattr(self._connection, name)


def record_links(cluster: Cluster) -> dict:
    """Wrap every peer connection of `cluster`, whose handshakes are done,
    so that it keeps the bytes it sends from now on; returns those bytes
    by link, keyed (sender name, receiver name)."""
    names = {node.node_id: node.name for node in cluster.nodes}
    links = {}
    for node in cluster.nodes:
        for peer in node.peers:
            peer.connection = _Recording(peer.connection)
            links[node.name, names[peer.node_id]] = peer.connection.sent
    return links


def count_uuids(monkeypatch) -> None:
    """Make `uuid.uuid4` return UUID(int=1), UUID(int=2), ... so that node
    and object ids, and the wire bytes that carry them, repeat run to run."""
    counter = itertools.count(1)
    monkeypatch.setattr(uuid, "uuid4", lambda: uuid.UUID(int=next(counter)))


class Doc(Serializable):
    """Three independently-dirty fields."""

    DIRTY_COUNT = 1 << 1
    DIRTY_SCALE = 1 << 2
    DIRTY_BLOB = 1 << 3
    DIRTY_BITS = DIRTY_COUNT | DIRTY_SCALE | DIRTY_BLOB

    def __init__(self, count=0, scale=1.0, blob=b""):
        super().__init__()
        self.count = count
        self.scale = scale
        self.blob = blob

    def serialize(self, stream: OutputStream, mask: int) -> None:
        if mask & self.DIRTY_COUNT:
            stream.write_i64(self.count)
        if mask & self.DIRTY_SCALE:
            stream.write_f64(self.scale)
        if mask & self.DIRTY_BLOB:
            stream.write_u32(len(self.blob))
            stream.write(self.blob)

    def deserialize(self, stream: InputStream, mask: int) -> None:
        if mask & self.DIRTY_COUNT:
            self.count = stream.read_i64()
        if mask & self.DIRTY_SCALE:
            self.scale = stream.read_f64()
        if mask & self.DIRTY_BLOB:
            self.blob = stream.read(stream.read_u32())

    def state(self):
        return (self.count, self.scale, self.blob)
