"""Wiring of in-process nodes, and a byte counter on their connections."""

from __future__ import annotations

import itertools
import threading

from eqsim.net import LOCAL_PIPE, Connection, ConnectionDescription, LocalNode, RemoteNode

_serial = itertools.count()


def connect_star(hub: LocalNode, others: list[LocalNode], name: str) -> list[RemoteNode]:
    """Connect `others` to `hub` over LOCAL_PIPE; returns their hub proxies
    once the hub has registered every one of them.  Each call listens on a
    pipe of its own, so that two instances of a workload can be up at once."""
    desc = ConnectionDescription(LOCAL_PIPE, f"{name}-{next(_serial)}", 1)
    all_seen = threading.Event()

    def seen(_peer: RemoteNode) -> None:
        if len(hub.peers) >= len(others):
            all_seen.set()

    hub.peer_connected_callbacks.append(seen)
    hub.listen(desc)
    proxies = [node.connect_to(desc) for node in others]
    if not all_seen.wait(10.0):
        raise TimeoutError(f"{hub.name} saw {len(hub.peers)} of {len(others)} peers")
    hub.peer_connected_callbacks.remove(seen)
    return proxies


class CountingConnection(Connection):
    """Counts the bytes a node writes to one connection."""

    def __init__(self, inner: Connection, counter: list):
        self._inner = inner
        self._counter = counter

    def send(self, data: bytes) -> None:
        self._counter[0] += len(data)
        self._inner.send(data)

    def recv(self, n: int, timeout=None) -> bytes:
        return self._inner.recv(n, timeout)

    def close(self) -> None:
        self._inner.close()


def count_node_bytes(nodes: list[LocalNode], counter: list) -> None:
    """Route every peer connection of `nodes` through one byte counter.

    Nodes write whole command frames (node header and payload) under a
    per-peer lock, so `counter` sees what crosses each link.
    """
    for node in nodes:
        for peer in node.peers:
            peer.connection = CountingConnection(peer.connection, counter)
