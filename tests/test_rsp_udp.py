"""Smoke tests over real UDP multicast; skipped where multicast is unavailable."""

import itertools
import socket

import numpy as np
import pytest

from eqsim.net import RSP_MULTICAST, ConnectionDescription, RspConfig, RspJoinError
from eqsim.net.udp import RspUdpEndpoint

DESC = ConnectionDescription(RSP_MULTICAST, "239.255.43.17", 17781)


@pytest.fixture
def pair():
    cfg = RspConfig(members=(0, 1), beacon_interval_ms=20.0)
    try:
        a = RspUdpEndpoint(DESC, cfg, 0)
        b = RspUdpEndpoint(DESC, cfg, 1)
    except RspJoinError as exc:
        pytest.skip(f"multicast unavailable: {exc}")
    yield a, b
    a.close()
    b.close()


def test_udp_transfer_both_directions(pair):
    a, b = pair
    blob_a = np.random.default_rng(0).integers(0, 256, 500_000, dtype=np.uint8).tobytes()
    blob_b = np.random.default_rng(1).integers(0, 256, 200_000, dtype=np.uint8).tobytes()
    a.send(blob_a)
    b.send(blob_b)
    assert b.recv(0, len(blob_a), timeout=30) == blob_a
    assert a.recv(1, len(blob_b), timeout=30) == blob_b


def test_udp_flush_completes(pair):
    a, b = pair
    a.send(bytes(100_000))
    a.flush(timeout=30)
    assert a.member.write_idle
    assert b.recv(0, 100_000, timeout=30) == bytes(100_000)


def test_send_errors_drop_datagrams(pair, monkeypatch):
    """A full send buffer drops the datagram; the protocol thread lives on
    and the stream recovers it like any lost datagram."""
    a, b = pair
    real_sendto = socket.socket.sendto
    calls = itertools.count()

    def sendto(sock, *args):
        if next(calls) < 20:
            raise TimeoutError("timed out")
        return real_sendto(sock, *args)

    monkeypatch.setattr(socket.socket, "sendto", sendto)
    blob = np.random.default_rng(2).integers(0, 256, 100_000, dtype=np.uint8).tobytes()
    a.send(blob, timeout=10)
    assert b.recv(0, len(blob), timeout=10) == blob
    b.send(blob, timeout=10)
    assert a.recv(1, len(blob), timeout=10) == blob
