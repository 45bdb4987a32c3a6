"""End-to-end properties of the protocol over the simulated transport."""

import hashlib
import json

import numpy as np
import pytest

from eqsim.net import (
    RSP_MULTICAST,
    ConnectionDescription,
    DatagramType,
    EndpointClosedError,
    MemberLostError,
    RspConfig,
    RspJoinError,
    SimStallError,
    SimTransport,
)
from eqsim.net.rsp import ACK_TIMEOUT, BEACON_INTERVAL, SEND_RATE_MAX

GROUP = ConnectionDescription(RSP_MULTICAST, "239.1.1.1", 4000)


def make_group(member_ids, seed=0, cfg=None, **impairments):
    cfg = cfg or RspConfig(members=tuple(member_ids))
    transport = SimTransport(seed=seed, **impairments)
    eps = {i: transport.join(GROUP, cfg, i) for i in member_ids}
    group = transport.groups[(GROUP.host, GROUP.port)]
    return cfg, transport, eps, group


def payload(size, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()


def test_lossless_delivery_three_members():
    _, _, eps, _ = make_group([0, 1, 2])
    data = payload(100_000)
    eps[0].send(data)
    assert eps[1].recv(0, len(data)) == data
    assert eps[2].recv(0, len(data)) == data


def test_single_member_group_reads_nothing():
    cfg, _, eps, group = make_group([4])
    eps[4].send(b"hello" * 1000)
    eps[4].flush()
    assert eps[4].member.readers == {}
    assert eps[4].member.write_idle


def test_duplicate_writer_id_join_error():
    cfg, transport, _, _ = make_group([0, 1])
    with pytest.raises(RspJoinError, match="already joined"):
        transport.join(GROUP, cfg, 0)


def test_mismatched_mtu_join_error():
    cfg, transport, _, _ = make_group([0, 1])
    other = RspConfig(mtu=1470 * 2, members=(0, 1))
    with pytest.raises(RspJoinError, match="mtu"):
        transport.join(GROUP, other, 1)


def test_send_zero_bytes_no_datagram():
    _, _, eps, group = make_group([0, 1])
    eps[0].send(b"")
    assert eps[0].member.stats.data_sent == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lossy_stream_byte_identical(seed):
    _, _, eps, group = make_group(
        [0, 1, 2], seed=seed, loss=0.02, duplicate=0.005, reorder=0.01
    )
    data = payload(2 << 20, seed)
    eps[0].send(data)
    assert eps[1].recv(0, len(data)) == data
    assert eps[2].recv(0, len(data)) == data
    assert sum(m.stats.retransmitted for m in group.members.values()) > 0


def test_heavy_loss_still_correct():
    _, _, eps, _ = make_group([0, 1], seed=5, loss=0.25, duplicate=0.05, reorder=0.1)
    data = payload(200_000, 5)
    eps[0].send(data)
    assert eps[1].recv(0, len(data)) == data


def test_bidirectional_streams():
    _, _, eps, _ = make_group([0, 1, 2], seed=9, loss=0.05)
    blobs = {i: payload(300_000, i) for i in (0, 1, 2)}
    for i, blob in blobs.items():
        eps[i].send(blob)
    for reader in (0, 1, 2):
        for writer in (0, 1, 2):
            if reader != writer:
                assert eps[reader].recv(writer, len(blobs[writer])) == blobs[writer]


def test_in_flight_never_exceeds_num_buffers_with_slow_consumer():
    cfg, _, eps, group = make_group([0, 1], seed=11)
    eps[1].set_consume_rate(0, SEND_RATE_MAX / 2)
    data = payload(4 << 20, 11)
    eps[0].send(data)
    got = eps[1].recv(0, len(data))
    assert got == data
    assert eps[0].member.max_in_flight <= cfg.num_buffers


def test_deterministic_replay():
    def run():
        _, transport, eps, group = make_group(
            [0, 1, 2], seed=13, loss=0.05, duplicate=0.01, reorder=0.02
        )
        data = payload(500_000, 13)
        eps[0].send(data)
        eps[1].recv(0, len(data))
        eps[2].recv(0, len(data))
        return group.trace

    first, second = run(), run()
    assert first == second


def test_ack_cadence_17000_datagrams():
    cfg, _, eps, group = make_group([0, 1, 2])
    data = bytes(cfg.payload_size * 1700)  # 1700 datagrams -> 100 periodic acks
    eps[0].send(data)
    for i in (1, 2):
        eps[i].recv(0, len(data))
    eps[0].flush()
    assert group.members[0].stats.data_sent == 1700
    for i in (1, 2):
        assert group.members[i].stats.acks_periodic == 100


def test_no_duplication_in_stream_with_injected_duplicates():
    _, _, eps, group = make_group([0, 1], seed=17, duplicate=0.3)
    data = payload(500_000, 17)
    eps[0].send(data)
    assert eps[1].recv(0, len(data)) == data
    assert group.members[1].stats.duplicates_dropped > 0
    # nothing beyond the stream ever appears
    assert eps[1].member.readable(0) == 0



def _event_times(trace):
    return [entry[1] for entry in trace if entry[0] in ("tx", "rx")]


def test_recv_timeout_stops_at_its_deadline():
    _, _, eps, group = make_group([0, 1])
    with pytest.raises(SimStallError):
        eps[1].recv(0, 100, max_virtual=1e-5)
    assert group.clock == 1e-5
    # the beacons go out at 0; their arrival at ~1e-4 lies past the deadline
    assert max(_event_times(group.trace)) <= 1e-5


def test_send_stall_stops_at_its_deadline():
    cfg = RspConfig(members=(0, 1), num_buffers=64)
    _, _, eps, group = make_group([0, 1], seed=3, cfg=cfg)
    eps[1].pause_consumption(0)
    group.run_for(0.01)
    start = group.clock
    with pytest.raises(SimStallError, match="send stalled"):
        eps[0].send(bytes(3 * 64 * cfg.payload_size), max_virtual=0.03)
    assert group.clock == start + 0.03
    assert max(_event_times(group.trace)) <= start + 0.03


def test_paused_reader_throttles_writer_and_resumes_intact():
    cfg = RspConfig(members=(0, 1), num_buffers=64)
    _, _, eps, group = make_group([0, 1], seed=81, cfg=cfg)
    writer, reader = group.members[0], group.members[1]
    eps[1].pause_consumption(0)
    data = payload(4 * cfg.num_buffers * cfg.payload_size, 81)
    sent = 0
    for _ in range(4):  # queue what fits, never blocking in send
        room = writer.send_room
        eps[0].send(data[sent : sent + room])
        sent += room
        group.run_for(0.02)
    assert sent < len(data)
    # the reader holds a full backlog and consumes nothing
    assert reader.readable(0) == cfg.num_buffers * cfg.payload_size
    assert not group.sink(1, 0).buffer
    assert writer.in_flight == cfg.num_buffers
    assert writer.max_in_flight <= cfg.num_buffers

    # throttled, the writer sends no fresh data but keeps probing the group
    data_sent, mark, start = writer.stats.data_sent, len(group.trace), group.clock
    group.run_for(0.2)
    probes = [e[3] for e in group.trace[mark:] if e[0] == "tx" and e[2] == 0]
    assert writer.stats.data_sent == data_sent
    assert writer.in_flight == cfg.num_buffers
    assert probes.count(DatagramType.ACKREQ) >= 0.2 / ACK_TIMEOUT - 1
    assert probes.count(DatagramType.BEACON) >= 0.2 / BEACON_INTERVAL - 1
    assert group.clock == start + 0.2

    # on resume the very next step drains the backlog
    eps[1].pause_consumption(0, False)
    group.step()
    assert reader.readable(0) == 0
    assert len(group.sink(1, 0).buffer) == cfg.num_buffers * cfg.payload_size
    eps[0].send(data[sent:])
    assert eps[1].recv(0, len(data)) == data


def test_consume_rate_change_mid_stream_takes_effect():
    cfg, _, eps, group = make_group([0, 1], seed=91)
    slow, fast, span = 64 << 10, 8 << 20, 0.05
    eps[1].set_consume_rate(0, slow)
    data = payload(1 << 20, 91)
    eps[0].send(data)
    sink = group.sink(1, 0)

    start = group.clock
    group.run_for(span)
    assert group.clock == start + span
    before = len(sink.buffer)
    assert abs(before - slow * span) <= 2 * cfg.payload_size

    eps[1].set_consume_rate(0, fast)
    start = group.clock
    group.run_for(span)
    assert group.clock == start + span
    assert abs(len(sink.buffer) - before - fast * span) <= 2 * cfg.payload_size

    eps[1].set_consume_rate(0, None)
    assert eps[1].recv(0, len(data)) == data


def test_silent_member_fails_the_writers_send():
    # member 2 is in the group's member list but never answers: it neither
    # acknowledges nor nacks, so each ack request counts as one stall
    cfg = RspConfig(members=(0, 1, 2), num_buffers=64, max_ack_timeouts=5)
    transport = SimTransport(seed=5)
    eps = {i: transport.join(GROUP, cfg, i) for i in (0, 1)}
    group = transport.groups[(GROUP.host, GROUP.port)]
    with pytest.raises(MemberLostError, match="member 2 unresponsive for 5 ack timeouts"):
        eps[0].send(bytes(4 * cfg.num_buffers * cfg.payload_size), max_virtual=1.0)
    # a few ack timeouts after the window filled, not the one-second deadline
    assert group.clock < 2 * cfg.max_ack_timeouts * ACK_TIMEOUT
    assert group.failure == group.members[0].failed
    # the loss stays on the group: every later wait on it fails at once
    clock = group.clock
    with pytest.raises(MemberLostError):
        eps[1].recv(0, 1 << 20)
    with pytest.raises(MemberLostError):
        eps[0].send(b"more")
    assert group.clock == clock


def test_closed_endpoint_raises_endpoint_closed_error():
    _, _, eps, _ = make_group([0, 1])
    eps[0].close()
    with pytest.raises(EndpointClosedError):
        eps[0].send(b"late")
    with pytest.raises(EndpointClosedError):
        eps[0].recv(1, 1)
    with pytest.raises(EndpointClosedError):
        eps[0].flush()


# --- golden traces -------------------------------------------------------------
#
# Each scenario drives a group through one schedule; its SHA-256 over the
# JSON-encoded trace and its final virtual clock are pinned, so a scheduler
# change that reorders, adds or drops a single event fails here even when
# the streams still arrive intact.


def _send_all(eps, writers, size, seed):
    blobs = {w: payload(size, seed + w) for w in writers}
    for w in writers:
        eps[w].send(blobs[w])
    for reader, ep in eps.items():
        for w in writers:
            if reader != w:
                assert ep.recv(w, size) == blobs[w]


def _golden_members(n, loss=0.0):
    def run():
        _, _, eps, group = make_group(range(n), seed=n, loss=loss)
        _send_all(eps, [0], 200_000, n)
        return group

    return run


def _golden_impaired():
    _, _, eps, group = make_group(range(3), seed=31, loss=0.05, duplicate=0.02, reorder=0.05)
    _send_all(eps, [0], 300_000, 31)
    return group


def _golden_two_writers():
    _, _, eps, group = make_group(range(3), seed=41, loss=0.02)
    _send_all(eps, [0, 1], 200_000, 41)
    return group


def _golden_rate_limited():
    _, _, eps, group = make_group([0, 1], seed=51, loss=0.01)
    eps[1].set_consume_rate(0, 2 << 20)
    data = payload(300_000, 51)
    eps[0].send(data)
    group.run_for(0.05)
    eps[1].set_consume_rate(0, 8 << 20)
    assert eps[1].recv(0, len(data)) == data
    return group


def _golden_backlogged():
    # a 1 MiB/s reader fills the 64-datagram window, so the sink's pacing
    # decides when the writer may send: the digest depends on the rate
    cfg = RspConfig(members=(0, 1), num_buffers=64)
    _, _, eps, group = make_group([0, 1], seed=81, cfg=cfg, loss=0.01)
    eps[1].set_consume_rate(0, 1 << 20)
    data = payload(300_000, 81)
    eps[0].send(data)
    assert eps[1].recv(0, len(data)) == data
    assert group.members[0].max_in_flight == cfg.num_buffers
    return group


def _golden_paused():
    cfg = RspConfig(members=(0, 1, 2), num_buffers=64)
    _, _, eps, group = make_group(range(3), seed=61, cfg=cfg, loss=0.02)
    eps[2].pause_consumption(0)
    data = payload(200_000, 61)
    room = eps[0].member.send_room
    eps[0].send(data[:room])
    group.run_for(0.08)
    eps[2].pause_consumption(0, False)
    eps[0].send(data[room:])
    for reader in (1, 2):
        assert eps[reader].recv(0, len(data)) == data
    return group


def _golden_idle_tail():
    _, _, eps, group = make_group([0, 1], seed=71)
    _send_all(eps, [0], 100_000, 71)
    group.run_for(0.3)
    return group


def _golden_rsp_op():
    # the `rsp` benchmark op three times: 8 members at 1% loss, member 0
    # sends a 64 KiB message, then members 1-7 read it in turn
    _, _, eps, group = make_group(range(8), seed=7, loss=0.01)
    for i in range(3):
        data = payload(64 << 10, 7 + i)
        eps[0].send(data)
        for reader in range(1, 8):
            assert eps[reader].recv(0, len(data)) == data
    return group


GOLDEN_SCENARIOS = {
    "members2": _golden_members(2),
    "members3": _golden_members(3),
    "members4": _golden_members(4),
    "members8": _golden_members(8),
    "members8_loss": _golden_members(8, loss=0.02),
    "impaired": _golden_impaired,
    "two_writers": _golden_two_writers,
    "rate_limited": _golden_rate_limited,
    "rsp_op": _golden_rsp_op,
    "backlogged": _golden_backlogged,
    "paused": _golden_paused,
    "idle_tail": _golden_idle_tail,
}

# recorded with the full-scan scheduler that preceded the timer heap; the
# final clock of `rate_limited` since a sink's rate change settles the
# credits earned at the old rate; `backlogged` was recorded with the timer heap
GOLDEN = {
    "backlogged": (
        "801236a401ce090655a181dc143491d526b2f868fa54718778ed0a9e2765b584",
        0.286102294921875,
    ),
    "idle_tail": (
        "09bf3ebb7cd3274bc92cd65531232a6606f76d2d299434b921ff8439ad1edbf4",
        0.3002548914462984,
    ),
    "impaired": (
        "1b9a12537f977815f7c021b656e4169ca5ffe8684a77edaf342481f3b36ac5bf",
        0.010874800269075004,
    ),
    "members2": (
        "f28154db87767534b7e8b61f6ddab933fa2d5d6306b1b5dbd704ab51630a5a5e",
        0.00044995569874957967,
    ),
    "members3": (
        "c333d94026117ac336f514d0c5074893e181e7fcd97bd54790e4cc2cd3662ec3",
        0.0004405072194812283,
    ),
    "members4": (
        "00974146b03ad981862ccae5526160eb3a1c7dbc892ee5f8160443c4ab0b4e06",
        0.00044434730816000456,
    ),
    "members8": (
        "3616d9592363c55b8076a1c0c7a1efbf06cd41509ab83d8b640d339e6bc3d271",
        0.00045049593613513407,
    ),
    "members8_loss": (
        "6c00d8a12885e1132ac37264787ca146b948c9e58d1253b6d7c4e2a8703ed31d",
        0.0015043010173073337,
    ),
    "paused": (
        "ce27ee9b727bd3ba2cb84708b5159c83d05498e76b214879647d0b839c4189a6",
        0.08155567422444106,
    ),
    "rate_limited": (
        "473ef2bd5769ede68bdfb107508ae13be6af83b6a2b4a16b46624bbffb4b7c6c",
        0.07326278686523438,
    ),
    "rsp_op": (
        "c798dc10d5c1a2675415ff4051dfb0a6c4b6287caf4efff7a3e40ca26bb7da27",
        0.022196548375217767,
    ),
    "two_writers": (
        "cadc2032c0f654ef689a44ae0797261b5354debf9e583becc7e99766e9a227be",
        0.010653115598136502,
    ),
}


def trace_digest(group):
    return hashlib.sha256(json.dumps(group.trace).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_golden_trace(name):
    group = GOLDEN_SCENARIOS[name]()
    assert (trace_digest(group), group.clock) == GOLDEN[name]
