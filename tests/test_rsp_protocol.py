"""Unit tests for the protocol state machine, no transport involved."""

import struct

import pytest

from eqsim.net import Datagram, DatagramType, RspConfig, RspMember, expand_sequence
from eqsim.net.rsp import (
    HEADER_SIZE,
    NACK_DELAY,
    RATE_DECREASE,
    RATE_INCREASE,
    SEND_RATE_MAX,
    SEND_RATE_MIN,
    validate_nack_ranges,
)
from eqsim.net import RspError


def cfg3(**kw):
    kw.setdefault("members", (0, 1, 2))
    return RspConfig(**kw)


def data_dgram(writer, seq, payload=b"x"):
    return Datagram(DatagramType.DATA, writer, seq, payload)


def ack_dgram(member, target, seq):
    return Datagram(DatagramType.ACK, member, seq, struct.pack("<H", target))


def nack_dgram(member, target, first, last):
    return Datagram(DatagramType.NACK, member, 0, struct.pack("<HBII", target, 1, first, last))


def writer_with_sent(cfg, n):
    """Member 0 of `cfg` after sending n full datagrams at time 0."""
    m = RspMember(0, cfg, now=0.0)
    m.try_enqueue(bytes(cfg.payload_size * n))
    assert [d.sequence for d in m.poll(0.0) if d.type == DatagramType.DATA] == list(range(n))
    return m


def test_header_is_exactly_eight_bytes():
    d = data_dgram(3, 7, b"")
    assert len(d.encode()) == 8
    assert HEADER_SIZE == 8


def test_wire_roundtrip():
    d = Datagram(DatagramType.NACK, 12, 0xDEADBEEF, b"payload", flags=1)
    got = Datagram.decode(d.encode())
    assert (got.type, got.writer_id, got.sequence, got.payload, got.flags) == (
        DatagramType.NACK,
        12,
        0xDEADBEEF,
        b"payload",
        1,
    )


def test_sequence_wraps_with_serial_arithmetic():
    assert expand_sequence((1 << 32) - 1 & 0xFFFFFFFF, (1 << 32) - 2) == (1 << 32) - 1
    # wire wrapped to 3, receiver expects near 2**32
    assert expand_sequence(3, (1 << 32) + 1) == (1 << 32) + 3
    assert expand_sequence(0xFFFFFFFF, 5) == -1  # just before 0


def test_config_validation():
    with pytest.raises(ValueError):
        RspConfig(mtu=63, members=(0,))
    with pytest.raises(ValueError):
        RspConfig(num_buffers=20, members=(0,))
    with pytest.raises(ValueError):
        RspConfig(members=(1, 1))
    cfg = RspConfig(members=(0, 1))
    assert cfg.payload_size == 1470 - 8


def test_nack_range_validation():
    validate_nack_ranges([(0, 4), (6, 6)])
    with pytest.raises(RspError):
        validate_nack_ranges([(4, 2)])
    with pytest.raises(RspError):
        validate_nack_ranges([(0, 4), (4, 8)])


def test_gap_generates_nack_after_delay():
    cfg = cfg3()
    m = RspMember(1, cfg, now=0.0)
    m.protocol_step(data_dgram(0, 0), 0.0)
    m.protocol_step(data_dgram(0, 1), 0.001)
    out = m.protocol_step(data_dgram(0, 3), 0.002)  # gap: 2 missing
    assert all(d.type != DatagramType.NACK for d in out)  # not before nack delay
    reader = m.readers[0]
    assert reader.nack_due == pytest.approx(0.002 + NACK_DELAY)
    sent = m.poll(reader.nack_due)
    nacks = [d for d in sent if d.type == DatagramType.NACK]
    assert len(nacks) == 1
    target, count = nacks[0].payload[0] | nacks[0].payload[1] << 8, nacks[0].payload[2]
    assert (target, count) == (0, 1)
    import struct

    first, last = struct.unpack_from("<II", nacks[0].payload, 3)
    assert (first, last) == (2, 2)


def test_seventeen_consecutive_datagrams_one_periodic_ack():
    for member_id in (1, 2):
        m = RspMember(member_id, cfg3(), now=0.0)
        acks = []
        for seq in range(17):
            out = m.protocol_step(data_dgram(0, seq), seq * 1e-4)
            acks += [d for d in out if d.type == DatagramType.ACK]
        assert m.stats.acks_periodic == 1
        assert len(acks) == 1
        # cumulative ack position is at this member's slot offset
        pos = acks[0].sequence + 1
        assert pos % 17 == member_id % 17


def test_window_slides_when_all_members_ack():
    import struct

    cfg = cfg3()
    m = RspMember(0, cfg, now=0.0)
    m.try_enqueue(bytes(cfg.payload_size * 10))
    sent = m.poll(0.0)
    assert len([d for d in sent if d.type == DatagramType.DATA]) == 10
    assert m.in_flight == 10

    ack = lambda member, seq: Datagram(DatagramType.ACK, member, seq, struct.pack("<H", 0))
    m.protocol_step(ack(1, 9), 0.001)
    assert m.in_flight == 10  # member 2 still pending
    m.protocol_step(ack(2, 4), 0.001)
    assert m.in_flight == 5
    m.protocol_step(ack(2, 9), 0.002)
    assert m.in_flight == 0
    assert m.window_base == 10


def test_nack_causes_retransmission():
    import struct

    cfg = cfg3()
    m = RspMember(0, cfg, now=0.0)
    m.try_enqueue(bytes(cfg.payload_size * 3))
    m.poll(0.0)
    rate_before = m.rate
    payload = struct.pack("<HBII", 0, 1, 1, 1)
    m.protocol_step(Datagram(DatagramType.NACK, 2, 0, payload), 0.01)
    assert m.rate == rate_before - RATE_DECREASE
    out = m.poll(0.01)
    retrans = [d for d in out if d.type == DatagramType.DATA]
    assert [d.sequence for d in retrans] == [1]
    assert retrans[0].flags & 1
    assert m.stats.retransmitted == 1


def test_unknown_writer_counted():
    m = RspMember(1, cfg3(), now=0.0)
    m.protocol_step(data_dgram(99, 0), 0.0)
    assert m.stats.unknown_writer == 1


def test_join_requires_membership():
    from eqsim.net import RspJoinError

    with pytest.raises(RspJoinError):
        RspMember(9, cfg3(), now=0.0)


def test_ackreq_answered_with_ack_or_nack():
    cfg = cfg3()
    m = RspMember(1, cfg, now=0.0)
    for seq in (0, 1, 2):
        m.protocol_step(data_dgram(0, seq), 0.0)
    out = m.protocol_step(Datagram(DatagramType.ACKREQ, 0, 2), 0.01)
    assert [d.type for d in out] == [DatagramType.ACK]
    assert out[0].sequence == 2

    m2 = RspMember(1, cfg, now=0.0)
    m2.protocol_step(data_dgram(0, 0), 0.0)
    out = m2.protocol_step(Datagram(DatagramType.ACKREQ, 0, 4), 0.01)
    types = sorted(d.type for d in out)
    assert DatagramType.NACK in types  # sequences 1..4 missing


def test_ack_that_slides_the_window_raises_the_rate_up_to_the_maximum():
    m = writer_with_sent(RspConfig(members=(0, 1)), 6)
    m.protocol_step(nack_dgram(1, 0, 4, 4), 0.001)
    m.protocol_step(nack_dgram(1, 0, 5, 5), 0.001)
    rate = SEND_RATE_MAX - 2 * RATE_DECREASE
    assert m.rate == rate
    for seq in range(6):
        m.protocol_step(ack_dgram(1, 0, seq), 0.002)
        assert m.window_base == seq + 1
        rate = min(rate + RATE_INCREASE, SEND_RATE_MAX)
        assert (m.rate, m.bucket.fill_rate) == (rate, rate)
    assert 6 * RATE_INCREASE > 2 * RATE_DECREASE  # the last acks hit the cap
    assert m.rate == SEND_RATE_MAX


def test_repeated_nacks_lower_the_rate_down_to_the_minimum():
    m = writer_with_sent(cfg3(), 1)
    rate, now = SEND_RATE_MAX, 0.0
    while rate > SEND_RATE_MIN:
        now += 0.01
        m.protocol_step(nack_dgram(1, 0, 0, 0), now)
        rate = max(rate - RATE_DECREASE, SEND_RATE_MIN)
        assert (m.rate, m.bucket.fill_rate) == (rate, rate)
        # the retransmission clears the schedule, so the next nack counts
        assert [d.sequence for d in m.poll(now) if d.type == DatagramType.DATA] == [0]
    m.protocol_step(nack_dgram(2, 0, 0, 0), now + 0.01)
    assert m.rate == SEND_RATE_MIN


def test_ack_that_slides_nothing_leaves_the_rate():
    m = writer_with_sent(cfg3(), 3)
    m.protocol_step(nack_dgram(1, 0, 2, 2), 0.001)
    rate = SEND_RATE_MAX - RATE_DECREASE
    m.protocol_step(ack_dgram(1, 0, 1), 0.002)  # member 2 has acked nothing
    assert (m.window_base, m.rate) == (0, rate)
    m.protocol_step(ack_dgram(2, 0, 0), 0.002)
    assert m.window_base == 1
    rate += RATE_INCREASE
    m.protocol_step(ack_dgram(2, 0, 0), 0.003)  # a repeated ack
    m.protocol_step(ack_dgram(2, 1, 2), 0.003)  # an ack for another writer
    assert m.window_base == 1
    assert (m.rate, m.bucket.fill_rate) == (rate, rate)


def test_unknown_writers_and_types_counted_once_each():
    m = RspMember(1, cfg3(), now=0.0)
    for dtype in DatagramType:
        m.protocol_step(Datagram(dtype, 99, 0, struct.pack("<HBII", 1, 1, 0, 0)), 0.0)
    assert m.stats.unknown_writer == len(DatagramType)
    m.protocol_step(Datagram(7, 0, 0, b""), 0.0)  # a known writer, an unknown type
    assert m.stats.unknown_writer == len(DatagramType) + 1
    m.protocol_step(Datagram(DatagramType.ACK, 0, 0, b"\x01"), 0.0)  # short, but known
    assert m.stats.unknown_writer == len(DatagramType) + 1
