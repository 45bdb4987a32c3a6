"""ByteQueue against a plain `bytes` reference of the queued stream."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsim.bytequeue import ByteQueue

pieces = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=40),
    st.binary(min_size=1, max_size=40).map(memoryview),
    # a view into the middle of a larger buffer
    st.binary(min_size=3, max_size=40).map(lambda b: memoryview(b)[1:-1]),
)
ops = st.one_of(
    st.tuples(st.just("append"), pieces),
    st.tuples(st.just("take"), st.floats(0.0, 1.0)),
    st.tuples(st.just("exact"), st.binary(min_size=1, max_size=40)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ops, max_size=60))
def test_takes_match_the_concatenated_stream(steps):
    queue = ByteQueue()
    stream = b""  # bytes appended and not yet taken
    lengths = []  # unread bytes of each piece not yet fully taken
    for op, arg in steps:
        if op == "take":
            n = int(arg * len(stream))
            got = queue.take(n)
            assert type(got) is bytes
            assert got == stream[:n]
            stream = stream[n:]
            while n and n >= lengths[0]:
                n -= lengths.pop(0)
            if n:
                lengths[0] -= n
        elif op == "exact":
            # a bytes piece taken whole, with nothing queued before it, is
            # handed over as the same object
            queue.take(len(stream))
            stream, lengths = b"", []
            queue.append(arg)
            assert queue.take(len(arg)) is arg
        else:
            queue.append(arg)
            stream += bytes(arg)
            if len(arg):
                lengths.append(len(arg))
        assert len(queue) == len(stream)
        assert queue.pieces == len(lengths)


def test_take_beyond_the_queued_bytes_raises_and_consumes_nothing():
    queue = ByteQueue()
    queue.append(b"abc")
    with pytest.raises(ValueError):
        queue.take(4)
    with pytest.raises(ValueError):
        queue.take(-1)
    assert queue.take(0) == b""
    assert queue.take(3) == b"abc"
    assert len(queue) == 0 and queue.pieces == 0
