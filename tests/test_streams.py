import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqsim.codec import (
    MAX_CHUNK_SIZE,
    InputStream,
    OutputStream,
    RleDecodeError,
    StreamClosedError,
    UnderflowError,
    UnknownEngineError,
    frame_chunk,
    get_engine,
    registered_engines,
    rle_compress,
    rle_decompress,
    unframe_chunk,
)
from eqsim.codec import rle
from eqsim.codec.streams import iter_frames


def frames_of(pieces: list) -> list:
    """The framed chunks in what an OutputStream handed its sink."""
    return list(iter_frames(b"".join(pieces)))


def roundtrip(data: bytes, chunk_size: int, engine=None) -> bytes:
    chunks = []
    out = OutputStream(chunks.append, chunk_size=chunk_size, engine=engine)
    out.write(data)
    out.flush()
    ins = InputStream(frames_of(chunks))
    return ins.read(len(data))


def test_engine_table_and_unknown_engines():
    # the wire ids are part of the chunk format
    assert [(e.name, e.wire_id) for e in registered_engines()] == [("rle", 1), ("fast", 2), ("ratio", 3)]
    with pytest.raises(UnknownEngineError):
        get_engine("zstd")
    with pytest.raises(UnknownEngineError, match="wire id 9"):
        unframe_chunk(frame_chunk(b"data", 9))


def test_write_zero_bytes_emits_nothing():
    chunks = []
    out = OutputStream(chunks.append, chunk_size=4096)
    out.write(b"")
    out.flush()
    assert chunks == []


def test_chunk_count_at_threshold():
    chunks = []
    out = OutputStream(chunks.append, chunk_size=4096)
    out.write(bytes(10000))
    assert len(frames_of(chunks)) == 2  # two full chunks during write
    out.flush()
    assert len(frames_of(chunks)) == 3  # remainder on flush
    payload_sizes = [len(c) - 5 for c in frames_of(chunks)]
    assert payload_sizes == [4096, 4096, 10000 - 2 * 4096]


@pytest.mark.parametrize("chunk_size", [64, 4096, 65536])
@pytest.mark.parametrize("engine_name", [None, "rle", "fast", "ratio"])
def test_chunk_stream_equivalence(chunk_size, engine_name):
    engine = get_engine(engine_name) if engine_name else None
    import numpy as np

    data = np.random.default_rng(chunk_size).integers(0, 8, 200_000, dtype=np.uint8).tobytes()
    assert roundtrip(data, chunk_size, engine) == data


def test_read_zero():
    ins = InputStream([])
    assert ins.read(0) == b""


def test_read_past_end_raises():
    chunks = []
    out = OutputStream(chunks.append, chunk_size=64)
    out.write(b"hello")
    out.flush()
    ins = InputStream(frames_of(chunks))
    assert ins.read(5) == b"hello"
    with pytest.raises(UnderflowError):
        ins.read(1)


def test_sink_failure_makes_stream_unusable():
    def sink(chunk):
        raise IOError("sink gone")

    out = OutputStream(sink, chunk_size=4)
    with pytest.raises(IOError):
        out.write(bytes(8))
    with pytest.raises(StreamClosedError):
        out.write(b"x")


def test_primitives_are_little_endian_on_the_wire():
    values = [("u32", "<I", 0x01020304), ("u64", "<Q", 0x0102030405060708), ("i64", "<q", -2), ("f64", "<d", 1.5)]
    for kind, fmt, v in values:
        chunks = []
        out = OutputStream(chunks.append)
        getattr(out, f"write_{kind}")(v)
        out.flush()
        assert InputStream(frames_of(chunks)).read(struct.calcsize(fmt)) == struct.pack(fmt, v)
        assert getattr(InputStream(frames_of(chunks)), f"read_{kind}")() == v


PRIMS = [
    ("u32", st.integers(0, 2**32 - 1)),
    ("u64", st.integers(0, 2**64 - 1)),
    ("i64", st.integers(-(2**63), 2**63 - 1)),
    ("f64", st.floats(allow_nan=False)),
]


@given(
    st.lists(
        st.sampled_from(range(len(PRIMS))).flatmap(
            lambda i: st.tuples(st.just(PRIMS[i][0]), PRIMS[i][1])
        ),
        min_size=1,
        max_size=50,
    ),
)
def test_primitive_roundtrip_across_endianness(values):
    chunks = []
    out = OutputStream(chunks.append, chunk_size=32)
    for kind, v in values:
        getattr(out, f"write_{kind}")(v)
    out.flush()
    ins = InputStream(frames_of(chunks))
    for kind, v in values:
        assert getattr(ins, f"read_{kind}")() == v


def test_reference_encoder_oracle():
    # independent encoder: plain struct packing in little-endian order
    import random

    rng = random.Random(42)
    values = [rng.getrandbits(32) for _ in range(1000)]
    blob = b"".join(struct.pack("<I", v) for v in values)
    chunks = []
    out = OutputStream(chunks.append, chunk_size=512)
    out.write(blob)
    out.flush()
    ins = InputStream(frames_of(chunks))
    assert [ins.read_u32() for _ in values] == values


def test_string_roundtrip():
    chunks = []
    out = OutputStream(chunks.append)
    out.write_string("compound tree")
    out.write_string("")
    out.flush()
    ins = InputStream(frames_of(chunks))
    assert ins.read_string() == "compound tree"
    assert ins.read_string() == ""


def _mixed_writes():
    """Writes that start mid-chunk, fill a chunk exactly, span several
    chunks and end mid-chunk, over every kind of buffer a caller may pass."""
    rng = np.random.default_rng(11)
    return [
        b"head!",
        rng.integers(0, 4, 300, dtype=np.uint8).tobytes(),
        bytearray(rng.integers(0, 4, 15, dtype=np.uint8).tobytes()),
        memoryview(rng.integers(0, 4, 192, dtype=np.uint8).tobytes()),
        rng.integers(0, 3, 50, dtype=np.int32),
        np.zeros((4, 10), dtype=np.uint8),
        b"tail",
    ]


# SHA-256 of the frames emitted for the bytes of `_mixed_writes` at chunk
# size 64, recorded before whole chunks were emitted straight from the
# caller's data
PINNED_FRAMES = {
    None: "91e3665d4e3df9fb77beb721d256721be1bcd7622e4361652699ca2cf47f2f37",
    "rle": "de72f74af15cbd4ae2d1e12bbeb4572f72c378f17b323c352e63f115cac40a01",
}


@pytest.mark.parametrize("engine_name", [None, "rle"])
def test_chunk_frames_pinned_for_mixed_writes(engine_name):
    engine = get_engine(engine_name) if engine_name else None
    pieces = []
    out = OutputStream(pieces.append, chunk_size=64, engine=engine)
    writes = _mixed_writes()
    for data in writes:
        out.write(data)
    out.flush()
    frames = frames_of(pieces)
    flat = b"".join(memoryview(data).tobytes() for data in writes)
    expected = [
        frame_chunk(engine.compress(flat[i : i + 64]), engine.wire_id) if engine else frame_chunk(flat[i : i + 64], 0)
        for i in range(0, len(flat), 64)
    ]
    assert frames == expected
    # every chunk comes as a 5-byte header in bytes, then the chunk: the
    # engine's bytes, or without one a read-only view of bytes or of the
    # stream's own retired buffer, never of the caller's mutable memory
    assert len(pieces) == 2 * len(expected)
    assert all(type(p) is bytes and len(p) == 5 for p in pieces[::2])
    if engine:
        assert all(type(p) is bytes for p in pieces[1::2])
    else:
        for chunk in pieces[1::2]:
            assert chunk.readonly
            assert isinstance(chunk.obj, bytes) or (
                type(chunk.obj) is bytearray and not any(chunk.obj is data for data in writes)
            )
    assert hashlib.sha256(b"".join(pieces)).hexdigest() == PINNED_FRAMES[engine_name]
    assert InputStream(frames).read(len(flat)) == flat


def test_bytes_written_counts_bytes_of_any_buffer():
    out = OutputStream(lambda frame: None, chunk_size=64)
    writes = _mixed_writes()
    for data in writes:
        out.write(data)
    assert out.bytes_written == sum(memoryview(data).nbytes for data in writes)


def _frames(data: bytes, chunk_size: int, engine=None) -> list:
    pieces = []
    out = OutputStream(pieces.append, chunk_size=chunk_size, engine=engine)
    out.write(data)
    out.flush()
    return frames_of(pieces)


@pytest.mark.parametrize("engine_name", [None, "rle"])
@given(st.lists(st.integers(0, 200), max_size=30))
def test_reads_span_many_chunks(engine_name, sizes):
    engine = get_engine(engine_name) if engine_name else None
    data = np.random.default_rng(5).integers(0, 3, 2000, dtype=np.uint8).tobytes()
    ins = InputStream(_frames(data, 16, engine))
    pos = 0
    for n in sizes:
        if pos + n > len(data):
            break
        assert ins.read(n) == data[pos : pos + n]
        pos += n
        assert ins.position == pos
    assert ins.read(len(data) - pos) == data[pos:]
    with pytest.raises(UnderflowError):
        ins.read(1)


@pytest.mark.parametrize("engine_name", [None, "rle"])
def test_read_returns_bytes(engine_name):
    engine = get_engine(engine_name) if engine_name else None
    data = bytes(range(256)) * 4
    ins = InputStream(_frames(data, 64, engine))
    # inside one chunk, exactly one chunk, across chunks, the rest
    reads = [ins.read(n) for n in (10, 54, 64, 200, len(data) - 328)]
    assert all(type(r) is bytes for r in reads)
    assert b"".join(reads) == data


def test_underflow_consumes_nothing():
    ins = InputStream(_frames(b"abcdefgh" * 3, 8))  # three chunks
    assert ins.read(3) == b"abc"
    with pytest.raises(UnderflowError):
        ins.read(30)
    assert ins.position == 3
    assert ins.read(5) == b"defgh"
    assert ins.position == 8


def test_chunk_size_is_bounded(monkeypatch):
    OutputStream(lambda piece: None, chunk_size=MAX_CHUNK_SIZE)
    for size in (0, MAX_CHUNK_SIZE + 1):
        with pytest.raises(ValueError):
            OutputStream(lambda piece: None, chunk_size=size)
    monkeypatch.setattr(rle, "MAX_CHUNK_SIZE", 1024)
    assert rle_decompress(rle_compress(bytes(1024))) == bytes(1024)
    with pytest.raises(ValueError):
        rle_compress(bytes(1025))


def test_rle_rejects_a_count_past_the_chunk_bound_before_expanding():
    # bit 30 of the first control word turns 8 zero words into 2^25 + 8
    corrupt = bytearray(rle_compress(bytes(64)))
    corrupt[3] ^= 0x40
    tracemalloc.start()
    try:
        with pytest.raises(RleDecodeError, match="expand past"):
            rle_decompress(bytes(corrupt))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rle_decodes_up_to_the_chunk_bound(monkeypatch):
    literal = bytes(range(256)) * 4 + b"z"  # one literal block, no run
    too_long = [
        rle_compress(data) for data in (bytes(1025), b"x" * 8 + bytes(1024), bytes(512) + b"y" * 1024, literal)
    ]
    monkeypatch.setattr(rle, "MAX_CHUNK_SIZE", 1024)
    assert rle_decompress(rle_compress(bytes(1024))) == bytes(1024)
    assert rle_decompress(rle_compress(bytes(1020))) == bytes(1020)
    assert rle_decompress(rle_compress(literal[:1024])) == literal[:1024]
    for packed in too_long:
        with pytest.raises(RleDecodeError, match="expand past"):
            rle_decompress(packed)
