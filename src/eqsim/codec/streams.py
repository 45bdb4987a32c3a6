"""Buffered byte streams with chunked emission and per-chunk compression.

OutputStream aggregates writes and hands fixed-size chunks to a sink.
Emission happens per write span: each write frames its run of whole
chunks at once and gives the sink that run's pieces, so serialization
overlaps with whatever the sink does (network send, file write) from one
write to the next.  A partial chunk waits in a buffer for the next write
or the flush.  Chunk framing on the wire:

    u32 LE payload length | u8 codec wire id | payload

What the sink receives, concatenated, is the framed chunk stream; a sink
that needs the frames one by one joins its pieces and splits them with
`iter_frames`.  Every chunk reaches the sink as two pieces, never
concatenated, so whoever joins the pieces makes the only copy of the
payload: the 5-byte header as `bytes`, then the chunk.  With an engine
the chunk is the `bytes` its `compress_span` returned; without one it is
a read-only view of memory that never changes: a chunk that lies in an
immutable `bytes`, or in a buffer the stream has retired, goes as a view
of it, and a chunk of any other caller memory (bytearray, numpy array,
writable memoryview) is copied during `write`, so a caller may reuse its
buffer once `write` returns.

No chunk is larger than MAX_CHUNK_SIZE (64 MiB): an OutputStream rejects
a larger `chunk_size`, and the rle decoder rejects a chunk that would
expand past it before it allocates.

Multi-byte primitives are little-endian on the wire, whatever the byte
order of the host.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, Iterator, Optional, Union

from ..bytequeue import ByteQueue
from .engines import WIRE_ID_NONE, CompressionEngine, chunkwise, get_engine_by_wire_id
from .rle import MAX_CHUNK_SIZE

DEFAULT_CHUNK_SIZE = 64 * 1024

_CHUNK_HEADER = struct.Struct("<IB")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

# without an engine a chunk goes out as it lies in the span
_as_views = chunkwise(lambda chunk: chunk)


class StreamError(Exception):
    pass


class StreamClosedError(StreamError):
    pass


class UnderflowError(StreamError):
    """Read past the end of the stream."""


def frame_chunk(payload: bytes, wire_id: int) -> bytes:
    """One framed chunk.  An OutputStream hands its sink the same bytes as
    two pieces, the header and then the payload."""
    return _CHUNK_HEADER.pack(len(payload), wire_id) + payload


def iter_frames(blob: bytes) -> Iterator[memoryview]:
    """Split a concatenation of framed chunks back into individual chunks,
    yielded as views of `blob` (no chunk is copied)."""
    view = memoryview(blob)
    pos = 0
    while pos < len(blob):
        if len(blob) - pos < _CHUNK_HEADER.size:
            raise StreamError("trailing bytes shorter than a chunk header")
        length, _ = _CHUNK_HEADER.unpack_from(blob, pos)
        end = pos + _CHUNK_HEADER.size + length
        if end > len(blob):
            raise StreamError("truncated chunk")
        yield view[pos:end]
        pos = end


def unframe_chunk(chunk: bytes) -> Union[bytes, memoryview]:
    """Strip framing and decompress.  Returns the original payload: a view
    of `chunk` when it was sent uncompressed, else what the engine's
    `decompress` returns (bytes or a read-only view)."""
    if len(chunk) < _CHUNK_HEADER.size:
        raise StreamError("short chunk header")
    length, wire_id = _CHUNK_HEADER.unpack_from(chunk)
    payload = memoryview(chunk)[_CHUNK_HEADER.size :]
    if len(payload) != length:
        raise StreamError(f"chunk length mismatch: header {length}, got {len(payload)}")
    if wire_id == WIRE_ID_NONE:
        return payload
    return get_engine_by_wire_id(wire_id).decompress(payload)


class OutputStream:
    """Single-owner buffered writer handing the framed chunk stream to
    `sink` in pieces."""

    def __init__(
        self,
        sink: Callable[[Union[bytes, memoryview]], None],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        engine: Optional[CompressionEngine] = None,
    ):
        if not 1 <= chunk_size <= MAX_CHUNK_SIZE:
            raise ValueError(f"chunk_size must lie in 1..{MAX_CHUNK_SIZE}")
        self._sink = sink
        self.chunk_size = chunk_size
        self.engine = engine
        self._wire_id = WIRE_ID_NONE if engine is None else engine.wire_id
        self._code = _as_views if engine is None else engine.compress_span
        self._buffer = bytearray()
        self._closed = False
        self.bytes_written = 0

    def _emit(self, span: memoryview) -> None:
        """Cut `span` into whole chunks and at most one partial one at its
        end, code them with the engine if there is one, and hand the sink
        each chunk's header, then the chunk.  Without an engine the chunks
        go as views of `span`, which must be memory that never changes."""
        chunks = self._code(span, self.chunk_size)
        try:
            for chunk in chunks:
                self._sink(_CHUNK_HEADER.pack(len(chunk), self._wire_id))
                self._sink(chunk)
        except Exception:
            self._closed = True  # sink failed, stream unusable
            raise

    def write(self, data) -> None:
        """Append any C-contiguous bytes-like object.  The whole chunks are
        framed in one span straight from `data`, or, without an engine,
        from one copy of them unless `data` lies in a `bytes`; only a
        partial chunk at either end is buffered."""
        if self._closed:
            raise StreamClosedError("write on closed stream")
        view = memoryview(data).cast("B")
        self.bytes_written += len(view)
        pos = 0
        if self._buffer:
            pos = min(len(view), self.chunk_size - len(self._buffer))
            self._buffer += view[:pos]
            if len(self._buffer) < self.chunk_size:
                return
            self._emit_buffer()
        end = len(view) - (len(view) - pos) % self.chunk_size
        if end > pos:
            span = view[pos:end]
            if self.engine is None and not isinstance(view.obj, bytes):
                span = memoryview(span.tobytes())  # the caller may change its memory
            self._emit(span)
        self._buffer += view[end:]

    def _emit_buffer(self) -> None:
        # the retired buffer is never written again, so its chunks may go as views
        payload, self._buffer = self._buffer, bytearray()
        self._emit(memoryview(payload).toreadonly())

    def flush(self) -> None:
        if self._closed:
            raise StreamClosedError("flush on closed stream")
        if self._buffer:
            self._emit_buffer()

    # primitives, little-endian on the wire

    def write_u32(self, v: int) -> None:
        self.write(_U32.pack(v))

    def write_u64(self, v: int) -> None:
        self.write(_U64.pack(v))

    def write_i64(self, v: int) -> None:
        self.write(_I64.pack(v))

    def write_f64(self, v: float) -> None:
        self.write(_F64.pack(v))

    def write_string(self, s: str) -> None:
        raw = s.encode("utf-8")
        self.write_u32(len(raw))
        self.write(raw)


class InputStream:
    """Single-owner reader over a chunk producer.

    `source` is an iterable of framed chunks, as `iter_frames` splits
    them out of what an OutputStream's sink received; the stream ends
    where the iterable does.  Decoded payloads wait in a `ByteQueue`, so a
    read copies its bytes once, out of the payloads.
    """

    def __init__(self, source: Iterable[bytes]):
        self._chunks = iter(source)
        self._payloads = ByteQueue()  # decoded payloads not yet read
        self.position = 0  # logical bytes consumed

    def _fill(self, n: int) -> None:
        while len(self._payloads) < n:
            chunk = next(self._chunks, None)
            if chunk is None:
                raise UnderflowError(
                    f"need {n} bytes, {len(self._payloads)} buffered, source exhausted"
                )
            self._payloads.append(unframe_chunk(chunk))

    def read(self, n: int) -> bytes:
        """Return the next `n` bytes.  A read that underflows consumes nothing."""
        if n < 0:
            raise ValueError("negative read")
        self._fill(n)
        self.position += n
        return self._payloads.take(n)

    def _unpack(self, fmt: struct.Struct):
        return fmt.unpack(self.read(fmt.size))[0]

    def read_u32(self) -> int:
        return self._unpack(_U32)

    def read_u64(self) -> int:
        return self._unpack(_U64)

    def read_i64(self) -> int:
        return self._unpack(_I64)

    def read_f64(self) -> float:
        return self._unpack(_F64)

    def read_string(self) -> str:
        return self.read(self.read_u32()).decode("utf-8")
