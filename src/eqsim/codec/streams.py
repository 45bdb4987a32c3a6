"""Buffered byte streams with chunked emission and per-chunk compression.

OutputStream aggregates writes and hands fixed-size chunks to a sink as
soon as enough bytes are buffered, so serialization overlaps with
whatever the sink does (network send, file write).  Chunk framing on the
wire:

    u32 LE payload length | u8 codec wire id | payload

Multi-byte primitives are written little-endian by default; InputStream
is told the writer's endianness and byte-swaps on input when it differs
from the local order.
"""

from __future__ import annotations

import struct
import sys
from typing import Callable, Iterable, Iterator, Optional, Union

from ..bytequeue import ByteQueue
from .engines import WIRE_ID_NONE, CompressionEngine, get_engine_by_wire_id

DEFAULT_CHUNK_SIZE = 64 * 1024

_CHUNK_HEADER = struct.Struct("<IB")


class StreamError(Exception):
    pass


class StreamClosedError(StreamError):
    pass


class UnderflowError(StreamError):
    """Read past the end of the stream."""


def frame_chunk(payload: bytes, wire_id: int) -> bytes:
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
    of `chunk` when it was sent uncompressed, new bytes otherwise."""
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
    """Single-owner buffered writer emitting framed chunks to `sink`."""

    def __init__(
        self,
        sink: Callable[[bytes], None],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        engine: Optional[CompressionEngine] = None,
        endianness: str = "little",
    ):
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self._sink = sink
        self.chunk_size = chunk_size
        self.engine = engine
        self._buffer = bytearray()
        self._closed = False
        self._fmt = "<" if endianness == "little" else ">"
        self.bytes_written = 0

    def _emit(self, payload: bytes) -> None:
        if self.engine is not None:
            frame = frame_chunk(self.engine.compress(payload), self.engine.wire_id)
        else:
            frame = frame_chunk(payload, WIRE_ID_NONE)
        try:
            self._sink(frame)
        except Exception:
            self._closed = True  # sink failed, stream unusable
            raise

    def write(self, data) -> None:
        """Append any C-contiguous bytes-like object.  Whole chunks go to
        the engine straight from `data`; only a partial chunk at either end
        is buffered."""
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
        while len(view) - pos >= self.chunk_size:
            self._emit(view[pos : pos + self.chunk_size])
            pos += self.chunk_size
        self._buffer += view[pos:]

    def _emit_buffer(self) -> None:
        payload, self._buffer = self._buffer, bytearray()
        self._emit(payload)

    def flush(self) -> None:
        if self._closed:
            raise StreamClosedError("flush on closed stream")
        if self._buffer:
            self._emit_buffer()

    def close(self) -> None:
        if not self._closed:
            self.flush()
            self._closed = True

    # primitives, canonical little-endian unless constructed otherwise

    def write_u8(self, v: int) -> None:
        self.write(struct.pack(self._fmt + "B", v))

    def write_u16(self, v: int) -> None:
        self.write(struct.pack(self._fmt + "H", v))

    def write_u32(self, v: int) -> None:
        self.write(struct.pack(self._fmt + "I", v))

    def write_u64(self, v: int) -> None:
        self.write(struct.pack(self._fmt + "Q", v))

    def write_i32(self, v: int) -> None:
        self.write(struct.pack(self._fmt + "i", v))

    def write_i64(self, v: int) -> None:
        self.write(struct.pack(self._fmt + "q", v))

    def write_f32(self, v: float) -> None:
        self.write(struct.pack(self._fmt + "f", v))

    def write_f64(self, v: float) -> None:
        self.write(struct.pack(self._fmt + "d", v))

    def write_string(self, s: str) -> None:
        raw = s.encode("utf-8")
        self.write_u32(len(raw))
        self.write(raw)


class InputStream:
    """Single-owner reader over a chunk producer.

    `source` yields framed chunks (as produced by an OutputStream sink);
    it may be any iterable, or a callable returning the next chunk and
    None at end of stream.  Decoded payloads wait in a `ByteQueue`, so a
    read copies its bytes once, out of the payloads.
    """

    def __init__(
        self,
        source: Union[Iterable[bytes], Callable[[], Optional[bytes]]],
        remote_endianness: str = "little",
    ):
        if callable(source):
            self._next_chunk = source
        else:
            it: Iterator[bytes] = iter(source)
            self._next_chunk = lambda: next(it, None)
        if remote_endianness not in ("little", "big"):
            raise ValueError(f"bad endianness {remote_endianness!r}")
        self.remote_endianness = remote_endianness
        self.swaps = remote_endianness != sys.byteorder
        self._fmt = "<" if remote_endianness == "little" else ">"
        self._payloads = ByteQueue()  # decoded payloads not yet read
        self.position = 0  # logical bytes consumed

    def _fill(self, n: int) -> None:
        while len(self._payloads) < n:
            chunk = self._next_chunk()
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

    def _unpack(self, code: str, size: int):
        return struct.unpack(self._fmt + code, self.read(size))[0]

    def read_u8(self) -> int:
        return self._unpack("B", 1)

    def read_u16(self) -> int:
        return self._unpack("H", 2)

    def read_u32(self) -> int:
        return self._unpack("I", 4)

    def read_u64(self) -> int:
        return self._unpack("Q", 8)

    def read_i32(self) -> int:
        return self._unpack("i", 4)

    def read_i64(self) -> int:
        return self._unpack("q", 8)

    def read_f32(self) -> float:
        return self._unpack("f", 4)

    def read_f64(self) -> float:
        return self._unpack("d", 8)

    def read_string(self) -> str:
        return self.read(self.read_u32()).decode("utf-8")
