"""The compression engines.

The engines are one fixed table, looked up by symbolic name (for
configuration) or by their one-byte wire id (for chunk framing).  A name
that no engine has, or a wire id read from a chunk that none has, raises
UnknownEngineError.  All engines are lossless and safe to call from
multiple threads on distinct buffers: they hold no mutable state and keep
no scratch buffers between calls.  Both directions take any bytes-like
object (an OutputStream hands its engine views of the caller's data).
`compress` returns bytes; `decompress` returns bytes or a read-only view,
never a view of a mutable input.

`compress_span(data, chunk_size)` compresses a span chunk by chunk, the
last chunk possibly shorter, and returns one bytes object per chunk,
equal to what `compress` makes of that chunk.  An OutputStream with an
engine codes its chunks this way and frames each payload itself (see
streams.py).  `rle` encodes a whole span in vectorized passes; `fast` and
`ratio` run their `compress` on each chunk (`chunkwise`).  No chunk is
larger than `rle.MAX_CHUNK_SIZE`.

The tiers:

    rle    word-oriented run length (see rle.py)
    fast   dictionary coder tuned for speed (zlib level 1)
    ratio  dictionary coder tuned for density (lzma preset 1)

Compress/decompress MB/s and ratio from `codec_benchmark`, which times
each engine's span entry at `DEFAULT_CHUNK_SIZE` (64 KiB) and decodes
chunk by chunk, over the `builtin_corpus` kinds.  A cell is the median of
3 calls, each the median of 7 timed passes, on a 2-CPU VM with Python 3.11
and numpy 2.4.  The VM's speed drifts by tens of percent between runs (rle
compressed `image` at 439 to 753 MB/s in successive calls), so compare
only rows measured together:

    corpus   rle               fast              ratio
    sparse  1490/1612 0.108   344/860  0.052    32/195 0.048
    image    753/713  0.451    89/300  0.349    12/36  0.290
    zero    1561/1809 0.000   753/1856 0.005    46/427 0.002
    random  2093/3066 1.000    46/1766 1.000     6/2628 1.001
"""

from __future__ import annotations

import lzma
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from . import rle

WIRE_ID_NONE = 0


SpanCoder = Callable[[bytes, int], list]


def chunkwise(compress: Callable[[bytes], bytes]) -> SpanCoder:
    """The span entry that runs a single-chunk coder on each chunk."""

    def compress_span(data, chunk_size: int) -> list:
        view = memoryview(data).cast("B")
        return [compress(view[start : start + chunk_size]) for start in range(0, len(view), chunk_size)]

    return compress_span


@dataclass(frozen=True)
class CompressionEngine:
    name: str
    wire_id: int
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]
    compress_span: SpanCoder


@dataclass
class CompressorInfo:
    """One benchmark row for an engine over a corpus."""

    name: str
    ratio: float = float("nan")            # compressed / uncompressed
    compress_mbps: float = float("nan")
    decompress_mbps: float = float("nan")
    failed: bool = False
    error: Optional[str] = None


def _fast(data) -> bytes:
    return zlib.compress(data, 1)


def _ratio(data) -> bytes:
    return lzma.compress(data, preset=1)


_ENGINES = (
    CompressionEngine("rle", 1, rle.compress, rle.decompress, rle.compress_span),
    CompressionEngine("fast", 2, _fast, zlib.decompress, chunkwise(_fast)),
    CompressionEngine("ratio", 3, _ratio, lzma.decompress, chunkwise(_ratio)),
)
_by_name = {engine.name: engine for engine in _ENGINES}
_by_wire_id = {engine.wire_id: engine for engine in _ENGINES}


class UnknownEngineError(KeyError):
    pass


def get_engine(name: str) -> CompressionEngine:
    try:
        return _by_name[name]
    except KeyError:
        raise UnknownEngineError(name) from None


def get_engine_by_wire_id(wire_id: int) -> CompressionEngine:
    try:
        return _by_wire_id[wire_id]
    except KeyError:
        raise UnknownEngineError(f"wire id {wire_id}") from None


def registered_engines() -> list[CompressionEngine]:
    return list(_ENGINES)
