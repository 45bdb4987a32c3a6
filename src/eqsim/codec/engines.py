"""Compression engine registry.

Engines are looked up by symbolic name (for configuration) or by their
one-byte wire id (for chunk framing).  All engines are lossless and must
be safe to call from multiple threads on distinct buffers; the built-ins
hold no mutable state.  Both directions take any bytes-like object (an
OutputStream hands its engine views of the caller's data) and return bytes.

Built-in tiers:

    rle    word-oriented run length (see rle.py)
    fast   dictionary coder tuned for speed (zlib level 1)
    ratio  dictionary coder tuned for density (lzma preset 1)

Compress/decompress MB/s and ratio from `codec_benchmark` over the
`builtin_corpus` kinds, medians of 7, on a 2-CPU VM with Python 3.11 and
numpy 2.4 (its speed drifts by tens of percent between runs):

    corpus   rle               fast              ratio
    sparse   1159/1601 0.107   234/720  0.053    34/160  0.046
    image     342/347  0.451    67/308  0.349    11/33   0.288
    zero     1305/1949 0.000   447/1474 0.004    67/374  0.001
    random   1642/2123 1.000    36/1560 1.000     5/2664 1.000
"""

from __future__ import annotations

import lzma
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from . import rle

WIRE_ID_NONE = 0


@dataclass(frozen=True)
class CompressionEngine:
    name: str
    wire_id: int
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]


@dataclass
class CompressorInfo:
    """One benchmark row for an engine over a corpus."""

    name: str
    ratio: float = float("nan")            # compressed / uncompressed
    compress_mbps: float = float("nan")
    decompress_mbps: float = float("nan")
    failed: bool = False
    error: Optional[str] = None


_registry: dict[str, CompressionEngine] = {}
_by_wire_id: dict[int, CompressionEngine] = {}


class UnknownEngineError(KeyError):
    pass


def register_engine(engine: CompressionEngine) -> None:
    if engine.wire_id == WIRE_ID_NONE:
        raise ValueError("wire id 0 is reserved for uncompressed chunks")
    if engine.name in _registry or engine.wire_id in _by_wire_id:
        raise ValueError(f"engine {engine.name!r}/{engine.wire_id} already registered")
    _registry[engine.name] = engine
    _by_wire_id[engine.wire_id] = engine


def get_engine(name: str) -> CompressionEngine:
    try:
        return _registry[name]
    except KeyError:
        raise UnknownEngineError(name) from None


def get_engine_by_wire_id(wire_id: int) -> CompressionEngine:
    try:
        return _by_wire_id[wire_id]
    except KeyError:
        raise UnknownEngineError(f"wire id {wire_id}") from None


def registered_engines() -> list[CompressionEngine]:
    return list(_registry.values())


register_engine(CompressionEngine("rle", 1, rle.compress, rle.decompress))
register_engine(
    CompressionEngine(
        "fast",
        2,
        lambda data: zlib.compress(data, 1),
        zlib.decompress,
    )
)
register_engine(
    CompressionEngine(
        "ratio",
        3,
        lambda data: lzma.compress(data, preset=1),
        lzma.decompress,
    )
)
