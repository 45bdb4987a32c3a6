from .engines import (
    CompressionEngine,
    CompressorInfo,
    UnknownEngineError,
    get_engine,
    get_engine_by_wire_id,
    registered_engines,
)
from .rle import MAX_OVERHEAD, RleDecodeError
from .rle import compress as rle_compress
from .rle import decompress as rle_decompress
from .streams import (
    DEFAULT_CHUNK_SIZE,
    MAX_CHUNK_SIZE,
    InputStream,
    OutputStream,
    StreamClosedError,
    StreamError,
    UnderflowError,
    frame_chunk,
    unframe_chunk,
)
from .bench import builtin_corpus, codec_benchmark

__all__ = [
    "CompressionEngine",
    "CompressorInfo",
    "UnknownEngineError",
    "get_engine",
    "get_engine_by_wire_id",
    "registered_engines",
    "MAX_OVERHEAD",
    "RleDecodeError",
    "rle_compress",
    "rle_decompress",
    "DEFAULT_CHUNK_SIZE",
    "MAX_CHUNK_SIZE",
    "InputStream",
    "OutputStream",
    "StreamClosedError",
    "StreamError",
    "UnderflowError",
    "frame_chunk",
    "unframe_chunk",
    "builtin_corpus",
    "codec_benchmark",
]
