"""Compression engine micro-benchmark.

Each buffer is compressed the way an OutputStream compresses it: through
the engine's span entry, in chunks of `DEFAULT_CHUNK_SIZE`, and each chunk
is decompressed on its own.  Ratios are deterministic per corpus;
throughput is the median of several timed passes so one scheduler hiccup
does not skew a row.  Engines that raise are reported as failed rows
rather than aborting the table.
"""

from __future__ import annotations

import statistics
import time
from typing import Optional, Sequence

import numpy as np

from .engines import CompressorInfo, CompressionEngine, registered_engines
from .streams import DEFAULT_CHUNK_SIZE


def builtin_corpus(kind: str, buffers: int = 8, size: int = 256 * 1024, seed: int = 0) -> list[bytes]:
    """Synthetic corpora: 'zero', 'random', 'sparse' (a mostly-empty
    volume) or 'image' (a rendered region: int32 ids, then float64 depth)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(buffers):
        if kind == "zero":
            out.append(bytes(size))
        elif kind == "random":
            out.append(rng.integers(0, 256, size, dtype=np.uint8).tobytes())
        elif kind == "sparse":
            buf = np.zeros(size, dtype=np.uint8)
            # low-entropy blobs over empty space, like a sparse density volume:
            # run length removes the blank space, dictionary coders also squeeze
            # the blob content
            for _ in range(12):
                start = int(rng.integers(0, size - size // 64))
                length = int(rng.integers(size // 256, size // 64))
                buf[start : start + length] = rng.integers(1, 7, length, dtype=np.uint8)
            out.append(buf.tobytes())
        elif kind == "image":
            out.append(_image(rng, size))
        else:
            raise ValueError(f"unknown builtin corpus {kind!r}")
    return out


def _image(rng: np.random.Generator, size: int) -> bytes:
    """About `size` bytes of what the frame path sends for one region: an
    id plane of overlapping boxes over background 0, then a depth plane
    that is a linear gradient on each box and inf elsewhere."""
    w = 256
    h = max(1, size // (12 * w))
    ids = np.zeros((h, w), dtype=np.int32)
    depth = np.full((h, w), np.inf)
    ys, xs = np.mgrid[0:h, 0:w]
    for oid in range(1, 17):
        x0, y0 = int(rng.integers(0, w)), int(rng.integers(0, h))
        bh, bw = int(rng.integers(h // 8 + 1, h // 2 + 2)), int(rng.integers(w // 8, w // 2))
        box = (slice(y0, y0 + bh), slice(x0, x0 + bw))
        z = rng.uniform(1.0, 10.0) + rng.uniform(-1e-3, 1e-3) * xs[box] + rng.uniform(-1e-3, 1e-3) * ys[box]
        closer = z < depth[box]
        ids[box][closer] = oid
        depth[box][closer] = z[closer]
    return ids.tobytes() + depth.tobytes()


def codec_benchmark(
    corpus: Sequence[bytes],
    engines: Optional[Sequence[CompressionEngine]] = None,
    runs: int = 3,
) -> list[CompressorInfo]:
    if not corpus:
        raise ValueError("empty corpus")
    if runs < 3:
        raise ValueError("need at least 3 timing runs for a stable median")
    engines = list(engines) if engines is not None else registered_engines()
    raw_bytes = sum(len(b) for b in corpus)

    rows = []
    for engine in engines:
        info = CompressorInfo(name=engine.name)

        def compress(buf: bytes) -> list:
            return engine.compress_span(buf, DEFAULT_CHUNK_SIZE)

        try:
            compressed = [compress(b) for b in corpus]
            for original, chunks in zip(corpus, compressed):
                if b"".join(engine.decompress(c) for c in chunks) != original:
                    raise ValueError("round-trip mismatch")
        except Exception as exc:
            info.failed = True
            info.error = str(exc)
            rows.append(info)
            continue

        info.ratio = sum(len(c) for chunks in compressed for c in chunks) / raw_bytes

        ctimes, dtimes = [], []
        for _ in range(runs):
            t0 = time.perf_counter()
            for b in corpus:
                compress(b)
            ctimes.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            for chunks in compressed:
                for c in chunks:
                    engine.decompress(c)
            dtimes.append(time.perf_counter() - t0)
        mb = raw_bytes / 1e6
        info.compress_mbps = mb / statistics.median(ctimes)
        info.decompress_mbps = mb / statistics.median(dtimes)
        rows.append(info)
    return rows
