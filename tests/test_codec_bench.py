import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from eqsim.codec import (
    CompressionEngine,
    builtin_corpus,
    codec_benchmark,
    get_engine,
    registered_engines,
)
from eqsim.codec.engines import chunkwise


def test_roundtrip_identity_all_engines():
    rng = np.random.default_rng(0)
    sizes = [0, 1, 100, 4096, 1 << 20]
    for engine in registered_engines():
        for size in sizes:
            data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            assert engine.decompress(engine.compress(data)) == data


def test_engines_threadsafe_on_distinct_buffers():
    rng = np.random.default_rng(1)
    buffers = [rng.integers(0, 64, 64 * 1024, dtype=np.uint8).tobytes() for _ in range(16)]
    for engine in registered_engines():
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda b: engine.decompress(engine.compress(b)), buffers))
        assert results == buffers


def test_span_entries_threadsafe():
    # every engine compresses spans in 4 threads at once: results equal to
    # the single-threaded per-chunk ones mean no engine keeps scratch
    # buffers between calls
    chunk = 16 * 1024
    buffers = builtin_corpus("image", buffers=4, size=96 * 1024) + builtin_corpus("sparse", buffers=4, size=96 * 1024)
    engines = registered_engines()
    expected = {
        (engine.name, i): [engine.compress(buf[j : j + chunk]) for j in range(0, len(buf), chunk)]
        for engine in engines
        for i, buf in enumerate(buffers)
    }
    start = threading.Barrier(4)

    def work(t: int) -> dict:
        start.wait(timeout=30)
        got = {}
        for n in range(len(engines) * len(buffers)):
            engine = engines[(n + t) % len(engines)]
            i = (n // len(engines) + t) % len(buffers)
            got[(engine.name, i)] = engine.compress_span(buffers[i], chunk)
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [f.result(timeout=120) for f in [pool.submit(work, t) for t in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert got == expected


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        codec_benchmark([])


def test_zero_corpus_rle_ratio():
    rows = codec_benchmark(builtin_corpus("zero"), engines=[get_engine("rle")])
    assert rows[0].ratio < 0.02


def test_random_corpus_no_engine_compresses():
    rows = codec_benchmark(builtin_corpus("random", buffers=4))
    for row in rows:
        assert not row.failed
        assert row.ratio >= 0.99


def test_sparse_volume_ordering():
    # run length already does well on sparse data, dictionary coders do better
    corpus = builtin_corpus("sparse")
    rows = {r.name: r for r in codec_benchmark(corpus)}
    assert rows["rle"].ratio < 1.0
    assert rows["fast"].ratio < rows["rle"].ratio
    assert rows["ratio"].ratio < rows["rle"].ratio


def test_failing_engine_reported_not_raised():
    def boom(data):
        raise RuntimeError("no codec for you")

    broken = CompressionEngine("broken", 250, boom, boom, chunkwise(boom))
    rows = codec_benchmark(builtin_corpus("zero", buffers=1), engines=[broken])
    assert rows[0].failed
    assert "no codec" in rows[0].error


def test_speeds_are_positive():
    rows = codec_benchmark(builtin_corpus("sparse", buffers=2), engines=[get_engine("rle")])
    assert rows[0].compress_mbps > 0
    assert rows[0].decompress_mbps > 0


def test_image_corpus_ratio_and_roundtrip():
    corpus = builtin_corpus("image", buffers=2)
    for buf in corpus:
        pixels = len(buf) // 12
        ids = np.frombuffer(buf, np.int32, pixels)
        depth = np.frombuffer(buf, np.float64, offset=4 * pixels)
        assert 0 < np.count_nonzero(ids) < pixels
        assert np.array_equal(ids == 0, np.isinf(depth))
    rows = {r.name: r for r in codec_benchmark(corpus)}
    assert not any(r.failed for r in rows.values())  # every engine round-trips
    # runs remove the background and the id stretches; the depth gradients
    # stay literal, which the dictionary coders squeeze further
    assert 0.2 < rows["rle"].ratio < 0.8
    assert rows["ratio"].ratio < rows["fast"].ratio < rows["rle"].ratio
