import hashlib
import random
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsim.codec import (
    MAX_OVERHEAD,
    OutputStream,
    RleDecodeError,
    frame_chunk,
    get_engine,
    rle_compress,
    rle_decompress,
)
from eqsim.codec import rle


def test_empty_input_is_empty_output():
    assert rle_compress(b"") == b""
    assert rle_decompress(b"") == b""


def test_zero_kilobyte_compresses_to_a_few_bytes():
    comp = rle_compress(bytes(1024))
    assert len(comp) <= 16
    assert rle_decompress(comp) == bytes(1024)


def test_three_quarters_zero_buffer_ratio():
    # contiguous zero stretches with random blocks between, 75/25
    rng = np.random.default_rng(3)
    parts = []
    for _ in range(16):
        parts.append(bytes(3 * 1024))
        parts.append(rng.integers(0, 256, 1024, dtype=np.uint8).tobytes())
    buf = b"".join(parts)
    comp = rle_compress(buf)
    assert len(comp) / len(buf) <= 0.35
    assert rle_decompress(comp) == buf


@given(st.binary(max_size=4096))
def test_roundtrip_arbitrary(data):
    assert rle_decompress(rle_compress(data)) == data


@given(st.binary(max_size=4096))
def test_expansion_bound(data):
    assert len(rle_compress(data)) <= len(data) + MAX_OVERHEAD


@pytest.mark.parametrize("size", [1, 7, 8, 9, 63, 64, 65, 1 << 20])
def test_roundtrip_random_sizes(size):
    rng = np.random.default_rng(size)
    data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
    assert rle_decompress(rle_compress(data)) == data


def test_roundtrip_runs_crossing_pad():
    for tail in range(1, 9):
        data = b"\xab" * 333 + b"\x00" * (64 + tail)
        assert rle_decompress(rle_compress(data)) == data


def test_word_aligned_runs_compress():
    data = b"\x11\x22\x33\x44\x55\x66\x77\x88" * 4096  # one 32 KiB word run
    comp = rle_compress(data)
    assert len(comp) <= 32
    assert rle_decompress(comp) == data


def test_truncation_raises_with_offset():
    comp = rle_compress(bytes(100) + b"xyz" * 50)
    for cut in range(1, len(comp)):
        truncated = comp[:cut]
        try:
            result = rle_decompress(truncated)
        except RleDecodeError as err:
            assert err.offset >= 0
        else:
            # crc makes a silently-valid truncation astronomically unlikely
            pytest.fail(f"truncation at {cut} decoded to {len(result)} bytes")


def test_corruption_never_silently_wrong():
    rng = random.Random(7)
    base = bytes(rng.randrange(256) if rng.random() < 0.4 else 0 for _ in range(2048))
    comp = bytearray(rle_compress(base))
    for _ in range(300):
        pos = rng.randrange(len(comp))
        bit = 1 << rng.randrange(8)
        comp[pos] ^= bit
        try:
            decoded = rle_decompress(bytes(comp))
        except RleDecodeError:
            pass
        else:
            assert decoded == base
        comp[pos] ^= bit


# --- wire-byte pins ---------------------------------------------------------


def _word(v: int) -> bytes:
    return struct.pack("<Q", v)


def _id_plane(rng, h=120, w=150):
    ids = np.zeros((h, w), dtype=np.int32)
    for oid in range(1, 13):
        y, x = int(rng.integers(0, h - 20)), int(rng.integers(0, w - 30))
        ids[y : y + int(rng.integers(5, 40)), x : x + int(rng.integers(5, 60))] = oid
    return ids


def pinned_corpus() -> dict[str, bytes]:
    """Inputs covering every block kind, run threshold and pad length, plus
    the id and depth planes that the frame path compresses."""
    rng = np.random.default_rng(20260)
    corpus = {}
    for pad in range(8):
        n = 80 - pad
        corpus[f"pad{pad}-literal"] = rng.integers(1, 256, n, dtype=np.uint8).tobytes()
        corpus[f"pad{pad}-zero-tail"] = rng.integers(1, 256, 24, dtype=np.uint8).tobytes() + bytes(n - 24)
        corpus[f"pad{pad}-run-tail"] = rng.integers(1, 256, 16, dtype=np.uint8).tobytes() + b"\xab" * (n - 16)
        corpus[f"pad{pad}-zero-only"] = bytes(n)
    a, b, c = _word(0x1111), _word(0x2222), _word(0x3333)
    corpus["zero-runs-of-2"] = (a + bytes(16) + b + bytes(16)) * 50 + c
    corpus["zero-runs-of-1"] = (a + bytes(8)) * 50
    corpus["runs-of-3"] = (a * 3 + b + c * 3) * 40
    corpus["runs-of-2"] = (a * 2 + b * 2 + c * 2) * 40
    corpus["run-head-and-tail"] = a * 7 + rng.integers(0, 256, 800, dtype=np.uint8).tobytes() + c * 9
    corpus["one-byte"] = b"\x05"
    corpus["one-zero-word"] = bytes(8)
    corpus["long-literal"] = rng.integers(0, 256, 200_000, dtype=np.uint8).tobytes()
    ids = _id_plane(rng)
    corpus["int32-ids"] = ids.tobytes()
    corpus["int32-ids-odd-width"] = _id_plane(rng, 97, 131).tobytes()
    ys, xs = np.mgrid[0:120, 0:150]
    depth = np.where(ids != 0, 3.0 + 1e-3 * xs - 7e-4 * ys, np.inf)
    corpus["float64-depth"] = depth.tobytes()
    corpus["float64-gradient"] = (5.0 + 2e-4 * xs + 3e-4 * ys).tobytes()
    return corpus


# SHA-256 of rle_compress over `pinned_corpus`, recorded before the encoder
# moved to run edges: the wire bytes, pad bits included, must not change
PINNED_DIGESTS = {
    "pad0-literal": "75261403a53e80395e11f9347c4361ef72e3a6c6c430e3f85f85052d588d3688",
    "pad0-zero-tail": "d0182230f3edf08162688232271a4790f835b00b37f2cea12490e4098dda1e9d",
    "pad0-run-tail": "dad72fa48df85de1bea46894faecb6e9c739c9ad84b34eb7b7a5b62bb53a3412",
    "pad0-zero-only": "bde91563dcc8e71197c288425a933aa0150017273f18eb3f7324b3fbca6a3340",
    "pad1-literal": "6f0a343875126e3e97bad024e2e2b7e3e5ff8a6d756042c4ff0b132fbbecec60",
    "pad1-zero-tail": "33994c960d66c57d8f1e5596c5e01980ff13a81feada7ae68f764f188ea1165e",
    "pad1-run-tail": "1b25c58c6555eacce4a019e4eb8bdf66273c1b9f1879ad5fc4b429b7bde8a33a",
    "pad1-zero-only": "01ddc7237bf05c7d54321ee5d49038f5f85e11480f28a319072667a788da82ca",
    "pad2-literal": "99fac08364a33d2b995693f35485588105b3468e32569e8a368e4f28a7616cce",
    "pad2-zero-tail": "2e7e21167129820f615639fe85502ea4c1674e64415a5d69859f647d882c5040",
    "pad2-run-tail": "6a96a68c6c417fa2904a015da338a3601dc36c5072dbbb5b0799bfddfbc6e7bf",
    "pad2-zero-only": "b0ea4bb68074e0e5cf86565a0200dbd8b188d4a4f3e920ede3aa76e601d99cc0",
    "pad3-literal": "96d0bfd12ad133868e7fccd9ec48c6c73df48a21b21eec0a7f7d31c644d8a312",
    "pad3-zero-tail": "9d570fd451a5448dcbf95579750c2d40dfe81a5d6ec111ec6d88b0a1c5b60cdc",
    "pad3-run-tail": "25da0c2275d38b6d55516b4f19a72c02fe5f121a493cd911257056e5f9875818",
    "pad3-zero-only": "3444511b689f8e58abdbc8fe9c9e9287cc39d1d9dac4cf1aba3ee0a4a2056891",
    "pad4-literal": "14bcff9f928df5285a6106bedd5ab9554c54028a9c93e5dfcf33623ef912ec69",
    "pad4-zero-tail": "744996ff83baf0c49dd9b437d9a48d22063c2a235a73977b7851b2c1e5e7d1c0",
    "pad4-run-tail": "5864e2e636c9eb40bbead2db21d204bb287a65c00885ae99f395bd4db1f46468",
    "pad4-zero-only": "b5d1e6b5cc4a17651718cb8fc3cc581b7fcb64b49717f69e0269dd3e328abdc9",
    "pad5-literal": "2003e0328f2d0fad6356d7ce57947c46b21ed28b1446677e4cca2bb4ad2299e0",
    "pad5-zero-tail": "528113c29da204112e861d4e9f53990ff491290dea91dba55a0930b54159304f",
    "pad5-run-tail": "2a907bbe1ef6510a288d929cd957331b05e2e1d4acf718c9961cdbd61656e9aa",
    "pad5-zero-only": "0154af046da0df3c55b6b9551a9478e15c0feeadfae2954da9acd0ee7fa70fe4",
    "pad6-literal": "c48fa4ae2cfdb1b697710f7fecd9d8a0b693640718ccf0b3a047b77a08d4f6f8",
    "pad6-zero-tail": "a3470ab78e37175110a22a478be28b7b539a708b6d85c9d7d0e2d15d20898a32",
    "pad6-run-tail": "9875f64b7f5bd901269c45ba23a3eff6616651f45a1090c0daf337de29017da6",
    "pad6-zero-only": "a45567a6307b8061690ab299c07c5236797aaf98f93b08b55b22ada6cc23a226",
    "pad7-literal": "34f9e2f59ff8422143ed6748bb70ca055b73030e1cc57c6cc6b8475c090756e8",
    "pad7-zero-tail": "0a19fab2ade4e45e94b81fe260c1b75ba9112be9f93eb086272113237b4bc7be",
    "pad7-run-tail": "699182d42e6ac5c6f23f8a742b97c3fc3124dfc1b793776b514f6a00208aeacb",
    "pad7-zero-only": "98d49cb636d19477f7ccfbeec0069bcd3cb6662566f23bb2cb7b67336eab3677",
    "zero-runs-of-2": "d16332668d32c56560584f98e17b0c3ddc5c16d8e072b3da98a337d0ff12a826",
    "zero-runs-of-1": "2bf18893c6e3be5807364c812c04ea00c41d85f54dc2fc0fa9d35586079975d9",
    "runs-of-3": "3a1bdd7813de56b55981826234092059610d7ebbf41a7296a8ca4090a2e4781f",
    "runs-of-2": "e437e237186f2579833de59a6c692ee7b950d6761f9f993738307a8c1046265d",
    "run-head-and-tail": "058f8768a0835363fa2fc78cd0d0bbf191e9315497bde15b21f893b44017ae8e",
    "one-byte": "f2fed17c54cb92174afb6df1fe208372e2d6344871f6aecc4c60cbcfe308fe4e",
    "one-zero-word": "2f37ce72f59cf87c9136ff0c44248d842afc14f516f9dc4778358f5c780c6a5f",
    "long-literal": "983fd7daa4860ec4bb3f4fe709e2f71bddf6a1e1a14deffed4dfc2e806e17abc",
    "int32-ids": "06b1e9fc302575824d687f7505a72e8c46c0a15a4cdf3ecb1943e96e15cead92",
    "int32-ids-odd-width": "29e5ccc341b731237bed16d2ad240f2554e1255302896477b634aa71d6a167a8",
    "float64-depth": "f62ea9d08bb40f93d1ec29fc89a034bf5aaec8ecbcff11fc226cb584f69ccaa3",
    "float64-gradient": "3b60963a5107ef7c3c338f241a81293fa217ab0aa61a2477fa3fb02f577a92a2",
}


def test_wire_bytes_pinned():
    digests = {name: hashlib.sha256(rle_compress(data)).hexdigest() for name, data in pinned_corpus().items()}
    assert digests == PINNED_DIGESTS


def reference_compress(data: bytes) -> bytes:
    """The layout in `eqsim.codec.rle`, one word at a time."""
    if not data:
        return b""
    pad = (-len(data)) % 8
    padded = data + bytes(pad)
    words = [padded[i : i + 8] for i in range(0, len(padded), 8)]
    blocks = []  # (kind, count, payload)
    lit_start = i = 0
    while i < len(words):
        j = i
        while j < len(words) and words[j] == words[i]:
            j += 1
        zero = words[i] == bytes(8)
        if j - i >= 3 or (zero and j - i >= 2):
            if i > lit_start:
                blocks.append((0, i - lit_start, b"".join(words[lit_start:i])))
            blocks.append((2, j - i, b"") if zero else (1, j - i, words[i]))
            lit_start = j
        i = j
    if lit_start < len(words):
        blocks.append((0, len(words) - lit_start, b"".join(words[lit_start:])))
    out = []
    for k, (kind, count, payload) in enumerate(blocks):
        block_pad = pad if k == len(blocks) - 1 else 0
        out.append(struct.pack("<Q", kind | (block_pad << 2) | (count << 5)) + payload)
    out.append(struct.pack("<I", zlib.crc32(data)))
    return b"".join(out)


_WORDS = st.sampled_from([bytes(8), _word(1), _word(0xDEADBEEF), b"\x00" * 7 + b"\x01"]) | st.binary(
    min_size=8, max_size=8
)


@given(
    st.lists(st.tuples(_WORDS, st.integers(1, 5)), max_size=40),
    st.integers(0, 7),
    st.sampled_from([bytes, bytearray, memoryview]),
)
def test_compress_matches_per_word_reference(runs, trim, kind):
    data = b"".join(word * count for word, count in runs)
    data = data[: max(0, len(data) - trim)]
    assert rle_compress(kind(data)) == reference_compress(data)


@given(st.binary(max_size=300))
def test_compress_matches_reference_on_arbitrary_bytes(data):
    assert rle_compress(data) == reference_compress(data)


# --- span entry, stream framing and decoder parity ----------------------------


def reference_decompress(data) -> bytes:
    """The decoder as it was before the span encoder, one Python step per
    block: the decoder must return what it returns, or raise what it raises."""
    if len(data) == 0:
        return b""
    if len(data) < 12:  # one control word + crc at minimum
        raise RleDecodeError("compressed data shorter than minimal frame", 0)

    body = memoryview(data)[:-4]
    expected_crc = struct.unpack_from("<I", data, len(body))[0]

    parts = []
    pos = 0
    pad = 0
    end = len(body)
    while pos < end:
        if end - pos < 8:
            raise RleDecodeError("truncated control word", pos)
        word = struct.unpack_from("<Q", body, pos)[0]
        kind = word & 3
        pad = (word >> 2) & 7
        count = word >> 5
        pos += 8
        if count == 0:
            raise RleDecodeError("zero-length block", pos - 8)
        if kind == 0:
            nbytes = count * 8
            if end - pos < nbytes:
                raise RleDecodeError("truncated literal block", pos)
            parts.append(body[pos : pos + nbytes])
            pos += nbytes
        elif kind == 1:
            if end - pos < 8:
                raise RleDecodeError("truncated run value", pos)
            parts.append(body[pos : pos + 8].tobytes() * count)
            pos += 8
        elif kind == 2:
            parts.append(b"\x00" * (count * 8))
        else:
            raise RleDecodeError("invalid block kind", pos - 8)

    if pad:
        # the final block carries the pad, and every block spans >= 8 bytes
        if parts[-1][-pad:] != bytes(pad):
            raise RleDecodeError("nonzero padding", len(body))
        parts[-1] = parts[-1][:-pad]
    result = b"".join(parts)
    if zlib.crc32(result) != expected_crc:
        raise RleDecodeError("checksum mismatch", len(body))
    return result


def _expanded_bytes(data) -> int:
    """Bytes the blocks of `data` expand to by the decoder's rule, words
    times 8 less the last block's pad, up to the first block that does not
    parse: a damaged count can ask either decoder for exabytes."""
    body = memoryview(data)[:-4]
    pos = words = pad = 0
    while len(body) - pos >= 8:
        word = struct.unpack_from("<Q", body, pos)[0]
        kind, count = word & 3, word >> 5
        pos += 8 + (count * 8 if kind == 0 else 8 if kind == 1 else 0)
        words += count
        pad = (word >> 2) & 7
    return words * 8 - pad


def _outcome(decode, data):
    try:
        return bytes(decode(data))
    except RleDecodeError as err:
        return (str(err), err.offset)


_SPAN_DATA = st.binary(max_size=1200) | st.tuples(
    st.lists(st.tuples(_WORDS, st.integers(1, 40)), max_size=40), st.integers(0, 7)
).map(lambda runs_trim: b"".join(w * n for w, n in runs_trim[0])[: -runs_trim[1] or None])
_CHUNK_SIZES = st.integers(1, 256)


def _pieces(data: bytes, chunk_size: int) -> list:
    return [data[i : i + chunk_size] for i in range(0, len(data), chunk_size)]


@given(_SPAN_DATA, _CHUNK_SIZES)
def test_span_entry_equals_compress_per_piece(data, chunk_size):
    span = get_engine("rle").compress_span
    expected = [rle_compress(piece) for piece in _pieces(data, chunk_size)]
    assert span(data, chunk_size) == expected
    assert span(memoryview(data), chunk_size) == expected


@given(_SPAN_DATA, _CHUNK_SIZES, st.lists(st.integers(0, 300), max_size=6))
def test_stream_frames_equal_framed_compress(data, chunk_size, writes):
    pieces = []
    out = OutputStream(pieces.append, chunk_size=chunk_size, engine=get_engine("rle"))
    pos = 0
    for n in writes:  # partial chunks at either end of a write, whole ones between
        out.write(data[pos : pos + n])
        pos += n
    out.write(data[pos:])
    out.flush()
    frames = [frame_chunk(rle_compress(piece), 1) for piece in _pieces(data, chunk_size)]
    # each chunk reaches the sink as its header, then its payload
    assert pieces == [part for frame in frames for part in (frame[:5], frame[5:])]


@given(_SPAN_DATA, _CHUNK_SIZES, st.data())
def test_decoder_matches_reference_on_damage(data, chunk_size, draw):
    comp = rle_compress(data[:chunk_size])
    cut = draw.draw(st.integers(0, len(comp)))
    flipped = bytearray(comp)
    if comp:
        flipped[draw.draw(st.integers(0, len(comp) - 1))] ^= 1 << draw.draw(st.integers(0, 7))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rle, "MAX_CHUNK_SIZE", 1 << 20)
        for damaged in (comp, comp[:cut], bytes(flipped)):
            if _expanded_bytes(damaged) <= rle.MAX_CHUNK_SIZE:
                assert _outcome(rle_decompress, damaged) == _outcome(reference_decompress, damaged)
            else:
                # the reference expands block by block, so only the decoder,
                # which checks the sum of the counts first, runs past the bound
                with pytest.raises(RleDecodeError):
                    rle_decompress(damaged)


def test_decompress_views_only_an_immutable_input():
    data = bytes(range(1, 81))  # no runs: one literal block
    comp = rle_compress(data)
    out = rle_decompress(comp)
    assert out == data and out.readonly and out.obj is comp
    mutable = bytearray(comp)
    out = rle_decompress(mutable)
    mutable[8] ^= 1
    assert type(out) is bytes and out == data
