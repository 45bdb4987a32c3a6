"""Word-oriented run-length codec.

The encoder works on 64-bit words so that scanning and expansion are a
handful of vectorized numpy passes.  Compressed layout:

    block*  crc32(u32 LE, over the uncompressed bytes)

Each block starts with a control word (u64 LE):

    bits 0..1   kind: 0 = literal, 1 = run, 2 = zero run
    bits 2..4   pad bytes (0..7), meaningful only in the final block
    bits 5..63  word count (>= 1)

A literal block is followed by `count` raw words, a run block by a single
value word repeated `count` times, a zero run by nothing.  The input is
zero-padded to a word multiple; `pad` bytes are trimmed from the decoded
tail.  Empty input encodes to empty output.

Runs are only taken when they pay for their own header (>= 3 equal words,
or >= 2 zero words), so literal stretches are maximal and the worst case
is bounded: len(compress(x)) <= len(x) + MAX_OVERHEAD, 19 bytes.

`compress_span` encodes a span cut into chunks, each to exactly what
`compress` makes of it.  It works on groups of chunks: numpy finds the
runs of a whole group at once, cut at chunk edges, and lays out every
chunk's control words and payload, so Python steps once per chunk (its
checksum and the one join that builds it), never per block.
`decompress` walks the control words once, checking every block, and
expands them with one `np.repeat`; a chunk that is one literal block
comes back as a view of its input.  Before it expands, the decoder sums
the blocks' counts and rejects a chunk that would grow past
MAX_CHUNK_SIZE bytes, so a corrupt count cannot make it allocate more.
"""

from __future__ import annotations

import struct
import sys
import zlib

import numpy as np

_KIND_LITERAL = 0
_KIND_RUN = 1
_KIND_ZERO = 2

_WORD = 8
_MIN_RUN = 3       # equal words needed before a run block wins
_MIN_ZERO_RUN = 2  # zero runs have no value word, so they pay off earlier

# worst case: one literal control word + final-word padding + crc
MAX_OVERHEAD = 8 + 7 + 4

# the largest chunk a stream makes (see streams.py), so the most one chunk
# may decode to
MAX_CHUNK_SIZE = 64 << 20

# input per vectorized pass, 16 chunks of 64 KiB: numpy's cost per call makes
# a pass over one chunk slower than a Python loop over its blocks
_GROUP_BYTES = 1 << 20

_LITTLE_ENDIAN = sys.byteorder == "little"
_U64 = struct.Struct("<Q")
_CRC = struct.Struct("<I")


class RleDecodeError(ValueError):
    """Corrupt or truncated RLE data; `offset` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at compressed offset {offset})")
        self.offset = offset


def compress(data) -> bytes:
    """Encode any bytes-like object of at most MAX_CHUNK_SIZE bytes; only
    an input that is not a word multiple is copied (to pad it)."""
    view = memoryview(data).cast("B")
    if len(view) > MAX_CHUNK_SIZE:
        raise ValueError(f"rle encodes at most {MAX_CHUNK_SIZE} bytes at once")
    return compress_span(view, len(view))[0] if len(view) else b""


def compress_span(data, chunk_size: int) -> list[bytes]:
    """Encode `data` cut into pieces of `chunk_size` bytes, the last one
    possibly shorter.  Returns `compress(piece)` for each piece, each built
    in one join."""
    view = memoryview(data).cast("B")
    group = max(1, _GROUP_BYTES // chunk_size) * chunk_size
    out: list[bytes] = []
    for start in range(0, len(view), group):
        span = view[start : start + group]
        whole = len(span) - len(span) % chunk_size
        if whole:
            out += _encode_pieces(span[:whole], chunk_size)
        if whole < len(span):
            out += _encode_pieces(span[whole:], len(span) - whole)
    return out


def _encode_pieces(view: memoryview, size: int) -> list[bytes]:
    """`compress_span` of `view`, which holds whole pieces of `size` bytes."""
    k = len(view) // size
    pad = -size % _WORD
    if pad:
        padded = np.zeros((k, size + pad), dtype=np.uint8)
        padded[:, :size] = np.frombuffer(view, dtype=np.uint8).reshape(k, size)
        raw = memoryview(padded.reshape(-1))
    else:
        raw = view
    words = np.frombuffer(raw, dtype="<u8")
    per = (size + pad) // _WORD  # words per piece

    # eq[i]: word i + 1 equals word i, and both lie in one piece.  The edges
    # of its true stretches delimit the runs of two or more equal words, the
    # only runs that can pay off, so the work past this point scales with
    # the runs
    eq = words[1:] == words[:-1]
    eq[per - 1 :: per] = False
    same = np.concatenate(([False], eq, [False]))
    edges = np.flatnonzero(same[1:] != same[:-1])
    starts = edges[0::2]
    lengths = edges[1::2] + 1 - starts
    zero = words[starts] == 0
    worthwhile = (lengths >= _MIN_RUN) | (zero & (lengths >= _MIN_ZERO_RUN))
    starts, lengths, zero = starts[worthwhile], lengths[worthwhile], zero[worthwhile]
    piece = starts // per
    has_runs = np.zeros(k, dtype=bool)
    has_runs[piece] = True

    if len(starts):
        # per run, in word order: the literal stretch before it (from the
        # previous run in its piece, or from the piece's start), the run,
        # and after the last run of a piece the literal stretch to its end
        ends = starts + lengths
        opens = np.concatenate(([True], piece[1:] != piece[:-1]))
        closes = np.concatenate((opens[1:], [True]))
        lit_from = np.where(opens, piece * per, np.concatenate(([0], ends[:-1])))
        tail = np.where(closes, (piece + 1) * per - ends, 0)
        first = np.empty(3 * len(starts), dtype=np.int64)
        first[0::3], first[1::3], first[2::3] = lit_from, starts, ends
        count = np.empty_like(first)
        count[0::3], count[1::3], count[2::3] = starts - lit_from, lengths, tail
        kind = np.full_like(first, _KIND_LITERAL)
        kind[1::3] = np.where(zero, _KIND_ZERO, _KIND_RUN)
        nonempty = count > 0
        first, count, kind = first[nonempty], count[nonempty], kind[nonempty]
        # a block is its control word, then `count` literal words, one run
        # value word or nothing
        size_words = 1 + np.where(kind == _KIND_LITERAL, count, kind == _KIND_RUN)
        ctrl_at = np.cumsum(size_words) - size_words
        # the body word at ctrl_at + j copies input word first + j - 1; the
        # copy into the control word's own slot is overwritten below
        source = np.repeat(first - 1 - ctrl_at, size_words)
        source += np.arange(len(source))
        body = words.take(source)
        body[ctrl_at] = kind | (count << 5)
        if pad:
            body[ctrl_at[(first + count) % per == 0]] |= pad << 2
        # where each piece with runs begins and ends in `body`, in bytes
        piece_at = ctrl_at[np.searchsorted(first, piece[opens] * per)]
        bounds = (np.append(piece_at, len(body)) * _WORD).tolist()
        body = memoryview(body.view(np.uint8))

    # a piece without runs is one literal block
    literal = _control(_KIND_LITERAL, per, pad)
    out = []
    r = 0
    for p, runs in enumerate(has_runs.tolist()):
        crc = _CRC.pack(zlib.crc32(view[p * size : (p + 1) * size]))
        if runs:
            lo, hi = bounds[r], bounds[r + 1]
            r += 1
            out.append(b"".join((body[lo:hi], crc)))
        else:
            words_at = p * per * _WORD
            out.append(b"".join((literal, raw[words_at : words_at + per * _WORD], crc)))
    return out


def _control(kind: int, count: int, pad: int = 0) -> bytes:
    return _U64.pack(kind | (pad << 2) | (count << 5))


def decompress(data):
    """Decode what `compress` made.  Only a chunk that decodes to at most
    MAX_CHUNK_SIZE bytes is accepted.  Returns a read-only view: of `data`
    when it is one literal block and `data` is immutable, else of new
    memory; the bytes of a mutable one-literal input come as a copy."""
    if len(data) == 0:
        return b""
    if len(data) < 12:  # one control word + crc at minimum
        raise RleDecodeError("compressed data shorter than minimal frame", 0)

    body = memoryview(data)[:-4]
    expected_crc = _CRC.unpack_from(data, len(body))[0]
    # the whole words of the body; the walk below reads them as native ints
    words = np.frombuffer(body, dtype="<u8", count=len(body) // _WORD)
    control = body[: len(words) * _WORD].cast("Q") if _LITTLE_ENDIAN else words.astype(np.uint64)

    # one pass over the control words checks every block and finds where
    # each one starts (`at`, in words); the expansion is then vectorized
    at = []
    i = 0
    end = len(words)
    while i < end:
        word = control[i]
        count = word >> 5
        if count == 0:
            raise RleDecodeError("zero-length block", i * _WORD)
        kind = word & 3
        at.append(i)
        i += 1
        if kind == _KIND_LITERAL:
            i += count
            if i > end:
                raise RleDecodeError("truncated literal block", (i - count) * _WORD)
        elif kind == _KIND_RUN:
            i += 1
            if i > end:
                raise RleDecodeError("truncated run value", (i - 1) * _WORD)
        elif kind != _KIND_ZERO:
            raise RleDecodeError("invalid block kind", (i - 1) * _WORD)
    if i * _WORD < len(body):
        raise RleDecodeError("truncated control word", i * _WORD)
    pad = (word >> 2) & 7  # the final block carries the pad

    literal = len(at) == 1 and kind == _KIND_LITERAL
    if literal:
        decoded_words = count
    else:
        at = np.array(at)
        kinds = words[at] & 3
        counts = words[at] >> 5
        # the chunk decodes to sum(counts) words; a float64 sum is exact far
        # past the bound and, unlike uint64, cannot wrap back under it
        decoded_words = counts.sum(dtype=np.float64)
    if decoded_words * _WORD - pad > MAX_CHUNK_SIZE:
        raise RleDecodeError(f"blocks expand past {MAX_CHUNK_SIZE} bytes", 0)

    if literal:
        result = body[8:]
    else:
        counts = counts.astype(np.int64)
        # literal words appear once, a run value word `count` times, a
        # control word never, except a zero run's, which stands in for
        # its zeros
        repeats = np.ones(len(words), dtype=np.int64)
        repeats[at] = 0
        runs = kinds == _KIND_RUN
        repeats[at[runs] + 1] = counts[runs]
        zeros = kinds == _KIND_ZERO
        if zeros.any():
            repeats[at[zeros]] = counts[zeros]
            words = words.copy()
            words[at[zeros]] = 0
        result = memoryview(np.repeat(words, repeats).view(np.uint8)).toreadonly()

    # every block spans >= 8 bytes, so the pad lies in the final block
    if pad:
        if result[-pad:] != bytes(pad):
            raise RleDecodeError("nonzero padding", len(body))
        result = result[:-pad]
    if zlib.crc32(result) != expected_crc:
        raise RleDecodeError("checksum mismatch", len(body))
    return result if result.readonly else result.tobytes()
