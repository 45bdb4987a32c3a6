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
is bounded: len(compress(x)) <= len(x) + 20 bytes.
"""

from __future__ import annotations

import struct
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

_U64 = struct.Struct("<Q")


class RleDecodeError(ValueError):
    """Corrupt or truncated RLE data; `offset` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at compressed offset {offset})")
        self.offset = offset


def _control(kind: int, count: int, pad: int = 0) -> bytes:
    return _U64.pack(kind | (pad << 2) | (count << 5))


def compress(data) -> bytes:
    """Encode any bytes-like object; only an input that is not a word
    multiple is copied (to pad it)."""
    view = memoryview(data).cast("B")
    if len(view) == 0:
        return b""

    pad = (-len(view)) % _WORD
    padded = memoryview(view.tobytes() + bytes(pad)) if pad else view
    words = np.frombuffer(padded, dtype="<u8")
    n = len(words)

    # same[i + 1]: word i + 1 equals word i.  Its edges delimit the runs of
    # two or more equal words, the only runs that can pay off, so the work
    # past this point scales with the runs, not with the word changes
    same = np.concatenate(([False], words[1:] == words[:-1], [False]))
    edges = np.flatnonzero(same[1:] != same[:-1])
    starts = edges[0::2]
    lengths = edges[1::2] + 1 - starts
    zero = words[starts] == 0
    worthwhile = (lengths >= _MIN_RUN) | (zero & (lengths >= _MIN_ZERO_RUN))

    out = []
    ctrl_at = 0    # index in `out` of the latest control word
    lit_start = 0  # word index where the pending literal stretch begins
    for s, count, is_zero in zip(
        starts[worthwhile].tolist(), lengths[worthwhile].tolist(), zero[worthwhile].tolist()
    ):
        if s > lit_start:
            ctrl_at = len(out)
            out.append(_control(_KIND_LITERAL, s - lit_start))
            out.append(padded[lit_start * _WORD : s * _WORD])
        ctrl_at = len(out)
        if is_zero:
            out.append(_control(_KIND_ZERO, count))
        else:
            out.append(_control(_KIND_RUN, count))
            out.append(padded[s * _WORD : (s + 1) * _WORD])
        lit_start = s + count
    if lit_start < n:
        ctrl_at = len(out)
        out.append(_control(_KIND_LITERAL, n - lit_start))
        out.append(padded[lit_start * _WORD :])

    if pad:
        word = _U64.unpack(out[ctrl_at])[0]
        out[ctrl_at] = _U64.pack(word | (pad << 2))

    out.append(struct.pack("<I", zlib.crc32(view)))
    return b"".join(out)


def decompress(data) -> bytes:
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
        word = _U64.unpack_from(body, pos)[0]
        kind = word & 3
        pad = (word >> 2) & 7
        count = word >> 5
        pos += 8
        if count == 0:
            raise RleDecodeError("zero-length block", pos - 8)
        if kind == _KIND_LITERAL:
            nbytes = count * _WORD
            if end - pos < nbytes:
                raise RleDecodeError("truncated literal block", pos)
            parts.append(body[pos : pos + nbytes])
            pos += nbytes
        elif kind == _KIND_RUN:
            if end - pos < 8:
                raise RleDecodeError("truncated run value", pos)
            parts.append(body[pos : pos + 8].tobytes() * count)
            pos += 8
        elif kind == _KIND_ZERO:
            parts.append(b"\x00" * (count * _WORD))
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
