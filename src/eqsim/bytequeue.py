"""A FIFO of byte pieces from which exact byte counts are taken.

Every byte stream reader in the package (pipes, input streams, the
multicast protocol's send and delivery queues, the simulated consumer)
queues the pieces it receives here and takes out exactly as many bytes as
it asks for.  A piece is queued as it is, never copied, so it must be a
`bytes` object or a byte `memoryview` that nobody changes afterwards.
`take` copies only the bytes it returns, once: one slice of the head
piece, or one join of views when they span several pieces.  A `bytes`
piece that is exactly the bytes asked for is handed over itself.
"""

from __future__ import annotations


class ByteQueue:
    __slots__ = ("_pieces", "_offset", "_size")

    def __init__(self):
        # a list once a piece arrives: a simulated group holds two queues
        # per member and writer, and most of them never see a byte
        self._pieces = ()
        self._offset = 0  # bytes of the head piece already taken
        self._size = 0  # bytes not yet taken

    def __len__(self) -> int:
        return self._size

    @property
    def pieces(self) -> int:
        """Pieces not yet fully taken."""
        return len(self._pieces)

    def append(self, piece) -> None:
        """Queue `piece` without copying it; an empty piece is dropped."""
        if piece:
            if self._pieces:
                self._pieces.append(piece)
            else:
                self._pieces = [piece]
            self._size += len(piece)

    def take(self, n: int) -> bytes:
        """Remove and return the next `n` bytes; at most `len(self)`."""
        if not 0 <= n <= self._size:
            raise ValueError(f"cannot take {n} of {self._size} queued bytes")
        if n == 0:
            return b""
        pieces, start = self._pieces, self._offset
        end = start + n
        head = pieces[0]
        i = 0  # the last piece the bytes come from
        if end <= len(head):
            if start == 0 and end == len(head) and type(head) is bytes:
                out = head
            else:
                out = head[start:end]
                if type(out) is not bytes:
                    out = bytes(out)
        else:
            parts = [memoryview(head)[start:]]
            end = n - len(parts[0])
            i = 1
            while end > len(pieces[i]):
                parts.append(pieces[i])
                end -= len(pieces[i])
                i += 1
            parts.append(memoryview(pieces[i])[:end])
            out = b"".join(parts)
        if end == len(pieces[i]):
            i += 1
            end = 0
        del pieces[:i]  # shifts the rest: a list, unlike a deque, is cheap to create
        self._offset = end
        self._size -= n
        return out
