"""Dirty-bit driven partial serialization.

A Serializable marks changed parts of its state in a 64-bit mask; commits
transmit exactly the masked fields and clear the mask.  Subclasses declare
their valid bits and implement serialize/deserialize honoring the mask.
Bit 0 is reserved for attachment bookkeeping; field bits start at bit 1.
"""

from __future__ import annotations

from ..codec.streams import InputStream, OutputStream
from .base import DistributedObject, ObjectError

DIRTY_NONE = 0
BIT_ATTACHED = 1 << 0  # reserved
DIRTY_ALL = (1 << 64) - 1


class DirtyMaskError(ObjectError):
    pass


class Serializable(DistributedObject):
    #: valid field bits, to be extended by subclasses (never bit 0)
    DIRTY_BITS = DIRTY_NONE

    def __init__(self):
        super().__init__()
        self._dirty = DIRTY_NONE

    # --- dirty bookkeeping ------------------------------------------------

    @property
    def dirty_mask(self) -> int:
        return self._dirty

    def set_dirty(self, bits: int) -> None:
        self._validate(bits)
        self._dirty |= bits

    def clear_dirty(self) -> None:
        self._dirty = DIRTY_NONE

    def is_dirty(self) -> bool:
        return self._dirty != DIRTY_NONE

    def _validate(self, mask: int) -> None:
        if mask & BIT_ATTACHED:
            raise DirtyMaskError("bit 0 is reserved")
        unknown = mask & ~type(self).DIRTY_BITS & DIRTY_ALL
        if unknown:
            raise DirtyMaskError(f"unknown dirty bits 0x{unknown:x} for {type(self).__name__}")

    # --- application contract ----------------------------------------------

    def serialize(self, stream: OutputStream, mask: int) -> None:
        raise NotImplementedError

    def deserialize(self, stream: InputStream, mask: int) -> None:
        raise NotImplementedError

    # --- manager integration ------------------------------------------------

    def serialize_instance(self, stream: OutputStream) -> None:
        # object mapping passes all dirty bits
        self.serialize(stream, type(self).DIRTY_BITS)

    def deserialize_instance(self, stream: InputStream) -> None:
        self.deserialize(stream, type(self).DIRTY_BITS)

    def serialize_delta(self, stream: OutputStream) -> None:
        self._validate(self._dirty)
        self.serialize(stream, self._dirty)

    def apply_delta(self, stream: InputStream, mask: int) -> None:
        self._validate(mask)
        self.deserialize(stream, mask)
