"""Distributed object fundamentals: identity, versions, change policies."""

from __future__ import annotations

import uuid
from enum import IntEnum

from ..codec.streams import InputStream, OutputStream

VERSION_NONE = 0
# mapping sentinels, never valid concrete versions
VERSION_OLDEST = -2
VERSION_HEAD = -1


class ChangeType(IntEnum):
    STATIC = 0      # immutable; never committed, keeps its registered push
    INSTANCE = 1    # versioned, buffered; commits send full instance data
    DELTA = 2       # versioned, buffered; commits send deltas
    UNBUFFERED = 3  # versioned; keeps only head, so old versions cannot be mapped

    @property
    def versioned(self) -> bool:
        return self is not ChangeType.STATIC

    @property
    def buffered(self) -> bool:
        return self in (ChangeType.INSTANCE, ChangeType.DELTA)


class ObjectError(Exception):
    pass


class UnknownObjectError(ObjectError):
    pass


class VersionError(ObjectError):
    pass


class NotMasterError(ObjectError):
    pass


class SlaveDisconnectedError(ObjectError):
    pass


class DistributedObject:
    """Base for replicated state; subclasses implement serialization.

    The master instance is registered on one node and generates versions on
    commit; slave instances map the id elsewhere and advance via sync.  A
    subclass implements `serialize_instance` and `deserialize_instance`.  A
    DELTA commit writes `serialize_delta` and carries `dirty_mask` to the
    slaves' `apply_delta(stream, mask)`; by default the delta is the full
    instance data, which `apply_delta` reads with `deserialize_instance`.
    """

    dirty_mask = 0

    def __init__(self):
        self.object_id: uuid.UUID | None = None
        self.version = VERSION_NONE
        self.change_type: ChangeType | None = None
        self.is_master = False
        self._manager = None

    # application contract
    def serialize_instance(self, stream: OutputStream) -> None:
        raise NotImplementedError

    def deserialize_instance(self, stream: InputStream) -> None:
        raise NotImplementedError

    def serialize_delta(self, stream: OutputStream) -> None:
        self.serialize_instance(stream)

    def apply_delta(self, stream: InputStream, mask: int) -> None:
        self.deserialize_instance(stream)

    def is_dirty(self) -> bool:
        return True

    def clear_dirty(self) -> None:
        pass

    # conveniences once attached
    def commit(self) -> int:
        if self._manager is None:
            raise ObjectError("object not attached")
        return self._manager.commit(self)

    def sync(self, target: int = VERSION_HEAD, timeout: float = 30.0) -> int:
        if self._manager is None:
            raise ObjectError("object not attached")
        return self._manager.sync(self, target, timeout)
