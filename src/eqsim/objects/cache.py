"""Client-side instance data cache.

Keyed by (object id, version); filled by the instance pushes a node
receives for objects it has not mapped: preloads at registration time and
snooped multicast commits.  Mapping consults the cache first, turning a
warm map into a metadata-only exchange.
"""

from __future__ import annotations

import threading
import uuid
from collections import OrderedDict


class InstanceCache:
    def __init__(self, capacity_bytes: int = 64 << 20):
        self.capacity = capacity_bytes
        self._entries: OrderedDict[tuple[uuid.UUID, int], bytes] = OrderedDict()
        self._size = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self, object_id: uuid.UUID) -> dict[int, bytes]:
        """The cached instances of `object_id`, by version in ascending order:
        one snapshot, which later evictions do not change."""
        with self._lock:
            versions = sorted(v for oid, v in self._entries if oid == object_id)
            return {v: self._entries[object_id, v] for v in versions}

    def versions(self, object_id: uuid.UUID) -> list[int]:
        return list(self.entries(object_id))

    def put(self, object_id: uuid.UUID, version: int, data: bytes) -> None:
        if len(data) > self.capacity:
            return
        with self._lock:
            key = (object_id, version)
            old = self._entries.pop(key, None)
            if old is not None:
                self._size -= len(old)
            self._entries[key] = data
            self._size += len(data)
            while self._size > self.capacity:
                _, evicted = self._entries.popitem(last=False)
                self._size -= len(evicted)
