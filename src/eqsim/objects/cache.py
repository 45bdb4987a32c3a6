"""Client-side instance data cache.

Keyed by (object id, version); filled by preloading at registration time
and by snooping on multicast commit traffic.  Mapping consults the cache
first, turning a warm map into a metadata-only exchange.
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
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, object_id: uuid.UUID, version: int) -> bytes | None:
        with self._lock:
            data = self._entries.get((object_id, version))
            if data is None:
                self.misses += 1
                return None
            self._entries.move_to_end((object_id, version))
            self.hits += 1
            return data

    def versions(self, object_id: uuid.UUID) -> list[int]:
        with self._lock:
            return sorted(v for (oid, v) in self._entries if oid == object_id)

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
