"""Generic distributed primitives: barrier, work queue, object map.

All three follow the master/slave pattern of the object layer: one node
owns the authoritative state, remote participants reach it through
commands addressed by the collective's id.
"""

from __future__ import annotations

import struct
import threading
import uuid
from collections import deque
from typing import Optional

from ..codec.streams import InputStream, OutputStream
from ..net.connection import TransportError
from ..net.node import Command, RemoteError, RemoteNode
from .base import (
    VERSION_HEAD,
    ChangeType,
    DistributedObject,
    ObjectError,
    UnknownObjectError,
)
from .manager import ObjectManager
from .serializable import Serializable

CMD_BARRIER_ENTER = 0x30
CMD_QUEUE_POP = 0x31
CMD_QUEUE_ITEM = 0x32

_ITEM_END = 1


class BarrierError(ObjectError):
    pass


class QueueError(ObjectError):
    pass


def _install_collective_handlers(manager: ObjectManager) -> None:
    if getattr(manager, "_collectives_installed", False):
        return
    manager.node.register_handler(CMD_BARRIER_ENTER, lambda cmd: _on_barrier_enter(manager, cmd))
    manager.node.register_handler(CMD_QUEUE_POP, lambda cmd: _on_queue_pop(manager, cmd))
    manager.node.register_handler(CMD_QUEUE_ITEM, lambda cmd: _on_queue_item(manager, cmd))
    manager.node.peer_disconnected_callbacks.append(
        lambda peer: _on_collective_peer_lost(manager, peer)
    )
    manager._collectives_installed = True
    manager.queue_consumers = {}


def _on_barrier_enter(manager: ObjectManager, cmd: Command) -> None:
    barrier_id = uuid.UUID(bytes=cmd.payload[:16])
    (round_no,) = struct.unpack_from("<Q", cmd.payload, 16)
    master = manager.collectives.get(barrier_id)
    if not isinstance(master, BarrierMaster):
        cmd.reply_error("unknown barrier")
        return
    master._enter(round_no, reply=cmd.reply, reply_error=cmd.reply_error, peer=cmd.peer.node_id)


def _on_queue_pop(manager: ObjectManager, cmd: Command) -> None:
    queue_id = uuid.UUID(bytes=cmd.payload[:16])
    (credits,) = struct.unpack_from("<H", cmd.payload, 16)
    master = manager.collectives.get(queue_id)
    if isinstance(master, DistributedQueue):
        master._serve(cmd.peer, credits)


def _on_queue_item(manager: ObjectManager, cmd: Command) -> None:
    queue_id = uuid.UUID(bytes=cmd.payload[:16])
    consumer = manager.queue_consumers.get(queue_id)
    if consumer is not None:
        consumer._on_item(cmd.payload[16], cmd.payload[17:])


def _on_collective_peer_lost(manager: ObjectManager, peer: RemoteNode) -> None:
    for master in list(manager.collectives.values()):
        if isinstance(master, BarrierMaster):
            master._peer_lost(peer.node_id)


class BarrierMaster:
    """Master side of a distributed barrier; also a local participant handle."""

    def __init__(self, manager: ObjectManager, height: int):
        if height < 1:
            raise ValueError("height must be at least 1")
        _install_collective_handlers(manager)
        self.manager = manager
        self.barrier_id = uuid.uuid4()
        self.height = height
        self._lock = threading.Lock()
        self._rounds: dict[int, list] = {}   # round -> waiter list
        self._entered: dict[int, set] = {}   # round -> participant ids seen
        self._local_round = 0
        self._failed: Optional[str] = None
        manager.collectives[self.barrier_id] = self

    def _enter(self, round_no: int, reply, reply_error, peer) -> None:
        with self._lock:
            if self._failed:
                reply_error(self._failed)
                return
            waiters = self._rounds.setdefault(round_no, [])
            waiters.append((reply, reply_error))
            self._entered.setdefault(round_no, set()).add(peer)
            if len(waiters) < self.height:
                return
            done = self._rounds.pop(round_no)
            self._entered.pop(round_no, None)
        for ok, _ in done:
            try:
                ok(b"")
            except Exception:
                pass  # releasing a participant that just vanished

    def enter(self, timeout: float = 30.0) -> None:
        """Participate from the master node itself."""
        event = threading.Event()
        holder = {"error": None}

        def ok(_payload: bytes = b"") -> None:
            event.set()

        def err(message: str) -> None:
            holder["error"] = message
            event.set()

        round_no = self._local_round
        self._local_round += 1
        self._enter(round_no, ok, err, peer="local")
        if not event.wait(timeout):
            raise BarrierError(f"barrier round {round_no} timed out")
        if holder["error"]:
            raise BarrierError(holder["error"])

    def _peer_lost(self, peer_id) -> None:
        with self._lock:
            affected = any(peer_id in seen for seen in self._entered.values())
            if not affected:
                return
            self._failed = f"barrier participant {peer_id} disconnected"
            pending = [w for ws in self._rounds.values() for w in ws]
            self._rounds.clear()
            self._entered.clear()
        for _, err in pending:
            try:
                err(self._failed)
            except Exception:
                pass


class BarrierSlave:
    """Remote participant handle."""

    def __init__(self, manager: ObjectManager, barrier_id: uuid.UUID, timeout: float = 30.0):
        _install_collective_handlers(manager)
        self.manager = manager
        self.barrier_id = barrier_id
        self.master = manager.locate_master(barrier_id, timeout)
        self._round = 0

    def enter(self, timeout: float = 30.0) -> None:
        payload = self.barrier_id.bytes + struct.pack("<Q", self._round)
        self._round += 1
        try:
            self.master.request(CMD_BARRIER_ENTER, payload, timeout=timeout)
        except (RemoteError, TransportError) as exc:
            raise BarrierError(str(exc)) from exc


def barrier_enter(barrier, timeout: float = 30.0) -> None:
    barrier.enter(timeout)


class DistributedQueue:
    """Single-producer FIFO; items are handed to exactly one consumer."""

    def __init__(self, manager: ObjectManager):
        _install_collective_handlers(manager)
        self.manager = manager
        self.queue_id = uuid.uuid4()
        self._items: deque[bytes] = deque()
        self._pending: deque = deque()  # (peer, credits) served as items arrive
        self._closed = False
        self._lock = threading.Lock()
        self.pushed = 0
        manager.collectives[self.queue_id] = self

    def push(self, item: bytes) -> None:
        with self._lock:
            if self._closed:
                raise QueueError("queue closed")
            self._items.append(bytes(item))
            self.pushed += 1
            sends = self._collect_sends()
        self._dispatch(sends)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            sends = self._collect_sends()
        self._dispatch(sends)

    def _collect_sends(self) -> list:
        sends = []
        while self._pending:
            peer, credits = self._pending.popleft()
            while credits and self._items:
                sends.append((peer, 0, self._items.popleft()))
                credits -= 1
            if credits:
                if self._closed:
                    sends.append((peer, _ITEM_END, b""))
                else:
                    self._pending.appendleft((peer, credits))
                break
        return sends

    def _serve(self, peer: RemoteNode, credits: int) -> None:
        with self._lock:
            self._pending.append((peer, credits))
            sends = self._collect_sends()
        self._dispatch(sends)

    def _dispatch(self, sends: list) -> None:
        for peer, flags, item in sends:
            peer.send_command(CMD_QUEUE_ITEM, self.queue_id.bytes + bytes([flags]) + item)


class QueueConsumer:
    """Consumer proxy; prefetches into a local queue to hide latency."""

    def __init__(self, manager: ObjectManager, queue_id: uuid.UUID, prefetch: int = 4, timeout: float = 30.0):
        if prefetch < 1:
            raise ValueError("prefetch window must be at least 1")
        _install_collective_handlers(manager)
        if queue_id in manager.queue_consumers:
            raise QueueError("queue already mapped on this node")
        self.manager = manager
        self.queue_id = queue_id
        self.prefetch = prefetch
        self.master = manager.locate_master(queue_id, timeout)
        self._local: deque[bytes] = deque()
        self._cond = threading.Condition()
        self._ended = False
        self.max_buffered = 0
        manager.queue_consumers[queue_id] = self
        self._request(prefetch)

    def _request(self, credits: int) -> None:
        self.master.send_command(CMD_QUEUE_POP, self.queue_id.bytes + struct.pack("<H", credits))

    def _on_item(self, flags: int, item: bytes) -> None:
        with self._cond:
            if flags & _ITEM_END:
                self._ended = True
            else:
                self._local.append(item)
                self.max_buffered = max(self.max_buffered, len(self._local))
            self._cond.notify_all()

    def pop(self, timeout: float = 30.0) -> Optional[bytes]:
        with self._cond:
            if not self._cond.wait_for(lambda: self._local or self._ended, timeout):
                raise QueueError("queue pop timed out")
            if self._local:
                item = self._local.popleft()
                ended = self._ended
            else:
                return None
        if not ended:
            self._request(1)
        return item


def queue_push(queue: DistributedQueue, item: bytes) -> None:
    queue.push(item)


def queue_pop(consumer: QueueConsumer, timeout: float = 30.0) -> Optional[bytes]:
    return consumer.pop(timeout)


class ObjectMap(Serializable):
    """Directory of distributed objects enabling one-call commit and sync.

    The master registers objects; committing the map commits every dirty
    registered object, records their versions, then commits the map
    itself.  Slaves selectively map entries they care about; syncing the
    map advances each mapped entry to the version recorded at the map's
    target version.
    """

    DIRTY_ENTRIES = 1 << 1
    DIRTY_BITS = DIRTY_ENTRIES

    def __init__(self):
        super().__init__()
        self.entries: dict[uuid.UUID, tuple[int, int]] = {}  # id -> (version, type tag)
        self._registered: list[DistributedObject] = []
        self._mapped: dict[uuid.UUID, DistributedObject] = {}

    # --- serialization -----------------------------------------------------

    def serialize(self, stream: OutputStream, mask: int) -> None:
        if mask & self.DIRTY_ENTRIES:
            items = sorted(self.entries.items(), key=lambda kv: kv[0].bytes)
            stream.write_u32(len(items))
            for object_id, (version, tag) in items:
                stream.write(object_id.bytes)
                stream.write_u64(version)
                stream.write_i64(tag)

    def deserialize(self, stream: InputStream, mask: int) -> None:
        if mask & self.DIRTY_ENTRIES:
            count = stream.read_u32()
            self.entries = {}
            for _ in range(count):
                object_id = uuid.UUID(bytes=stream.read(16))
                version = stream.read_u64()
                tag = stream.read_i64()
                self.entries[object_id] = (version, tag)

    # --- master ---------------------------------------------------------------

    def register(self, obj: DistributedObject, change_type: ChangeType, type_tag: int = 0) -> uuid.UUID:
        if self._manager is None or not self.is_master:
            raise ObjectError("map must be a registered master before adding objects")
        object_id = self._manager.register_object(obj, change_type)
        self._registered.append(obj)
        self.entries[object_id] = (obj.version, type_tag)
        self.set_dirty(self.DIRTY_ENTRIES)
        return object_id

    def commit_all(self) -> int:
        if self._manager is None or not self.is_master:
            raise ObjectError("commit_all requires the master map")
        for obj in self._registered:
            if obj.change_type.versioned and obj.is_dirty():
                version = self._manager.commit(obj)
                tag = self.entries[obj.object_id][1]
                if self.entries[obj.object_id][0] != version:
                    self.entries[obj.object_id] = (version, tag)
                    self.set_dirty(self.DIRTY_ENTRIES)
        return self._manager.commit(self)

    # --- slave ------------------------------------------------------------------

    def map_entry(self, object_id: uuid.UUID, instance: DistributedObject, timeout: float = 30.0) -> int:
        if object_id not in self.entries:
            raise UnknownObjectError(f"{object_id} is not in this map")
        version, _ = self.entries[object_id]
        mapped = self._manager.map_object(instance, object_id, version, timeout)
        self._mapped[object_id] = instance
        return mapped

    def sync_all(self, target: int = VERSION_HEAD, timeout: float = 30.0) -> int:
        if self._manager is None or self.is_master:
            raise ObjectError("sync_all runs on mapped slave maps")
        reached = self._manager.sync(self, target, timeout)
        for object_id, instance in self._mapped.items():
            if object_id not in self.entries:
                continue
            recorded, _ = self.entries[object_id]
            try:
                self._manager.sync(instance, recorded, timeout)
            except (ObjectError, TimeoutError) as exc:
                raise ObjectError(f"object {object_id} cannot reach version {recorded}: {exc}") from exc
        return reached


def objectmap_commit(map_master: ObjectMap) -> int:
    return map_master.commit_all()


def objectmap_sync(map_slave: ObjectMap, target: int = VERSION_HEAD) -> int:
    return map_slave.sync_all(target)
