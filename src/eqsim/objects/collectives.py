"""Generic distributed primitives: barrier, work queue, object map.

All three follow the master/slave pattern of the object layer: one node
owns the authoritative state, remote participants reach it through
commands addressed by the collective's id.  Barriers, queues and queue
consumers enter themselves in the manager's collective table of the
command they take; the manager hands them each such command by the id at
the head of its payload and tells them of every lost peer, and only
masters answer a locate.  A `timeout` bounds the whole call, and every
call that outlives it raises TimeoutError, on a master or a slave alike;
BarrierError and QueueError mean the collective itself failed.  A barrier
entry is always a command, which the master sends to its own node's
loopback; it fails at once with BarrierError once a participant that has
entered any round is lost, whether mid-round or between rounds, or when
the entering node closes.  A pop fails with QueueError when its queue's
master is lost.  A queue item stays the queue's until its consumer
acknowledges it, the end of a closed queue waits for every item handed
out, and a lost consumer's unacknowledged items go back.  So after an
orderly close of a consumer's node, each item is popped exactly once.
"""

from __future__ import annotations

import struct
import threading
import time
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
from .manager import CMD_BARRIER_ENTER, CMD_QUEUE_ITEM, CMD_QUEUE_POP, ObjectManager
from .serializable import Serializable

_ITEM_END = 1


class BarrierError(ObjectError):
    pass


class QueueError(ObjectError):
    pass


def _enter(master: RemoteNode, barrier_id: uuid.UUID, round_no: int, timeout: float) -> None:
    """Enter round `round_no` of a barrier through its master's node."""
    payload = barrier_id.bytes + struct.pack("<Q", round_no)
    try:
        master.request(CMD_BARRIER_ENTER, payload, timeout=timeout)
    except TimeoutError:
        raise TimeoutError(f"barrier round {round_no} timed out") from None
    except (RemoteError, TransportError) as exc:
        raise BarrierError(str(exc)) from exc


def _answer(entries: list[Command], error: Optional[str]) -> None:
    """Release waiting barrier entries, or fail them with `error`."""
    for cmd in entries:
        try:
            if error is None:
                cmd.reply()
            else:
                cmd.reply_error(error)
        except TransportError:
            pass  # answering a participant that just vanished


class BarrierMaster:
    """Master side of a distributed barrier; also a local participant handle."""

    def __init__(self, manager: ObjectManager, height: int):
        if height < 1:
            raise ValueError("height must be at least 1")
        self.manager = manager
        self.barrier_id = uuid.uuid4()
        self.height = height
        self._lock = threading.Lock()
        self._rounds: dict[int, list[Command]] = {}  # round -> waiting entries
        self._entered: set = set()  # every participant id that has entered
        self._round = 0
        self._failed: Optional[str] = None
        manager.collectives[CMD_BARRIER_ENTER][self.barrier_id] = self

    def _on_command(self, cmd: Command) -> None:
        (round_no,) = struct.unpack_from("<Q", cmd.payload, 16)
        with self._lock:
            if self._failed:
                done, error = [cmd], self._failed
            else:
                waiters = self._rounds.setdefault(round_no, [])
                waiters.append(cmd)
                self._entered.add(cmd.peer.node_id)
                if len(waiters) < self.height:
                    return
                done, error = self._rounds.pop(round_no), None
        _answer(done, error)

    def enter(self, timeout: float = 30.0) -> None:
        """Participate from the master node itself."""
        self._round += 1
        _enter(self.manager.node.loopback, self.barrier_id, self._round - 1, timeout)

    def _peer_lost(self, peer: RemoteNode) -> None:
        with self._lock:
            if peer.node_id not in self._entered:
                return
            self._failed = f"barrier participant {peer.node_id} disconnected"
            pending = [cmd for cmds in self._rounds.values() for cmd in cmds]
            self._rounds.clear()
        _answer(pending, self._failed)


class BarrierSlave:
    """Remote participant handle."""

    def __init__(self, manager: ObjectManager, barrier_id: uuid.UUID, timeout: float = 30.0):
        self.barrier_id = barrier_id
        self.master = manager.locate_master(barrier_id, timeout)
        self._round = 0

    def enter(self, timeout: float = 30.0) -> None:
        self._round += 1
        _enter(self.master, self.barrier_id, self._round - 1, timeout)


class DistributedQueue:
    """Single-producer FIFO; items are handed to one consumer at a time.

    Each request of a consumer after its first acknowledges the oldest item
    sent to it.  A waiting consumer holds one credit count: its requests
    add to it, and the counts are served in the order they were opened,
    each until it is spent or the queue is empty, so a consumer's later
    credits queue with its earlier ones.  Unacknowledged items go back to
    the head of the queue, in order, when their consumer is lost, and the
    end waits for them; then each consumer that holds credits gets one end
    frame.
    """

    def __init__(self, manager: ObjectManager):
        self.queue_id = uuid.uuid4()
        self._items: deque[bytes] = deque()
        self._pending: dict[RemoteNode, int] = {}  # consumer -> credits, served as items arrive
        self._handed: dict[RemoteNode, deque[bytes]] = {}  # consumer -> items it has not acknowledged
        self._closed = False
        self._lock = threading.Lock()
        manager.collectives[CMD_QUEUE_POP][self.queue_id] = self

    def push(self, item: bytes) -> None:
        with self._lock:
            if self._closed:
                raise QueueError("queue closed")
            self._items.append(bytes(item))
            self._dispatch()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._dispatch()

    def _on_command(self, cmd: Command) -> None:
        (credits,) = struct.unpack_from("<H", cmd.payload, 16)
        with self._lock:
            handed = self._handed.setdefault(cmd.peer, deque())
            if handed:
                handed.popleft()  # popped, since a consumer pops in order
            self._pending[cmd.peer] = self._pending.get(cmd.peer, 0) + credits
            self._dispatch()

    def _peer_lost(self, peer: RemoteNode) -> None:
        with self._lock:
            self._items.extendleft(reversed(self._handed.pop(peer, ())))
            self._pending.pop(peer, None)
            self._dispatch()

    def _dispatch(self) -> None:
        """Send what the pending credits take.  Runs under the lock, so each
        consumer receives its items in the order they are recorded."""
        for peer, credits in list(self._pending.items()):
            handed = self._handed[peer]
            while credits and self._items:
                handed.append(self._items.popleft())
                self._send(peer, 0, handed[-1])
                credits -= 1
            if credits:
                if not self._closed or any(self._handed.values()):
                    self._pending[peer] = credits
                    return
                self._send(peer, _ITEM_END, b"")
            del self._pending[peer]

    def _send(self, peer: RemoteNode, flags: int, item: bytes) -> None:
        try:
            peer.send_command(CMD_QUEUE_ITEM, self.queue_id.bytes + bytes([flags]) + item)
        except TransportError:
            pass  # changes nothing: the loss of `peer` returns its items


class QueueConsumer:
    """Consumer proxy; prefetches into a local queue to hide latency."""

    def __init__(self, manager: ObjectManager, queue_id: uuid.UUID, prefetch: int = 4, timeout: float = 30.0):
        if prefetch < 1:
            raise ValueError("prefetch window must be at least 1")
        consumers = manager.collectives[CMD_QUEUE_ITEM]
        if queue_id in consumers:
            raise QueueError("queue already mapped on this node")
        self.queue_id = queue_id
        self.prefetch = prefetch
        self.master = manager.locate_master(queue_id, timeout)
        self._local: deque[bytes] = deque()
        self._cond = threading.Condition()
        self._ended = False
        self.max_buffered = 0
        consumers[queue_id] = self
        self._request(prefetch)

    def _request(self, credits: int) -> None:
        self.master.send_command(CMD_QUEUE_POP, self.queue_id.bytes + struct.pack("<H", credits))

    def _on_command(self, cmd: Command) -> None:
        with self._cond:
            if cmd.payload[16] & _ITEM_END:
                self._ended = True
            else:
                self._local.append(cmd.payload[17:])
                self.max_buffered = max(self.max_buffered, len(self._local))
            self._cond.notify_all()

    def _peer_lost(self, peer: RemoteNode) -> None:
        with self._cond:
            self._cond.notify_all()  # a pop from a lost master fails at once

    def pop(self, timeout: float = 30.0) -> Optional[bytes]:
        with self._cond:
            if not self._cond.wait_for(lambda: self._local or self._ended or not self.master.alive, timeout):
                raise TimeoutError("queue pop timed out")
            if self._local:
                item = self._local.popleft()
            elif self._ended:
                return None
            else:
                raise QueueError(f"queue master {self.master.node_id} disconnected")
        try:
            self._request(1)  # acknowledges `item`
        except TransportError:
            pass  # the master is gone; the next pop reports it
        return item


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
        self._instances: dict[uuid.UUID, DistributedObject] = {}  # registered, or mapped on a slave

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
        self._instances[object_id] = obj
        self.entries[object_id] = (obj.version, type_tag)
        self.set_dirty(self.DIRTY_ENTRIES)
        return object_id

    def commit_all(self) -> int:
        if self._manager is None or not self.is_master:
            raise ObjectError("commit_all requires the master map")
        for object_id, obj in self._instances.items():
            if obj.change_type.versioned and obj.is_dirty():
                version = self._manager.commit(obj)
                recorded, tag = self.entries[object_id]
                if recorded != version:
                    self.entries[object_id] = (version, tag)
                    self.set_dirty(self.DIRTY_ENTRIES)
        return self._manager.commit(self)

    # --- slave ------------------------------------------------------------------

    def map_entry(self, object_id: uuid.UUID, instance: DistributedObject, timeout: float = 30.0) -> int:
        if object_id not in self.entries:
            raise UnknownObjectError(f"{object_id} is not in this map")
        version, _ = self.entries[object_id]
        mapped = self._manager.map_object(instance, object_id, version, timeout)
        self._instances[object_id] = instance
        return mapped

    def sync_all(self, target: int = VERSION_HEAD, timeout: float = 30.0) -> int:
        if self._manager is None or self.is_master:
            raise ObjectError("sync_all runs on mapped slave maps")
        deadline = time.monotonic() + timeout
        reached = self._manager.sync(self, target, timeout)
        for object_id, instance in self._instances.items():
            recorded, _ = self.entries[object_id]
            try:
                self._manager.sync(instance, recorded, deadline - time.monotonic())
            except (ObjectError, TimeoutError) as exc:
                raise ObjectError(f"object {object_id} cannot reach version {recorded}: {exc}") from exc
        return reached
