"""Master/slave replication of versioned objects across nodes.

One ObjectManager per node owns every registered master and every mapped
slave on that node.  Mapping is a slave-triggered pull: the slave locates
the master among its connected peers and requests instance data (or
confirms a cached copy).  Commits are master-triggered pushes: delta or
instance payloads are queued on the slaves and applied when the
application syncs.  With a multicast hub joined and at least two slaves
mapped, one broadcast replaces the per-slave unicasts, and idle nodes
cache snooped instance payloads.

Instance and delta payloads are chunked byte streams (optionally
compressed per chunk) produced by the codec layer's output streams.  A
commit serializes the instance once, in this wire form; the history of
buffered objects keeps that payload per version, and it serves the push,
the map reply and the catch-up pushes to a slave mapped behind head.
"""

from __future__ import annotations

import bisect
import struct
import threading
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

from ..codec.engines import CompressionEngine
from ..codec.streams import DEFAULT_CHUNK_SIZE, InputStream, OutputStream, iter_frames
from ..net.connection import TransportError
from ..net.node import Command, LocalNode, RemoteError, RemoteNode
from .base import (
    VERSION_FIRST,
    VERSION_HEAD,
    VERSION_NONE,
    VERSION_OLDEST,
    ChangeType,
    DistributedObject,
    NotMasterError,
    ObjectError,
    SlaveDisconnectedError,
    UnknownObjectError,
    VersionError,
)
from .cache import InstanceCache
from .serializable import Serializable

CMD_OBJ_LOCATE = 0x20
CMD_OBJ_MAP = 0x21
CMD_OBJ_UNMAP = 0x22
CMD_OBJ_PUSH = 0x23
CMD_OBJ_TOKEN = 0x24
CMD_OBJ_PRELOAD = 0x25

KIND_INSTANCE = 0
KIND_DELTA = 1

_MAP_REQ = struct.Struct("<16sq H")  # id, requested version, n cached versions
_PUSH_HEAD = struct.Struct("<16sQBQ")  # id, version, kind, dirty mask


@dataclass
class _MasterEntry:
    obj: DistributedObject
    change_type: ChangeType
    version: int = VERSION_NONE
    history: OrderedDict = field(default_factory=OrderedDict)  # version -> wire-form instance
    slaves: dict = field(default_factory=dict)                 # node uuid -> RemoteNode
    synced: dict = field(default_factory=dict)                 # node uuid -> version


@dataclass
class _SlaveEntry:
    obj: DistributedObject
    change_type: ChangeType
    master: RemoteNode
    version: int = VERSION_NONE
    queue: deque = field(default_factory=deque)  # (version, kind, mask, blob), by version


class ObjectManager:
    """Versioned object registry and replication engine for one node."""

    def __init__(
        self,
        node: LocalNode,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        engine: Optional[CompressionEngine] = None,
        preload: bool = False,
        history_depth: int = 60,
        cache_capacity: int = 64 << 20,
    ):
        self.node = node
        self.chunk_size = chunk_size
        self.engine = engine
        self.preload = preload
        self.history_depth = history_depth
        self.cache = InstanceCache(cache_capacity)
        self.hub: Optional["MulticastHub"] = None

        self._masters: dict[uuid.UUID, _MasterEntry] = {}
        self._slaves: dict[uuid.UUID, _SlaveEntry] = {}
        #: masters of barriers and queues, consulted by locate requests
        self.collectives: dict[uuid.UUID, object] = {}
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)

        self.counters = {
            "instance_payloads_sent": 0,
            "instance_payloads_received": 0,
            "unicast_pushes": 0,
            "multicast_pushes": 0,
            "commits": 0,
            "bytes_pushed": 0,
            "preloads_sent": 0,
        }

        node.register_handler(CMD_OBJ_LOCATE, self._on_locate)
        node.register_handler(CMD_OBJ_MAP, self._on_map)
        node.register_handler(CMD_OBJ_UNMAP, self._on_unmap)
        node.register_handler(CMD_OBJ_PUSH, self._on_push)
        node.register_handler(CMD_OBJ_TOKEN, self._on_token)
        node.register_handler(CMD_OBJ_PRELOAD, self._on_preload)
        node.peer_disconnected_callbacks.append(self._on_peer_lost)

    # --- serialization helpers ----------------------------------------------

    def _serialize(self, write, engine: Optional[CompressionEngine]) -> bytes:
        parts: list[bytes] = []
        out = OutputStream(parts.append, chunk_size=self.chunk_size, engine=engine)
        write(out)
        out.flush()
        return b"".join(parts)

    def instance_data(self, obj: DistributedObject) -> bytes:
        """Uncompressed serialized full state: the snapshot oracle."""
        return self._serialize(obj.serialize_instance, None)

    def _apply(self, obj: DistributedObject, blob: bytes, kind: int, mask: int) -> None:
        stream = InputStream(iter_frames(blob))
        if kind == KIND_INSTANCE:
            obj.deserialize_instance(stream)
        elif isinstance(obj, Serializable):
            obj.apply_masked(stream, mask)
        else:
            obj.deserialize_delta(stream)

    # --- registration (master side) ------------------------------------------

    def register_object(self, obj: DistributedObject, change_type: ChangeType) -> uuid.UUID:
        with self._lock:
            if obj.object_id is not None:
                raise ObjectError(f"object already registered as {obj.object_id}")
            object_id = uuid.uuid4()
            obj.object_id = object_id
            obj.version = VERSION_NONE
            obj.change_type = change_type
            obj.is_master = True
            obj._manager = self
            self._masters[object_id] = _MasterEntry(obj, change_type)
        if self.preload:
            self._preload(object_id, obj)
        return object_id

    def deregister_object(self, obj: DistributedObject) -> None:
        with self._lock:
            self._masters.pop(obj.object_id, None)
            obj.object_id = None
            obj._manager = None

    def _preload(self, object_id: uuid.UUID, obj: DistributedObject) -> None:
        blob = self._serialize(obj.serialize_instance, self.engine)
        payload = _PUSH_HEAD.pack(object_id.bytes, obj.version, KIND_INSTANCE, 0) + blob
        if self.hub is not None and self.hub.covers(self._peer_ids()):
            self.hub.broadcast(self.node.node_id, CMD_OBJ_PRELOAD, payload)
            self.counters["preloads_sent"] += 1
        else:
            for peer in self.node.peers:
                peer.send_command(CMD_OBJ_PRELOAD, payload)
                self.counters["preloads_sent"] += 1

    def _peer_ids(self) -> set:
        return {p.node_id for p in self.node.peers}

    # --- mapping (slave side) -------------------------------------------------

    def map_object(
        self,
        obj: DistributedObject,
        object_id: uuid.UUID,
        version: int = VERSION_OLDEST,
        timeout: float = 30.0,
    ) -> int:
        with self._lock:
            if object_id in self._masters:
                raise ObjectError("object is mastered on this node; mapping it is redundant")
            if obj.object_id is not None:
                raise ObjectError("instance already attached")
        master = self.locate_master(object_id, timeout)

        # register the slave entry before asking, so a commit push racing the
        # map reply is queued instead of dropped
        entry = _SlaveEntry(obj, ChangeType.STATIC, master, VERSION_NONE)
        with self._lock:
            self._slaves[object_id] = entry

        cached_versions = self.cache.versions(object_id)
        req = _MAP_REQ.pack(object_id.bytes, version, len(cached_versions))
        req += b"".join(struct.pack("<Q", v) for v in cached_versions)
        try:
            reply = master.request(CMD_OBJ_MAP, req, timeout=timeout)
        except (RemoteError, TimeoutError, TransportError) as exc:
            with self._lock:
                self._slaves.pop(object_id, None)
            if isinstance(exc, RemoteError):
                raise VersionError(str(exc)) from exc
            raise

        mapped_version, change_type, _, used_cache = struct.unpack_from("<QBBB", reply)
        blob = reply[11:]
        if used_cache:
            blob = self.cache.get(object_id, mapped_version)
            if blob is None:
                raise ObjectError("master confirmed cached version but cache lost it")
        else:
            self.counters["instance_payloads_received"] += 1

        obj.object_id = object_id
        obj.version = mapped_version
        obj.change_type = ChangeType(change_type)
        obj.is_master = False
        obj._manager = self
        self._apply(obj, blob, KIND_INSTANCE, 0)
        if isinstance(obj, Serializable):
            obj.clear_dirty()
        with self._lock:
            entry.change_type = obj.change_type
            entry.version = mapped_version
            # drop what the mapped instance contains
            entry.queue = deque(p for p in entry.queue if p[0] > mapped_version)
        return mapped_version

    def unmap_object(self, obj: DistributedObject) -> None:
        with self._lock:
            entry = self._slaves.pop(obj.object_id, None)
        if entry is not None and entry.master.alive:
            entry.master.send_command(CMD_OBJ_UNMAP, obj.object_id.bytes)
        obj.object_id = None
        obj._manager = None

    # --- commit / sync ---------------------------------------------------------

    def commit(
        self, obj: DistributedObject, max_queued: Optional[int] = None, timeout: Optional[float] = 30.0
    ) -> int:
        with self._lock:
            entry = self._masters.get(obj.object_id)
            if entry is None:
                if obj.object_id in self._slaves:
                    raise NotMasterError("commits on slave instances are rejected")
                raise UnknownObjectError("object not registered here")
            if not entry.change_type.versioned:
                raise ObjectError("static objects cannot commit")
            if not obj.is_dirty():
                return entry.version

            if max_queued is not None:
                if max_queued < 1:
                    raise ValueError("max_queued must be at least 1")
                self._wait_for_tokens(entry, max_queued, timeout)

            entry.version += 1
            version = entry.version
            mask = obj.dirty_mask if isinstance(obj, Serializable) else 0

            instance = self._serialize(obj.serialize_instance, self.engine)
            if entry.change_type is ChangeType.DELTA:
                kind = KIND_DELTA
                payload_blob = self._serialize(obj.serialize_delta, self.engine)
            else:
                kind = KIND_INSTANCE
                payload_blob = instance

            if entry.change_type.buffered:
                entry.history[version] = instance
                while len(entry.history) > self.history_depth:
                    entry.history.popitem(last=False)

            if isinstance(obj, Serializable):
                obj.clear_dirty()
            obj.version = version
            self.counters["commits"] += 1

            push = _PUSH_HEAD.pack(obj.object_id.bytes, version, kind, mask) + payload_blob
            slaves = dict(entry.slaves)
        self._push(push, slaves)
        return version

    def _wait_for_tokens(self, entry: _MasterEntry, max_queued: int, timeout: Optional[float]) -> None:
        # one token per slave and version, returned when the slave syncs
        def blocked_slaves():
            return [
                node_id
                for node_id, synced in entry.synced.items()
                if entry.version + 1 - synced > max_queued
            ]

        def gone_slaves():
            return [n for n in blocked_slaves() if n not in self._peer_ids()]

        if not self._cond.wait_for(lambda: not blocked_slaves() or gone_slaves(), timeout):
            raise TimeoutError(f"commit blocked on slaves {blocked_slaves()}")
        gone = gone_slaves()
        if gone:
            raise SlaveDisconnectedError(f"slaves disconnected while blocking commit: {gone}")

    def _push(self, payload: bytes, slaves: dict) -> None:
        if not slaves:
            return
        self.counters["bytes_pushed"] += len(payload)
        if self.hub is not None and len(slaves) >= 2 and self.hub.covers(set(slaves)):
            self.hub.broadcast(self.node.node_id, CMD_OBJ_PUSH, payload)
            self.counters["multicast_pushes"] += 1
            return
        for peer in slaves.values():
            if peer.alive:
                peer.send_command(CMD_OBJ_PUSH, payload)
                self.counters["unicast_pushes"] += 1

    def sync(self, obj: DistributedObject, target: int = VERSION_HEAD, timeout: float = 30.0) -> int:
        with self._cond:
            entry = self._slaves.get(obj.object_id)
            if entry is None:
                if obj.object_id in self._masters:
                    return self._masters[obj.object_id].version
                raise UnknownObjectError("object not mapped here")
            if target == VERSION_HEAD:
                resolved = entry.queue[-1][0] if entry.queue else entry.version
            elif target == VERSION_OLDEST:
                resolved = entry.queue[0][0] if entry.queue else entry.version
            else:
                resolved = target
            if resolved < entry.version:
                raise VersionError(
                    f"slave versions only advance: at {entry.version}, requested {resolved}"
                )

            def arrived():
                # the queue is ordered by version, so versions entry.version
                # + 1 .. resolved are all queued when the n-th one is resolved
                n = resolved - entry.version
                return len(entry.queue) >= n > 0 and entry.queue[n - 1][0] == resolved

            if not self._cond.wait_for(
                lambda: arrived() or resolved == entry.version or not entry.master.alive, timeout
            ):
                raise TimeoutError(f"version {resolved} never arrived (at {entry.version})")
            if not arrived():
                if not entry.master.alive:
                    raise SlaveDisconnectedError("master node disconnected")
                return entry.version  # no-op sync
            while entry.version < resolved:
                version, kind, mask, blob = entry.queue.popleft()
                self._apply(entry.obj, blob, kind, mask)
                entry.version = version
                obj.version = version
                if entry.master.alive:
                    entry.master.send_command(
                        CMD_OBJ_TOKEN, obj.object_id.bytes + struct.pack("<Q", version)
                    )
            return resolved

    # --- command handlers -------------------------------------------------------

    def locate_master(self, object_id: uuid.UUID, timeout: float = 30.0) -> RemoteNode:
        """Find the peer mastering `object_id` among connected nodes."""
        for peer in self.node.peers:
            try:
                if peer.request(CMD_OBJ_LOCATE, object_id.bytes, timeout=timeout) == b"\x01":
                    return peer
            except (RemoteError, TimeoutError, TransportError):
                continue
        raise UnknownObjectError(f"no reachable master for {object_id}")

    def _on_locate(self, cmd: Command) -> None:
        object_id = uuid.UUID(bytes=cmd.payload)
        with self._lock:
            found = object_id in self._masters or object_id in self.collectives
        cmd.reply(b"\x01" if found else b"\x00")

    def _resolve_map_version(self, entry: _MasterEntry, requested: int) -> int:
        if not entry.change_type.versioned or entry.version == VERSION_NONE:
            return entry.version  # serve live state
        if requested == VERSION_OLDEST:
            return next(iter(entry.history)) if entry.history else entry.version
        if requested == VERSION_HEAD:
            return entry.version
        if requested == entry.version:
            return requested
        if not entry.change_type.buffered:
            raise VersionError("unbuffered objects: no previous versions can be mapped")
        if requested not in entry.history:
            raise VersionError(f"version {requested} not retained")
        return requested

    def _on_map(self, cmd: Command) -> None:
        raw_id, requested, n_cached = _MAP_REQ.unpack_from(cmd.payload)
        cached = set(
            struct.unpack_from("<Q", cmd.payload, _MAP_REQ.size + 8 * i)[0] for i in range(n_cached)
        )
        object_id = uuid.UUID(bytes=raw_id)
        with self._lock:
            entry = self._masters.get(object_id)
            if entry is None:
                cmd.reply_error("unknown object")
                return
            try:
                version = self._resolve_map_version(entry, requested)
            except VersionError as exc:
                cmd.reply_error(str(exc))
                return
            entry.slaves[cmd.peer.node_id] = cmd.peer
            entry.synced[cmd.peer.node_id] = version
            catch_ups = [
                _PUSH_HEAD.pack(raw_id, newer, KIND_INSTANCE, 0) + blob
                for newer, blob in entry.history.items()
                if newer > version
            ]
            if version in cached:
                reply = struct.pack("<QBBB", version, entry.change_type, 0, 1)
            else:
                blob = entry.history.get(version)
                if blob is None:  # static, unbuffered or never committed
                    blob = self._serialize(entry.obj.serialize_instance, self.engine)
                self.counters["instance_payloads_sent"] += 1
                reply = struct.pack("<QBBB", version, entry.change_type, 0, 0) + blob
        # versions (mapped, head] go out before the reply, so that the slave
        # can sync past them; a later commit's push may overtake them, and the
        # slave's queue puts it back in order
        for push in catch_ups:
            self._push(push, {cmd.peer.node_id: cmd.peer})
        cmd.reply(reply)

    def _on_unmap(self, cmd: Command) -> None:
        object_id = uuid.UUID(bytes=cmd.payload)
        with self._cond:
            entry = self._masters.get(object_id)
            if entry is not None:
                entry.slaves.pop(cmd.peer.node_id, None)
                entry.synced.pop(cmd.peer.node_id, None)
                self._cond.notify_all()  # a commit may be blocked on this slave

    def _on_push(self, cmd: Command) -> None:
        self._handle_push(cmd.payload, via_multicast=False)

    def _handle_push(self, payload: bytes, via_multicast: bool) -> None:
        raw_id, version, kind, mask = _PUSH_HEAD.unpack_from(payload)
        object_id = uuid.UUID(bytes=raw_id)
        blob = payload[_PUSH_HEAD.size :]
        with self._cond:
            entry = self._slaves.get(object_id)
            if entry is None:
                if via_multicast and kind == KIND_INSTANCE:
                    # snooping: cache instance payloads for unmapped objects
                    self.cache.put(object_id, version, blob)
                return
            # a hub push can overtake unicast pushes sent earlier, and a commit
            # racing a map reaches the slave both by hub and as a catch-up:
            # keep the queue ordered, newer than the slave and each version once
            i = bisect.bisect_left(entry.queue, version, key=itemgetter(0))
            if version <= entry.version or (i < len(entry.queue) and entry.queue[i][0] == version):
                return
            entry.queue.insert(i, (version, kind, mask, blob))
            self._cond.notify_all()

    def _on_token(self, cmd: Command) -> None:
        object_id = uuid.UUID(bytes=cmd.payload[:16])
        (version,) = struct.unpack_from("<Q", cmd.payload, 16)
        with self._cond:
            entry = self._masters.get(object_id)
            if entry is not None and cmd.peer.node_id in entry.synced:
                entry.synced[cmd.peer.node_id] = max(entry.synced[cmd.peer.node_id], version)
                self._cond.notify_all()

    def _on_preload(self, cmd: Command) -> None:
        self._handle_preload(cmd.payload)

    def _handle_preload(self, payload: bytes) -> None:
        raw_id, version, _, _ = _PUSH_HEAD.unpack_from(payload)
        self.cache.put(uuid.UUID(bytes=raw_id), version, payload[_PUSH_HEAD.size :])

    def _on_peer_lost(self, peer: RemoteNode) -> None:
        with self._cond:
            for entry in self._masters.values():
                entry.slaves.pop(peer.node_id, None)
                entry.synced.pop(peer.node_id, None)
            self._cond.notify_all()

    # --- multicast hub delivery ---------------------------------------------------

    def on_multicast(self, sender: uuid.UUID, cmd_type: int, payload: bytes) -> None:
        if sender == self.node.node_id:
            return
        if cmd_type == CMD_OBJ_PUSH:
            self._handle_push(payload, via_multicast=True)
        elif cmd_type == CMD_OBJ_PRELOAD:
            self._handle_preload(payload)


class MulticastHub:
    """In-process multicast channel between object managers.

    Stands in for a multicast group at the object layer: one broadcast
    reaches every joined node.  Delivery is synchronous per sender, so
    per-object command order is preserved.
    """

    def __init__(self):
        self._members: dict[uuid.UUID, ObjectManager] = {}
        self._lock = threading.Lock()
        self.broadcasts = 0

    def join(self, manager: ObjectManager) -> None:
        with self._lock:
            self._members[manager.node.node_id] = manager
        manager.hub = self

    def covers(self, node_ids: set) -> bool:
        with self._lock:
            return node_ids <= set(self._members)

    def broadcast(self, sender: uuid.UUID, cmd_type: int, payload: bytes) -> None:
        with self._lock:
            members = list(self._members.values())
            self.broadcasts += 1
        for manager in members:
            manager.on_multicast(sender, cmd_type, payload)
