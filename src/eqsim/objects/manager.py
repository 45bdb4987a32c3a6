"""Master/slave replication of versioned objects across nodes.

One ObjectManager per node owns every registered master and every mapped
slave on that node.  Mapping is a slave-triggered pull: the slave locates
the master among its connected peers and requests instance data (or
confirms a cached copy).  Commits are master-triggered pushes: delta or
instance payloads are queued on the slaves and applied when the
application syncs.  A `timeout` bounds the whole call.  A sync fails at
once with SlaveDisconnectedError when its master's node is lost; a slave
whose node is lost stops counting, so a commit blocked on it goes ahead at
once.

Every object-layer command reaches its handler through the node's
dispatch, whether a peer connection or the multicast hub carried it.  A
commit push, a map's catch-up pushes and a preload go by one hub
broadcast when the hub is joined, there are at least two targets and the
hub covers them all; otherwise by one unicast per target.  A node caches
an instance push for an object it has not mapped (snooping) however it
arrived, and a preload is such a push: the version-0 instance push, sent
to every peer when the object is registered.  `counters` count every
push, a preload's too: `bytes_pushed` adds a push's length once however
many peers it reaches, `multicast_pushes` counts hub broadcasts and
`unicast_pushes` one per live peer sent to.  The barriers, queues and queue
consumers of `collectives` are entered in the manager's collective
tables, which dispatch their commands by the id at the head of the
payload; only masters answer a locate.

Instance and delta payloads are chunked byte streams (optionally
compressed per chunk) produced by the codec layer's output streams, and a
push is its header followed by such a stream, written behind the header
in one join.  One rule holds the versions together: every version a slave
can map is stored in the master's history as the instance push that
carries it.  Registration serializes the version-0 push once (the
preload sends it); each commit serializes the instance once and stores
its push, which replaces version 0 and is trimmed to the newest
`history_depth` versions, or to head alone for UNBUFFERED objects.  An
INSTANCE commit sends that stored push itself, the catch-up pushes to a
slave mapped behind head resend stored pushes unchanged, and the map
reply carries the instance sliced out of one, so a map never serializes
and never sees edits that were not committed.  The master keeps one
record per slave: its peer and the last version it synced, which the
slave's one token per sync reports.  A slave keeps each payload it
receives as a view of the command that carried it, so the stream's
reads are its only copy.
"""

from __future__ import annotations

import bisect
import struct
import threading
import time
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

from ..codec.engines import CompressionEngine
from ..codec.streams import InputStream, OutputStream, iter_frames
from ..net.connection import TransportError
from ..net.node import Command, LocalNode, RemoteError, RemoteNode
from .base import (
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

CMD_OBJ_LOCATE = 0x20
CMD_OBJ_MAP = 0x21
CMD_OBJ_UNMAP = 0x22
CMD_OBJ_PUSH = 0x23
CMD_OBJ_TOKEN = 0x24
CMD_BARRIER_ENTER = 0x30
CMD_QUEUE_POP = 0x31
CMD_QUEUE_ITEM = 0x32

KIND_INSTANCE = 0
KIND_DELTA = 1

_MAP_REQ = struct.Struct("<16sq H")  # id, requested version, n cached versions
_MAP_REPLY = struct.Struct("<QBBB")  # version, change type, 0, instance from the cache
_PUSH_HEAD = struct.Struct("<16sQBQ")  # id, version, kind, dirty mask


@dataclass
class _Slave:
    peer: RemoteNode
    synced: int  # the last version the slave synced, or the one it mapped


@dataclass
class _MasterEntry:
    obj: DistributedObject
    change_type: ChangeType
    version: int = VERSION_NONE
    history: OrderedDict = field(default_factory=OrderedDict)  # each mappable version -> its push
    slaves: dict = field(default_factory=dict)                 # node uuid -> _Slave


@dataclass
class _SlaveEntry:
    obj: DistributedObject
    master: RemoteNode
    version: int = VERSION_NONE
    queue: deque = field(default_factory=deque)  # (version, kind, mask, blob), by version


class ObjectManager:
    """Versioned object registry and replication engine for one node."""

    def __init__(
        self,
        node: LocalNode,
        engine: Optional[CompressionEngine] = None,
        preload: bool = False,
        history_depth: int = 60,
    ):
        if history_depth < 1:
            raise ValueError("history_depth must be at least 1: the history holds head")
        self.node = node
        self.engine = engine
        self.preload = preload
        self.history_depth = history_depth
        self.cache = InstanceCache()
        self.hub: Optional["MulticastHub"] = None

        self._masters: dict[uuid.UUID, _MasterEntry] = {}
        self._slaves: dict[uuid.UUID, _SlaveEntry] = {}
        #: collective tables, by the command their entries take and then by id:
        #: barrier and queue masters, which answer locates, and queue consumers
        self.collectives: dict[int, dict[uuid.UUID, object]] = {
            cmd_type: {} for cmd_type in (CMD_BARRIER_ENTER, CMD_QUEUE_POP, CMD_QUEUE_ITEM)
        }
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)

        self.counters = {
            "instance_payloads_received": 0,
            "unicast_pushes": 0,
            "multicast_pushes": 0,
            "commits": 0,
            "bytes_pushed": 0,
        }

        node.register_handler(CMD_OBJ_LOCATE, self._on_locate)
        node.register_handler(CMD_OBJ_MAP, self._on_map)
        node.register_handler(CMD_OBJ_UNMAP, self._on_unmap)
        node.register_handler(CMD_OBJ_PUSH, self._on_push)
        node.register_handler(CMD_OBJ_TOKEN, self._on_token)
        for cmd_type in self.collectives:
            node.register_handler(cmd_type, self._on_collective)
        node.peer_disconnected_callbacks.append(self._on_peer_lost)

    # --- serialization helpers ----------------------------------------------

    def _serialize(self, write, engine: Optional[CompressionEngine], head: bytes = b"") -> bytes:
        """`head` followed by the stream that `write` produces, in one join:
        without an engine the stream hands over chunk headers and views of
        the chunks, so the join is the one copy of a `bytes` payload."""
        parts = [head]
        out = OutputStream(parts.append, engine=engine)
        write(out)
        out.flush()
        return b"".join(parts)

    def _push_form(self, obj: DistributedObject, version: int, kind: int, mask: int, write) -> bytes:
        """The push of `obj`'s `version` that carries the stream `write` produces."""
        return self._serialize(write, self.engine, _PUSH_HEAD.pack(obj.object_id.bytes, version, kind, mask))

    def instance_data(self, obj: DistributedObject) -> bytes:
        """Uncompressed serialized full state: the snapshot oracle."""
        return self._serialize(obj.serialize_instance, None)

    def _apply(self, obj: DistributedObject, blob: bytes, kind: int, mask: int) -> None:
        stream = InputStream(iter_frames(blob))
        if kind == KIND_INSTANCE:
            obj.deserialize_instance(stream)
        else:
            obj.apply_delta(stream, mask)

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
            push = self._push_form(obj, VERSION_NONE, KIND_INSTANCE, 0, obj.serialize_instance)
            self._masters[object_id] = _MasterEntry(obj, change_type, history=OrderedDict({VERSION_NONE: push}))
        if self.preload:
            self._push(push, self.node.peers)
        return object_id

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
        deadline = time.monotonic() + timeout
        master = self.locate_master(object_id, timeout)

        # register the slave entry before asking, so a commit push racing the
        # map reply is queued instead of dropped
        entry = _SlaveEntry(obj, master)
        with self._lock:
            if object_id in self._slaves:
                raise ObjectError("object already mapped on this node")
            self._slaves[object_id] = entry

        # the cached instances are taken with their versions, so that an
        # eviction while the master answers cannot lose the one it confirms
        cached = self.cache.entries(object_id)
        req = _MAP_REQ.pack(object_id.bytes, version, len(cached))
        req += b"".join(struct.pack("<Q", v) for v in cached)
        try:
            reply = master.request(CMD_OBJ_MAP, req, timeout=deadline - time.monotonic())
        except (RemoteError, TimeoutError, TransportError) as exc:
            with self._lock:
                self._slaves.pop(object_id, None)
            if isinstance(exc, RemoteError):
                raise VersionError(str(exc)) from exc
            raise

        mapped_version, change_type, _, used_cache = _MAP_REPLY.unpack_from(reply)
        if used_cache:
            blob = cached[mapped_version]
        else:
            blob = memoryview(reply)[_MAP_REPLY.size :]
            self.counters["instance_payloads_received"] += 1

        obj.object_id = object_id
        obj.version = mapped_version
        obj.change_type = ChangeType(change_type)
        obj.is_master = False
        obj._manager = self
        self._apply(obj, blob, KIND_INSTANCE, 0)
        obj.clear_dirty()
        with self._lock:
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

            push = entry.history[version] = self._push_form(obj, version, KIND_INSTANCE, 0, obj.serialize_instance)
            if entry.change_type is ChangeType.DELTA:
                push = self._push_form(obj, version, KIND_DELTA, obj.dirty_mask, obj.serialize_delta)
            entry.history.pop(VERSION_NONE, None)
            while len(entry.history) > (self.history_depth if entry.change_type.buffered else 1):
                entry.history.popitem(last=False)

            obj.clear_dirty()
            obj.version = version
            self.counters["commits"] += 1
            peers = [slave.peer for slave in entry.slaves.values()]
        self._push(push, peers)
        return version

    def _wait_for_tokens(self, entry: _MasterEntry, max_queued: int, timeout: Optional[float]) -> None:
        # a slave's token reports the version each of its syncs reached
        def blocked_slaves():
            return [
                node_id
                for node_id, slave in entry.slaves.items()
                if entry.version + 1 - slave.synced > max_queued
            ]

        if not self._cond.wait_for(lambda: not blocked_slaves(), timeout):
            raise TimeoutError(f"commit blocked on slaves {blocked_slaves()}")

    def _push(self, payload: bytes, peers: list[RemoteNode]) -> None:
        """Broadcast by hub if it is joined and covers at least two peers,
        else unicast to every live peer."""
        if not peers:
            return
        self.counters["bytes_pushed"] += len(payload)
        if self.hub is not None and len(peers) >= 2 and self.hub.covers({p.node_id for p in peers}):
            self.hub.broadcast(self.node.node_id, CMD_OBJ_PUSH, payload)
            self.counters["multicast_pushes"] += 1
            return
        for peer in peers:
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
            token = obj.object_id.bytes + struct.pack("<Q", resolved)
        # one token for the whole sync, sent outside the lock so that a
        # blocking send cannot hold up the pushes arriving for other objects
        if entry.master.alive:
            entry.master.send_command(CMD_OBJ_TOKEN, token)
        return resolved

    # --- command handlers -------------------------------------------------------

    def locate_master(self, object_id: uuid.UUID, timeout: float = 30.0) -> RemoteNode:
        """Find the peer mastering `object_id`, asking connected peers in turn within `timeout`."""
        deadline = time.monotonic() + timeout
        for peer in self.node.peers:
            try:
                if peer.request(CMD_OBJ_LOCATE, object_id.bytes, deadline - time.monotonic()) == b"\x01":
                    return peer
            except (RemoteError, TransportError):
                continue
        raise UnknownObjectError(f"no reachable master for {object_id}")

    def _on_locate(self, cmd: Command) -> None:
        object_id = uuid.UUID(bytes=cmd.payload)
        with self._lock:
            found = object_id in self._masters or any(
                object_id in self.collectives[master] for master in (CMD_BARRIER_ENTER, CMD_QUEUE_POP)
            )
        cmd.reply(b"\x01" if found else b"\x00")

    def _resolve_map_version(self, entry: _MasterEntry, requested: int) -> int:
        if requested == VERSION_OLDEST:
            return next(iter(entry.history))
        if requested == VERSION_HEAD:
            return entry.version
        if requested in entry.history:
            return requested
        if entry.change_type.buffered:
            raise VersionError(f"version {requested} not retained")
        raise VersionError(f"{entry.change_type.name.lower()} objects: no previous versions can be mapped")

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
            entry.slaves[cmd.peer.node_id] = _Slave(cmd.peer, version)
            catch_ups = [push for newer, push in entry.history.items() if newer > version]
            instance = entry.history[version]
            from_cache = version in cached
        reply = _MAP_REPLY.pack(version, entry.change_type, 0, from_cache)
        if not from_cache:
            reply += memoryview(instance)[_PUSH_HEAD.size :]
        # versions (mapped, head] go out before the reply, so that the slave
        # can sync past them; a later commit's push may overtake them, and the
        # slave's queue puts it back in order
        for push in catch_ups:
            self._push(push, [cmd.peer])
        cmd.reply(reply)

    def _on_unmap(self, cmd: Command) -> None:
        object_id = uuid.UUID(bytes=cmd.payload)
        with self._cond:
            entry = self._masters.get(object_id)
            if entry is not None:
                entry.slaves.pop(cmd.peer.node_id, None)
                self._cond.notify_all()  # a commit may be blocked on this slave

    def _on_push(self, cmd: Command) -> None:
        raw_id, version, kind, mask = _PUSH_HEAD.unpack_from(cmd.payload)
        object_id = uuid.UUID(bytes=raw_id)
        blob = memoryview(cmd.payload)[_PUSH_HEAD.size :]
        with self._cond:
            entry = self._slaves.get(object_id)
            if entry is None:
                if kind == KIND_INSTANCE:
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
            slave = entry.slaves.get(cmd.peer.node_id) if entry is not None else None
            if slave is not None:
                slave.synced = max(slave.synced, version)
                self._cond.notify_all()

    def _on_collective(self, cmd: Command) -> None:
        collective_id = uuid.UUID(bytes=cmd.payload[:16])
        target = self.collectives[cmd.type].get(collective_id)
        if target is not None:
            target._on_command(cmd)
        elif cmd.request_id:
            cmd.reply_error(f"unknown collective {collective_id}")

    def _on_peer_lost(self, peer: RemoteNode) -> None:
        with self._cond:
            for entry in self._masters.values():
                entry.slaves.pop(peer.node_id, None)
            self._cond.notify_all()
        for table in self.collectives.values():
            for target in list(table.values()):
                target._peer_lost(peer)


class MulticastHub:
    """In-process multicast channel between object managers.

    Stands in for a multicast group at the object layer: one broadcast
    reaches the dispatch of every joined node but the sender's, as if the
    sender's connection to it had carried the command.  Delivery is
    synchronous per sender, so per-object command order is preserved.
    """

    def __init__(self):
        self._members: dict[uuid.UUID, LocalNode] = {}
        self._lock = threading.Lock()

    def join(self, manager: ObjectManager) -> None:
        with self._lock:
            self._members[manager.node.node_id] = manager.node
        manager.hub = self

    def covers(self, node_ids: set) -> bool:
        with self._lock:
            return node_ids <= set(self._members)

    def broadcast(self, sender: uuid.UUID, cmd_type: int, payload: bytes) -> None:
        with self._lock:
            members = [node for node_id, node in self._members.items() if node_id != sender]
        for node in members:
            node.dispatch(node.peer(sender), cmd_type, 0, payload)
