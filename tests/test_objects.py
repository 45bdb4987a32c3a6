import contextlib
import struct
import sys
import threading
import time
import tracemalloc
import uuid

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsim.codec.streams import DEFAULT_CHUNK_SIZE, InputStream, OutputStream, iter_frames
from eqsim.net import LOCAL_PIPE, ConnectionDescription, LocalNode
from eqsim.objects import (
    VERSION_HEAD,
    VERSION_NONE,
    VERSION_OLDEST,
    ChangeType,
    DirtyMaskError,
    DistributedObject,
    InstanceCache,
    MulticastHub,
    NotMasterError,
    ObjectError,
    ObjectManager,
    SlaveDisconnectedError,
    VersionError,
)
from eqsim.objects.manager import _PUSH_HEAD, CMD_OBJ_LOCATE, CMD_OBJ_MAP, CMD_OBJ_PUSH, CMD_OBJ_TOKEN

from _cluster import Cluster, Doc, record_links


@pytest.fixture
def engine():
    """Compression engine of every manager in a test; test_objects_engines.py
    runs the map, sync, preload and multicast tests again with each engine."""
    return None


@pytest.fixture
def pair(engine):
    with Cluster(2, engine=engine) as c:
        yield c


def test_static_maps_but_never_commits(pair):
    master = Doc(count=7, blob=b"fixed")
    oid = pair.managers[0].register_object(master, ChangeType.STATIC)
    with pytest.raises(VersionError, match="previous versions"):
        pair.managers[1].map_object(Doc(), oid, 1)  # a version it never had
    slave = Doc()
    assert pair.managers[1].map_object(slave, oid, VERSION_OLDEST) == VERSION_NONE
    assert slave.state() == master.state()
    with pytest.raises(ObjectError, match="static"):
        pair.managers[0].commit(master)


def test_double_registration_rejected(pair):
    master = Doc()
    pair.managers[0].register_object(master, ChangeType.DELTA)
    with pytest.raises(ObjectError, match="already registered"):
        pair.managers[0].register_object(master, ChangeType.DELTA)


def test_map_before_any_commit_gets_initial_instance(pair):
    master = Doc(count=3, scale=0.5, blob=b"zero")
    oid = pair.managers[0].register_object(master, ChangeType.DELTA)
    slave = Doc()
    mapped = pair.managers[1].map_object(slave, oid)
    assert mapped == VERSION_NONE
    assert slave.state() == master.state()
    # the first commit then advances the slave to version 1
    master.count = 4
    master.set_dirty(Doc.DIRTY_COUNT)
    assert pair.managers[0].commit(master) == 1
    assert pair.managers[1].sync(slave, 1, timeout=5) == 1
    assert slave.count == 4


def test_commit_with_empty_mask_is_noop(pair):
    master = Doc()
    pair.managers[0].register_object(master, ChangeType.DELTA)
    before = pair.managers[0].counters["commits"]
    assert pair.managers[0].commit(master) == VERSION_NONE
    assert pair.managers[0].counters["commits"] == before


def test_versions_are_consecutive(pair):
    master = Doc()
    pair.managers[0].register_object(master, ChangeType.INSTANCE)
    versions = []
    for i in range(3):
        master.count = i
        master.set_dirty(Doc.DIRTY_COUNT)
        versions.append(pair.managers[0].commit(master))
    assert versions == [1, 2, 3]


class CountingDoc(Doc):
    def __init__(self, **fields):
        super().__init__(**fields)
        self.instance_serializations = 0

    def serialize_instance(self, stream):
        self.instance_serializations += 1
        super().serialize_instance(stream)


def test_instance_commit_serializes_once(pair):
    m0, m1 = pair.managers
    master = CountingDoc(blob=b"payload")
    oid = m0.register_object(master, ChangeType.INSTANCE)
    slave = Doc()
    m1.map_object(slave, oid)
    master.instance_serializations = 0
    master.count = 1
    master.set_dirty(Doc.DIRTY_COUNT)
    v = m0.commit(master)
    assert master.instance_serializations == 1
    m1.sync(slave, v, timeout=5)
    assert slave.state() == master.state()


def commit_n(manager, master, n, start=0):
    snapshots = {}
    for i in range(n):
        master.count = start + i
        master.blob = bytes([i % 256]) * (i + 1)
        master.set_dirty(Doc.DIRTY_COUNT | Doc.DIRTY_BLOB)
        v = manager.commit(master)
        snapshots[v] = manager.instance_data(master)
    return snapshots


def test_map_oldest_and_explicit_version(engine):
    with Cluster(3, engine=engine) as c:
        m0, m1, m2 = c.managers
        master = Doc()
        oid = m0.register_object(master, ChangeType.DELTA)
        snapshots = commit_n(m0, master, 5)

        slave = Doc()
        assert m1.map_object(slave, oid, VERSION_OLDEST) == 1
        assert m1.instance_data(slave) == snapshots[1]

        slave3 = Doc()
        assert m2.map_object(slave3, oid, 3) == 3
        assert m2.instance_data(slave3) == snapshots[3]


versioned_types = pytest.mark.parametrize(
    "change_type", [ChangeType.DELTA, ChangeType.INSTANCE], ids=["delta", "instance"]
)


@versioned_types
def test_slave_mapped_at_old_version_syncs_forward(pair, change_type):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, change_type)
    snapshots = commit_n(m0, master, 4)
    slave = Doc()
    assert m1.map_object(slave, oid, 2) == 2
    snapshots.update(commit_n(m0, master, 1, start=10))
    assert m1.sync(slave, 3, timeout=5) == 3
    assert m1.instance_data(slave) == snapshots[3]
    assert m1.sync(slave, 5, timeout=5) == 5
    assert m1.instance_data(slave) == snapshots[5]


def test_catch_up_pushes_overtaken_by_multicast_commit(engine):
    hub = MulticastHub()
    with Cluster(4, engine=engine) as c:
        for m in c.managers:
            hub.join(m)
        m0, m1, m2, m3 = c.managers
        master = Doc()
        oid = m0.register_object(master, ChangeType.DELTA)
        m1.map_object(Doc(), oid)
        m2.map_object(Doc(), oid)
        snapshots = commit_n(m0, master, 4)
        on_push = m3._on_push

        def commit_first(cmd):
            # the hub delivers commit 5 before the unicast catch-up 3 is queued
            m3.node.register_handler(CMD_OBJ_PUSH, on_push)
            snapshots.update(commit_n(m0, master, 1, start=10))
            on_push(cmd)

        m3.node.register_handler(CMD_OBJ_PUSH, commit_first)
        late = Doc()
        assert m3.map_object(late, oid, 2) == 2
        assert m3.sync(late, 5, timeout=5) == 5
        assert m3.instance_data(late) == snapshots[5]


def test_sync_waits_for_push_overtaken_by_later_one(pair, monkeypatch):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, ChangeType.DELTA)
    slave = Doc()
    m1.map_object(slave, oid)
    held = []
    monkeypatch.setattr(m0, "_push", lambda payload, slaves: held.append(payload))
    snapshots = commit_n(m0, master, 2)
    m1.node.dispatch(None, CMD_OBJ_PUSH, 0, held[1])  # version 2 arrives first
    late = threading.Timer(0.2, m1.node.dispatch, (None, CMD_OBJ_PUSH, 0, held[0]))
    late.start()
    assert m1.sync(slave, 1, timeout=5) == 1
    assert m1.instance_data(slave) == snapshots[1]
    assert m1.sync(slave, 2, timeout=5) == 2
    assert m1.instance_data(slave) == snapshots[2]
    late.join()


def test_sync_ignores_repeated_and_stale_pushes(pair, monkeypatch):
    # a commit racing a map reaches the slave by hub and again as a catch-up
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, ChangeType.DELTA)
    slave = Doc()
    m1.map_object(slave, oid)
    held = []
    monkeypatch.setattr(m0, "_push", lambda payload, slaves: held.append(payload))
    snapshots = commit_n(m0, master, 3)
    for payload in (held[0], held[0], held[1]):
        m1.node.dispatch(None, CMD_OBJ_PUSH, 0, payload)
    assert m1.sync(slave, 2, timeout=5) == 2
    for payload in (held[1], held[2]):
        m1.node.dispatch(None, CMD_OBJ_PUSH, 0, payload)
    assert m1.sync(slave, VERSION_HEAD, timeout=5) == 3
    assert m1.instance_data(slave) == snapshots[3]


@versioned_types
def test_head_map_serves_committed_state(pair, change_type):
    m0, m1 = pair.managers
    master = Doc(count=1)
    oid = m0.register_object(master, change_type)
    master.set_dirty(Doc.DIRTY_COUNT)
    assert m0.commit(master) == 1
    master.count = 99  # edited, not committed
    master.set_dirty(Doc.DIRTY_COUNT)
    slave = Doc()
    assert m1.map_object(slave, oid, VERSION_HEAD) == 1
    assert slave.count == 1


def test_sync_applies_in_order_and_rejects_regress(pair):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, ChangeType.DELTA)
    slave = Doc()
    m1.map_object(slave, oid)

    snapshots = commit_n(m0, master, 4)
    reached = m1.sync(slave, 4, timeout=5)
    assert reached == 4
    assert m1.instance_data(slave) == snapshots[4]
    assert m1.sync(slave, 4) == 4  # no-op
    with pytest.raises(VersionError, match="advance"):
        m1.sync(slave, 2)


def test_sync_blocks_until_commit_arrives(pair):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, ChangeType.INSTANCE)
    slave = Doc()
    m1.map_object(slave, oid)

    result = {}

    def waiter():
        result["v"] = m1.sync(slave, 1, timeout=10)

    t = threading.Thread(target=waiter)
    t.start()
    time.sleep(0.1)
    assert "v" not in result
    master.count = 42
    master.set_dirty(Doc.DIRTY_COUNT)
    m0.commit(master)
    t.join(timeout=10)
    assert result["v"] == 1
    assert slave.count == 42


@contextlib.contextmanager
def unrelated_commits(owner, mapper):
    """Commit an object mastered by `owner` and mapped by `mapper` every
    0.5 ms; each push wakes the condition that `mapper` waits on."""
    noise = Doc()
    oid = owner.register_object(noise, ChangeType.DELTA)
    mapper.map_object(Doc(), oid)
    stop = threading.Event()

    def run():
        while not stop.wait(0.0005):
            noise.count += 1
            noise.set_dirty(Doc.DIRTY_COUNT)
            owner.commit(noise)

    t = threading.Thread(target=run)
    t.start()
    try:
        yield
    finally:
        stop.set()
        t.join(timeout=5)
        assert not t.is_alive()


def test_sync_timeout_lasts_as_asked_under_unrelated_pushes(pair):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, ChangeType.DELTA)
    slave = Doc()
    m1.map_object(slave, oid)
    with unrelated_commits(m0, m1):
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            m1.sync(slave, 1, timeout=0.5)
        assert time.monotonic() - t0 >= 0.45


def test_map_timeout_bounds_every_locate_and_the_map():
    # two peers that never answer a locate: the map still ends at its timeout
    slave = LocalNode("slave")
    silent = [LocalNode(f"silent{i}") for i in range(2)]
    try:
        for i, node in enumerate(silent):
            node.register_handler(CMD_OBJ_LOCATE, lambda cmd: None)
            desc = ConnectionDescription(LOCAL_PIPE, "silent-locate", i)
            node.listen(desc)
            slave.connect_to(desc)
        manager = ObjectManager(slave)
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            manager.map_object(Doc(), uuid.uuid4(), timeout=0.3)
        assert time.monotonic() - t0 < 0.3 + 0.25
    finally:
        for node in [slave, *silent]:
            node.close()


def test_blocking_commit_timeout_lasts_as_asked_under_unrelated_pushes(pair):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, ChangeType.DELTA)
    m1.map_object(Doc(), oid)  # never syncs
    master.set_dirty(Doc.DIRTY_COUNT)
    assert m0.commit(master, max_queued=1, timeout=5) == 1
    master.set_dirty(Doc.DIRTY_COUNT)
    with unrelated_commits(m1, m0):
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            m0.commit(master, max_queued=1, timeout=0.5)
        assert time.monotonic() - t0 >= 0.45


def test_slave_commit_rejected(pair):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, ChangeType.DELTA)
    slave = Doc()
    m1.map_object(slave, oid)
    slave.set_dirty(Doc.DIRTY_COUNT)
    with pytest.raises(NotMasterError):
        m1.commit(slave)


def test_partial_masks_update_only_masked_fields(pair):
    m0, m1 = pair.managers
    master = Doc(count=1, scale=2.0, blob=b"a")
    oid = m0.register_object(master, ChangeType.DELTA)
    slave = Doc()
    m1.map_object(slave, oid)

    master.count = 99
    master.scale = 123.0  # changed but NOT marked dirty
    master.set_dirty(Doc.DIRTY_COUNT)
    v = m0.commit(master)
    m1.sync(slave, v, timeout=5)
    assert slave.count == 99
    assert slave.scale == 2.0  # unmasked field untouched
    assert slave.blob == b"a"


def test_sequential_partial_commits_equal_combined(pair):
    m0, m1 = pair.managers

    # two partial commits
    a_master = Doc(count=0, scale=0.0, blob=b"")
    a_id = m0.register_object(a_master, ChangeType.DELTA)
    a_slave = Doc()
    m1.map_object(a_slave, a_id)
    a_master.count = 5
    a_master.set_dirty(Doc.DIRTY_COUNT)
    m0.commit(a_master)
    a_master.scale = 7.5
    a_master.set_dirty(Doc.DIRTY_SCALE)
    v = m0.commit(a_master)
    m1.sync(a_slave, v, timeout=5)

    # one combined commit with the OR of both masks
    b_master = Doc(count=0, scale=0.0, blob=b"")
    b_id = m0.register_object(b_master, ChangeType.DELTA)
    b_slave = Doc()
    m1.map_object(b_slave, b_id)
    b_master.count = 5
    b_master.scale = 7.5
    b_master.set_dirty(Doc.DIRTY_COUNT | Doc.DIRTY_SCALE)
    v = m0.commit(b_master)
    m1.sync(b_slave, v, timeout=5)

    assert a_slave.state() == b_slave.state()


def test_unknown_dirty_bit_rejected(pair):
    master = Doc()
    pair.managers[0].register_object(master, ChangeType.DELTA)
    with pytest.raises(DirtyMaskError):
        master.set_dirty(1 << 40)
    with pytest.raises(DirtyMaskError):
        master.set_dirty(1)  # bit 0 reserved


def test_history_depth_must_keep_head():
    node = LocalNode("lone")
    try:
        with pytest.raises(ValueError, match="history_depth"):
            ObjectManager(node, history_depth=0)
    finally:
        node.close()


def test_history_depth_limits_mappable_versions(engine):
    with Cluster(2, history_depth=5, engine=engine) as c:
        m0, m1 = c.managers
        master = Doc()
        oid = m0.register_object(master, ChangeType.DELTA)
        commit_n(m0, master, 10)
        slave = Doc()
        with pytest.raises(VersionError, match="not retained"):
            m1.map_object(slave, oid, 3)
        assert m1.map_object(slave, oid, 7) == 7
        m1.unmap_object(slave)  # one instance per object and node
        fresh = Doc()
        with pytest.raises(ObjectError):
            m1.map_object(fresh, oid, 3)
        assert m1.map_object(Doc(), oid, VERSION_OLDEST) == 6


def test_second_map_of_an_object_on_one_node_raises(pair):
    m0, m1 = pair.managers
    master = Doc(count=1)
    oid = m0.register_object(master, ChangeType.INSTANCE)
    first, second = Doc(), Doc()
    assert m1.map_object(first, oid) == VERSION_NONE
    with pytest.raises(ObjectError, match="already mapped"):
        m1.map_object(second, oid)
    assert second.object_id is None
    master.count = 2
    master.set_dirty(Doc.DIRTY_COUNT)
    assert m0.commit(master) == 1
    assert m1.sync(first, 1, timeout=5) == 1
    assert first.count == 2


def test_concurrent_maps_of_an_object_on_one_node_map_one_instance(pair):
    m0, m1 = pair.managers
    oid = m0.register_object(Doc(count=1), ChangeType.DELTA)
    start = threading.Barrier(4)
    mapped, refused = [], []

    def map_one():
        start.wait()
        try:
            mapped.append(m1.map_object(Doc(), oid, timeout=5))
        except ObjectError:
            refused.append(True)

    threads = [threading.Thread(target=map_one) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mapped == [VERSION_NONE] and len(refused) == 3


def test_unbuffered_serves_only_current_version(pair):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, ChangeType.UNBUFFERED)
    commit_n(m0, master, 3)
    with pytest.raises(VersionError, match="previous versions"):
        m1.map_object(Doc(), oid, 1)
    slave = Doc()
    assert m1.map_object(slave, oid, VERSION_HEAD) == 3
    m1.unmap_object(slave)  # one instance per object and node
    assert m1.map_object(Doc(), oid, VERSION_OLDEST) == 3


@pytest.mark.parametrize(
    "change_type, commits",
    [
        (ChangeType.STATIC, 0),
        (ChangeType.DELTA, 0),
        (ChangeType.UNBUFFERED, 1),
        (ChangeType.INSTANCE, 1),
        (ChangeType.DELTA, 1),
    ],
    ids=["static", "never-committed", "unbuffered", "instance", "delta"],
)
def test_map_serves_the_stored_version_not_later_edits(engine, change_type, commits):
    with Cluster(3, engine=engine) as c:
        m0, *slave_managers = c.managers
        master = CountingDoc(count=1, blob=b"committed")
        oid = m0.register_object(master, change_type)
        assert master.instance_serializations == 1
        for _ in range(commits):
            master.set_dirty(Doc.DIRTY_COUNT)
            assert m0.commit(master) == 1
        committed = m0.instance_data(master)
        master.count = 99  # edited, not committed
        master.set_dirty(Doc.DIRTY_COUNT)
        master.instance_serializations = 0
        for manager in slave_managers:
            slave = Doc()
            assert manager.map_object(slave, oid, VERSION_HEAD) == commits
            assert slave.count == 1
            assert manager.instance_data(slave) == committed
        assert master.instance_serializations == 0


def test_delta_chain_equals_direct_map(engine):
    with Cluster(3, engine=engine) as c:
        m0, m1, m2 = c.managers
        master = Doc()
        oid = m0.register_object(master, ChangeType.DELTA)

        early = Doc()
        m1.map_object(early, oid)  # from version 0, applies all deltas
        snapshots = commit_n(m0, master, 6)
        m1.sync(early, 6, timeout=5)

        late = Doc()
        m2.map_object(late, oid, VERSION_HEAD)  # direct instance at head
        assert m1.instance_data(early) == m2.instance_data(late) == snapshots[6]


def test_blocking_commit_waits_for_tokens(pair):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, ChangeType.DELTA)
    slave = Doc()
    m1.map_object(slave, oid)

    master.count = 1
    master.set_dirty(Doc.DIRTY_COUNT)
    assert m0.commit(master, max_queued=1, timeout=10) == 1

    state = {}

    def second_commit():
        master.count = 2
        master.set_dirty(Doc.DIRTY_COUNT)
        state["v"] = m0.commit(master, max_queued=1, timeout=10)

    t = threading.Thread(target=second_commit)
    t.start()
    time.sleep(0.3)
    assert "v" not in state  # blocked: slave holds one unsynced version
    m1.sync(slave, 1, timeout=5)
    t.join(timeout=10)
    assert state["v"] == 2


def test_sync_over_three_versions_sends_one_token(pair):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, ChangeType.DELTA)
    slave = Doc()
    m1.map_object(slave, oid)
    links = record_links(pair)
    commit_n(m0, master, 3)
    assert m1.sync(slave, 3, timeout=5) == 3
    token = oid.bytes + struct.pack("<Q", 3)
    assert links["n1", "n0"] == struct.pack("<IHI", 6 + len(token), CMD_OBJ_TOKEN, 0) + token


def test_blocking_commit_bounded_queue_depth(pair):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, ChangeType.DELTA)
    slave = Doc()
    m1.map_object(slave, oid)

    max_depth = 0
    done = threading.Event()

    def producer():
        for i in range(12):
            master.count = i
            master.set_dirty(Doc.DIRTY_COUNT)
            m0.commit(master, max_queued=4, timeout=30)
        done.set()

    t = threading.Thread(target=producer)
    t.start()
    while not done.is_set():
        with m1._lock:
            entry = m1._slaves.get(oid)
            depth = len(entry.queue) if entry else 0
        max_depth = max(max_depth, depth)
        if depth:
            m1.sync(slave, VERSION_HEAD, timeout=10)
        time.sleep(0.01)
    t.join()
    m1.sync(slave, VERSION_HEAD, timeout=10)
    assert max_depth <= 4
    assert slave.count == 11


def test_unmap_releases_blocked_commit(pair):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, ChangeType.DELTA)
    slave = Doc()
    m1.map_object(slave, oid)  # never syncs
    master.set_dirty(Doc.DIRTY_COUNT)
    assert m0.commit(master, max_queued=1) == 1
    state = {}

    def blocked_commit():
        master.set_dirty(Doc.DIRTY_COUNT)
        state["v"] = m0.commit(master, max_queued=1, timeout=None)

    t = threading.Thread(target=blocked_commit, daemon=True)
    t.start()
    time.sleep(0.1)
    assert "v" not in state
    m1.unmap_object(slave)
    t.join(timeout=1)
    assert state.get("v") == 2


def test_lost_slave_releases_blocked_commit(pair):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, ChangeType.DELTA)
    m1.map_object(Doc(), oid)  # never syncs
    master.set_dirty(Doc.DIRTY_COUNT)
    assert m0.commit(master, max_queued=1, timeout=5) == 1
    state = {}

    def blocked_commit():
        master.set_dirty(Doc.DIRTY_COUNT)
        state["v"] = m0.commit(master, max_queued=1, timeout=5)

    t = threading.Thread(target=blocked_commit, daemon=True)
    t.start()
    time.sleep(0.1)
    assert "v" not in state
    pair.nodes[1].close()
    t0 = time.monotonic()
    t.join(timeout=5)
    assert not t.is_alive()
    assert time.monotonic() - t0 < 1
    assert state.get("v") == 2  # the lost slave no longer counts


def test_sync_fails_at_once_when_the_master_is_lost(pair):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, ChangeType.DELTA)
    slave = Doc()
    m1.map_object(slave, oid)
    errors = []

    def waiter():
        try:
            m1.sync(slave, 1, timeout=5)
        except SlaveDisconnectedError as exc:
            errors.append(exc)

    t = threading.Thread(target=waiter, daemon=True)
    t.start()
    time.sleep(0.1)
    assert t.is_alive()
    pair.nodes[0].close()
    t0 = time.monotonic()
    t.join(timeout=5)
    assert not t.is_alive()
    assert time.monotonic() - t0 < 1
    assert len(errors) == 1


def test_multicast_commit_single_payload(engine):
    hub = MulticastHub()
    with Cluster(3, engine=engine) as c:
        for m in c.managers:
            hub.join(m)
        m0, m1, m2 = c.managers
        master = Doc()
        oid = m0.register_object(master, ChangeType.DELTA)
        s1, s2 = Doc(), Doc()
        m1.map_object(s1, oid)
        m2.map_object(s2, oid)

        master.count = 17
        master.set_dirty(Doc.DIRTY_COUNT)
        v = m0.commit(master)
        assert m0.counters["multicast_pushes"] == 1
        assert m0.counters["unicast_pushes"] == 0
        m1.sync(s1, v, timeout=5)
        m2.sync(s2, v, timeout=5)
        assert s1.count == s2.count == 17


def test_multicast_and_unicast_results_identical(engine):
    def run(with_hub):
        hub = MulticastHub() if with_hub else None
        with Cluster(3, engine=engine) as c:
            if hub:
                for m in c.managers:
                    hub.join(m)
            m0, m1, m2 = c.managers
            master = Doc()
            oid = m0.register_object(master, ChangeType.DELTA)
            slaves = [Doc(), Doc()]
            m1.map_object(slaves[0], oid)
            m2.map_object(slaves[1], oid)
            commit_n(m0, master, 5)
            m1.sync(slaves[0], 5, timeout=5)
            m2.sync(slaves[1], 5, timeout=5)
            return [s.state() for s in slaves], (
                c.managers[0].counters["unicast_pushes"],
                c.managers[0].counters["multicast_pushes"],
            )

    multicast_states, (uni_m, multi_m) = run(True)
    unicast_states, (uni_u, multi_u) = run(False)
    assert multicast_states == unicast_states
    assert multi_m == 5 and uni_m == 0
    assert uni_u == 10 and multi_u == 0


def test_single_slave_uses_unicast_even_with_hub(engine):
    hub = MulticastHub()
    with Cluster(2, engine=engine) as c:
        for m in c.managers:
            hub.join(m)
        m0, m1 = c.managers
        master = Doc()
        oid = m0.register_object(master, ChangeType.DELTA)
        slave = Doc()
        m1.map_object(slave, oid)
        master.count = 1
        master.set_dirty(Doc.DIRTY_COUNT)
        m0.commit(master)
        assert m0.counters["unicast_pushes"] == 1
        assert m0.counters["multicast_pushes"] == 0


def test_multicast_snooping_fills_cache(engine):
    hub = MulticastHub()
    with Cluster(4, engine=engine) as c:
        for m in c.managers:
            hub.join(m)
        m0, m1, m2, m3 = c.managers
        master = Doc()
        oid = m0.register_object(master, ChangeType.INSTANCE)
        s1, s2 = Doc(), Doc()
        m1.map_object(s1, oid)
        m2.map_object(s2, oid)
        master.count = 5
        master.set_dirty(Doc.DIRTY_COUNT)
        v = m0.commit(master)
        m1.sync(s1, v, timeout=5)
        m2.sync(s2, v, timeout=5)
        # the hub delivers synchronously: by now the unmapped node holds the
        # snooped version, and the mapped ones queued it instead
        assert m3.cache.versions(oid) == [v]
        assert m1.cache.versions(oid) == m2.cache.versions(oid) == []
        late = Doc()
        assert m3.map_object(late, oid, VERSION_HEAD) == v
        assert m3.counters["instance_payloads_received"] == 0
        assert late.state() == master.state()


@pytest.mark.parametrize("carrier", ["hub", "unicast"])
def test_instance_push_for_unmapped_object_is_cached_however_it_arrives(carrier, monkeypatch):
    hub = MulticastHub()
    with Cluster(3) as c:
        for m in c.managers:
            hub.join(m)
        m0, _, m2 = c.managers
        master = Doc(count=4)
        oid = m0.register_object(master, ChangeType.INSTANCE)
        held = []
        monkeypatch.setattr(m0, "_push", lambda payload, slaves: held.append(payload))
        master.set_dirty(Doc.DIRTY_COUNT)
        v = m0.commit(master)
        if carrier == "hub":
            hub.broadcast(m0.node.node_id, CMD_OBJ_PUSH, held[0])
        else:
            m0.node.peer(m2.node.node_id).send_command(CMD_OBJ_PUSH, held[0])
        deadline = time.monotonic() + 5
        while not m2.cache.versions(oid) and time.monotonic() < deadline:
            time.sleep(0.005)
        assert m2.cache.versions(oid) == [v]
        late = Doc()
        assert m2.map_object(late, oid, VERSION_HEAD) == v
        assert m2.counters["instance_payloads_received"] == 0
        assert late.state() == master.state()


def test_hub_command_never_reaches_the_senders_handlers():
    hub = MulticastHub()
    with Cluster(3) as c:
        for m in c.managers:
            hub.join(m)
        seen = []
        for node in c.nodes:
            node.register_handler(0x7F00, lambda cmd: seen.append((cmd.node, cmd.peer)))
        hub.broadcast(c.nodes[0].node_id, 0x7F00, b"hello")
        assert sorted(n.name for n, _ in seen) == ["n1", "n2"]
        # each receiver sees the command as coming from its peer for the sender
        assert all(peer.node_id == c.nodes[0].node_id for _, peer in seen)

        # a multicast commit of instance data is not snooped by its master
        m0, m1, m2 = c.managers
        master = Doc(count=1)
        oid = m0.register_object(master, ChangeType.INSTANCE)
        s1, s2 = Doc(), Doc()
        m1.map_object(s1, oid)
        m2.map_object(s2, oid)
        master.set_dirty(Doc.DIRTY_COUNT)
        v = m0.commit(master)
        assert m0.counters["multicast_pushes"] == 1
        assert m1.sync(s1, v, timeout=5) == v and m2.sync(s2, v, timeout=5) == v
        assert len(m0.cache) == 0


def test_preload_populates_caches(engine):
    with Cluster(4, preload=True, engine=engine) as c:
        master = Doc(count=9, blob=b"preloaded")
        oid = c.managers[0].register_object(master, ChangeType.DELTA)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if all(len(m.cache) == 1 for m in c.managers[1:]):
                break
            time.sleep(0.01)
        assert all(m.cache.versions(oid) == [0] for m in c.managers[1:])


def test_preload_is_counted_as_a_push():
    with Cluster(4, preload=True) as c:
        m0 = c.managers[0]
        master = Doc(count=9, blob=b"preloaded")
        oid = m0.register_object(master, ChangeType.INSTANCE)
        preload = m0._masters[oid].history[VERSION_NONE]
        assert m0.counters["unicast_pushes"] == 3
        assert m0.counters["multicast_pushes"] == 0
        assert m0.counters["bytes_pushed"] == len(preload)
        # a commit to the same three peers counts the same way
        for m in c.managers[1:]:
            m.map_object(Doc(), oid)
        master.set_dirty(Doc.DIRTY_COUNT)
        v = m0.commit(master)
        assert m0.counters["unicast_pushes"] == 6
        assert m0.counters["bytes_pushed"] == len(preload) + len(m0._masters[oid].history[v])


def test_warm_cache_map_needs_no_instance_payload(engine):
    with Cluster(2, preload=True, engine=engine) as c:
        m0, m1 = c.managers
        master = Doc(count=3, blob=b"warm")
        oid = m0.register_object(master, ChangeType.DELTA)
        deadline = time.monotonic() + 5
        while not m1.cache.versions(oid) and time.monotonic() < deadline:
            time.sleep(0.01)
        slave = Doc()
        m1.map_object(slave, oid)
        assert m1.counters["instance_payloads_received"] == 0
        assert slave.state() == master.state()


def test_map_from_the_cache_survives_an_eviction_while_the_master_answers():
    with Cluster(2, preload=True) as c:
        m0, m1 = c.managers
        m1.cache = InstanceCache(capacity_bytes=1024)
        master = Doc(count=3, blob=b"warm")
        oid = m0.register_object(master, ChangeType.DELTA)
        deadline = time.monotonic() + 5
        while not m1.cache.versions(oid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert m1.cache.versions(oid) == [VERSION_NONE]
        on_map = m0._on_map

        def evict_then_answer(cmd):
            # a snooped instance of another object fills the slave's cache
            m1.cache.put(uuid.uuid4(), 1, bytes(1024))
            on_map(cmd)

        m0.node.register_handler(CMD_OBJ_MAP, evict_then_answer)
        slave = Doc()
        assert m1.map_object(slave, oid, timeout=5) == VERSION_NONE
        assert m1.cache.versions(oid) == []
        assert m1.counters["instance_payloads_received"] == 0
        assert slave.state() == master.state()


def test_cache_transparency(engine):
    def final_state(preload):
        with Cluster(2, preload=preload, engine=engine) as c:
            m0, m1 = c.managers
            master = Doc()
            oid = m0.register_object(master, ChangeType.DELTA)
            if preload:
                deadline = time.monotonic() + 5
                while not m1.cache.versions(oid) and time.monotonic() < deadline:
                    time.sleep(0.01)
            slave = Doc()
            m1.map_object(slave, oid)
            commit_n(m0, master, 3)
            m1.sync(slave, 3, timeout=5)
            return slave.state()

    assert final_state(True) == final_state(False)


class Plain(DistributedObject):
    """Full state on every commit, no dirty bits: the DistributedObject defaults."""

    def __init__(self, data=b""):
        super().__init__()
        self.data = data

    def serialize_instance(self, stream: OutputStream) -> None:
        stream.write_u32(len(self.data))
        stream.write(self.data)

    def deserialize_instance(self, stream: InputStream) -> None:
        self.data = stream.read(stream.read_u32())


def test_instance_commit_pushes_its_stored_history_entry(pair, monkeypatch):
    m0, m1 = pair.managers
    master = Plain(b"instance" * 100)
    oid = m0.register_object(master, ChangeType.INSTANCE)
    m1.map_object(Plain(), oid)
    held = []
    monkeypatch.setattr(m0, "_push", lambda payload, peers: held.append(payload))
    v = m0.commit(master)
    assert held[0] is m0._masters[oid].history[v]


@versioned_types
def test_late_map_catch_ups_are_the_stored_pushes(pair, monkeypatch, change_type):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, change_type)
    snapshots = commit_n(m0, master, 5)
    sent = []
    push = m0._push
    monkeypatch.setattr(m0, "_push", lambda payload, peers: (sent.append(payload), push(payload, peers)))
    slave = Doc()
    assert m1.map_object(slave, oid, 2) == 2
    history = m0._masters[oid].history
    assert len(sent) == 3 and all(p is history[v] for p, v in zip(sent, (3, 4, 5)))
    assert m1.sync(slave, 5, timeout=5) == 5
    assert m1.instance_data(slave) == snapshots[5]


@versioned_types
def test_plain_distributed_object_replicates_byte_equal(change_type):
    with Cluster(3) as c:
        m0, m1, m2 = c.managers
        master = Plain(b"v0")
        oid = m0.register_object(master, change_type)
        snapshots = {}
        for v in range(1, 4):
            master.data = bytes([v]) * (100 * v)
            assert m0.commit(master) == v
            snapshots[v] = m0.instance_data(master)
        old, head = Plain(), Plain()
        assert m1.map_object(old, oid, 1) == 1
        assert m1.instance_data(old) == snapshots[1]
        assert m2.map_object(head, oid, VERSION_HEAD) == 3
        master.data = b"four"
        assert m0.commit(master) == 4
        snapshots[4] = m0.instance_data(master)
        assert m1.sync(old, 2, timeout=5) == 2
        assert m1.instance_data(old) == snapshots[2]
        for mgr, slave in ((m1, old), (m2, head)):
            assert mgr.sync(slave, 4, timeout=5) == 4
            assert mgr.instance_data(slave) == snapshots[4]


def test_randomized_replication_byte_equal(engine):
    rng = np.random.default_rng(42)
    with Cluster(3, engine=engine) as c:
        m0, m1, m2 = c.managers
        master = Doc()
        oid = m0.register_object(master, ChangeType.DELTA)
        slaves = [Doc(), Doc()]
        m1.map_object(slaves[0], oid)
        m2.map_object(slaves[1], oid)

        snapshots = {}
        for i in range(200):
            mask = 0
            if rng.random() < 0.5:
                master.count = int(rng.integers(-1000, 1000))
                mask |= Doc.DIRTY_COUNT
            if rng.random() < 0.5:
                master.scale = float(rng.random())
                mask |= Doc.DIRTY_SCALE
            if rng.random() < 0.3:
                master.blob = rng.integers(0, 256, int(rng.integers(0, 500)), dtype=np.uint8).tobytes()
                mask |= Doc.DIRTY_BLOB
            if not mask:
                master.count += 1
                mask = Doc.DIRTY_COUNT
            master.set_dirty(mask)
            v = m0.commit(master)
            snapshots[v] = m0.instance_data(master)
            if i % 7 == 0:
                for mgr, slave in ((m1, slaves[0]), (m2, slaves[1])):
                    reached = mgr.sync(slave, v, timeout=10)
                    assert reached == v
                    assert mgr.instance_data(slave) == snapshots[v]
        for mgr, slave in ((m1, slaves[0]), (m2, slaves[1])):
            reached = mgr.sync(slave, 200, timeout=10)
            assert reached == 200
            assert mgr.instance_data(slave) == snapshots[200]


_HISTORY_DEPTH = 3
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.integers(0, 255)),
        st.tuples(st.just("edit"), st.integers(-1000, 1000)),
        # a requested version: VERSION_OLDEST, VERSION_HEAD or an explicit one
        st.tuples(st.just("map"), st.integers(0, 1), st.integers(VERSION_OLDEST, 8)),
        st.tuples(st.just("sync"), st.integers(0, 1), st.integers(0, 8)),
    ),
    max_size=12,
)


def test_every_map_and_sync_yields_the_snapshot_of_its_version():
    """Random commits, uncommitted edits, maps and syncs over every change
    type: a map and a sync leave the slave holding exactly the state taken
    at the commit of the version they report, and a map of a version the
    master does not keep raises."""
    with Cluster(3, history_depth=_HISTORY_DEPTH) as c:
        m0, *slave_managers = c.managers

        @settings(max_examples=60, deadline=None, database=None)
        @given(change_type=st.sampled_from(ChangeType), steps=_steps)
        def replicate(change_type, steps):
            master = Doc(count=-1, blob=b"registered")
            oid = m0.register_object(master, change_type)
            snapshots = {VERSION_NONE: m0.instance_data(master)}
            slaves = [None, None]

            def mappable():
                head = max(snapshots)
                if change_type.buffered and head != VERSION_NONE:
                    return list(range(max(1, head - _HISTORY_DEPTH + 1), head + 1))
                return [head]

            try:
                for op, *args in steps:
                    if op == "commit" and not change_type.versioned:
                        with pytest.raises(ObjectError, match="static"):
                            m0.commit(master)
                    elif op == "commit":
                        master.blob = bytes([args[0]]) * (args[0] + 1)
                        master.set_dirty(Doc.DIRTY_BLOB)
                        v = m0.commit(master)
                        snapshots[v] = m0.instance_data(master)
                    elif op == "edit":
                        master.count = args[0]
                        master.set_dirty(Doc.DIRTY_COUNT)
                    elif op == "map":
                        i, requested = args
                        manager = slave_managers[i]
                        if slaves[i] is not None:
                            manager.unmap_object(slaves[i])
                            slaves[i] = None
                        versions = mappable()
                        expected = {VERSION_OLDEST: versions[0], VERSION_HEAD: versions[-1]}.get(
                            requested, requested
                        )
                        slave = Doc()
                        if expected not in versions:
                            with pytest.raises(VersionError):
                                manager.map_object(slave, oid, requested, timeout=5)
                            continue
                        assert manager.map_object(slave, oid, requested, timeout=5) == expected
                        assert manager.instance_data(slave) == snapshots[expected]
                        slaves[i] = slave
                    elif slaves[args[0]] is not None:  # sync
                        slave, manager = slaves[args[0]], slave_managers[args[0]]
                        head = max(snapshots)
                        target = slave.version + args[1] % (head - slave.version + 1)
                        assert manager.sync(slave, target, timeout=5) == target
                        assert manager.instance_data(slave) == snapshots[target]
            finally:
                for manager, slave in zip(slave_managers, slaves):
                    if slave is not None:
                        manager.unmap_object(slave)

        replicate()


def test_instance_commit_copies_a_bytes_payload_once(pair):
    """Without an engine the chunks of a `bytes` payload go to the push as
    views, so the push's one join is the only copy: the 16 framed chunks
    and the push are never held at once."""
    m0, _ = pair.managers
    master = Plain()
    m0.register_object(master, ChangeType.INSTANCE)
    master.data = np.random.default_rng(1).integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()
    tracemalloc.start()
    try:
        m0.commit(master)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (1 << 20)


_SCRATCH_SIZE = 3 * DEFAULT_CHUNK_SIZE + 1000  # several chunks, not a multiple of one

_SCRATCH_KINDS = {
    "bytearray": bytearray,
    "numpy": lambda n: np.zeros(n, dtype=np.uint8),
    "memoryview": lambda n: memoryview(bytearray(n)),
}


class Reuser(DistributedObject):
    """Writes each part through one scratch buffer that it overwrites
    after every write, as a serializer reusing its buffers does."""

    def __init__(self, parts=(), scratch=bytearray):
        super().__init__()
        self.parts = list(parts)
        self.scratch = scratch

    def serialize_instance(self, stream: OutputStream) -> None:
        stream.write_u32(len(self.parts))
        scratch = self.scratch(_SCRATCH_SIZE)
        for part in self.parts:
            memoryview(scratch).cast("B")[:] = part
            stream.write(scratch)
        memoryview(scratch).cast("B")[:] = bytes(_SCRATCH_SIZE)

    def deserialize_instance(self, stream: InputStream) -> None:
        self.parts = [stream.read(_SCRATCH_SIZE) for _ in range(stream.read_u32())]


@pytest.mark.parametrize("kind", sorted(_SCRATCH_KINDS))
def test_commit_keeps_what_a_reused_buffer_held(pair, kind):
    m0, m1 = pair.managers
    rng = np.random.default_rng(2)
    parts = [rng.integers(0, 4, _SCRATCH_SIZE, dtype=np.uint8).tobytes() for _ in range(3)]
    master = Reuser(parts[:1], _SCRATCH_KINDS[kind])
    oid = m0.register_object(master, ChangeType.INSTANCE)
    slave = Reuser()
    m1.map_object(slave, oid)
    assert slave.parts == parts[:1]
    master.parts = parts
    v = m0.commit(master)
    assert m1.sync(slave, v, timeout=5) == v
    assert slave.parts == parts
    stored = Reuser()
    push = memoryview(m0._masters[oid].history[v])
    stored.deserialize_instance(InputStream(iter_frames(push[_PUSH_HEAD.size :])))
    assert stored.parts == parts
