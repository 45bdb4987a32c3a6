import contextlib
import threading
import time

import numpy as np
import pytest

from eqsim.objects import (
    VERSION_HEAD,
    VERSION_NONE,
    VERSION_OLDEST,
    ChangeType,
    DirtyMaskError,
    MulticastHub,
    NotMasterError,
    ObjectError,
    VersionError,
)
from eqsim.objects.manager import CMD_OBJ_PUSH

from _cluster import Cluster, Doc


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
    slave = Doc()
    pair.managers[1].map_object(slave, oid)
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
    m1._handle_push(held[1], via_multicast=False)  # version 2 arrives first
    late = threading.Timer(0.2, m1._handle_push, (held[0], False))
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
        m1._handle_push(payload, via_multicast=False)
    assert m1.sync(slave, 2, timeout=5) == 2
    for payload in (held[1], held[2]):
        m1._handle_push(payload, via_multicast=False)
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
        fresh = Doc()
        with pytest.raises(ObjectError):
            m1.map_object(fresh, oid, 3)
        assert m1.map_object(Doc(), oid, VERSION_OLDEST) == 6


def test_unbuffered_serves_only_current_version(pair):
    m0, m1 = pair.managers
    master = Doc()
    oid = m0.register_object(master, ChangeType.UNBUFFERED)
    commit_n(m0, master, 3)
    with pytest.raises(VersionError, match="previous versions"):
        m1.map_object(Doc(), oid, 1)
    slave = Doc()
    assert m1.map_object(slave, oid, VERSION_HEAD) == 3
    assert m1.map_object(Doc(), oid, VERSION_OLDEST) == 3


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
