import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsim.objects import (
    VERSION_HEAD,
    BarrierError,
    BarrierMaster,
    BarrierSlave,
    ChangeType,
    DistributedQueue,
    ObjectError,
    ObjectMap,
    QueueConsumer,
    QueueError,
)
from eqsim.objects.collectives import _ITEM_END
from eqsim.objects.manager import CMD_OBJ_LOCATE, CMD_OBJ_PUSH

from _cluster import Cluster, Doc


def test_barrier_height_one_returns_immediately():
    with Cluster(1) as c:
        barrier = BarrierMaster(c.managers[0], height=1)
        t0 = time.monotonic()
        barrier.enter(timeout=5)
        assert time.monotonic() - t0 < 1


def test_barrier_three_participants_unblock_together():
    with Cluster(3) as c:
        master = BarrierMaster(c.managers[0], height=3)
        slaves = [BarrierSlave(c.managers[i], master.barrier_id) for i in (1, 2)]
        order = []
        lock = threading.Lock()

        def participant(name, enter):
            with lock:
                order.append((name, "before"))
            enter(10)
            with lock:
                order.append((name, "after"))

        threads = [
            threading.Thread(target=participant, args=("s1", slaves[0].enter)),
            threading.Thread(target=participant, args=("s2", slaves[1].enter)),
        ]
        for t in threads:
            t.start()
        time.sleep(0.2)
        with lock:
            assert all(phase == "before" for _, phase in order)  # nobody through yet
        participant("m", master.enter)
        for t in threads:
            t.join(timeout=10)
        phases = [phase for _, phase in order]
        assert phases.count("after") == 3
        # every "after" happens after every "before"
        assert max(i for i, p in enumerate(phases) if p == "before") < min(
            i for i, p in enumerate(phases) if p == "after"
        )


def test_barrier_hundred_rounds_no_leakage():
    with Cluster(2) as c:
        master = BarrierMaster(c.managers[0], height=2)
        slave = BarrierSlave(c.managers[1], master.barrier_id)
        counts = {"master": 0, "slave": 0}

        def run(name, enter):
            for _ in range(100):
                enter(30)
                counts[name] += 1

        threads = [
            threading.Thread(target=run, args=("master", master.enter)),
            threading.Thread(target=run, args=("slave", slave.enter)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert counts == {"master": 100, "slave": 100}


def test_barrier_participant_disconnect_errors_remaining():
    with Cluster(3) as c:
        master = BarrierMaster(c.managers[0], height=3)
        s1 = BarrierSlave(c.managers[1], master.barrier_id)
        s2 = BarrierSlave(c.managers[2], master.barrier_id)
        errors = []

        def enter_and_record(slave):
            try:
                slave.enter(timeout=15)
            except BarrierError as exc:
                errors.append(str(exc))

        t1 = threading.Thread(target=enter_and_record, args=(s1,))
        t2 = threading.Thread(target=enter_and_record, args=(s2,))
        t1.start()
        t2.start()
        time.sleep(0.2)  # both waiting; the master never enters
        c.nodes[2].close()  # participant s2 drops out mid-round
        t1.join(timeout=15)
        t2.join(timeout=15)
        assert any("disconnected" in e for e in errors)


def test_barrier_participant_lost_between_rounds_fails_the_next_round_at_once():
    with Cluster(3) as c:
        master = BarrierMaster(c.managers[0], height=3)
        s1 = BarrierSlave(c.managers[1], master.barrier_id)
        s2 = BarrierSlave(c.managers[2], master.barrier_id)
        threads = [threading.Thread(target=s.enter, args=(10,)) for s in (s1, s2)]
        for t in threads:
            t.start()
        master.enter(timeout=10)  # round 0 completes
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        c.nodes[2].close()  # s2 leaves before round 1
        t0 = time.monotonic()
        with pytest.raises(BarrierError, match="disconnected"):
            s1.enter(timeout=2)
        assert time.monotonic() - t0 < 1


def test_barrier_master_timeout_raises_timeout_error():
    with Cluster(2) as c:
        master = BarrierMaster(c.managers[0], height=2)
        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match="barrier round 0 timed out"):
            master.enter(timeout=0.2)  # the slave never enters
        assert time.monotonic() - t0 >= 0.2


def test_barrier_master_enter_fails_at_once_when_its_node_closes():
    with Cluster(2) as c:
        master = BarrierMaster(c.managers[0], height=2)
        BarrierSlave(c.managers[1], master.barrier_id)  # connected, never enters
        closer = threading.Timer(0.1, c.nodes[0].close)
        closer.start()
        t0 = time.monotonic()
        with pytest.raises(BarrierError):
            master.enter(timeout=3)
        assert time.monotonic() - t0 < 0.5
        closer.join(timeout=5)
        assert not closer.is_alive()


def test_barrier_slave_timeout_raises_timeout_error():
    with Cluster(2) as c:
        master = BarrierMaster(c.managers[0], height=2)
        slave = BarrierSlave(c.managers[1], master.barrier_id)
        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match="timed out"):
            slave.enter(timeout=0.2)  # the master never enters
        assert time.monotonic() - t0 >= 0.2


def test_queue_single_consumer_fifo():
    with Cluster(2) as c:
        q = DistributedQueue(c.managers[0])
        for i in range(100):
            q.push(f"item-{i}".encode())
        q.close()
        consumer = QueueConsumer(c.managers[1], q.queue_id, prefetch=4)
        got = []
        while True:
            item = consumer.pop(timeout=10)
            if item is None:
                break
            got.append(item)
        assert got == [f"item-{i}".encode() for i in range(100)]


def test_queue_four_consumers_disjoint_partition():
    with Cluster(5) as c:
        q = DistributedQueue(c.managers[0])
        consumers = [QueueConsumer(c.managers[i], q.queue_id, prefetch=4) for i in (1, 2, 3, 4)]
        for i in range(100):
            q.push(i.to_bytes(4, "little"))
        q.close()

        received = {i: [] for i in range(4)}

        def drain(idx):
            while True:
                item = consumers[idx].pop(timeout=10)
                if item is None:
                    return
                received[idx].append(int.from_bytes(item, "little"))

        threads = [threading.Thread(target=drain, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)

        union = sorted(x for items in received.values() for x in items)
        assert union == list(range(100))  # disjoint cover, each exactly once


def test_queue_prefetch_window_bounds_local_buffer():
    with Cluster(2) as c:
        q = DistributedQueue(c.managers[0])
        for i in range(50):
            q.push(bytes([i]))
        q.close()
        consumer = QueueConsumer(c.managers[1], q.queue_id, prefetch=4)
        time.sleep(0.3)  # let prefetch fill
        count = 0
        while consumer.pop(timeout=5) is not None:
            count += 1
        assert count == 50
        assert consumer.max_buffered <= 4


def test_queue_pop_after_end_returns_none_repeatedly():
    with Cluster(2) as c:
        q = DistributedQueue(c.managers[0])
        q.close()
        consumer = QueueConsumer(c.managers[1], q.queue_id)
        assert consumer.pop(timeout=5) is None
        assert consumer.pop(timeout=5) is None


def _wait_until(predicate, timeout=5):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert predicate()


def test_queue_sends_a_consumer_one_end_frame():
    with Cluster(2) as c:
        q = DistributedQueue(c.managers[0])
        items = [bytes([i]) for i in range(4)]
        for item in items:
            q.push(item)
        q.close()
        consumer = QueueConsumer(c.managers[1], q.queue_id, prefetch=8)
        # the end waits for the four acknowledgements, so no end frame
        # arrives before the count starts
        ends, on_command = [], consumer._on_command

        def count_ends(cmd):
            if cmd.payload[16] & _ITEM_END:
                ends.append(cmd)
            on_command(cmd)

        consumer._on_command = count_ends
        assert [consumer.pop(timeout=5) for _ in range(5)] == [*items, None]
        time.sleep(0.2)  # any further end frame has arrived
        assert len(ends) == 1


def test_queue_close_ends_every_waiting_consumer():
    with Cluster(3) as c:
        q = DistributedQueue(c.managers[0])
        consumers = [QueueConsumer(c.managers[i], q.queue_id) for i in (1, 2)]
        _wait_until(lambda: len(q._pending) == 2)  # both wait with credits
        q.close()
        for consumer in consumers:
            assert consumer.pop(timeout=1) is None


def test_queue_pop_fails_at_once_when_master_node_closes():
    with Cluster(2) as c:
        q = DistributedQueue(c.managers[0])
        consumer = QueueConsumer(c.managers[1], q.queue_id)
        closer = threading.Timer(0.3, c.nodes[0].close)
        closer.start()
        t0 = time.monotonic()
        with pytest.raises(QueueError, match="disconnected"):
            consumer.pop(timeout=1.5)
        assert time.monotonic() - t0 < 0.3 + 0.25
        closer.join(timeout=2)
        assert not closer.is_alive()


def test_queue_pop_timeout_raises_timeout_error():
    with Cluster(2) as c:
        q = DistributedQueue(c.managers[0])
        consumer = QueueConsumer(c.managers[1], q.queue_id)
        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match="queue pop timed out"):
            consumer.pop(timeout=0.2)  # nothing pushed, queue open
        assert time.monotonic() - t0 >= 0.2
        q.close()


def test_queue_survives_a_lost_consumer():
    with Cluster(3) as c:
        q = DistributedQueue(c.managers[0])
        keeper = QueueConsumer(c.managers[1], q.queue_id, prefetch=4)
        QueueConsumer(c.managers[2], q.queue_id, prefetch=4)
        _wait_until(lambda: len(q._pending) == 2)  # both consumers hold credits
        c.nodes[2].close()
        items = [bytes([i]) for i in range(8)]
        for item in items:
            q.push(item)
        q.close()
        got = []
        while (item := keeper.pop(timeout=2)) is not None:
            got.append(item)
        assert got == items


def test_queue_sends_to_one_consumer_in_push_order_while_a_send_stalls():
    with Cluster(2) as c:
        q = DistributedQueue(c.managers[0])
        consumer = QueueConsumer(c.managers[1], q.queue_id, prefetch=2)
        _wait_until(lambda: len(q._pending) == 1)
        peer = c.nodes[0].peer(c.nodes[1].node_id)
        send_raw, started = peer.send_raw, threading.Event()

        def stall_first_send(*args):
            if not started.is_set():
                started.set()
                time.sleep(0.3)
            send_raw(*args)

        peer.send_raw = stall_first_send
        first = threading.Thread(target=q.push, args=(b"first",))
        first.start()
        assert started.wait(timeout=5)  # "first" is handed out, not yet sent
        q.push(b"second")
        first.join(timeout=5)
        assert not first.is_alive()
        assert [consumer.pop(timeout=5), consumer.pop(timeout=5)] == [b"first", b"second"]


def test_queue_returns_a_lost_consumers_prefetched_items():
    with Cluster(3) as c:
        q = DistributedQueue(c.managers[0])
        lost = QueueConsumer(c.managers[1], q.queue_id, prefetch=4)
        items = [bytes([i]) for i in range(8)]
        for item in items:
            q.push(item)
        _wait_until(lambda: len(lost._local) == 4)  # items 0-3 prefetched
        c.nodes[1].close()
        _wait_until(lambda: len(q._items) == 8)  # 0-3 back at the head
        keeper = QueueConsumer(c.managers[2], q.queue_id, prefetch=4)
        q.close()
        got = []
        while (item := keeper.pop(timeout=2)) is not None:
            got.append(item)
        assert got == items
        assert keeper.pop(timeout=2) is None


@settings(max_examples=50, deadline=None)
@given(prefetch=st.integers(1, 4), count=st.integers(0, 12), data=st.data())
def test_queue_items_are_popped_exactly_once_across_a_lost_consumer(prefetch, count, data):
    popped_first = data.draw(st.integers(0, count), label="popped by the first consumer")
    items = [bytes([i]) for i in range(count)]
    with Cluster(3) as c:
        q = DistributedQueue(c.managers[0])
        for item in items:
            q.push(item)
        first = QueueConsumer(c.managers[1], q.queue_id, prefetch=prefetch)
        got = [first.pop(timeout=5) for _ in range(popped_first)]
        c.nodes[1].close()
        second = QueueConsumer(c.managers[2], q.queue_id, prefetch=prefetch)
        q.close()
        while (item := second.pop(timeout=5)) is not None:
            got.append(item)
    assert sorted(got) == items


def test_queue_stress_pushes_racing_pops_and_a_lost_consumer():
    items = [i.to_bytes(2, "little") for i in range(60)]
    got = {i: [] for i in range(3)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Cluster(4) as c:
            q = DistributedQueue(c.managers[0])
            consumers = [QueueConsumer(c.managers[i], q.queue_id, prefetch=3) for i in (1, 2, 3)]

            def drain(i, limit):
                while len(got[i]) < limit and (item := consumers[i].pop(timeout=10)) is not None:
                    got[i].append(item)

            lost = threading.Thread(target=drain, args=(0, 5))
            survivors = [threading.Thread(target=drain, args=(i, len(items))) for i in (1, 2)]
            producer = threading.Thread(target=lambda: [q.push(item) for item in items])
            for t in (lost, *survivors, producer):
                t.start()
            lost.join(timeout=10)
            c.nodes[1].close()  # the first consumer leaves holding prefetched items
            producer.join(timeout=10)
            q.close()
            for t in survivors:
                t.join(timeout=20)
            assert not any(t.is_alive() for t in (lost, producer, *survivors))
    finally:
        sys.setswitchinterval(interval)
    assert len(got[0]) == 5
    assert sorted(x for popped in got.values() for x in popped) == items


def test_objectmap_commit_only_dirty_objects():
    with Cluster(2) as c:
        m0, m1 = c.managers
        omap = ObjectMap()
        m0.register_object(omap, ChangeType.DELTA)
        docs = [Doc(count=i) for i in range(3)]
        ids = [omap.register(d, ChangeType.DELTA, type_tag=i) for i, d in enumerate(docs)]

        before = m0.counters["commits"]
        docs[1].count = 77
        docs[1].set_dirty(Doc.DIRTY_COUNT)
        map_version = omap.commit_all()
        # exactly 1 object commit + 1 map commit
        assert m0.counters["commits"] - before == 2
        assert omap.entries[ids[1]][0] == 1
        assert omap.entries[ids[0]][0] == 0
        assert map_version >= 1


def test_objectmap_slave_selective_mapping():
    with Cluster(2) as c:
        m0, m1 = c.managers
        omap = ObjectMap()
        m0.register_object(omap, ChangeType.DELTA)
        docs = [Doc(count=i) for i in range(3)]
        ids = [omap.register(d, ChangeType.DELTA) for d in docs]
        omap.commit_all()

        slave_map = ObjectMap()
        m1.map_object(slave_map, omap.object_id, VERSION_HEAD)
        assert set(slave_map.entries) == set(ids)

        picked = [Doc(), Doc()]
        slave_map.map_entry(ids[0], picked[0])
        slave_map.map_entry(ids[2], picked[1])

        for d in docs:
            d.count += 100
            d.set_dirty(Doc.DIRTY_COUNT)
        target = omap.commit_all()

        reached = slave_map.sync_all(target)
        assert reached == target
        assert picked[0].count == 100
        assert picked[1].count == 102


def test_objectmap_sync_all_timeout_bounds_every_entry():
    with Cluster(2) as c:
        m0, m1 = c.managers
        omap = ObjectMap()
        m0.register_object(omap, ChangeType.DELTA)
        docs = [Doc(), Doc()]
        ids = [omap.register(d, ChangeType.DELTA) for d in docs]
        omap.commit_all()
        slave_map = ObjectMap()
        m1.map_object(slave_map, omap.object_id, VERSION_HEAD)
        for oid in ids:
            slave_map.map_entry(oid, Doc())
        # the first entry's push arrives late, the second's never
        on_push = m1._on_push
        late = []

        def hold_entries(cmd):
            if bytes(cmd.payload[:16]) == ids[0].bytes:
                late.append(threading.Timer(0.4, on_push, (cmd,)))
                late[-1].start()
            elif bytes(cmd.payload[:16]) != ids[1].bytes:
                on_push(cmd)

        m1.node.register_handler(CMD_OBJ_PUSH, hold_entries)
        for d in docs:
            d.count += 1
            d.set_dirty(Doc.DIRTY_COUNT)
        target = omap.commit_all()
        t0 = time.monotonic()
        with pytest.raises(ObjectError, match="cannot reach version"):
            slave_map.sync_all(target, timeout=0.5)
        assert time.monotonic() - t0 < 0.5 + 0.25
        for timer in late:
            timer.join(timeout=2)


def test_objectmap_empty_commit_is_cheap():
    with Cluster(1) as c:
        omap = ObjectMap()
        c.managers[0].register_object(omap, ChangeType.DELTA)
        v1 = omap.commit_all()  # entries empty but map itself never committed yet
        v2 = omap.commit_all()  # nothing changed now
        assert v2 == v1


def test_objectmap_type_tags_travel():
    with Cluster(2) as c:
        m0, m1 = c.managers
        omap = ObjectMap()
        m0.register_object(omap, ChangeType.DELTA)
        doc = Doc()
        oid = omap.register(doc, ChangeType.DELTA, type_tag=42)
        omap.commit_all()
        slave_map = ObjectMap()
        m1.map_object(slave_map, omap.object_id, VERSION_HEAD)
        assert slave_map.entries[oid][1] == 42


def test_queue_consumer_does_not_answer_a_locate_for_its_queue():
    with Cluster(3) as c:
        m0, m1, _ = c.managers
        queue = DistributedQueue(m0)
        consumer = QueueConsumer(m1, queue.queue_id)
        queue.push(b"item")
        assert consumer.pop(timeout=5) == b"item"
        to_m1 = m0.node.peer(c.nodes[1].node_id)
        assert to_m1.request(CMD_OBJ_LOCATE, queue.queue_id.bytes, timeout=5) == b"\x00"
        with pytest.raises(ObjectError, match="no reachable master"):
            m0.locate_master(queue.queue_id, timeout=5)
        assert m1.locate_master(queue.queue_id, timeout=5).node_id == c.nodes[0].node_id
