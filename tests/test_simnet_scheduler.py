"""The simulator's timer heap against a brute-force scan of every timer.

The reference scheduler below is the full scan the heap replaced: before
each event it asks every member for `next_event_time()` and every sink for
`due_time()`, and after the delivery it visits them all again.  A group
driven by it runs in lockstep with a group driven by the heap, over random
impairments and random pause, rate, send, receive and idle schedules.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from eqsim.net import RSP_MULTICAST, ConnectionDescription, RspConfig, SimStallError, SimTransport

GROUP = ConnectionDescription(RSP_MULTICAST, "239.1.1.2", 4001)
INF = float("inf")


def brute_times(group):
    times = {key: m.next_event_time() for key, m in group.members.items()}
    times.update((key, s.due_time()) for key, s in group._sinks.items())
    return times


def brute_min(group):
    return min(brute_times(group).values(), default=INF)


def assert_timers_exact(group):
    """The heap's next timer is the brute-force minimum, and every member
    and sink with a finite time holds one live heap entry at that time."""
    assert group._next_timer() == brute_min(group)
    armed = {key: t for key, (t, _) in group._live.items()}
    assert armed == {key: t for key, t in brute_times(group).items() if t != INF}


def scan_step(group, deadline=INF):
    t_heap = group._heap[0][0] if group._heap else INF
    t_timer = brute_min(group)
    t_next = max(group.clock, min(t_heap, t_timer))
    if t_next > deadline:
        group.clock = max(group.clock, deadline)
        return False
    if t_next == INF:
        raise SimStallError("no pending events")
    group.clock = t_next
    if t_heap <= t_timer:
        _, _, receiver, dgram = heapq.heappop(group._heap)
        group._deliver(receiver, dgram)
    for member_id in sorted(group.members):
        member = group.members[member_id]
        if member.next_event_time() <= group.clock:
            for outgoing in member.poll(group.clock):
                group._transmit(member_id, outgoing, group.clock)
    for key in sorted(group._sinks):
        sink = group._sinks[key]
        if sink.due_time() <= group.clock:
            sink.run(group.clock)
    return True


def record_visits(group, log):
    """Log every member poll and sink run with the clock it happened at."""

    def logged(fn, tag, key):
        def call(now):
            log.append((tag, now, key))
            return fn(now)

        return call

    for member_id, member in group.members.items():
        member.poll = logged(member.poll, "poll", member_id)
    for key, sink in group._sinks.items():
        sink.run = logged(sink.run, "run", key)


def build(n, seed, num_buffers, impairments, reference):
    cfg = RspConfig(members=tuple(range(n)), num_buffers=num_buffers)
    transport = SimTransport(seed=seed, **impairments)
    eps = [transport.join(GROUP, cfg, m) for m in range(n)]
    group = transport.groups[(GROUP.host, GROUP.port)]
    log = []
    record_visits(group, log)
    if reference:
        group.step = lambda deadline=INF: scan_step(group, deadline)
    else:
        heap_step = group.step

        def checked_step(deadline=INF):
            stepped = heap_step(deadline)
            assert_timers_exact(group)
            return stepped

        group.step = checked_step
    return group, eps, log


RATES = {"slow": 64 << 10, "fast": 4 << 20, "unlimited": None}


def apply(group, eps, phase):
    """Run one phase of a schedule on one (reader, writer) pair: the
    reader's consumption changes, the writer sends, the group idles, the
    consumption changes again while data may still be buffered, and the
    reader makes a bounded receive.  Returns the outcome of each part."""
    pair, first, n_send, idle, then, n_recv = phase
    pairs = [(r, w) for r in range(len(eps)) for w in range(len(eps)) if r != w]
    reader, writer = pairs[pair % len(pairs)]

    def consume(change):
        if change in ("pause", "resume"):
            eps[reader].pause_consumption(writer, change == "pause")
        elif change in RATES:
            eps[reader].set_consume_rate(writer, RATES[change])

    outcome = []
    for part in (
        lambda: consume(first),
        lambda: eps[writer].send(bytes([writer + 1]) * n_send, max_virtual=0.05),
        lambda: group.run_for(idle * 1e-5),
        lambda: consume(then),
        lambda: eps[reader].recv(writer, n_recv, max_virtual=0.02),
    ):
        try:
            outcome.append(part())
        except SimStallError as exc:
            outcome.append(("stall", str(exc), group.clock))
    return outcome


changes = st.sampled_from(["pause", "resume", "none", *RATES])
schedules = st.lists(
    st.tuples(
        st.integers(0, 2),
        changes,
        st.integers(0, 120_000),
        st.integers(0, 3000),
        changes,
        st.integers(0, 60_000),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**16),
    num_buffers=st.sampled_from([64, 1024]),
    loss=st.sampled_from([0.0, 0.05, 0.2]),
    duplicate=st.sampled_from([0.0, 0.05]),
    reorder=st.sampled_from([0.0, 0.1]),
    schedule=schedules,
)
def test_heap_matches_full_scan(n, seed, num_buffers, loss, duplicate, reorder, schedule):
    impairments = dict(loss=loss, duplicate=duplicate, reorder=reorder)
    heap, heap_eps, heap_log = build(n, seed, num_buffers, impairments, reference=False)
    ref, ref_eps, ref_log = build(n, seed, num_buffers, impairments, reference=True)
    for phase in schedule:
        assert apply(heap, heap_eps, phase) == apply(ref, ref_eps, phase)
        assert heap_log == ref_log
        assert heap.clock == ref.clock
        assert_timers_exact(heap)
    assert heap.trace == ref.trace
