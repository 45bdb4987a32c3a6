"""`rsp`: reliable multicast over the seeded network simulator.

An RspSimGroup of 8 members on a SimTransport with 1% loss.  Each op,
member 0 sends a 64 KiB message and each of the 7 other members receives
all of it; every reader must get exactly the bytes sent.  Datagram
counts and virtual time come from the group's trace and clock, so they
repeat exactly for one seed.
"""

from __future__ import annotations


import numpy as np

from eqsim.net import RSP_MULTICAST, ConnectionDescription, RspConfig, SimTransport
from eqsim.net.rsp import HEADER_SIZE

from harness import median_or_zero

N_MEMBERS = 8
LOSS = 0.01
N_MESSAGES = 8


class RspWorkload:
    name = "rsp"
    WARMUP_OPS = 5
    COUNT_OPS = 100

    def __init__(self, seed: int, spans, message_size: int = 64 << 10):
        self.seed = seed
        self.spans = spans
        rng = np.random.default_rng([seed, 3])
        self.messages = [
            rng.integers(0, 256, message_size, dtype=np.uint8).tobytes() for _ in range(N_MESSAGES)
        ]
        self.expected = list(self.messages)
        self.received: list[bytes] = []

    def setup(self) -> None:
        desc = ConnectionDescription(RSP_MULTICAST, "239.9.9.9", 9500)
        cfg = RspConfig(members=tuple(range(N_MEMBERS)))
        transport = SimTransport(seed=self.seed, loss=LOSS)
        self.endpoints = [transport.join(desc, cfg, m) for m in range(N_MEMBERS)]
        self.group = transport.groups[(desc.host, desc.port)]
        self._scanned = 0
        self._datagrams = 0
        self._datagram_bytes = 0

    def teardown(self) -> None:
        for ep in self.endpoints:
            ep.close()

    def prepare(self) -> None:
        pass

    def op(self, i: int) -> None:
        spans = self.spans
        sender, readers = self.endpoints[0], self.endpoints[1:]
        message = self.messages[i % N_MESSAGES]
        self.received = []
        with spans.span("op"):
            with spans.span("rsp.send"):
                sender.send(message)
            for ep in readers:
                with spans.span("rsp.recv"):
                    self.received.append(ep.recv(0, len(message)))

    def kind(self, i: int) -> None:
        return None

    def check(self, i: int) -> bool:
        want = self.expected[i % N_MESSAGES]
        return len(self.received) == N_MEMBERS - 1 and all(got == want for got in self.received)

    def counts(self) -> dict:
        trace = self.group.trace
        for entry in trace[self._scanned :]:
            if entry[0] == "tx":
                self._datagrams += 1
                self._datagram_bytes += HEADER_SIZE + entry[-1]
        self._scanned = len(trace)
        stats = [m.stats for m in self.group.members.values()]
        return {
            "wire_bytes": self._datagram_bytes,
            "datagrams": self._datagrams,
            "trace_entries": len(trace),
            "virtual_ms": self.group.clock * 1e3,
            "data_sent": sum(s.data_sent for s in stats),
            "retransmitted": sum(s.retransmitted for s in stats),
            "acks": sum(s.acks_sent for s in stats),
            "nacks": sum(s.nacks_sent for s in stats),
        }

    def layer_metrics(self, per_op: dict, traced: list[int], run) -> dict:
        ops = [per_op[i] for i in traced]
        c = run.counts_per_op
        sent = c.get("data_sent", 0.0) + c.get("retransmitted", 0.0)
        virtual_s = c.get("virtual_ms", 0.0) / 1e3
        untraced_wall = median_or_zero(x for x, t in zip(run.latencies, run.traced) if not t)
        return {
            "rsp.send_ms": median_or_zero(op.get("rsp.send", 0.0) for op in ops),
            "rsp.recv_ms": median_or_zero(op.get("rsp.recv", 0.0) for op in ops),
            "rsp.virtual_ms_per_op": c.get("virtual_ms", 0.0),
            "rsp.wall_per_virtual_s": untraced_wall / virtual_s if virtual_s else 0.0,
            "rsp.datagrams_per_op": c.get("datagrams", 0.0),
            "rsp.retransmit_ratio": c.get("retransmitted", 0.0) / sent if sent else 0.0,
            "rsp.acks_per_op": c.get("acks", 0.0),
            "rsp.nacks_per_op": c.get("nacks", 0.0),
            "rsp.trace_entries_per_op": c.get("trace_entries", 0.0),
        }
