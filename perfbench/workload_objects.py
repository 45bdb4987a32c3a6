"""`objects`: per-frame data distribution through versioned objects.

One master and two slave nodes over LOCAL_PIPE, with no multicast hub and
no compression engine.  Each op the master commits a DELTA object (a
counter and a few floats) and an INSTANCE object holding a 1 MiB blob
from a set generated at set-up; both slaves then sync both objects to
head, the versions just committed (sync to VERSION_HEAD would apply only
what has already arrived).  After the op, each slave's state must equal
the master's, which must hold what the benchmark committed.
"""

from __future__ import annotations


import numpy as np

from eqsim.codec import InputStream, OutputStream
from eqsim.net import LocalNode
from eqsim.objects import ChangeType, DistributedObject, ObjectManager, Serializable

from harness import median_or_zero
from nodes import connect_star, count_node_bytes

N_SLAVES = 2
N_BLOBS = 4
N_FLOATS = 4


class FrameData(Serializable):
    """A frame counter and camera-like floats, dirtied independently."""

    DIRTY_COUNTER = 1 << 1
    DIRTY_FLOATS = 1 << 2
    DIRTY_BITS = DIRTY_COUNTER | DIRTY_FLOATS

    def __init__(self):
        super().__init__()
        self.counter = 0
        self.floats = (0.0,) * N_FLOATS

    def serialize(self, stream: OutputStream, mask: int) -> None:
        if mask & self.DIRTY_COUNTER:
            stream.write_u64(self.counter)
        if mask & self.DIRTY_FLOATS:
            for v in self.floats:
                stream.write_f64(v)

    def deserialize(self, stream: InputStream, mask: int) -> None:
        if mask & self.DIRTY_COUNTER:
            self.counter = stream.read_u64()
        if mask & self.DIRTY_FLOATS:
            self.floats = tuple(stream.read_f64() for _ in range(N_FLOATS))

    def state(self):
        return self.version, self.counter, self.floats


class Blob(DistributedObject):
    """Opaque bulk data, always sent whole."""

    def __init__(self):
        super().__init__()
        self.data = b""

    def serialize_instance(self, stream: OutputStream) -> None:
        stream.write_u32(len(self.data))
        stream.write(self.data)

    def deserialize_instance(self, stream: InputStream) -> None:
        self.data = stream.read(stream.read_u32())

    def state(self):
        return self.version, self.data


class ObjectsWorkload:
    name = "objects"
    WARMUP_OPS = 20
    COUNT_OPS = 100

    def __init__(self, seed: int, spans, blob_size: int = 1 << 20):
        self.spans = spans
        rng = np.random.default_rng([seed, 2])
        self.blobs = [rng.integers(0, 256, blob_size, dtype=np.uint8).tobytes() for _ in range(N_BLOBS)]
        self.floats = [tuple(float(v) for v in row) for row in rng.standard_normal((256, N_FLOATS))]
        self.nodes: list[LocalNode] = []
        self.wire = [0]

    def setup(self) -> None:
        master = LocalNode("master")
        slaves = [LocalNode(f"slave{k}") for k in range(N_SLAVES)]
        self.nodes = [master, *slaves]
        connect_star(master, slaves, "perfbench-objects")
        managers = [ObjectManager(node) for node in self.nodes]
        self.master_mgr = managers[0]
        self.data, self.blob = FrameData(), Blob()
        self.blob.data = self.blobs[0]
        data_id = managers[0].register_object(self.data, ChangeType.DELTA)
        blob_id = managers[0].register_object(self.blob, ChangeType.INSTANCE)
        self.replicas = []
        for mgr in managers[1:]:
            data, blob = FrameData(), Blob()
            with self.spans.span("objects.map"):
                mgr.map_object(data, data_id)
                mgr.map_object(blob, blob_id)
            self.replicas.append((data, blob))

    def teardown(self) -> None:
        for node in self.nodes:
            node.close()
        self.nodes = []

    def prepare(self) -> None:
        count_node_bytes(self.nodes, self.wire)

    def op(self, i: int) -> None:
        spans = self.spans
        self.data.counter = i + 1
        self.data.floats = self.floats[i % len(self.floats)]
        self.data.set_dirty(FrameData.DIRTY_BITS)
        self.blob.data = self.blobs[i % N_BLOBS]
        with spans.span("op"):
            with spans.span("objects.commit.delta"):
                data_version = self.data.commit()
            with spans.span("objects.commit.instance"):
                blob_version = self.blob.commit()
            for data, blob in self.replicas:
                with spans.span("objects.sync.delta"):
                    data.sync(data_version, timeout=10.0)
                with spans.span("objects.sync.instance"):
                    blob.sync(blob_version, timeout=10.0)

    def kind(self, i: int) -> None:
        return None

    def check(self, i: int) -> bool:
        expected = (i + 1, self.floats[i % len(self.floats)], self.blobs[i % N_BLOBS])
        master = (self.data.state(), self.blob.state())
        return (self.data.counter, self.data.floats, self.blob.data) == expected and all(
            (data.state(), blob.state()) == master for data, blob in self.replicas
        )

    def counts(self) -> dict:
        c = self.master_mgr.counters
        return {
            "wire_bytes": self.wire[0],
            "bytes_pushed": c["bytes_pushed"],
            "pushes": c["unicast_pushes"] + c["multicast_pushes"],
        }

    def layer_metrics(self, per_op: dict, traced: list[int], run) -> dict:
        ops = [per_op[i] for i in traced]
        setups = [v for k, v in per_op.items() if isinstance(k, str) and k.startswith("setup")]
        c = run.counts_per_op
        out = {
            "objects.map_ms": median_or_zero(s.get("objects.map", 0.0) for s in setups),
            "objects.bytes_pushed": c.get("bytes_pushed", 0.0),
            "objects.pushes": c.get("pushes", 0.0),
        }
        for name in ("commit.delta", "commit.instance", "sync.delta", "sync.instance"):
            metric = "objects." + name.replace(".", "_ms.", 1)
            out[metric] = median_or_zero(op.get("objects." + name, 0.0) for op in ops)
        return out
