"""Pinned wire bytes of the object layer.

A sequential scenario on three nodes records the bytes each peer
connection sends after its handshake; with node and object ids drawn from
a counter, every link's bytes are the same run to run, and their SHA-256
digests pin the node frames, the push, map and token payloads and the
chunked streams inside them.
"""

import hashlib
import struct

import pytest

from eqsim.codec import get_engine
from eqsim.codec.streams import iter_frames
from eqsim.objects import KIND_INSTANCE, ChangeType
from eqsim.objects.manager import CMD_OBJ_PUSH

from _cluster import Cluster, Doc, count_uuids, record_links
from test_objects import Plain


def _blob(v: int) -> bytes:
    """About 200 KB with long runs and a varied stretch: four 64 KiB chunks."""
    return bytes([v]) * 90_000 + bytes(range(256)) * 300 + bytes([v, 255 - v]) * 20_000


def _scenario(engine):
    """Commit a DELTA `Doc` and an INSTANCE `Plain` three times to two slaves,
    sync both, then map a third `Plain` behind head, which sends catch-ups;
    returns the SHA-256 of each link's bytes."""
    with Cluster(3, engine=engine) as c:
        links = record_links(c)
        m0, m1, m2 = c.managers
        doc, plain = Doc(count=1, scale=0.5, blob=b"doc"), Plain(_blob(0))
        doc_id = m0.register_object(doc, ChangeType.DELTA)
        plain_id = m0.register_object(plain, ChangeType.INSTANCE)
        assert len(list(iter_frames(m0.instance_data(plain)))) >= 3
        doc1, doc2, plain1 = Doc(), Doc(), Plain()
        assert m1.map_object(doc1, doc_id) == 0
        assert m2.map_object(doc2, doc_id) == 0
        assert m1.map_object(plain1, plain_id) == 0
        for v in range(1, 4):
            doc.count += v
            doc.set_dirty(Doc.DIRTY_COUNT)
            if v == 2:
                doc.blob = b"delta" * v
                doc.set_dirty(Doc.DIRTY_BLOB)
            assert m0.commit(doc) == v
            plain.data = _blob(v)
            assert m0.commit(plain) == v
        for manager, slave in ((m1, doc1), (m2, doc2), (m1, plain1)):
            assert manager.sync(slave, 3, timeout=5) == 3
        late = Plain()
        assert m2.map_object(late, plain_id, 1) == 1
        assert m2.sync(late, 3, timeout=5) == 3
        assert doc1.state() == doc2.state() == doc.state()
        assert plain1.data == late.data == plain.data
        return {link: hashlib.sha256(sent).hexdigest() for link, sent in sorted(links.items())}


_SLAVE_LINKS = {
    ("n1", "n0"): "d7a2c9262b4d8cf3746d8a3ac627754a131cb121dddf0e756b6703065af69231",
    ("n2", "n0"): "f28949f6dd6b767a781c49e8b67ec0728eeead96660ab0a6a62bc5dc8c5c7bdd",
}
PINNED_LINKS = {
    None: {
        ("n0", "n1"): "cf2987837fa244bb1ae9b6f173aeb1081460dc15170499498a57d853dadd495f",
        ("n0", "n2"): "cc224b8125aca8a6f7fa4e5311057970014f08a2be973e844787f04906845f13",
        **_SLAVE_LINKS,
    },
    "rle": {
        ("n0", "n1"): "f40ef5b655c44f31425cbe27f96373e8df2277c92b32d4aa14d90cce76a8017e",
        ("n0", "n2"): "bfa464b33402f036c8a767adae863677973f78b7c9d3ca281981384e5ad1fda2",
        **_SLAVE_LINKS,
    },
}


@pytest.mark.parametrize("engine_name", [None, "rle"], ids=["none", "rle"])
def test_object_layer_wire_bytes_are_pinned(engine_name, monkeypatch):
    count_uuids(monkeypatch)
    engine = get_engine(engine_name) if engine_name else None
    assert _scenario(engine) == PINNED_LINKS[engine_name]


def test_registration_sends_each_peer_one_instance_push():
    """With preloading on, registering an object pushes its version-0 instance."""
    with Cluster(3, preload=True) as c:
        links = record_links(c)
        m0 = c.managers[0]
        master = Doc(count=9, blob=b"preloaded")
        oid = m0.register_object(master, ChangeType.DELTA)
        payload = struct.pack("<16sQBQ", oid.bytes, 0, KIND_INSTANCE, 0) + m0.instance_data(master)
        frame = struct.pack("<IHI", 6 + len(payload), CMD_OBJ_PUSH, 0) + payload
        assert links["n0", "n1"] == links["n0", "n2"] == frame
        assert links["n1", "n0"] == links["n2", "n0"] == b""
