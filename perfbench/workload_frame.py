"""`frame`: the paper's frame loop over five decomposition modes.

Frames cycle db, pixel, subpixel, dplex, 2d.  Each frame generates the
compound's tasks, then for every task takes the image rendered at set-up,
computes its ROI, encodes ROI ids and depth with the rle engine, sends the
blob as one command from a source node to a destination node over a
LOCAL_PIPE connection, decodes it there, and finally composites.  Each
composite is compared with a plain-numpy reference built from the same
images; only the reference's digest is kept.
"""

from __future__ import annotations

import hashlib
import queue
from pathlib import Path

import numpy as np

from eqsim.codec import InputStream, OutputStream, get_engine
from eqsim.codec.streams import iter_frames
from eqsim.compound import CompositeStats, Image, PixelRect, composite, generate_tasks, parse_config
from eqsim.net import LocalNode

from harness import median_or_zero
from nodes import connect_star, count_node_bytes

FIXTURES = Path(__file__).resolve().parent / "fixtures"
# mode -> (fixture file, compound index); tiles.eqc yields no tasks today
COMPOUNDS = {
    "db": ("db_modes.eqc", 0),
    "pixel": ("pixel.eqc", 0),
    "subpixel": ("subpixel.eqc", 0),
    "dplex": ("dplex.eqc", 0),
    "2d": ("display_wall.eqc", 0),
}
MODES = tuple(COMPOUNDS)  # the frame cycle
DPLEX_PERIOD = 3  # dplex.eqc multiplexes three sources
CYCLE = len(MODES) * DPLEX_PERIOD  # frames until (mode, phase) repeats
CMD_IMAGE = 0x40
GRID = (8, 6)  # boxes per row, per column
N_OBJECTS = GRID[0] * GRID[1]


def render_scene(rng: np.random.Generator, width: int, height: int) -> list[tuple]:
    """Overlapping boxes on a fixed grid, each with an id and a depth plane.

    The geometry is the same for every seed, so every seed moves the same
    number of pixels; the seed draws the depths and which box gets which
    id.  Ids alternate between the two halves of the database range in a
    checkerboard, so each half spans the whole grid.
    """
    cell_w, cell_h = 0.9 * width / GRID[0], 0.9 * height / GRID[1]
    box_w, box_h = int(1.25 * cell_w), int(1.25 * cell_h)
    half = GRID[0] * GRID[1] // 2
    ids = [list(rng.permutation(half) + 1), list(rng.permutation(half) + 1 + half)]
    scene = []
    for row in range(GRID[1]):
        for col in range(GRID[0]):
            oid = int(ids[(row + col) % 2].pop())
            x = int(0.05 * width + (col + 0.5) * cell_w - box_w / 2)
            y = int(0.05 * height + (row + 0.5) * cell_h - box_h / 2)
            z0 = rng.uniform(1.0, 10.0)
            dzdx, dzdy = rng.uniform(-1e-3, 1e-3, size=2)
            scene.append((oid, x, y, box_w, box_h, z0, dzdx, dzdy))
    return scene


def render(scene, rect: PixelRect, lo: float, hi: float, shift: int) -> Image:
    """Z-buffered ids and depth of the objects in range [lo, hi) inside
    rect, shifted by `shift` pixels (a subpixel sample's jitter)."""
    img = Image(rect, np.zeros((rect.h, rect.w), dtype=np.int32), np.full((rect.h, rect.w), np.inf))
    for oid, x, y, w, h, z0, dzdx, dzdy in scene:
        if not lo <= (oid - 1) / N_OBJECTS < hi:
            continue
        x0, y0 = max(x + shift, rect.x), max(y + shift, rect.y)
        x1, y1 = min(x + shift + w, rect.x + rect.w), min(y + shift + h, rect.y + rect.h)
        if x0 >= x1 or y0 >= y1:
            continue
        ys = np.arange(y0, y1)[:, None]
        xs = np.arange(x0, x1)[None, :]
        depth = z0 + dzdx * xs + dzdy * ys
        sl = (slice(y0 - rect.y, y1 - rect.y), slice(x0 - rect.x, x1 - rect.x))
        closer = depth < img.depth[sl]
        img.values[sl][closer] = oid
        img.depth[sl][closer] = depth[closer]
    return img


def _bbox(values: np.ndarray):
    rows = np.flatnonzero(values.any(axis=1))
    cols = np.flatnonzero(values.any(axis=0))
    if len(rows) == 0:
        return None
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def reference_composite(inputs, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Plain-numpy composite of (image, task) pairs, ROI by ROI.

    The rules are those `eqsim.compound.composite` documents: spatial
    inputs paste, database ranges keep the strictly closer depth in input
    order, pixel inputs write the pixels they own, subpixel samples
    average ids (floor) and keep the nearest depth.
    """
    values = np.zeros((height, width), dtype=np.int32)
    depth = np.full((height, width), np.inf)
    sample_sum = np.zeros((height, width), dtype=np.int64)
    sample_n = np.zeros((height, width), dtype=np.int64)
    sample_depth = np.full((height, width), np.inf)
    for img, task in inputs:
        box = _bbox(img.values)
        if box is None:
            continue
        v, d = img.values[box], img.depth[box]
        y0, x0 = img.rect.y + box[0].start, img.rect.x + box[1].start
        dst = (slice(y0, y0 + v.shape[0]), slice(x0, x0 + v.shape[1]))
        if not task.subpixel.identity:
            sample_sum[dst] += v
            sample_n[dst] += 1
            sample_depth[dst] = np.minimum(sample_depth[dst], d)
        elif not task.pixel.identity:
            p = task.pixel
            owned = np.zeros((height, width), dtype=bool)
            owned[p.y_offset :: p.y_count, p.x_offset :: p.x_count] = True
            owned = owned[dst]
            values[dst][owned] = v[owned]
            depth[dst][owned] = d[owned]
        elif task.range_.lo != 0.0 or task.range_.hi != 1.0:
            closer = d < depth[dst]
            values[dst][closer] = v[closer]
            depth[dst][closer] = d[closer]
        else:
            values[dst] = v
            depth[dst] = d
    sampled = sample_n > 0
    values[sampled] = (sample_sum[sampled] // sample_n[sampled]).astype(np.int32)
    depth[sampled] = sample_depth[sampled]
    return values, depth


def digest(values: np.ndarray, depth: np.ndarray) -> bytes:
    """SHA-256 of a composite's shape, ids (int32) and depth (float64)."""
    h = hashlib.sha256(repr(values.shape).encode())
    h.update(np.ascontiguousarray(values, dtype=np.int32))
    h.update(np.ascontiguousarray(depth, dtype=np.float64))
    return h.digest()


class FrameWorkload:
    name = "frame"
    WARMUP_OPS = len(MODES)
    COUNT_OPS = CYCLE

    def __init__(self, seed: int, spans, resolution: tuple[int, int] = (1280, 720)):
        self.seed = seed
        self.spans = spans
        self.resolution = resolution
        self.texts = {f: (FIXTURES / f).read_text() for f, _ in COMPOUNDS.values()}
        self.engine = get_engine("rle")
        self.nodes: list[LocalNode] = []
        self.inbox: queue.Queue = queue.Queue()
        self.wire = [0]
        self.counters = dict.fromkeys(
            ("payload_bytes", "raw_bytes", "tasks", "bytes_transferred", "roi_pixels"), 0
        )
        self.output = None
        self.raw_bytes: dict[int, int] = {}  # op -> bytes handed to the encoder

    # --- set-up -----------------------------------------------------------

    def setup(self) -> None:
        self.compounds = {}
        for mode, (fixture, index) in COMPOUNDS.items():
            with self.spans.span("parser.parse"):
                config = parse_config(self.texts[fixture])
            self.compounds[mode] = config.compounds[index]
        dest, src = LocalNode("dest"), LocalNode("source")
        self.nodes = [dest, src]
        dest.register_handler(CMD_IMAGE, lambda cmd: self.inbox.put(cmd.payload))
        self.peer = connect_star(dest, [src], "perfbench-frame")[0]

    def teardown(self) -> None:
        for node in self.nodes:
            node.close()
        self.nodes = []

    def prepare(self) -> None:
        """Count link bytes; render every task's image and digest each
        (mode, phase) reference composite."""
        count_node_bytes(self.nodes, self.wire)
        width, height = self.resolution
        rng = np.random.default_rng([self.seed, 1])
        scene = render_scene(rng, width, height)
        self.images: dict[tuple[str, int], Image] = {}
        self.references: dict[tuple[str, int], bytes] = {}
        for mode, compound in self.compounds.items():
            for phase in range(DPLEX_PERIOD):
                tasks = generate_tasks(compound, frame=phase, resolution=self.resolution)
                inputs = []
                for task in tasks:
                    key = (mode, task.source_index)
                    if key not in self.images:
                        self.images[key] = render(
                            scene, task.viewport, task.range_.lo, task.range_.hi, task.subpixel.index
                        )
                    inputs.append((self.images[key], task))
                self.references[(mode, phase)] = digest(*reference_composite(inputs, width, height))

    # --- the loop ------------------------------------------------------------

    def _mode(self, i: int) -> tuple[str, int]:
        return MODES[i % len(MODES)], i // len(MODES)

    def kind(self, i: int) -> str:
        return self._mode(i)[0]

    def op(self, i: int) -> None:
        spans = self.spans
        mode, frame = self._mode(i)
        self.output = None
        raw_total = 0
        with spans.span("op"):
            with spans.span("tasks.generate"):
                tasks = generate_tasks(self.compounds[mode], frame=frame, resolution=self.resolution)
            received = []
            for task in tasks:
                image = self.images[(mode, task.source_index)]
                with spans.span("compositing.roi"):
                    roi = image.compute_roi()
                with spans.span("codec.encode"):
                    payload, raw = self._encode(image, roi)
                with spans.span("node.send"):
                    self.peer.send_command(CMD_IMAGE, payload)
                with spans.span("node.deliver"):
                    got = self.inbox.get(timeout=30.0)
                with spans.span("codec.decode"):
                    received.append((self._decode(got), task))
                self.counters["payload_bytes"] += len(payload)
                raw_total += raw
            stats = CompositeStats()
            with spans.span(f"compositing.composite.{mode}"):
                self.output = composite(received, self.resolution, stats)
        self.raw_bytes[i] = raw_total
        self.counters["raw_bytes"] += raw_total
        self.counters["tasks"] += len(tasks)
        self.counters["bytes_transferred"] += stats.bytes_transferred
        self.counters["roi_pixels"] += stats.roi_pixels

    def _encode(self, image: Image, roi: PixelRect) -> tuple[bytes, int]:
        parts: list[bytes] = []
        out = OutputStream(parts.append, engine=self.engine)
        sl = (
            slice(roi.y - image.rect.y, roi.y - image.rect.y + roi.h),
            slice(roi.x - image.rect.x, roi.x - image.rect.x + roi.w),
        )
        for v in (roi.x, roi.y, roi.w, roi.h):
            out.write_u32(v)
        values = image.values[sl].tobytes()
        depth = image.depth[sl].tobytes()
        out.write(values)
        out.write(depth)
        out.flush()
        return b"".join(parts), 16 + len(values) + len(depth)

    @staticmethod
    def _decode(payload: bytes) -> Image:
        stream = InputStream(iter_frames(payload))
        x, y, w, h = (stream.read_u32() for _ in range(4))
        rect = PixelRect(x, y, w, h)
        values = np.frombuffer(stream.read(w * h * 4), dtype=np.int32).reshape(h, w)
        depth = np.frombuffer(stream.read(w * h * 8), dtype=np.float64).reshape(h, w)
        return Image(rect, values, depth, roi=rect)

    def check(self, i: int) -> bool:
        mode, frame = self._mode(i)
        out, self.output = self.output, None
        return out is not None and digest(out.values, out.depth) == self.references[
            (mode, frame % DPLEX_PERIOD)
        ]

    def counts(self) -> dict:
        return {"wire_bytes": self.wire[0], **self.counters}

    # --- per-layer metrics -------------------------------------------------------

    def layer_metrics(self, per_op: dict, traced: list[int], run) -> dict:
        ops = [per_op[i] for i in traced]

        def med(name: str) -> float:
            return median_or_zero(op.get(name, 0.0) for op in ops)

        def composite_ms(op: dict) -> float:
            return sum(v for k, v in op.items() if k.startswith("compositing.composite."))

        setups = [v for k, v in per_op.items() if isinstance(k, str) and k.startswith("setup")]
        c = run.counts_per_op
        encode_s = sum(op.get("codec.encode", 0.0) for op in ops) / 1e3
        decode_s = sum(op.get("codec.decode", 0.0) for op in ops) / 1e3
        raw_mb = sum(self.raw_bytes[i] for i in traced) / 1e6
        out = {
            "parser.parse_ms": median_or_zero(s.get("parser.parse", 0.0) for s in setups),
            "tasks.generate_ms": med("tasks.generate"),
            "tasks.per_frame": c.get("tasks", 0.0),
            "codec.encode_ms": med("codec.encode"),
            "codec.decode_ms": med("codec.decode"),
            "codec.encode_MBps": raw_mb / encode_s if encode_s else 0.0,
            "codec.decode_MBps": raw_mb / decode_s if decode_s else 0.0,
            "codec.ratio": c["payload_bytes"] / c["raw_bytes"] if c.get("raw_bytes") else 0.0,
            "node.send_ms": med("node.send"),
            "node.deliver_ms": med("node.deliver"),
            "node.payload_bytes": c.get("payload_bytes", 0.0),
            "compositing.roi_ms": med("compositing.roi"),
            "compositing.composite_ms": median_or_zero(composite_ms(op) for op in ops),
            "compositing.bytes_transferred": c.get("bytes_transferred", 0.0),
            "compositing.roi_pixels": c.get("roi_pixels", 0.0),
        }
        # frame times per mode come from the run's untraced ops
        untraced = [(i, x) for i, x, t in zip(run.op_ids, run.latencies, run.traced) if not t]
        for mode in MODES:
            out[f"compositing.composite_ms.{mode}"] = median_or_zero(
                per_op[i].get(f"compositing.composite.{mode}", 0.0)
                for i in traced
                if self._mode(i)[0] == mode
            )
            out[f"frame.op_ms.{mode}"] = median_or_zero(
                x * 1e3 for i, x in untraced if self._mode(i)[0] == mode
            )
        return out
