"""Properties of ROI detection, compositing and pixel-task generation.

`oracle_composite` is a per-pixel Python loop over the rules that
`eqsim.compound.compositing` documents (each input contributes the
pixels it owns, averaged, merged by depth or pasted); `composite` must
match it exactly.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsim.compound import (
    BYTES_PER_PIXEL,
    CompositeError,
    CompositeStats,
    Image,
    PixelParam,
    PixelRect,
    Range,
    RenderTask,
    SubpixelParam,
    composite,
    generate_tasks,
    parse_config,
    pixel_owner,
)

FIXTURES = Path(__file__).parent / "fixtures"
DEPTHS = [1.0, 2.0, 2.5, 4.0]  # few distinct depths, so ties occur


def nonzero_bbox(image: Image):
    ys, xs = np.nonzero(image.values)
    if len(xs) == 0:
        return None
    return PixelRect(
        image.rect.x + int(xs.min()),
        image.rect.y + int(ys.min()),
        int(xs.max() - xs.min()) + 1,
        int(ys.max() - ys.min()) + 1,
    )


def oracle_composite(inputs, width, height):
    values = [[0] * width for _ in range(height)]
    depth = [[np.inf] * width for _ in range(height)]
    samples = {}  # (x, y) -> (sum, count, nearest depth)
    for image, task in inputs:
        roi = nonzero_bbox(image)
        if roi is None:
            continue
        for y in range(roi.y, roi.y + roi.h):
            for x in range(roi.x, roi.x + roi.w):
                if not pixel_owner(task.pixel, x, y):
                    continue
                v = int(image.values[y - image.rect.y, x - image.rect.x])
                d = float(image.depth[y - image.rect.y, x - image.rect.x])
                if not task.subpixel.identity:
                    s, n, near = samples.get((x, y), (0, 0, np.inf))
                    samples[(x, y)] = (s + v, n + 1, min(near, d))
                elif task.range_ != Range():
                    if d < depth[y][x]:
                        values[y][x], depth[y][x] = v, d
                else:
                    values[y][x], depth[y][x] = v, d
    for (x, y), (s, n, near) in samples.items():
        values[y][x], depth[y][x] = s // n, near
    return np.array(values, dtype=np.int32), np.array(depth)


@st.composite
def images(draw, rect: PixelRect):
    """An id raster over `rect` with a random foreground and depth."""
    h, w = rect.h, rect.w
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = np.where(rng.random((h, w)) < density, rng.integers(1, 10, (h, w)), 0).astype(np.int32)
    depth = np.where(values != 0, rng.choice(DEPTHS, (h, w)), np.inf)
    return Image(rect, values, depth)


frame_sizes = st.tuples(st.integers(1, 14), st.integers(1, 11))


def task(viewport, **kw) -> RenderTask:
    return RenderTask(channel="c", frame=0, viewport=viewport, **kw)


def check(inputs, width, height):
    expected_values, expected_depth = oracle_composite(inputs, width, height)
    out = composite(inputs, (width, height))
    np.testing.assert_array_equal(out.values, expected_values)
    np.testing.assert_array_equal(out.depth, expected_depth)


@settings(max_examples=60, deadline=None)
@given(frame_sizes, st.data())
def test_spatial_paste_matches_oracle(size, data):
    width, height = size
    xcut = data.draw(st.integers(0, width))
    ycut = data.draw(st.integers(0, height))
    tiles = [
        PixelRect(x0, y0, x1 - x0, y1 - y0)
        for x0, x1 in ((0, xcut), (xcut, width))
        for y0, y1 in ((0, ycut), (ycut, height))
        if x1 > x0 and y1 > y0
    ]
    tiles = data.draw(st.permutations(tiles))
    check([(data.draw(images(t)), task(t)) for t in tiles], width, height)


@settings(max_examples=60, deadline=None)
@given(frame_sizes, st.integers(1, 4), st.data())
def test_database_merge_keeps_strictly_closer_depth_in_input_order(size, n, data):
    width, height = size
    frame = PixelRect(0, 0, width, height)
    inputs = [(data.draw(images(frame)), task(frame, range_=Range(i / n, (i + 1) / n))) for i in range(n)]
    check(inputs, width, height)


@settings(max_examples=80, deadline=None)
@given(frame_sizes, st.integers(1, 4), st.integers(1, 3), st.data())
def test_pixel_ownership_with_unaligned_roi_origins(size, x_count, y_count, data):
    width, height = size
    frame = PixelRect(0, 0, width, height)
    inputs = []
    for y_offset in range(y_count):
        for x_offset in range(x_count):
            # a sub-rectangle of the frame puts the ROI origin off the period
            x = data.draw(st.integers(0, width - 1))
            y = data.draw(st.integers(0, height - 1))
            rect = PixelRect(x, y, data.draw(st.integers(1, width - x)), data.draw(st.integers(1, height - y)))
            p = PixelParam(x_offset, y_offset, x_count, y_count)
            inputs.append((data.draw(images(rect)), task(frame, pixel=p)))
    check(inputs, width, height)


@settings(max_examples=80, deadline=None)
@given(
    frame_sizes, st.sampled_from(["db", "subpixel"]), st.integers(2, 3), st.integers(1, 2), st.integers(1, 3), st.data()
)
def test_pixel_ownership_holds_under_ranges_and_samples(size, mode, n, x_count, y_count, data):
    # every database range or subpixel sample is split again by pixel
    width, height = size
    frame = PixelRect(0, 0, width, height)
    inputs = []
    for i in range(n):
        split = {"range_": Range(i / n, (i + 1) / n)} if mode == "db" else {"subpixel": SubpixelParam(i, n)}
        for y_offset in range(y_count):
            for x_offset in range(x_count):
                x = data.draw(st.integers(0, width - 1))
                y = data.draw(st.integers(0, height - 1))
                rect = PixelRect(x, y, data.draw(st.integers(1, width - x)), data.draw(st.integers(1, height - y)))
                p = PixelParam(x_offset, y_offset, x_count, y_count)
                inputs.append((data.draw(images(rect)), task(frame, pixel=p, **split)))
    check(data.draw(st.permutations(inputs)), width, height)


def test_database_halves_split_by_pixel_merge_by_depth():
    # two DB halves, each split 2x1 by pixel and each leaf drawing the whole
    # frame: the near half (id 2, depth 1) wins over the far half (id 1,
    # depth 5) although the far half is composited last
    frame = PixelRect(0, 0, 8, 2)
    inputs = []
    for range_, ident, z in ((Range(0.0, 0.5), 2, 1.0), (Range(0.5, 1.0), 1, 5.0)):
        for x_offset in range(2):
            image = Image(frame, np.full((2, 8), ident, dtype=np.int32), np.full((2, 8), z))
            inputs.append((image, task(frame, range_=range_, pixel=PixelParam(x_offset, 0, 2, 1))))
    out = composite(inputs, (8, 2))
    assert (out.values == 2).all() and (out.depth == 1.0).all()


def test_subpixel_samples_split_by_pixel_average_only_owned_pixels():
    # two samples, each split 2x1 by pixel; a leaf draws its sample's id at
    # the pixels it owns and background at the others
    frame = PixelRect(0, 0, 8, 2)
    inputs = []
    for index, ident in ((0, 4), (1, 6)):
        for x_offset in range(2):
            values = np.zeros((2, 8), dtype=np.int32)
            values[:, x_offset::2] = ident
            depth = np.where(values != 0, float(ident), np.inf)
            split = {"subpixel": SubpixelParam(index, 2), "pixel": PixelParam(x_offset, 0, 2, 1)}
            inputs.append((Image(frame, values, depth), task(frame, **split)))
    out = composite(inputs, (8, 2))
    assert (out.values == 5).all() and (out.depth == 4.0).all()


@settings(max_examples=60, deadline=None)
@given(frame_sizes, st.integers(2, 4), st.data())
def test_subpixel_average_floors(size, n, data):
    width, height = size
    frame = PixelRect(0, 0, width, height)
    inputs = [(data.draw(images(frame)), task(frame, subpixel=SubpixelParam(i, n))) for i in range(n)]
    check(inputs, width, height)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 14), st.integers(1, 11), st.integers(2, 3), st.sampled_from(["spatial", "db"]), st.data())
def test_subpixel_samples_keep_other_inputs_where_unsampled(width, height, n, other, data):
    # subpixel samples cover the left part of the frame, a spatial or DB
    # input the rest; unsampled pixels keep the other input's ids and depth
    frame = PixelRect(0, 0, width, height)
    xcut = data.draw(st.integers(1, width - 1))
    left = PixelRect(0, 0, xcut, height)
    right = PixelRect(xcut, 0, width - xcut, height)
    inputs = [(data.draw(images(left)), task(frame, subpixel=SubpixelParam(i, n))) for i in range(n)]
    if other == "spatial":
        inputs.append((data.draw(images(right)), task(right)))
    else:
        inputs.append((data.draw(images(right)), task(frame, range_=Range(0.0, 0.5))))
    check(data.draw(st.permutations(inputs)), width, height)


def test_overlapping_spatial_inputs_rejected():
    frame = PixelRect(0, 0, 4, 4)
    image = Image(frame, np.ones((4, 4), dtype=np.int32), np.ones((4, 4)))
    with pytest.raises(CompositeError):
        composite([(image, task(frame)), (image, task(PixelRect(2, 2, 2, 2)))], (4, 4))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 50), st.integers(0, 50), st.data())
def test_compute_roi_equals_nonzero_bbox(w, h, x, y, data):
    image = data.draw(images(PixelRect(x, y, w, h)))
    assert image.compute_roi() == nonzero_bbox(image)
    assert image.roi == image.compute_roi()


def test_compute_roi_empty_and_edge_touching():
    rect = PixelRect(3, 5, 6, 4)
    image = Image.blank(rect)
    assert image.compute_roi() is None and image.roi is None
    image.values[0, 2] = 7  # top edge
    image.values[3, 5] = 7  # bottom-right corner
    image.values[1, 0] = 7  # left edge
    assert image.compute_roi() == rect


def pixel_compound():
    return parse_config((FIXTURES / "pixel.eqc").read_text()).compounds[0]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 30), st.integers(1, 20), st.integers(0, 5))
def test_pixel_tasks_partition_the_frame(width, height, frame):
    tasks = generate_tasks(pixel_compound(), frame=frame, resolution=(width, height))
    assert len(tasks) == 3
    for y in range(height):
        for x in range(width):
            owners = [
                t
                for t in tasks
                if pixel_owner(t.pixel, x, y)
                and t.viewport.x <= x < t.viewport.x + t.viewport.w
                and t.viewport.y <= y < t.viewport.y + t.viewport.h
            ]
            assert len(owners) == 1, (x, y)


def test_pixel_transfer_counts_only_owned_pixels():
    # pixel [k 0 3 1] over 10 x 4: columns k, k + 3, ... belong to source k
    width, height = 10, 4
    stats = CompositeStats()
    inputs = []
    for t in generate_tasks(pixel_compound(), frame=0, resolution=(width, height)):
        full = Image(t.viewport, np.ones((height, width), dtype=np.int32), np.ones((height, width)))
        inputs.append((full, t))
    composite(inputs, (width, height), stats)
    sent = sum(len(range(t.pixel.x_offset, width, 3)) * height for _, t in inputs if not t.local_transfer)
    assert sent > 0
    assert stats.roi_pixels == 3 * width * height
    assert stats.bytes_transferred == sent * BYTES_PER_PIXEL
