"""Task generation, tiling and destination-channel derivation."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsim.compound import (
    BACKGROUND,
    Compound,
    ConfigError,
    Image,
    PixelParam,
    PixelRect,
    Range,
    Viewport,
    composite,
    derive_channels,
    generate_tasks,
    make_tiles,
    parse_config,
    pixel_owner,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load(name: str):
    return parse_config((FIXTURES / name).read_text())


def coverage(rects, width: int, height: int) -> np.ndarray:
    """How many of `rects` cover each pixel of a width x height frame."""
    count = np.zeros((height, width), dtype=np.int64)
    for r in rects:
        assert r.w > 0 and r.h > 0
        assert 0 <= r.x and r.x + r.w <= width and 0 <= r.y and r.y + r.h <= height
        count[r.y : r.y + r.h, r.x : r.x + r.w] += 1
    return count


@given(
    st.integers(0, 20),
    st.integers(0, 20),
    st.integers(1, 60),
    st.integers(1, 60),
    st.integers(1, 70),
    st.integers(1, 70),
)
def test_make_tiles_covers_viewport_exactly_once(x, y, w, h, tw, th):
    vp = PixelRect(x, y, w, h)
    tiles = make_tiles(vp, (tw, th))
    count = coverage(tiles, x + w, y + h)
    assert (count[y:, x:] == 1).all()
    assert count.sum() == vp.area
    assert all(t.w <= tw and t.h <= th for t in tiles)
    assert tiles == sorted(tiles, key=lambda t: (t.y, t.x))  # row-major


@pytest.mark.parametrize("size", [(0, 8), (8, 0), (-1, 1)])
def test_make_tiles_rejects_empty_tiles(size):
    with pytest.raises(ConfigError):
        make_tiles(PixelRect(0, 0, 10, 10), size)


@pytest.mark.parametrize("resolution", [(1280, 720), (1281, 721), (7, 3)])
def test_display_wall_tasks_tile_destination_without_overlap(resolution):
    compound = load("display_wall.eqc").compounds[0]
    tasks = generate_tasks(compound, frame=0, resolution=resolution)
    assert [t.channel for t in tasks] == ["ch00", "ch10"]
    assert (coverage([t.viewport for t in tasks], *resolution) == 1).all()


SPLIT_EDGES = """
compound {
  channel "dest"
  viewport [ 0.1 0 0.9 1 ]
  compound { channel "a" viewport [ 0 0 0.648 1 ] }
  compound { channel "b" viewport [ 0.648 0 0.257 1 ] }
  compound { channel "c" viewport [ 0.905 0 0.041 1 ] }
  compound { channel "d" viewport [ 0.946 0 0.054 1 ] }
}
"""


def test_siblings_round_a_shared_edge_to_one_pixel():
    # the second child's right edge (its x + w) and the third child's x are
    # one declared edge reached by different float operations; both must
    # round to column 914, or the two tasks overlap and `composite` raises
    compound = parse_config(SPLIT_EDGES).compounds[0]
    tasks = generate_tasks(compound, frame=0, resolution=(1000, 100))
    assert [(t.viewport.x, t.viewport.x + t.viewport.w) for t in tasks] == [
        (100, 683), (683, 914), (914, 951), (951, 1000)
    ]
    inputs = []
    for i, task in enumerate(tasks, start=1):
        r = task.viewport
        inputs.append((Image(r, np.full((r.h, r.w), i, dtype=np.int32), np.ones((r.h, r.w))), task))
    out = composite(inputs, (1000, 100))
    assert (out.values[:, :100] == BACKGROUND).all()
    assert (out.values[:, 100:] != BACKGROUND).all()


@settings(max_examples=1000, deadline=None)
@given(
    st.integers(0, 333),
    st.lists(st.integers(1, 999), min_size=1, max_size=6, unique=True),
    st.sampled_from([(1280, 720), (1920, 1080), (1000, 100), (641, 480)]),
)
def test_2d_split_leaves_tile_their_parent_in_pixels(offset, cuts, resolution):
    # every edge on a 1/1000 grid, as a config file declares them
    edges = [0, *sorted(cuts), 1000]
    root = Compound(
        channel="dest",
        viewport=Viewport(offset / 1000, 0.0, (1000 - offset) / 1000, 1.0),
        children=[
            Compound(channel=f"s{i}", viewport=Viewport(a / 1000, 0.0, (b - a) / 1000, 1.0))
            for i, (a, b) in enumerate(zip(edges, edges[1:]))
        ],
    )
    parent = root.viewport.to_pixels(*resolution)
    rects = [t.viewport for t in generate_tasks(root, frame=0, resolution=resolution)]
    assert len(rects) == len(edges) - 1
    x = parent.x
    for r in rects:  # left to right, each starting where the last one ended
        assert (r.x, r.y, r.h) == (x, parent.y, parent.h) and r.w >= 0
        x += r.w
    assert x == parent.x + parent.w


def grid_cuts(draw, max_cuts: int = 3) -> list[int]:
    """Ascending edges 0, ..., 1000 of a split on the 1/1000 grid."""
    cuts = draw(st.lists(st.integers(1, 999), min_size=1, max_size=max_cuts, unique=True))
    return [0, *sorted(cuts), 1000]


@st.composite
def split_trees_2d(draw, depth=0):
    """A compound whose children split its viewport into strips along x or
    y, each child possibly split again, down to 3 levels."""
    node = Compound(channel=f"c{depth}")
    if depth == 3 or (depth > 0 and draw(st.booleans())):
        return node
    edges = grid_cuts(draw)
    along_x = draw(st.booleans())
    for a, b in zip(edges, edges[1:]):
        child = draw(split_trees_2d(depth + 1))
        lo, size = a / 1000, (b - a) / 1000
        child.viewport = Viewport(lo, 0.0, size, 1.0) if along_x else Viewport(0.0, lo, 1.0, size)
        node.children.append(child)
    return node


@settings(max_examples=300, deadline=None)
@given(
    split_trees_2d(),
    st.integers(0, 333),
    st.integers(0, 333),
    st.sampled_from([(1280, 720), (1920, 1080), (1000, 100), (641, 480)]),
)
def test_multi_level_2d_split_leaves_tile_the_root_in_pixels(root, x, y, resolution):
    root.viewport = Viewport(x / 1000, y / 1000, (1000 - x) / 1000, (1000 - y) / 1000)
    parent = root.viewport.to_pixels(*resolution)
    rects = [t.viewport for t in generate_tasks(root, frame=0, resolution=resolution)]
    assert len(rects) == sum(1 for node in root.walk() if node.is_leaf)
    assert all(r.w >= 0 and r.h >= 0 for r in rects)
    count = coverage([r for r in rects if r.area], *resolution)
    inside = count[parent.y : parent.y + parent.h, parent.x : parent.x + parent.w]
    assert (inside == 1).all()  # no gap and no overlap
    assert count.sum() == parent.area  # nothing outside the root


@st.composite
def split_trees_db(draw, depth=0):
    """A compound whose children split its range, each child possibly split
    again, down to 3 levels."""
    node = Compound(channel=f"c{depth}")
    if depth == 3 or (depth > 0 and draw(st.booleans())):
        return node
    edges = grid_cuts(draw)
    for a, b in zip(edges, edges[1:]):
        child = draw(split_trees_db(depth + 1))
        child.range_ = Range(a / 1000, b / 1000)
        node.children.append(child)
    return node


@settings(max_examples=300, deadline=None)
@given(split_trees_db())
def test_multi_level_db_split_leaf_ranges_tile_the_unit_range(root):
    ranges = [t.range_ for t in generate_tasks(root, frame=0)]
    assert len(ranges) == sum(1 for node in root.walk() if node.is_leaf)
    ordered = sorted(ranges, key=lambda r: r.lo)
    assert ordered[0].lo == 0.0 and ordered[-1].hi == 1.0
    for left, right in zip(ordered, ordered[1:]):
        assert left.hi == right.lo  # each depth belongs to exactly one leaf


def pixel_split(counts, *children):
    """A compound whose children own the pixels of `counts`, offsets in
    row-major order; a missing child is a leaf."""
    x_count, y_count = counts
    node = Compound(channel="c")
    for i in range(x_count * y_count):
        child = children[i] if i < len(children) and children[i] else Compound(channel="c")
        child.pixel = PixelParam(i % x_count, i // x_count, x_count, y_count)
        node.children.append(child)
    return node


@st.composite
def split_trees_pixel(draw, depth=0):
    """A compound whose children split its pixels with counts of its own,
    each child possibly split again, down to 3 levels."""
    if depth == 3 or (depth > 0 and draw(st.booleans())):
        return None
    counts = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    n = counts[0] * counts[1]
    return pixel_split(counts, *draw(st.lists(split_trees_pixel(depth + 1), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(split_trees_pixel(), st.integers(1, 30), st.integers(1, 20))
def test_multi_level_pixel_split_gives_each_pixel_one_owner(root, width, height):
    tasks = generate_tasks(root, frame=0, resolution=(width, height))
    assert all(t.viewport == PixelRect(0, 0, width, height) for t in tasks)
    for y in range(height):
        for x in range(width):
            assert sum(pixel_owner(t.pixel, x, y) for t in tasks) == 1, (x, y)


@pytest.mark.parametrize("resolution", [(12, 1), (13, 5)])
def test_multi_level_pixel_split_composites_every_pixel(resolution):
    # pixel [ 0 0 2 1 ] and [ 1 0 2 1 ], split again into 3 and 2 columns
    root = pixel_split((2, 1), pixel_split((3, 1)), pixel_split((2, 1)))
    width, height = resolution
    frame = PixelRect(0, 0, width, height)
    ids = np.arange(1, width * height + 1, dtype=np.int32).reshape(height, width)
    depth = np.ones((height, width))
    tasks = generate_tasks(root, frame=0, resolution=resolution)
    assert len(tasks) == 5
    out = composite([(Image(frame, ids.copy(), depth.copy()), t) for t in tasks], resolution)
    np.testing.assert_array_equal(out.values, ids)
    np.testing.assert_array_equal(out.depth, depth)


@pytest.mark.parametrize("first", [0, 1, 2, 5, 100])
def test_dplex_activates_one_producer_per_frame(first):
    compound = load("dplex.eqc").compounds[0]
    producers = []
    for frame in range(first, first + 3):
        tasks = generate_tasks(compound, frame=frame)
        assert len(tasks) == 1
        assert tasks[0].frame == frame
        producers.append(tasks[0].channel)
    assert sorted(producers) == ["source1", "source2", "source3"]
    assert producers[0] == f"source{first % 3 + 1}"


def test_derive_channels_one_per_intersecting_view_and_segment():
    cfg = load("display_wall.eqc")
    canvas, layout = cfg.canvases[0], cfg.layout("quad")
    expected = []
    for view in layout.views:
        for segment in canvas.segments:
            a, b = view.viewport, segment.viewport
            x0, y0 = max(a.x, b.x), max(a.y, b.y)
            x1, y1 = min(a.x + a.w, b.x + b.w), min(a.y + a.h, b.y + b.h)
            if x1 > x0 and y1 > y0:
                expected.append((view.name, segment.name, (x0, y0, x1 - x0, y1 - y0)))
    channels = derive_channels(canvas, layout)
    got = [
        (c.view.name, c.segment.name, (c.viewport.x, c.viewport.y, c.viewport.w, c.viewport.h))
        for c in channels
    ]
    assert [g[:2] for g in got] == [e[:2] for e in expected]
    for (_, _, vp), (_, _, want) in zip(got, expected):
        assert vp == pytest.approx(want)
    # views a, b, c lie in one segment each; d straddles all four
    assert len(channels) == 7
    assert [c.name for c in channels][:3] == ["a.s00", "b.s10", "c.s01"]
    for c in channels:
        assert c.frustum == canvas.wall.sub_frustum(c.viewport)


def test_derive_channels_skips_views_outside_every_segment():
    cfg = load("display_wall.eqc")
    canvas, layout = cfg.canvases[0], cfg.layout("quad")
    canvas.segments = [s for s in canvas.segments if s.name == "s11"]
    channels = derive_channels(canvas, layout)
    assert [c.name for c in channels] == ["d.s11"]
