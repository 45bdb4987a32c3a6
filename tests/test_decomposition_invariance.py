"""Compositing a decomposition's renders gives the undivided render.

A scene of axis-aligned boxes, each with its own linear depth, is drawn
once over the whole frame and once per task of a compound tree, each
task rendering its full viewport for the boxes in its database range.
Depths are continuous random values, so no two surfaces tie and the
strictly-closer merge cannot depend on input order.  Trees stack up to
three levels of 2D, DB, pixel, DPlex and subpixel splits; the samples of
a subpixel split render without jitter, so they agree.  Subpixel and DB
splits are not drawn into one tree: `composite` averages a sample with a
range instead of merging it by depth first.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsim.compound import (
    FULL_RANGE,
    Compound,
    Image,
    PhasePeriod,
    PixelRect,
    SubpixelParam,
    composite,
    generate_tasks,
)

from test_tasks import split_trees_2d, split_trees_db, split_trees_pixel


def scene(seed: int, count: int) -> np.ndarray:
    """`count` boxes, one row each: x0, x1, y0, y1 in frame fractions, then
    the depth z0 + gx * x + gy * y as (z0, gx, gy), always positive."""
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.random((count, 2)), axis=1)
    ys = np.sort(rng.random((count, 2)), axis=1)
    depth = np.column_stack([rng.uniform(1.0, 2.0, count), rng.uniform(-0.4, 0.4, (count, 2))])
    return np.hstack([xs, ys, depth])


def render(boxes: np.ndarray, rect: PixelRect, range_, resolution) -> Image:
    """Draw the boxes in `range_` over `rect`: box i (id i + 1) of n lies at
    (i + 0.5) / n in the database range."""
    width, height = resolution
    image = Image.blank(rect)
    u = (np.arange(rect.x, rect.x + rect.w) + 0.5) / width
    v = (np.arange(rect.y, rect.y + rect.h) + 0.5) / height
    for i, (x0, x1, y0, y1, z0, gx, gy) in enumerate(boxes):
        if not range_.lo <= (i + 0.5) / len(boxes) < range_.hi:
            continue
        inside = ((v >= y0) & (v < y1))[:, None] & ((u >= x0) & (u < x1))[None, :]
        z = z0 + gx * u[None, :] + gy * v[:, None]
        closer = inside & (z < image.depth)
        image.values[closer] = i + 1
        image.depth[closer] = z[closer]
    return image


@st.composite
def split_dplex(draw):
    n = draw(st.integers(1, 3))
    return Compound(channel="c", children=[Compound(channel="c", phase_period=PhasePeriod(i, n)) for i in range(n)])


@st.composite
def split_subpixel(draw):
    n = draw(st.integers(1, 3))
    return Compound(channel="c", children=[Compound(channel="c", subpixel=SubpixelParam(i, n)) for i in range(n)])


# one level each: at depth 2 the strategies of test_tasks split once or
# not at all
SPLITS = {
    "2d": split_trees_2d(depth=2),
    "db": split_trees_db(depth=2),
    "pixel": split_trees_pixel(depth=2),
    "dplex": split_dplex(),
    "subpixel": split_subpixel(),
}

LEVELS = st.lists(st.sampled_from(sorted(SPLITS)), min_size=1, max_size=3).filter(
    lambda kinds: not {"db", "subpixel"} <= set(kinds)
)


def decomposition(data, kinds) -> Compound:
    """A tree whose every leaf at level k is split by a `kinds[k]` split."""
    root = Compound(channel="root")
    leaves = [root]
    for kind in kinds:
        for leaf in leaves:
            split = data.draw(SPLITS[kind])
            if split is not None:
                leaf.children = split.children
        leaves = list(itertools.chain.from_iterable(leaf.children or [leaf] for leaf in leaves))
    return root


@pytest.mark.parametrize("kinds", [("db", "pixel"), ("2d", "db"), None], ids=["db/pixel", "2d/db", "drawn"])
@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 24),
    st.integers(1, 16),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(0, 5),
    st.data(),
)
def test_composite_of_a_decomposition_equals_the_undivided_render(kinds, width, height, seed, count, frame, data):
    kinds = kinds or data.draw(LEVELS, label="kinds")
    root = decomposition(data, kinds)
    resolution = (width, height)
    boxes = scene(seed, count)
    tasks = generate_tasks(root, frame=frame, resolution=resolution)
    inputs = [(render(boxes, t.viewport, t.range_, resolution), t) for t in tasks]
    out = composite(inputs, resolution)
    whole = render(boxes, PixelRect(0, 0, width, height), FULL_RANGE, resolution)
    np.testing.assert_array_equal(out.values, whole.values)
    np.testing.assert_array_equal(out.depth, whole.depth)
