"""Per-frame task generation from compound trees.

Walking a validated tree for a frame yields one render task per active
leaf, with viewport, range, pixel and subpixel parameters composed along
the path.  Tile compounds emit no static tasks, and their tile consumers
yield no tasks yet.
"""

from __future__ import annotations

from .model import (
    Compound,
    ConfigError,
    PixelParam,
    PixelRect,
    Range,
    RenderTask,
    SubpixelParam,
    Viewport,
)


def generate_tasks(
    compound: Compound,
    frame: int,
    resolution: tuple[int, int] = (1280, 720),
) -> list[RenderTask]:
    width, height = resolution
    tasks: list[RenderTask] = []

    def walk(node: Compound, vp: Viewport, rng: Range, px: PixelParam, sp: SubpixelParam) -> None:
        if not node.phase_period.active(frame):
            return
        vp = vp.compose(node.viewport)
        rng = rng.compose(node.range_)
        px = px.compose(node.pixel)
        sp = sp.compose(node.subpixel)
        if not node.is_leaf:
            for child in node.children:
                walk(child, vp, rng, px, sp)
            return
        if node.input_tiles:
            return  # tile consumers poll work from the queue instead
        tasks.append(
            RenderTask(
                channel=node.channel,
                frame=frame,
                viewport=vp.to_pixels(width, height),
                range_=rng,
                pixel=px,
                subpixel=sp,
                local_transfer=any(f.local_transfer for f in node.output_frames),
                source_index=node.node_index,
            )
        )

    walk(compound, Viewport(), Range(), PixelParam(), SubpixelParam())
    return tasks


def pixel_owner(p: PixelParam, px: int, py: int) -> bool:
    """Interleaved image-space ownership of one pixel."""
    return px % p.x_count == p.x_offset and py % p.y_count == p.y_offset


def make_tiles(vp: PixelRect, tile_size: tuple[int, int]) -> list[PixelRect]:
    """Row-major tiles covering vp exactly; edge tiles are clipped."""
    tw, th = tile_size
    if tw < 1 or th < 1:
        raise ConfigError(f"tile size must be positive, got {tile_size}")
    tiles = []
    for y in range(vp.y, vp.y + vp.h, th):
        for x in range(vp.x, vp.x + vp.w, tw):
            tiles.append(
                PixelRect(x, y, min(tw, vp.x + vp.w - x), min(th, vp.y + vp.h - y))
            )
    return tiles
