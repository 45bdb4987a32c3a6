"""Synthetic-image compositing for every decomposition mode.

Images are integer id rasters with a float depth plane, as produced by
the workload simulator.  Every input contributes the pixels it owns
within its region-of-interest rectangle: all of them, or those its pixel
split assigns it.  An input with a subpixel sample is averaged with the
other samples (ids floored, nearest depth kept), one with a database
range is merged by per-pixel depth, and any other is pasted.  The
transfer accounting reflects exactly the owned bytes (zero for frames
flagged as node-local transfers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import FULL_RANGE, PixelParam, PixelRect, RenderTask

BACKGROUND = 0
BYTES_PER_PIXEL = 12  # 4 bytes id + 8 bytes depth


class CompositeError(ValueError):
    pass


@dataclass
class Image:
    """A rendered rectangle: object ids and depth, positioned in the frame."""

    rect: PixelRect
    values: np.ndarray  # int32 (h, w)
    depth: np.ndarray   # float64 (h, w)
    roi: Optional[PixelRect] = None  # absolute coordinates, subset of rect

    @classmethod
    def blank(cls, rect: PixelRect) -> "Image":
        return cls(
            rect,
            np.full((rect.h, rect.w), BACKGROUND, dtype=np.int32),
            np.full((rect.h, rect.w), np.inf),
        )

    def compute_roi(self) -> Optional[PixelRect]:
        """Bounding box of non-background pixels, in absolute coordinates."""
        foreground = self.values != BACKGROUND
        rows = np.flatnonzero(foreground.any(axis=1))
        if len(rows) == 0:
            self.roi = None
            return None
        cols = np.flatnonzero(foreground[rows[0] : rows[-1] + 1].any(axis=0))
        self.roi = PixelRect(
            self.rect.x + int(cols[0]),
            self.rect.y + int(rows[0]),
            int(cols[-1] - cols[0]) + 1,
            int(rows[-1] - rows[0]) + 1,
        )
        return self.roi


@dataclass
class CompositeStats:
    bytes_transferred: int = 0
    roi_pixels: int = 0


def _owned(outer: PixelRect, roi: PixelRect, p: PixelParam) -> tuple[slice, slice]:
    """Slices of an array over `outer` that pick the pixels of `roi` that
    `p` owns: the rows and columns on its offsets within its period."""
    y, x = roi.y - outer.y, roi.x - outer.x
    return (
        slice(y + (p.y_offset - roi.y) % p.y_count, y + roi.h, p.y_count),
        slice(x + (p.x_offset - roi.x) % p.x_count, x + roi.w, p.x_count),
    )


def composite(
    inputs: list[tuple[Image, RenderTask]],
    resolution: tuple[int, int],
    stats: Optional[CompositeStats] = None,
) -> Image:
    """Assemble per-task renderings into the destination frame."""
    width, height = resolution
    frame_rect = PixelRect(0, 0, width, height)
    out = Image.blank(frame_rect)
    pasted: list[PixelRect] = []  # viewports of the spatial inputs so far

    subpixel_sum: Optional[np.ndarray] = None
    subpixel_count: Optional[np.ndarray] = None
    subpixel_depth: Optional[np.ndarray] = None

    for image, task in inputs:
        roi = image.roi if image.roi is not None else image.compute_roi()
        if roi is None:
            continue  # nothing rendered; nothing transferred
        src = _owned(image.rect, roi, task.pixel)
        dst = _owned(frame_rect, roi, task.pixel)
        values = image.values[src]
        depth = image.depth[src]
        if stats is not None:
            stats.roi_pixels += roi.area
            if not task.local_transfer:
                stats.bytes_transferred += values.size * BYTES_PER_PIXEL

        if not task.subpixel.identity:
            if subpixel_sum is None:
                subpixel_sum = np.zeros((height, width), dtype=np.int64)
                subpixel_count = np.zeros((height, width), dtype=np.int64)
                subpixel_depth = np.full((height, width), np.inf)
            subpixel_sum[dst] += values
            subpixel_count[dst] += 1
            np.minimum(subpixel_depth[dst], depth, out=subpixel_depth[dst])
        elif task.range_ != FULL_RANGE:
            # database range: merge by depth within the rectangle
            region_depth = out.depth[dst]
            closer = depth < region_depth
            np.copyto(out.values[dst], values, where=closer)
            np.copyto(region_depth, depth, where=closer)
        else:
            # spatial split: pasted rectangles must not overlap, unless
            # their pixel splits interleave them
            if task.pixel.identity:
                if any(task.viewport.intersect(vp) for vp in pasted):
                    raise CompositeError(
                        f"overlapping spatial inputs at {task.viewport} (invalid decomposition)"
                    )
                pasted.append(task.viewport)
            out.values[dst] = values
            out.depth[dst] = depth

    if subpixel_sum is not None:
        sampled = subpixel_count > 0
        # non-integral averages floor; id rasters from equal samples stay exact
        np.floor_divide(subpixel_sum, subpixel_count, out=subpixel_sum, where=sampled)
        np.copyto(out.values, subpixel_sum, where=sampled, casting="unsafe")
        np.copyto(out.depth, subpixel_depth, where=sampled)

    return out
