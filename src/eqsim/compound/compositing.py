"""Synthetic-image compositing for every decomposition mode.

Images are integer id rasters with a float depth plane, as produced by
the workload simulator.  Spatial splits paste, database splits merge by
per-pixel depth, pixel splits interleave by ownership and sample splits
average.  Inputs contribute only their region-of-interest rectangle, a
pixel input only the pixels it owns within it, and the transfer
accounting reflects exactly those bytes (zero for frames flagged as
node-local transfers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import FULL_RANGE, PixelRect, RenderTask

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


def _slices(outer: PixelRect, inner: PixelRect) -> tuple[slice, slice]:
    return (
        slice(inner.y - outer.y, inner.y - outer.y + inner.h),
        slice(inner.x - outer.x, inner.x - outer.x + inner.w),
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
        src = _slices(image.rect, roi)
        dst = _slices(frame_rect, roi)
        values = image.values[src]
        depth = image.depth[src]
        pixel_split = task.subpixel.identity and not task.pixel.identity
        if pixel_split:
            # a pixel input moves only the pixels it owns: the ROI's rows and
            # columns that fall on its offsets within the pixel period
            p = task.pixel
            owned = (
                slice((p.y_offset - roi.y) % p.y_count, None, p.y_count),
                slice((p.x_offset - roi.x) % p.x_count, None, p.x_count),
            )
            values = values[owned]
            depth = depth[owned]
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
        elif pixel_split:
            out.values[dst][owned] = values
            out.depth[dst][owned] = depth
        elif task.range_ != FULL_RANGE:
            # database range: merge by depth within the rectangle
            region_depth = out.depth[dst]
            closer = depth < region_depth
            np.copyto(out.values[dst], values, where=closer)
            np.copyto(region_depth, depth, where=closer)
        else:
            # spatial split: pasted rectangles must not overlap
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
