"""Configuration data model: displays, logical views and compound trees.

Everything is normalized: viewports and ranges live in [0,1] relative to
their parent, pixel coordinates only appear once tasks are materialized
against a concrete channel resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Viewport:
    x: float = 0.0
    y: float = 0.0
    w: float = 1.0
    h: float = 1.0

    def __post_init__(self):
        if self.x < 0 or self.y < 0 or self.w <= 0 or self.h <= 0:
            raise ConfigError(f"degenerate viewport {self}")
        if self.x + self.w > 1 + 1e-9 or self.y + self.h > 1 + 1e-9:
            raise ConfigError(f"viewport {self} exceeds unit square")

    def compose(self, child: "Viewport") -> "Viewport":
        """Resolve a child viewport given relative to this one."""
        return Viewport(
            self.x + child.x * self.w,
            self.y + child.y * self.h,
            child.w * self.w,
            child.h * self.h,
        )

    def intersect(self, other: "Viewport") -> Optional["Viewport"]:
        x0 = max(self.x, other.x)
        y0 = max(self.y, other.y)
        x1 = min(self.x + self.w, other.x + other.w)
        y1 = min(self.y + self.h, other.y + other.h)
        if x1 - x0 <= 1e-12 or y1 - y0 <= 1e-12:
            return None
        return Viewport(x0, y0, x1 - x0, y1 - y0)

    def to_pixels(self, width: int, height: int) -> "PixelRect":
        """Round each edge to a pixel.  Composition reaches a shared edge of
        two siblings by different float operations (`x + w` on one side, the
        next `x` on the other), so each edge is first snapped to a 1e-9 grid:
        edges that agree to nine digits land on one pixel."""
        x0 = round(round(self.x, 9) * width)
        y0 = round(round(self.y, 9) * height)
        x1 = round(round(self.x + self.w, 9) * width)
        y1 = round(round(self.y + self.h, 9) * height)
        return PixelRect(x0, y0, x1 - x0, y1 - y0)


FULL_VIEWPORT = Viewport()


@dataclass(frozen=True)
class Range:
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi <= 1.0 + 1e-9):
            raise ConfigError(f"invalid range [{self.lo}, {self.hi}]")

    def compose(self, child: "Range") -> "Range":
        """Resolve a child range given relative to this one.  Each edge is
        interpolated between this range's edges, so that a child edge at 0
        or 1 lands exactly on this range's edge and the leaves of a split
        over several levels meet without a gap or an overlap (at t = 1,
        `lo + t * (hi - lo)` can miss `hi` by an ulp)."""
        return Range(self._at(child.lo), self._at(child.hi))

    def _at(self, t: float) -> float:
        return (1.0 - t) * self.lo + t * self.hi


FULL_RANGE = Range()


@dataclass(frozen=True)
class PixelParam:
    x_offset: int = 0
    y_offset: int = 0
    x_count: int = 1
    y_count: int = 1

    def __post_init__(self):
        if self.x_count < 1 or self.y_count < 1:
            raise ConfigError(f"pixel counts must be >= 1: {self}")
        if not (0 <= self.x_offset < self.x_count and 0 <= self.y_offset < self.y_count):
            raise ConfigError(f"pixel offsets out of bounds: {self}")

    def compose(self, child: "PixelParam") -> "PixelParam":
        """The child splits the pixels this one owns, as Equalizer's
        `Pixel::apply` does, so each pixel keeps one owner."""
        return PixelParam(
            self.x_offset + child.x_offset * self.x_count,
            self.y_offset + child.y_offset * self.y_count,
            self.x_count * child.x_count,
            self.y_count * child.y_count,
        )

    @property
    def identity(self) -> bool:
        return self.x_count == 1 and self.y_count == 1


IDENTITY_PIXEL = PixelParam()


@dataclass(frozen=True)
class SubpixelParam:
    index: int = 0
    size: int = 1

    def __post_init__(self):
        if self.size < 1 or not (0 <= self.index < self.size):
            raise ConfigError(f"invalid subpixel {self}")

    def compose(self, child: "SubpixelParam") -> "SubpixelParam":
        return SubpixelParam(self.index * child.size + child.index, self.size * child.size)

    @property
    def identity(self) -> bool:
        return self.size == 1


IDENTITY_SUBPIXEL = SubpixelParam()


@dataclass(frozen=True)
class PhasePeriod:
    phase: int = 0
    period: int = 1

    def __post_init__(self):
        if self.period < 1 or not (0 <= self.phase < self.period):
            raise ConfigError(f"invalid phase/period {self}")

    def active(self, frame: int) -> bool:
        return frame % self.period == self.phase


@dataclass(frozen=True)
class PixelRect:
    x: int
    y: int
    w: int
    h: int

    @property
    def area(self) -> int:
        return self.w * self.h

    def intersect(self, other: "PixelRect") -> Optional["PixelRect"]:
        x0 = max(self.x, other.x)
        y0 = max(self.y, other.y)
        x1 = min(self.x + self.w, other.x + other.w)
        y1 = min(self.y + self.h, other.y + other.h)
        if x1 <= x0 or y1 <= y0:
            return None
        return PixelRect(x0, y0, x1 - x0, y1 - y0)


Vec3 = tuple[float, float, float]


@dataclass(frozen=True)
class Wall:
    """Projection surface given by three corners, in meters."""

    bottom_left: Vec3
    bottom_right: Vec3
    top_left: Vec3

    def sub_frustum(self, vp: Viewport) -> "Wall":
        """Planar restriction of this wall to a viewport within it."""
        bl, br, tl = self.bottom_left, self.bottom_right, self.top_left
        u = tuple(b - a for a, b in zip(bl, br))
        v = tuple(b - a for a, b in zip(bl, tl))

        def at(fx: float, fy: float) -> Vec3:
            return tuple(bl[i] + fx * u[i] + fy * v[i] for i in range(3))

        return Wall(
            at(vp.x, vp.y),
            at(vp.x + vp.w, vp.y),
            at(vp.x, vp.y + vp.h),
        )


@dataclass
class FrameSpec:
    name: Optional[str] = None
    local_transfer: bool = False  # "type texture": stays on the producing node


@dataclass
class TileSpec:
    name: str = "queue"
    size: tuple[int, int] = (64, 64)


@dataclass
class EqualizerSpec:
    kind: str  # load, tree, framerate, tile, chunk, dfr, monitor
    params: dict = field(default_factory=dict)


@dataclass
class Compound:
    channel: Optional[str] = None
    viewport: Viewport = FULL_VIEWPORT
    range_: Range = FULL_RANGE
    pixel: PixelParam = IDENTITY_PIXEL
    subpixel: SubpixelParam = IDENTITY_SUBPIXEL
    phase_period: PhasePeriod = PhasePeriod()
    output_frames: list[FrameSpec] = field(default_factory=list)
    input_frames: list[FrameSpec] = field(default_factory=list)
    output_tiles: list[TileSpec] = field(default_factory=list)
    input_tiles: list[str] = field(default_factory=list)
    equalizers: list[EqualizerSpec] = field(default_factory=list)
    children: list["Compound"] = field(default_factory=list)
    node_index: int = -1  # assigned by validate()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class Segment:
    name: str = ""
    channel: str = ""
    viewport: Viewport = FULL_VIEWPORT
    wall: Optional[Wall] = None


@dataclass
class Canvas:
    name: str = ""
    segments: list[Segment] = field(default_factory=list)
    wall: Optional[Wall] = None
    layouts: list[str] = field(default_factory=list)
    swap_barrier: bool = False


@dataclass
class View:
    name: str = ""
    viewport: Viewport = FULL_VIEWPORT


@dataclass
class Layout:
    name: str = ""
    views: list[View] = field(default_factory=list)


@dataclass
class Config:
    latency: int = 1
    canvases: list[Canvas] = field(default_factory=list)
    layouts: list[Layout] = field(default_factory=list)
    compounds: list[Compound] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list, compare=False)

    def layout(self, name: str) -> Layout:
        for layout in self.layouts:
            if layout.name == name:
                return layout
        raise ConfigError(f"no layout named {name!r}")


@dataclass
class RenderTask:
    """One leaf rendering assignment for one frame."""

    channel: str
    frame: int
    viewport: PixelRect
    range_: Range = FULL_RANGE
    pixel: PixelParam = IDENTITY_PIXEL
    subpixel: SubpixelParam = IDENTITY_SUBPIXEL
    local_transfer: bool = False
    source_index: int = -1  # originating compound node


def validate_config(config: Config) -> None:
    """Cross-cutting checks after parsing; raises ConfigError."""
    for canvas in config.canvases:
        if not canvas.segments:
            raise ConfigError(f"canvas {canvas.name!r} has no segments")
    for layout in config.layouts:
        if not layout.views:
            raise ConfigError(f"layout {layout.name!r} has no views")
    index = 0
    for root in config.compounds:
        producers: dict[str, list[Compound]] = {}
        consumers: dict[str, int] = {}
        for node in root.walk():
            node.node_index = index
            index += 1
            for frame in node.output_frames:
                if frame.name is None:
                    frame.name = f"frame.{node.channel}"
                producers.setdefault(frame.name, []).append(node)
            for frame in node.input_frames:
                if frame.name is None:
                    raise ConfigError("inputframe requires a name")
                consumers[frame.name] = consumers.get(frame.name, 0) + 1
            if node.is_leaf and node.channel is None:
                raise ConfigError("leaf compound without a channel")
            phases = {c.phase_period for c in node.children if c.phase_period.period > 1}
            if phases:
                periods = {p.period for p in phases}
                if len(periods) > 1:
                    raise ConfigError(f"mixed periods in one compound: {sorted(periods)}")
                period = periods.pop()
                seen = sorted(c.phase_period.phase for c in node.children)
                if seen != list(range(period)):
                    config.warnings.append(
                        f"phases {seen} do not cover every slot of period {period}"
                    )
        for name, nodes in producers.items():
            if len(nodes) > 1:
                # several producers are fine when time-multiplexing makes at
                # most one of them active per frame
                periods = {n.phase_period.period for n in nodes}
                phases = [n.phase_period.phase for n in nodes]
                if len(periods) != 1 or len(set(phases)) != len(phases) or periods == {1}:
                    raise ConfigError(f"frame {name!r} has {len(nodes)} simultaneous producers")
        for name in consumers:
            if name not in producers:
                raise ConfigError(f"input frame {name!r} has no producer")
        # subpixel indices should partition the sample space
        by_parent: dict[int, list[SubpixelParam]] = {}
        for node in root.walk():
            for child in node.children:
                if not child.subpixel.identity:
                    by_parent.setdefault(node.node_index, []).append(child.subpixel)
            if node.is_leaf and not node.subpixel.identity and node.node_index not in by_parent:
                by_parent.setdefault(-1, []).append(node.subpixel)
        for params in by_parent.values():
            sizes = {p.size for p in params}
            indices = sorted(p.index for p in params)
            if len(sizes) == 1 and indices != list(range(sizes.pop())):
                config.warnings.append(
                    f"subpixel indices {indices} are not a complete partition"
                )
