from .channels import DestinationChannel, derive_channels
from .compositing import (
    BACKGROUND,
    BYTES_PER_PIXEL,
    CompositeError,
    CompositeStats,
    Image,
    composite,
)
from .model import (
    FULL_RANGE,
    FULL_VIEWPORT,
    Canvas,
    Compound,
    Config,
    ConfigError,
    EqualizerSpec,
    FrameSpec,
    Layout,
    PhasePeriod,
    PixelParam,
    PixelRect,
    Range,
    RenderTask,
    Segment,
    SubpixelParam,
    TileSpec,
    View,
    Viewport,
    Wall,
    validate_config,
)
from .parser import ConfigParseError, parse_config, pretty_print
from .tasks import generate_tasks, make_tiles, pixel_owner
