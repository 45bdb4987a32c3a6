from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsim.compound import (
    FULL_RANGE,
    FULL_VIEWPORT,
    Canvas,
    Compound,
    Config,
    ConfigError,
    ConfigParseError,
    EqualizerSpec,
    FrameSpec,
    Layout,
    PhasePeriod,
    PixelParam,
    Range,
    Segment,
    SubpixelParam,
    TileSpec,
    View,
    Viewport,
    Wall,
    parse_config,
    pretty_print,
    validate_config,
)

FIXTURES = Path(__file__).parent / "fixtures"
ALL_FIXTURES = sorted(FIXTURES.glob("*.eqc"))


def load(name: str) -> str:
    return (FIXTURES / name).read_text()


def test_dplex_listing_parses():
    cfg = parse_config(load("dplex.eqc"))
    root = cfg.compounds[0]
    assert root.channel == "destination"
    assert [c.phase_period for c in root.children] == [
        PhasePeriod(0, 3),
        PhasePeriod(1, 3),
        PhasePeriod(2, 3),
    ]
    assert root.equalizers[0].kind == "framerate"
    assert root.input_frames[0].name == "frame"


def test_tiles_listing_parses():
    cfg = parse_config(load("tiles.eqc"))
    root = cfg.compounds[0]
    assert root.output_tiles[0].name == "queue"
    assert root.output_tiles[0].size == (64, 64)
    assert [c.input_tiles for c in root.children] == [["queue"]] * 4
    # unnamed output frames default to frame.<channel>
    assert root.children[1].output_frames[0].name == "frame.source1"


def test_pixel_listing_parses():
    cfg = parse_config(load("pixel.eqc"))
    root = cfg.compounds[0]
    assert root.children[0].pixel == PixelParam(0, 0, 3, 1)
    assert root.children[1].pixel == PixelParam(1, 0, 3, 1)
    assert root.children[2].pixel == PixelParam(2, 0, 3, 1)
    assert root.children[0].output_frames[0].local_transfer  # type texture


def test_subpixel_listing_parses_with_partition_warning():
    cfg = parse_config(load("subpixel.eqc"))
    root = cfg.compounds[0]
    assert root.children[0].subpixel == SubpixelParam(0, 3)
    # the listing carries duplicate indices; parser accepts, validation warns
    assert root.children[1].subpixel == root.children[2].subpixel == SubpixelParam(1, 3)
    assert any("partition" in w for w in cfg.warnings)


def test_subpixel_partition_is_checked_once_per_sibling_group():
    assert parse_config(load("subpixel.eqc")).warnings == [
        "subpixel indices [0, 1, 1] are not a complete partition"
    ]
    halves = 'compound {{ channel "{0}" subpixel [ 0 2 ] }} compound {{ channel "{1}" subpixel [ 1 2 ] }}'
    two_parents = (
        f'compound {{ channel "d" compound {{ channel "a" {halves.format("a", "b")} }}'
        f' compound {{ channel "c" {halves.format("c", "e")} }} }}'
    )
    assert parse_config(two_parents).warnings == []
    assert parse_config('compound { channel "c" subpixel [ 0 2 ] }').warnings == [
        "subpixel indices [0] are not a complete partition"
    ]


def test_empty_compound_defaults():
    cfg = parse_config('compound { channel "c" }')
    root = cfg.compounds[0]
    assert root.is_leaf
    assert root.viewport == Viewport(0, 0, 1, 1)
    assert root.range_ == Range(0, 1)


def test_display_wall_fixture():
    cfg = parse_config(load("display_wall.eqc"))
    assert cfg.latency == 3
    canvas = cfg.canvases[0]
    assert len(canvas.segments) == 4
    assert canvas.wall is not None
    layout = cfg.layout("quad")
    assert len(layout.views) == 4
    eq = cfg.compounds[0].equalizers[0]
    assert eq.kind == "load"
    assert eq.params["mode"] == "2D"
    assert eq.params["damping"] == 0.5
    assert eq.params["boundary"] == [8, 8]


def test_unknown_keys_warn_not_fail():
    cfg = parse_config('compound { channel "c" shinynewknob 42 }')
    assert any("shinynewknob" in w for w in cfg.warnings)


def test_observer_vr_keys_warn():
    cfg = parse_config('observer { name "o" eye_base 0.06 }')
    assert any("out of scope" in w for w in cfg.warnings)


def test_stereo_eye_warns_and_is_dropped():
    cfg = parse_config('compound { channel "c" eye [ LEFT RIGHT ] }')
    assert any("out of scope" in w and "eye" in w for w in cfg.warnings)
    assert cfg.compounds[0] == Compound(channel="c", node_index=0)


def test_unbalanced_braces_error_position():
    with pytest.raises(ConfigParseError, match="line"):
        parse_config('compound { channel "c" ')
    with pytest.raises(ConfigParseError):
        parse_config("compound { } }")


@pytest.mark.parametrize("closer", ["}", "]"])
def test_closer_where_a_value_belongs_fails_at_the_closer(closer):
    with pytest.raises(ConfigParseError, match="has no value") as err:
        parse_config(f"compound {{\n  channel {closer} }}")
    assert (err.value.line, err.value.col) == (2, 11)


def test_malformed_array_rejected():
    with pytest.raises(ConfigParseError):
        parse_config('compound { channel "c" viewport [ 0 0 1 }')


def test_invariant_violations_are_parse_errors():
    with pytest.raises(ConfigError):
        parse_config('compound { channel "c" viewport [ 0 0 0 1 ] }')  # zero width
    with pytest.raises(ConfigError):
        parse_config('compound { channel "c" range [ 0.5 0.2 ] }')
    with pytest.raises(ConfigError):
        parse_config('compound { channel "c" pixel [ 3 0 3 1 ] }')
    with pytest.raises(ConfigError):
        parse_config('compound { channel "c" subpixel [ 3 3 ] }')


def test_leaf_without_channel_rejected():
    with pytest.raises(ConfigError, match="channel"):
        parse_config("compound { viewport [ 0.0 0.0 1.0 1.0 ] }")


def test_input_frame_without_producer_rejected():
    with pytest.raises(ConfigError, match="no producer"):
        parse_config('compound { channel "c" inputframe { name "ghost" } }')


def test_simultaneous_duplicate_producers_rejected():
    text = """
    compound {
      channel "d"
      compound { channel "a" outputframe { name "f" } }
      compound { channel "b" outputframe { name "f" } }
      inputframe { name "f" }
    }
    """
    with pytest.raises(ConfigError, match="simultaneous"):
        parse_config(text)


def test_comments_ignored():
    cfg = parse_config('# a comment\ncompound { channel "c" } # trailing\n')
    assert cfg.compounds[0].channel == "c"


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_pretty_print_parse_fixpoint(path):
    cfg = parse_config(path.read_text())
    printed = pretty_print(cfg)
    reparsed = parse_config(printed)
    assert reparsed == cfg
    # and printing again is stable
    assert pretty_print(reparsed) == printed


# --- malformed values fail at their position ------------------------------------


def test_invalid_phase_period_fails_at_the_phase():
    with pytest.raises(ConfigParseError, match="phase/period") as err:
        parse_config('compound {\n  channel "c"\n  phase 3 period 2\n}')
    assert (err.value.line, err.value.col) == (3, 3)


@pytest.mark.parametrize(
    "text, col",
    [
        ("latency foo", 3),
        ("latency [ 1 2 ]", 3),
        ('compound { channel "c" phase 1.5 }', 26),
    ],
)
def test_non_integer_fails_at_its_key(text, col):
    with pytest.raises(ConfigParseError, match="expects an integer") as err:
        parse_config("\n  " + text)
    assert (err.value.line, err.value.col) == (2, col)


def test_unterminated_string_fails_at_its_quote():
    with pytest.raises(ConfigParseError, match="unterminated string") as err:
        parse_config('# header\ncompound { channel "c }\n')
    assert (err.value.line, err.value.col) == (2, 20)


@pytest.mark.parametrize("number, col", [("1e999", 40), ("[ 1 -2.5e400 ]", 44)])
def test_number_too_large_for_a_float_fails_at_the_number(number, col):
    # read as inf, it would print as inf and re-parse as the string "inf"
    with pytest.raises(ConfigParseError, match="too large") as err:
        parse_config(f'compound {{\n  channel "c" load_equalizer {{ damping {number} }}\n}}')
    assert (err.value.line, err.value.col) == (2, col)


def test_param_with_spaces_prints_and_reparses():
    cfg = parse_config('compound { channel "c" load_equalizer { mode "two words" } }')
    reparsed = parse_config(pretty_print(cfg))
    assert reparsed.compounds[0].equalizers[0].params == {"mode": "two words"}


def test_nested_latency_one_overrides_the_outer_latency():
    assert parse_config("config { latency 3 config { latency 1 } }").latency == 1
    assert parse_config("latency 3 server { }").latency == 3


def test_nested_blocks_join_the_outer_lists_in_order():
    cfg = parse_config(
        'compound { channel "a" }'
        ' server { config { latency 2 compound { channel "b" } } }'
        ' canvas { name "c1" segment { channel "a" } }'
        ' global { canvas { name "c2" segment { channel "b" } } }'
        ' compound { channel "c" }'
    )
    assert [root.channel for root in cfg.compounds] == ["a", "b", "c"]
    assert [canvas.name for canvas in cfg.canvases] == ["c1", "c2"]
    assert cfg.latency == 2


def test_unknown_top_level_key_warns():
    cfg = parse_config('compound { channel "c" }\nx 1')
    assert cfg.warnings == ["line 2: unknown top-level key 'x' ignored"]
    assert [root.channel for root in cfg.compounds] == ["c"]


# --- parse(pretty_print(cfg)) == cfg for generated configs ------------------------

# a quoted string holds anything but a quote or a line break
texts = st.text(
    st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"), exclude_characters='"'),
    max_size=6,
)
bare_words = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True)
finite = st.floats(allow_nan=False, allow_infinity=False)
vec3 = st.tuples(finite, finite, finite)
walls = st.builds(Wall, vec3, vec3, vec3)
viewports = st.just(FULL_VIEWPORT) | st.builds(
    Viewport, st.floats(0, 0.5), st.floats(0, 0.5), st.floats(0.01, 0.5), st.floats(0.01, 0.5)
)
ranges = st.just(FULL_RANGE) | st.builds(Range, st.floats(0, 0.49), st.floats(0.5, 1))
param_scalars = st.integers() | finite | st.floats(-1e-3, 1e-3) | texts | bare_words
equalizers = st.builds(
    EqualizerSpec,
    st.sampled_from(["load", "tree", "framerate", "tile", "chunk", "dfr", "monitor", "view"]),
    st.dictionaries(
        st.from_regex(r"[a-z_][a-z0-9_]{0,7}", fullmatch=True),
        param_scalars | st.lists(param_scalars, max_size=3),
        max_size=3,
    ),
)


@st.composite
def pixels(draw):
    x_count, y_count = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return PixelParam(
        draw(st.integers(0, x_count - 1)), draw(st.integers(0, y_count - 1)), x_count, y_count
    )


@st.composite
def subpixels(draw):
    size = draw(st.integers(1, 4))
    return SubpixelParam(draw(st.integers(0, size - 1)), size)


@st.composite
def compounds(draw, depth=0, phase_period=PhasePeriod()):
    node = Compound(
        channel=draw(texts),
        viewport=draw(viewports),
        range_=draw(ranges),
        pixel=draw(pixels()),
        subpixel=draw(subpixels()),
        phase_period=phase_period,
        equalizers=draw(st.lists(equalizers, max_size=2)),
    )
    if depth < 2 and draw(st.booleans()):
        period = draw(st.integers(1, 3))  # siblings share one period
        for _ in range(draw(st.integers(1, 3))):
            timing = PhasePeriod(draw(st.integers(0, period - 1)), period)
            node.children.append(draw(compounds(depth + 1, timing)))
    else:
        node.output_frames = [FrameSpec(None, draw(st.booleans())) for _ in range(draw(st.integers(0, 1)))]
        node.input_tiles = draw(st.lists(texts, max_size=1))
    return node


@st.composite
def roots(draw):
    root = draw(compounds())
    produced = [frame for node in root.walk() for frame in node.output_frames]
    for i, frame in enumerate(produced):
        frame.name = f"f{i}"
    root.input_frames += [FrameSpec(f.name) for f in produced if draw(st.booleans())]
    root.output_tiles = draw(
        st.lists(st.builds(TileSpec, texts, st.tuples(st.integers(1, 512), st.integers(1, 512))), max_size=1)
    )
    return root


segments = st.builds(Segment, texts, texts, viewports, st.none() | walls)
canvases = st.builds(
    Canvas, texts, st.lists(segments, min_size=1, max_size=2), st.none() | walls,
    st.lists(texts, max_size=2), st.booleans(),
)
views = st.builds(View, texts, viewports)
layouts = st.builds(Layout, texts, st.lists(views, min_size=1, max_size=2))


@st.composite
def configs(draw):
    cfg = Config(
        latency=draw(st.integers(-2, 8)),
        canvases=draw(st.lists(canvases, max_size=2)),
        layouts=draw(st.lists(layouts, max_size=2)),
        compounds=draw(st.lists(roots(), max_size=2)),
    )
    validate_config(cfg)  # numbers the compound nodes, as parsing does
    return cfg


@settings(max_examples=200, deadline=None)
@given(configs())
def test_pretty_print_parse_roundtrip(cfg):
    printed = pretty_print(cfg)
    reparsed = parse_config(printed)
    assert reparsed == cfg
    assert pretty_print(reparsed) == printed
