"""Block-structured config parser and pretty printer.

The format is whitespace-separated tokens: `name { ... }` blocks,
`key value` attributes, `[ v v v ]` arrays and quoted strings.  Unknown
keys produce warnings, never failures, so configs written for richer
implementations still load.  parse -> pretty-print -> parse is a fixpoint
on the typed model.

Grammar (EBNF):

    config  = { item } ;
    item    = IDENT , ( block | array | scalar ) ;
    block   = "{" , { item } , "}" ;
    array   = "[" , { scalar } , "]" ;
    scalar  = STRING | NUMBER | IDENT ;
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

from .model import (
    Canvas,
    Compound,
    Config,
    ConfigError,
    EqualizerSpec,
    FrameSpec,
    Layout,
    Observer,
    PhasePeriod,
    PixelParam,
    Range,
    Segment,
    SubpixelParam,
    TileSpec,
    View,
    Viewport,
    Wall,
    validate_config,
)


class ConfigParseError(ConfigError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_TOKEN = re.compile(r'"[^"]*"|[{}\[\]]|[^\s{}\[\]"]+|#[^\n]*')


@dataclass
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _TOKEN.finditer(line):
            tok = match.group(0)
            if tok.startswith("#"):
                break  # comment to end of line
            tokens.append(_Token(tok, lineno, match.start() + 1))
    return tokens


Scalar = Union[str, int, float]


@dataclass
class _Item:
    key: str
    value: Union[Scalar, list[Scalar], "_Block"]
    line: int
    col: int


@dataclass
class _Block:
    items: list[_Item] = field(default_factory=list)

    def get(self, key: str) -> Optional[_Item]:
        for item in self.items:
            if item.key == key:
                return item
        return None


_INT = re.compile(r"^[+-]?\d+$")
_FLOAT = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+[eE][+-]?\d+|\d+\.\d*[eE][+-]?\d+)$")


def _scalar(text: str) -> Scalar:
    if text.startswith('"'):
        return text[1:-1]
    if _INT.match(text):
        return int(text)
    if _FLOAT.match(text):
        return float(text)
    return text  # bare word


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1)
            raise ConfigParseError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def parse_items(self, until_brace: bool) -> list[_Item]:
        items = []
        while True:
            tok = self.peek()
            if tok is None:
                if until_brace:
                    raise ConfigParseError("missing closing brace", *self._here())
                return items
            if tok.text == "}":
                if not until_brace:
                    raise ConfigParseError("unbalanced closing brace", tok.line, tok.col)
                self.next()
                return items
            if tok.text in ("{", "[", "]"):
                raise ConfigParseError(f"expected a key, found {tok.text!r}", tok.line, tok.col)
            key = self.next()
            items.append(self.parse_value(key))

    def _here(self) -> tuple[int, int]:
        tok = self.tokens[-1] if self.tokens else None
        return (tok.line, tok.col) if tok else (1, 1)

    def parse_value(self, key: _Token) -> _Item:
        tok = self.peek()
        if tok is None:
            raise ConfigParseError(f"key {key.text!r} has no value", key.line, key.col)
        if tok.text == "{":
            self.next()
            return _Item(key.text, _Block(self.parse_items(until_brace=True)), key.line, key.col)
        if tok.text == "[":
            self.next()
            values = []
            while True:
                tok = self.peek()
                if tok is None:
                    raise ConfigParseError("unterminated array", key.line, key.col)
                if tok.text == "]":
                    self.next()
                    return _Item(key.text, values, key.line, key.col)
                if tok.text in ("{", "}", "["):
                    raise ConfigParseError(
                        f"malformed array element {tok.text!r}", tok.line, tok.col
                    )
                values.append(_scalar(self.next().text))
        return _Item(key.text, _scalar(self.next().text), key.line, key.col)


# --- schema mapping ---------------------------------------------------------

_EQUALIZER_KINDS = {
    "load_equalizer": "load",
    "tree_equalizer": "tree",
    "framerate_equalizer": "framerate",
    "tile_equalizer": "tile",
    "chunk_equalizer": "chunk",
    "dfr_equalizer": "dfr",
    "monitor_equalizer": "monitor",
    "view_equalizer": "view",
}


def _require_block(item: _Item) -> _Block:
    if not isinstance(item.value, _Block):
        raise ConfigParseError(f"{item.key!r} must be a block", item.line, item.col)
    return item.value


def _floats(item: _Item, n: int) -> list[float]:
    value = item.value
    if not isinstance(value, list) or len(value) != n or not all(
        isinstance(v, (int, float)) for v in value
    ):
        raise ConfigParseError(f"{item.key!r} expects an array of {n} numbers", item.line, item.col)
    return [float(v) for v in value]


def _ints(item: _Item, n: int) -> list[int]:
    value = item.value
    if not isinstance(value, list) or len(value) != n or not all(isinstance(v, int) for v in value):
        raise ConfigParseError(f"{item.key!r} expects an array of {n} integers", item.line, item.col)
    return list(value)


def _wrap(item: _Item, fn, *args):
    try:
        return fn(*args)
    except ConfigError as exc:
        raise ConfigParseError(str(exc), item.line, item.col) from None


class _Builder:
    def __init__(self):
        self.warnings: list[str] = []

    def warn(self, item: _Item, message: str) -> None:
        self.warnings.append(f"line {item.line}: {message}")

    # out-of-scope knobs are parsed over with a warning, not a failure
    _IGNORED_OBSERVER = {"vrpn_tracker", "eye_left", "eye_right", "eye_cyclop",
                         "focus_distance", "focus_mode", "eye_base", "wheel", "head"}

    def config(self, items: list[_Item]) -> Config:
        cfg = Config()
        for item in items:
            key = item.key
            if key in ("config", "server", "global"):
                inner = self.config(_require_block(item).items)
                cfg.canvases += inner.canvases
                cfg.layouts += inner.layouts
                cfg.observers += inner.observers
                cfg.compounds += inner.compounds
                if inner.latency != 1:
                    cfg.latency = inner.latency
            elif key == "latency":
                cfg.latency = int(item.value)
            elif key == "canvas":
                cfg.canvases.append(self.canvas(_require_block(item)))
            elif key == "layout":
                cfg.layouts.append(self.layout(_require_block(item)))
            elif key == "observer":
                cfg.observers.append(self.observer(_require_block(item)))
            elif key == "compound":
                cfg.compounds.append(self.compound(_require_block(item)))
            else:
                self.warn(item, f"unknown top-level key {key!r} ignored")
        cfg.warnings = self.warnings
        return cfg

    def wall(self, block: _Block, item: _Item) -> Wall:
        corners = {}
        for sub in block.items:
            if sub.key in ("bottom_left", "bottom_right", "top_left"):
                corners[sub.key] = tuple(_floats(sub, 3))
            else:
                self.warn(sub, f"unknown wall key {sub.key!r} ignored")
        missing = {"bottom_left", "bottom_right", "top_left"} - set(corners)
        if missing:
            raise ConfigParseError(f"wall missing corners {sorted(missing)}", item.line, item.col)
        return Wall(corners["bottom_left"], corners["bottom_right"], corners["top_left"])

    def canvas(self, block: _Block) -> Canvas:
        canvas = Canvas()
        for item in block.items:
            if item.key == "name":
                canvas.name = str(item.value)
            elif item.key == "segment":
                canvas.segments.append(self.segment(_require_block(item)))
            elif item.key == "wall":
                canvas.wall = self.wall(_require_block(item), item)
            elif item.key == "layout":
                canvas.layouts.append(str(item.value))
            elif item.key == "swapbarrier":
                _require_block(item)
                canvas.swap_barrier = True
            else:
                self.warn(item, f"unknown canvas key {item.key!r} ignored")
        return canvas

    def segment(self, block: _Block) -> Segment:
        segment = Segment()
        for item in block.items:
            if item.key == "name":
                segment.name = str(item.value)
            elif item.key == "channel":
                segment.channel = str(item.value)
            elif item.key == "viewport":
                segment.viewport = _wrap(item, Viewport, *_floats(item, 4))
            elif item.key == "wall":
                segment.wall = self.wall(_require_block(item), item)
            else:
                self.warn(item, f"unknown segment key {item.key!r} ignored")
        return segment

    def layout(self, block: _Block) -> Layout:
        layout = Layout()
        for item in block.items:
            if item.key == "name":
                layout.name = str(item.value)
            elif item.key == "view":
                layout.views.append(self.view(_require_block(item)))
            else:
                self.warn(item, f"unknown layout key {item.key!r} ignored")
        return layout

    def view(self, block: _Block) -> View:
        view = View()
        for item in block.items:
            if item.key == "name":
                view.name = str(item.value)
            elif item.key == "viewport":
                view.viewport = _wrap(item, Viewport, *_floats(item, 4))
            elif item.key == "observer":
                view.observer = str(item.value)
            else:
                self.warn(item, f"unknown view key {item.key!r} ignored")
        return view

    def observer(self, block: _Block) -> Observer:
        observer = Observer()
        for item in block.items:
            if item.key == "name":
                observer.name = str(item.value)
            elif item.key in self._IGNORED_OBSERVER:
                self.warn(item, f"observer key {item.key!r} is out of scope, ignored")
            else:
                self.warn(item, f"unknown observer key {item.key!r} ignored")
        return observer

    def frame(self, block: _Block) -> FrameSpec:
        frame = FrameSpec()
        for item in block.items:
            if item.key == "name":
                frame.name = str(item.value)
            elif item.key == "type":
                frame.local_transfer = item.value == "texture"
            elif item.key == "buffer":
                self.warn(item, "frame buffer selection is ignored")
            else:
                self.warn(item, f"unknown frame key {item.key!r} ignored")
        return frame

    def tiles(self, block: _Block) -> TileSpec:
        spec = TileSpec()
        for item in block.items:
            if item.key == "name":
                spec.name = str(item.value)
            elif item.key == "size":
                w, h = _ints(item, 2)
                spec.size = (w, h)
            else:
                self.warn(item, f"unknown tile key {item.key!r} ignored")
        return spec

    def equalizer(self, kind: str, block: _Block) -> EqualizerSpec:
        params = {}
        for item in block.items:
            if isinstance(item.value, _Block):
                self.warn(item, f"unknown equalizer block {item.key!r} ignored")
            elif isinstance(item.value, list):
                params[item.key] = item.value
            else:
                params[item.key] = item.value
        return EqualizerSpec(kind, params)

    def compound(self, block: _Block) -> Compound:
        node = Compound()
        phase = period = None
        for item in block.items:
            key = item.key
            if key == "compound":
                node.children.append(self.compound(_require_block(item)))
            elif key == "channel":
                node.channel = str(item.value)
            elif key == "viewport":
                node.viewport = _wrap(item, Viewport, *_floats(item, 4))
            elif key == "range":
                node.range_ = _wrap(item, Range, *_floats(item, 2))
            elif key == "pixel":
                node.pixel = _wrap(item, PixelParam, *_ints(item, 4))
            elif key == "subpixel":
                index, size = _ints(item, 2)
                node.subpixel = _wrap(item, SubpixelParam, index, size)
            elif key == "phase":
                phase = int(item.value)
            elif key == "period":
                period = int(item.value)
            elif key == "eye":
                value = item.value if isinstance(item.value, list) else [item.value]
                node.eye = tuple(str(v) for v in value)
            elif key == "outputframe":
                node.output_frames.append(self.frame(_require_block(item)))
            elif key == "inputframe":
                node.input_frames.append(self.frame(_require_block(item)))
            elif key == "outputtiles":
                node.output_tiles.append(self.tiles(_require_block(item)))
            elif key == "inputtiles":
                spec = self.tiles(_require_block(item))
                node.input_tiles.append(spec.name)
            elif key in _EQUALIZER_KINDS:
                node.equalizers.append(self.equalizer(_EQUALIZER_KINDS[key], _require_block(item)))
            elif key == "task":
                self.warn(item, "task lists are ignored; all leaves render")
            else:
                self.warn(item, f"unknown compound key {key!r} ignored")
        if phase is not None or period is not None:
            node.phase_period = _wrap(
                _Item("phase", 0, 0, 0), PhasePeriod, phase or 0, period or 1
            )
        return node


def parse_config(text: str) -> Config:
    parser = _Parser(_tokenize(text))
    builder = _Builder()
    items = parser.parse_items(until_brace=False)
    config = builder.config(items)
    validate_config(config)
    return config


# --- pretty printer ------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Printer:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def block(self, name: str):
        printer = self

        class _Ctx:
            def __enter__(self):
                printer.emit(name + " {")
                printer.depth += 1

            def __exit__(self, *exc):
                printer.depth -= 1
                printer.emit("}")

        return _Ctx()


def pretty_print(config: Config) -> str:
    p = _Printer()
    if config.latency != 1:
        p.emit(f"latency {config.latency}")
    for observer in config.observers:
        with p.block("observer"):
            if observer.name:
                p.emit(f'name "{observer.name}"')
    for canvas in config.canvases:
        with p.block("canvas"):
            if canvas.name:
                p.emit(f'name "{canvas.name}"')
            for layout_name in canvas.layouts:
                p.emit(f'layout "{layout_name}"')
            if canvas.wall:
                _print_wall(p, canvas.wall)
            if canvas.swap_barrier:
                p.emit("swapbarrier {}")
            for segment in canvas.segments:
                with p.block("segment"):
                    if segment.name:
                        p.emit(f'name "{segment.name}"')
                    if segment.channel:
                        p.emit(f'channel "{segment.channel}"')
                    if segment.viewport != Viewport():
                        _print_viewport(p, segment.viewport)
                    if segment.wall:
                        _print_wall(p, segment.wall)
    for layout in config.layouts:
        with p.block("layout"):
            if layout.name:
                p.emit(f'name "{layout.name}"')
            for view in layout.views:
                with p.block("view"):
                    if view.name:
                        p.emit(f'name "{view.name}"')
                    if view.viewport != Viewport():
                        _print_viewport(p, view.viewport)
                    if view.observer:
                        p.emit(f'observer "{view.observer}"')
    for compound in config.compounds:
        _print_compound(p, compound)
    return "\n".join(p.lines) + "\n"


def _print_viewport(p: _Printer, vp: Viewport) -> None:
    p.emit(f"viewport [ {_fmt(vp.x)} {_fmt(vp.y)} {_fmt(vp.w)} {_fmt(vp.h)} ]")


def _print_wall(p: _Printer, wall: Wall) -> None:
    with p.block("wall"):
        for key, corner in (
            ("bottom_left", wall.bottom_left),
            ("bottom_right", wall.bottom_right),
            ("top_left", wall.top_left),
        ):
            p.emit(f"{key} [ {' '.join(_fmt(c) for c in corner)} ]")


def _print_compound(p: _Printer, node: Compound) -> None:
    with p.block("compound"):
        if node.channel is not None:
            p.emit(f'channel "{node.channel}"')
        if node.viewport != Viewport():
            _print_viewport(p, node.viewport)
        if node.range_ != Range():
            p.emit(f"range [ {_fmt(node.range_.lo)} {_fmt(node.range_.hi)} ]")
        if not node.pixel.identity:
            px = node.pixel
            p.emit(f"pixel [ {px.x_offset} {px.y_offset} {px.x_count} {px.y_count} ]")
        if not node.subpixel.identity:
            p.emit(f"subpixel [ {node.subpixel.index} {node.subpixel.size} ]")
        if node.phase_period.period != 1:
            p.emit(f"phase {node.phase_period.phase} period {node.phase_period.period}")
        if node.eye:
            p.emit("eye [ " + " ".join(node.eye) + " ]")
        for eq in node.equalizers:
            kind = next(k for k, v in _EQUALIZER_KINDS.items() if v == eq.kind)
            if not eq.params:
                p.emit(kind + " {}")
            else:
                with p.block(kind):
                    for key, value in eq.params.items():
                        if isinstance(value, list):
                            p.emit(f"{key} [ {' '.join(_fmt(v) for v in value)} ]")
                        elif isinstance(value, str) and not _INT.match(value) and key == "name":
                            p.emit(f'{key} "{value}"')
                        else:
                            p.emit(f"{key} {_fmt(value)}")
        for spec in node.output_tiles:
            with p.block("outputtiles"):
                p.emit(f'name "{spec.name}"')
                p.emit(f"size [ {spec.size[0]} {spec.size[1]} ]")
        for name in node.input_tiles:
            with p.block("inputtiles"):
                p.emit(f'name "{name}"')
        for child in node.children:
            _print_compound(p, child)
        for frame in node.output_frames:
            with p.block("outputframe"):
                if frame.name:
                    p.emit(f'name "{frame.name}"')
                if frame.local_transfer:
                    p.emit("type texture")
        for frame in node.input_frames:
            with p.block("inputframe"):
                p.emit(f'name "{frame.name}"')
