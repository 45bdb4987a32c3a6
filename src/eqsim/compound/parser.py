"""Block-structured config parser and pretty printer.

The format is whitespace-separated tokens: `name { ... }` blocks,
`key value` attributes, `[ v v v ]` arrays and quoted strings.  A quoted
string ends on the line it starts on, and `#` starts a comment that runs
to the end of its line.

Grammar (EBNF):

    config  = { item } ;
    item    = IDENT , ( block | array | scalar ) ;
    block   = "{" , { item } , "}" ;
    array   = "[" , { scalar } , "]" ;
    scalar  = STRING | NUMBER | IDENT ;
    STRING  = '"' , { any character but '"' or a line break } , '"' ;

Errors: an unknown key is a warning in `Config.warnings`, never a failure,
so configs written for richer implementations still load.  A known key
whose value has the wrong shape (a word where an integer belongs, an array
of the wrong length, a viewport outside the unit square) raises
ConfigParseError at that key's line and column.  Text outside the grammar
raises ConfigParseError too: a `{`, `[` or `]` where a key belongs, a `}`
or `]` where a value belongs, a `{`, `}` or `[` inside an array, an
unbalanced `}` and a number too large for a float at that token; a key
without a value and an unterminated array at the key; an unterminated
string at its quote; and a missing `}` at the input's last token.

Each block is declared once, as a table of key -> (attribute, reader,
writer).  `parse_config` reads through the tables and `pretty_print`
writes through them, leaving out values equal to their defaults, so a new
key is one table row.  parse -> pretty-print -> parse is a fixpoint on the
typed model:

>>> cfg = parse_config('compound { channel "c" viewport [ 0 0 0.5 1 ] }')
>>> print(pretty_print(cfg), end="")
compound {
    channel "c"
    viewport [ 0.0 0.0 0.5 1.0 ]
}
>>> parse_config(pretty_print(cfg)) == cfg
True
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, astuple, dataclass, field, fields, is_dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .model import (
    Canvas,
    Compound,
    Config,
    ConfigError,
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
    validate_config,
)


class ConfigParseError(ConfigError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_TOKEN = re.compile(r'"[^"]*"?|[{}\[\]]|[^\s{}\[\]"]+|#[^\n]*')

_Token = tuple[str, int, int]  # text, line, column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _TOKEN.finditer(line):
            tok = match.group(0)
            if tok.startswith("#"):
                break  # comment to end of line
            if tok[0] == '"' and (len(tok) == 1 or tok[-1] != '"'):
                raise ConfigParseError("unterminated string", lineno, match.start() + 1)
            tokens.append((tok, lineno, match.start() + 1))
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


_INT = re.compile(r"^[+-]?\d+$")
_FLOAT = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+[eE][+-]?\d+|\d+\.\d*[eE][+-]?\d+)$")


def _scalar(text: str, line: int, col: int) -> Scalar:
    if text.startswith('"'):
        return text[1:-1]
    if _INT.match(text):
        return int(text)
    if _FLOAT.match(text):
        value = float(text)
        if math.isinf(value):
            raise ConfigParseError(f"number {text} is too large", line, col)
        return value
    return text  # bare word


def _parse(tokens: Iterator[_Token], last: Optional[_Token], nested: bool) -> list[_Item]:
    """The items read from `tokens` up to their end or, if `nested`, up to
    the `}` that closes the block; a missing `}` is reported at `last`, the
    input's last token."""
    items = []
    for key, line, col in tokens:
        if key == "}":
            if not nested:
                raise ConfigParseError("unbalanced closing brace", line, col)
            return items
        if key in ("{", "[", "]"):
            raise ConfigParseError(f"expected a key, found {key!r}", line, col)
        tok = next(tokens, None)
        if tok is None:
            raise ConfigParseError(f"key {key!r} has no value", line, col)
        text = tok[0]
        if text == "{":
            value = _Block(_parse(tokens, last, nested=True))
        elif text == "[":
            value = []
            for elem in tokens:
                if elem[0] == "]":
                    break
                if elem[0] in ("{", "}", "["):
                    raise ConfigParseError(f"malformed array element {elem[0]!r}", elem[1], elem[2])
                value.append(_scalar(*elem))
            else:
                raise ConfigParseError("unterminated array", line, col)
        elif text in ("}", "]"):
            raise ConfigParseError(f"key {key!r} has no value, found {text!r}", tok[1], tok[2])
        else:
            value = _scalar(*tok)
        items.append(_Item(key, value, line, col))
    if nested:
        raise ConfigParseError("missing closing brace", last[1], last[2])
    return items


# --- the block tables -----------------------------------------------------------
#
# A reader takes an item and the warning list and returns the attribute's
# value, or raises ConfigParseError at the item; a writer takes a key and a
# value and returns the lines that print them.

_Reader = Callable[[_Item, list[str]], object]
_Writer = Callable[[str, object], list[str]]


def _fmt(value) -> str:
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[ " + " ".join(map(_fmt, value)) + " ]"
    if is_dataclass(value):
        return _fmt(astuple(value))
    return str(value)


def _line(key: str, value) -> list[str]:
    return [f"{key} {_fmt(value)}"]


def _wrap(key: str, lines: list[str]) -> list[str]:
    if not lines:
        return [key + " {}"]
    return [key + " {", *("    " + line for line in lines), "}"]


class _Row(NamedTuple):
    attr: Optional[str]  # None: the key is read for its warning only
    read: _Reader
    write: _Writer = _line
    many: bool = False  # the attribute is a list with one entry per item


class _Schema(NamedTuple):
    cls: type
    label: str  # names the block in "unknown <label> key" warnings
    rows: dict[str, _Row]


def _block(item: _Item) -> list[_Item]:
    if not isinstance(item.value, _Block):
        raise ConfigParseError(f"{item.key!r} must be a block", item.line, item.col)
    return item.value.items


def _text(item: _Item, warnings: list[str]) -> str:
    if isinstance(item.value, (list, _Block)):
        raise ConfigParseError(f"{item.key!r} expects a text value", item.line, item.col)
    return str(item.value)


def _integer(item: _Item, warnings: list[str]) -> int:
    if type(item.value) is not int:
        raise ConfigParseError(f"{item.key!r} expects an integer", item.line, item.col)
    return item.value


def _array(item: _Item, n: int, kind, what: str) -> list:
    value = item.value
    if not isinstance(value, list) or len(value) != n or not all(isinstance(v, kind) for v in value):
        raise ConfigParseError(f"{item.key!r} expects an array of {n} {what}", item.line, item.col)
    return value


def _numbers(n: int) -> _Reader:
    return lambda item, warnings: tuple([float(v) for v in _array(item, n, (int, float), "numbers")])


def _integers(n: int) -> _Reader:
    return lambda item, warnings: tuple(_array(item, n, int, "integers"))


def _build(item: _Item, cls, *args, **kwargs):
    try:
        return cls(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigParseError(str(exc), item.line, item.col) from None


def _model(cls, read: _Reader) -> _Reader:
    """A reader building `cls` from the values `read` returns."""
    return lambda item, warnings: _build(item, cls, *read(item, warnings))


def _flag(item: _Item, warnings: list[str]) -> bool:
    _block(item)
    return True


def _ignore(message: str) -> _Reader:
    """A reader that only warns; `{key}` in `message` names the key."""
    return lambda item, warnings: warnings.append(f"line {item.line}: " + message.format(key=item.key))


def _fill(schema: _Schema, item: _Item, warnings: list[str], code=None) -> dict:
    """Read the block `item` through `schema` into a dict of attribute values.

    A key without a row goes to `code(item, values, warnings)`, which says
    whether it handled the key; a key nothing handles is a warning.
    """
    values: dict = {}
    rows = schema.rows
    for sub in _block(item):
        row = rows.get(sub.key)
        if row is None:
            if code is None or not code(sub, values, warnings):
                warnings.append(f"line {sub.line}: unknown {schema.label} key {sub.key!r} ignored")
            continue
        attr, read, _, many = row
        value = read(sub, warnings)
        if not many:
            if attr is not None:
                values[attr] = value
        elif attr in values:
            values[attr].append(value)
        else:
            values[attr] = [value]
    return values


def _make(schema: _Schema, item: _Item, warnings: list[str]):
    values = _fill(schema, item, warnings)
    try:
        return schema.cls(**values)
    except TypeError:  # a field without a default has no key
        missing = [
            f.name for f in fields(schema.cls)
            if f.name not in values and f.default is MISSING and f.default_factory is MISSING
        ]
        raise ConfigParseError(f"{schema.label} missing {missing}", item.line, item.col) from None


def _body(obj, rows: dict[str, _Row]) -> list[str]:
    """The lines printing `obj` through `rows`, values equal to their defaults left out."""
    defaults = {
        f.name: f.default if f.default_factory is MISSING else f.default_factory()
        for f in fields(obj)
    }
    lines: list[str] = []
    for key, row in rows.items():
        if row.attr is None:
            continue
        value = getattr(obj, row.attr)
        if row.many:
            for entry in value:
                lines += row.write(key, entry)
        elif value != defaults[row.attr]:
            lines += row.write(key, value)
    return lines


def _child(attr: str, schema: _Schema, many: bool = False) -> _Row:
    """A row whose value is a block that `schema` declares."""
    return _Row(
        attr,
        lambda item, warnings: _make(schema, item, warnings),
        lambda key, value: _wrap(key, _body(value, schema.rows)),
        many,
    )


# --- keys that are not one attribute -----------------------------------------

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


def _compound_code(sub: _Item, values: dict, warnings: list[str]) -> bool:
    """`phase` with `period`, and the equalizers with their free-form params."""
    if sub.key in ("phase", "period"):
        _integer(sub, warnings)
        values[sub.key] = sub  # combined once the block is read
    elif sub.key in _EQUALIZER_KINDS:
        params = {}
        for param in _block(sub):
            if isinstance(param.value, _Block):
                warnings.append(f"line {param.line}: unknown equalizer block {param.key!r} ignored")
            else:
                params[param.key] = param.value
        values.setdefault("equalizers", []).append(EqualizerSpec(_EQUALIZER_KINDS[sub.key], params))
    else:
        return False
    return True


def _compound(item: _Item, warnings: list[str]) -> Compound:
    values = _fill(_COMPOUND, item, warnings, _compound_code)
    phase, period = values.pop("phase", None), values.pop("period", None)
    if phase or period:
        values["phase_period"] = _build(
            phase or period, PhasePeriod, phase.value if phase else 0, period.value if period else 1
        )
    return Compound(**values)


def _write_compound(key: str, node: Compound) -> list[str]:
    lines = []
    if node.phase_period != PhasePeriod():
        lines.append(f"phase {node.phase_period.phase} period {node.phase_period.period}")
    for eq in node.equalizers:
        name = next(k for k, kind in _EQUALIZER_KINDS.items() if kind == eq.kind)
        lines += _wrap(name, [f"{k} {_fmt(v)}" for k, v in eq.params.items()])
    return _wrap(key, lines + _body(node, _COMPOUND.rows))


def _config_code(sub: _Item, values: dict, warnings: list[str]) -> bool:
    """Nested `config`, `server` and `global` blocks merge into the outer one."""
    if sub.key not in ("config", "server", "global"):
        return False
    for attr, value in _fill(_CONFIG, sub, warnings, _config_code).items():
        if isinstance(value, list):
            values.setdefault(attr, []).extend(value)
        else:
            values[attr] = value
    return True


# --- one table per block -------------------------------------------------------

_NAME = _Row("name", _text)
_VIEWPORT = _Row("viewport", _model(Viewport, _numbers(4)))

_WALL = _Schema(Wall, "wall", {
    corner: _Row(corner, _numbers(3)) for corner in ("bottom_left", "bottom_right", "top_left")
})
_SEGMENT = _Schema(Segment, "segment", {
    "name": _NAME,
    "channel": _Row("channel", _text),
    "viewport": _VIEWPORT,
    "wall": _child("wall", _WALL),
})
_CANVAS = _Schema(Canvas, "canvas", {
    "name": _NAME,
    "layout": _Row("layouts", _text, many=True),
    "wall": _child("wall", _WALL),
    "swapbarrier": _Row("swap_barrier", _flag, lambda key, value: [key + " {}"]),
    "segment": _child("segments", _SEGMENT, many=True),
})
# observers (head tracking, eye positions) are out of scope: parsed over
# with a warning, not a failure
_VIEW = _Schema(View, "view", {
    "name": _NAME,
    "viewport": _VIEWPORT,
    "observer": _Row(None, _ignore("observers are out of scope, view observer ignored")),
})
_LAYOUT = _Schema(Layout, "layout", {"name": _NAME, "view": _child("views", _VIEW, many=True)})
_FRAME = _Schema(FrameSpec, "frame", {
    "name": _NAME,
    "type": _Row(
        "local_transfer",
        lambda item, warnings: item.value == "texture",
        lambda key, value: [key + " texture"],
    ),
    "buffer": _Row(None, _ignore("frame buffer selection is ignored")),
})
_TILES = _Schema(TileSpec, "tile", {"name": _NAME, "size": _Row("size", _integers(2))})
_COMPOUND = _Schema(Compound, "compound", {
    "channel": _Row("channel", _text),
    "viewport": _VIEWPORT,
    "range": _Row("range_", _model(Range, _numbers(2))),
    "pixel": _Row("pixel", _model(PixelParam, _integers(4))),
    "subpixel": _Row("subpixel", _model(SubpixelParam, _integers(2))),
    "eye": _Row(None, _ignore("stereo is out of scope, compound eye ignored")),
    "outputtiles": _child("output_tiles", _TILES, many=True),
    "inputtiles": _Row(
        "input_tiles",
        lambda item, warnings: _make(_TILES, item, warnings).name,
        lambda key, name: _wrap(key, _body(TileSpec(name), _TILES.rows)),
        many=True,
    ),
    "compound": _Row("children", _compound, _write_compound, many=True),
    "outputframe": _child("output_frames", _FRAME, many=True),
    "inputframe": _child("input_frames", _FRAME, many=True),
    "task": _Row(None, _ignore("task lists are ignored; all leaves render")),
})
_CONFIG = _Schema(Config, "top-level", {
    "latency": _Row("latency", _integer),
    "observer": _Row(None, _ignore("observers are out of scope, observer block ignored")),
    "canvas": _child("canvases", _CANVAS, many=True),
    "layout": _child("layouts", _LAYOUT, many=True),
    "compound": _Row("compounds", _compound, _write_compound, many=True),
})


def parse_config(text: str) -> Config:
    tokens = _tokenize(text)
    items = _parse(iter(tokens), tokens[-1] if tokens else None, nested=False)
    warnings: list[str] = []
    values = _fill(_CONFIG, _Item("config", _Block(items), 1, 1), warnings, _config_code)
    config = Config(**values, warnings=warnings)
    validate_config(config)
    return config


def pretty_print(config: Config) -> str:
    return "\n".join(_body(config, _CONFIG.rows)) + "\n"
