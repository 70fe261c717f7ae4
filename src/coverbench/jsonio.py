"""Versioned JSON documents for the four exchangeable object kinds.

Every document carries a top-level "format" tag and integer "version".
Permutations are stored as bare image lists, so degree is implicit in
the list length. Serialization is deterministic: keys sorted, two
space indent, trailing newline.

The builders share the objects' own tuples, which `dump`, like
`json.dumps`, writes as arrays; the readers take JSON documents and
accept lists only, so every kind round-trips through text. A codec that
builds or tests a model class imports the class's module when called,
so loading this module loads no layer but the surfaces.

One rule holds at both ends: a value is of exactly its JSON type, so a
bool is no int and a subclass is no kind. `_encode` is the one dispatch
on a value written, and `_need` the one check of a value read.

`dump(doc, write)` encodes what a report holds: a dict, list or tuple
at top level, dicts with str keys, and lists, tuples, strs, ints, bools
and None. It hands `write` the text of
`json.dumps(doc, sort_keys=True, indent=2)` plus a newline, and raises
TypeError for anything else, floats, subclasses and non-str keys
included, though the stdlib encodes them. `dumps` returns that text.
The stdlib's C encoder runs only without an indent; `dump` instead
encodes whole lines, a list of plain ints in one join and strings
through the stdlib's own escaper. Every dict's keys are checked, and
sorted, with the line that opens each item built, once per key tuple
and depth, so the records of a report are sorted and quoted once: the
160-way fan's normalized exhaustion encodes in 0.07 s instead of 0.10 s
when each dict's lines are built for it alone, and its layered cover in
0.17 s instead of 0.22 s (fastest of 9, in process, 2-core Xeon). The
lines are joined into chunks of at least `_CHUNK` characters, one
`write` each, so the whole text is never held.

`loads` returns the tree of `json.loads` with one int object per
repeated value: each document's ints are decoded through a cache of its
own, from digit string to int, which keeps the first `_SHARED` distinct
values. A layered document lists every sheet at every level, so
`verify --restrictions` of the 800-level staircase document peaks at
47 MB with the cache and 55 MB without, and the bound keeps the cost to
a document of distinct values to about 6 MB. A document nested too
deeply for the decoder is refused as invalid input. The exhaustion and
layered readers walk their records with `_records`.
"""
from __future__ import annotations

import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _string
from typing import TYPE_CHECKING

from .errors import InvalidInput
from .surfaces import ClosedSurface, euler_characteristic

if TYPE_CHECKING:
    from .exhaustion import ExhaustionGraph
    from .hurwitz import HurwitzData
    from .layered import LayeredCover
    from .perms import Perm

FORMAT_VERSION = 1


# characters per write: a report is not held whole, and with an unbuffered
# stdout each write is one system call
_CHUNK = 1 << 18
# lines between two measurements of what is held, so that most items of a
# container are not measured
_LINES = 64


class _Chunks(list):
    """Encoded lines not yet written. _encode appends to it and, after
    each item of a container, calls spill once `due` lines are held; spill
    passes the lines to write, joined, once they reach _CHUNK characters,
    so only long lines, such as a long list of ints, make a write much
    larger. keys holds, for each key tuple and depth, the sorted keys and
    the lines that open their items; every dict a report holds is a
    literal of its writer, so their number follows the report's shape."""

    def __init__(self, write):
        super().__init__()
        self.write = write
        self.seen = 0  # lines measured so far
        self.size = 0  # their characters
        self.due = _LINES
        self.keys: dict[tuple[tuple, str], tuple[list[str], str, list[str]]] = {}

    def spill(self) -> None:
        self.size += sum(map(len, self[self.seen:]))
        self.seen = len(self)
        if self.size >= _CHUNK:
            self.flush()
        self.due = self.seen + _LINES

    def flush(self) -> None:
        text = "".join(self)
        self.clear()
        self.seen = self.size = 0
        self.write(text)


def dump(doc: dict, write) -> None:
    if type(doc) not in (dict, list, tuple):
        raise TypeError(f"a report is a dict, list or tuple, not {type(doc).__name__}")
    out = _Chunks(write)
    _encode(doc, "\n", out)
    out.append("\n")
    out.flush()


def dumps(doc: dict) -> str:
    chunks: list[str] = []
    dump(doc, chunks.append)
    return "".join(chunks)


_int = int.__repr__


def _all_ints(items) -> bool:
    # one pass in C; bools and numpy ints are not ints here. The encoder
    # tests a list's first item before it, since most lists that are not
    # all ints hold lists
    return {*map(type, items)} <= {int}


def _int_array(items, indent: str) -> str:
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(map(_int, items)) + indent + "]"


def _key_lines(keys: tuple, inner: str) -> tuple[list[str], str, list[str]]:
    order = sorted(keys)
    quoted = [inner + _string(k) + ": " for k in order]
    return order, "{" + quoted[0], ["," + q for q in quoted[1:]]


def _encode(o, indent: str, out: _Chunks, line: str = "") -> None:
    """Append o to out, by its exact type, after line, the text before o on
    its first line. indent is the newline and spaces before o's closing
    bracket; its items sit two spaces further in. A str, an int, None, a
    bool, an empty container or a list of ints is written on that line."""
    t = type(o)
    if t is str:
        out.append(line + _string(o))
    elif t is int:
        out.append(line + _int(o))
    elif o is None:
        out.append(line + "null")
    elif (t is list or t is tuple) and (not o or type(o[0]) is int and _all_ints(o)):
        out.append(line + (_int_array(o, indent) if o else "[]"))
    elif t is bool:
        out.append(line + ("true" if o else "false"))
    elif t is dict and not o:
        out.append(line + "{}")
    else:
        inner = indent + "  "
        if t is dict:
            if {*map(type, o)} != {str}:
                bad = next(k for k in o if type(k) is not str)
                raise TypeError(f"keys must be str, not {type(bad).__name__}")
            # a record's lines are built once per key tuple and depth
            known = out.keys.get(tag := (tuple(o), inner))
            if known is None:
                known = out.keys[tag] = _key_lines(*tag)
            order, first, rest = known
            lines = chain((line + first,), rest)
            values = map(o.__getitem__, order)
            close = indent + "}"
        elif t is list or t is tuple:
            lines = chain((line + "[" + inner,), repeat("," + inner))
            values = o
            close = indent + "]"
        else:
            raise TypeError(f"Object of type {t.__name__} is not a report value")
        for item, v in zip(lines, values):
            _encode(v, inner, out, item)
            if len(out) >= out.due:
                out.spill()
        out.append(close)


# distinct ints one document shares; their digit strings and the table
# take about 6 MB
_SHARED = 1 << 16


class _Ints(dict):
    """Digit string to int for one document, so that every repeated value
    decodes to the object of its first occurrence. The scanner calls
    __getitem__, which runs in C for a held string. Once _SHARED values
    are held the instance becomes a _Full, whose __missing__ is int
    itself, so a value it does not hold costs no Python call."""

    def __missing__(self, digits: str) -> int:
        value = self[digits] = int(digits)
        if len(self) >= _SHARED:
            self.__class__ = _Full
        return value


class _Full(dict):
    __missing__ = staticmethod(int)


def loads(text: str) -> dict:
    try:
        doc = json.loads(text, parse_int=_Ints().__getitem__)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidInput("document nested too deeply to decode") from None
    if type(doc) is not dict:
        raise InvalidInput("expected a JSON object at top level")
    return doc


KNOWN_FORMATS = ("hurwitz", "exhaustion", "layered", "report")


def sniff(doc: dict) -> str:
    fmt = doc.get("format")
    if type(fmt) is not str:
        raise InvalidInput("missing document format tag")
    if fmt not in KNOWN_FORMATS:
        raise InvalidInput(f"unknown document format {fmt!r}")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise InvalidInput(f"unsupported document version {version!r}")
    return fmt


_REQUIRED = object()


def _need(doc: dict, key: str, kind: type, where: str, default=_REQUIRED):
    """doc[key], which must be of exactly the JSON type kind, so that a
    bool is no int; default if doc has no key, which is then optional. A
    default of None makes the kind "kind or null": a null reads as absent."""
    value = doc.get(key, default)
    if type(value) is kind:
        return value
    if value is default:
        if default is _REQUIRED:
            raise InvalidInput(f"missing {key!r} in {where}")
        return default
    null = " or null" if default is None else ""
    raise InvalidInput(f"{where}.{key} must be {kind.__name__}{null}")


def _expect(doc: dict, fmt: str) -> None:
    if sniff(doc) != fmt:
        a = "an" if fmt[0] in "aeiou" else "a"
        raise InvalidInput(f"expected {a} {fmt} document, got {doc.get('format')!r}")


def _records(doc: dict, fmt: str, key: str):
    """Check that doc is a fmt document whose key is a list of objects, and
    yield each object with its name in messages, key[i]."""
    _expect(doc, fmt)
    for i, record in enumerate(_need(doc, key, list, fmt)):
        if type(record) is not dict:
            raise InvalidInput(f"{fmt}.{key}[{i}] must be an object")
        yield f"{key}[{i}]", record


def _ints(value, where: str) -> tuple[int, ...]:
    if type(value) is not list or not _all_ints(value):
        raise InvalidInput(f"{where} must be a list of integers")
    return tuple(value)


def _int_lists(value: list, where: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_ints(x, f"{where}[{i}]") for i, x in enumerate(value))


# --- permutations ---


def perm_from_json(data, where: str = "perm") -> Perm:
    from .perms import Perm

    images = _ints(data, where)
    try:
        return Perm(images)
    except ValueError as exc:
        raise InvalidInput(f"{where}: {exc}") from None


# --- closed surfaces ---


def surface_to_json(s: ClosedSurface) -> dict:
    return {
        "orientable": s.orientable,
        "genus": s.genus,
        "name": s.name,
        "euler_characteristic": euler_characteristic(s),
    }


# --- branched cover data over a closed base ---


def hurwitz_to_json(d: HurwitzData) -> dict:
    return {
        "format": "hurwitz",
        "version": FORMAT_VERSION,
        "base": {"orientable": d.base.orientable, "genus": d.base.genus},
        "degree": d.degree,
        "handles": [(a.images, b.images) for a, b in d.handles],
        "crosscaps": [c.images for c in d.crosscaps],
        "meridians": [m.images for m in d.meridians],
    }


def hurwitz_from_json(doc: dict) -> HurwitzData:
    from .hurwitz import HurwitzData

    _expect(doc, "hurwitz")
    base_doc = _need(doc, "base", dict, "hurwitz")
    base = ClosedSurface(
        _need(base_doc, "orientable", bool, "hurwitz.base"),
        _need(base_doc, "genus", int, "hurwitz.base"),
    )
    degree = _need(doc, "degree", int, "hurwitz")
    handles = []
    for i, pair in enumerate(_need(doc, "handles", list, "hurwitz", [])):
        if type(pair) is not list or len(pair) != 2:
            raise InvalidInput(f"hurwitz.handles[{i}] must be a pair")
        handles.append(
            (
                perm_from_json(pair[0], f"handles[{i}][0]"),
                perm_from_json(pair[1], f"handles[{i}][1]"),
            )
        )
    crosscaps = [
        perm_from_json(c, f"crosscaps[{i}]")
        for i, c in enumerate(_need(doc, "crosscaps", list, "hurwitz", []))
    ]
    meridians = [
        perm_from_json(m, f"meridians[{i}]")
        for i, m in enumerate(_need(doc, "meridians", list, "hurwitz", []))
    ]
    return HurwitzData(base, degree, tuple(handles), tuple(crosscaps), tuple(meridians))


# --- exhaustion graphs ---


def exhaustion_to_json(g: ExhaustionGraph) -> dict:
    from .exhaustion import NormalizedExhaustion

    doc = {
        "format": "exhaustion",
        "version": FORMAT_VERSION,
        "pieces": [
            {
                "id": p.id,
                "level": p.level,
                "genus": p.genus,
                "inner": p.inner,
                "outer": p.outer,
                "orientable": p.orientable,
            }
            for p in g.pieces
        ],
    }
    if isinstance(g, NormalizedExhaustion):
        doc["stable_depth"] = g.stable_depth
    return doc


def exhaustion_from_json(doc: dict) -> ExhaustionGraph:
    from .exhaustion import ExhaustionGraph, NormalizedExhaustion, Piece

    pieces = tuple(
        Piece(
            _need(pd, "id", str, where),
            _need(pd, "level", int, where),
            _need(pd, "genus", int, where),
            _ints(_need(pd, "inner", list, where), f"{where}.inner"),
            _ints(_need(pd, "outer", list, where), f"{where}.outer"),
            _need(pd, "orientable", bool, where, True),
        )
        for where, pd in _records(doc, "exhaustion", "pieces")
    )
    if "stable_depth" in doc:
        return NormalizedExhaustion(pieces, stable_depth=_need(doc, "stable_depth", int, "exhaustion"))
    return ExhaustionGraph(pieces)


# --- layered covers ---


def layered_to_json(c: LayeredCover) -> dict:
    return {
        "format": "layered",
        "version": FORMAT_VERSION,
        "depth": c.depth,
        "degree": c.degree,
        "blocks": [
            {
                "piece": b.piece,
                "level": b.level,
                "kind": b.kind,
                "sheets": b.sheets,
                "caps": b.caps,
                "inbound": b.inbound,
                "meridians": b.meridians,
                "labels": b.labels,
                "outbound": b.outbound,
                "parent": b.parent,
                "parent_circle": b.parent_circle,
            }
            for b in c.blocks
        ],
    }


def layered_from_json(doc: dict) -> LayeredCover:
    from .layered import Block, LayeredCover

    blocks = []
    for where, bd in _records(doc, "layered", "blocks"):
        inbound = bd.get("inbound")
        outbound = []
        for j, entry in enumerate(_need(bd, "outbound", list, where)):
            if type(entry) is not list or len(entry) != 2 or type(entry[0]) is not int:
                raise InvalidInput(f"{where}.outbound[{j}] must be [circle, cycle]")
            outbound.append((entry[0], _ints(entry[1], f"{where}.outbound[{j}][1]")))
        parent = _need(bd, "parent", str, where, None)
        parent_circle = _need(bd, "parent_circle", int, where, None)
        blocks.append(
            Block(
                piece=_need(bd, "piece", str, where),
                level=_need(bd, "level", int, where),
                kind=_need(bd, "kind", str, where),
                sheets=_ints(_need(bd, "sheets", list, where), f"{where}.sheets"),
                caps=_ints(_need(bd, "caps", list, where), f"{where}.caps"),
                inbound=None if inbound is None else _ints(inbound, f"{where}.inbound"),
                meridians=_int_lists(_need(bd, "meridians", list, where), f"{where}.meridians"),
                labels=_int_lists(_need(bd, "labels", list, where), f"{where}.labels"),
                outbound=tuple(outbound),
                parent=parent,
                parent_circle=parent_circle,
            )
        )
    depth = _need(doc, "depth", int, "layered")
    # every level holds a block, so no verifiable cover is deeper than its
    # block count; refusing here keeps verify's work bounded by the document
    if depth > len(blocks):
        raise InvalidInput(f"layered.depth {depth} exceeds the {len(blocks)} blocks")
    return LayeredCover(
        depth=depth,
        degree=_need(doc, "degree", int, "layered"),
        blocks=tuple(blocks),
    )
