"""Versioned JSON documents for the four exchangeable object kinds.

Every document carries a top-level "format" tag and integer "version".
Permutations are stored as bare image lists, so degree is implicit in
the list length. Serialization is deterministic: keys sorted, two
space indent, trailing newline.

The builders share the objects' own tuples, which `dump`, like
`json.dumps`, writes as arrays; the readers take JSON documents and
accept lists only, so every kind round-trips through text. A codec that
builds or tests a model class imports the class's module when called,
so loading this module loads no layer but the surfaces, and a run
reads and writes documents without the layers it does not use.

`dump(doc, write)` encodes what a report holds: a dict, list or tuple
at top level, dicts with str keys, and lists, tuples, strs, ints, bools
and None, each of exactly its type. It hands `write` the text of
`json.dumps(doc, sort_keys=True, indent=2)` plus a newline, and raises
TypeError for anything else: floats, subclasses and non-str keys
included, though the stdlib encodes them. `dumps` returns what `dump`
writes. The stdlib's C encoder runs only without an indent, so that call
would take the pure-Python path, which keeps one small string per token
until its final join. `dump` instead encodes whole lines, a list of
plain ints in one join and strings through the stdlib's own escaper.
An item that is a str, an int, None, a bool or a list of ints is
written on its own line, with no call. A dict's keys are checked and
sorted, and the line that opens each item built, once per key tuple and
depth, so the records of a report, which share their keys, are sorted
and quoted once: the 160-way fan's normalized exhaustion encodes in
0.07 s instead of 0.10 s when each dict's lines are built for it alone,
and its layered cover in 0.17 s instead of 0.22 s (fastest of 9, in
process, 2-core Xeon). The lines are joined into chunks of at least
`_CHUNK` characters, one `write` each, so the whole text is never held,
neither joined nor line by line.

`loads` returns the tree of `json.loads` with one int object per
repeated value: each document's ints are decoded through a cache of its
own, from digit string to int, which keeps the first `_SHARED` distinct
values and goes with the parse. A layered document lists every sheet at
every level, and without the cache every occurrence above 256 is a
fresh int. `verify --restrictions` of the 800-level staircase document
peaks at 47 MB with the cache and 55 MB without; its peak is now the
file's bytes beside their decoded text, before the parse. The bound
keeps the cost to a document of distinct values, which shares nothing,
to about 6 MB. A document nested too deeply for the decoder is refused
as invalid input.
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
# container are encoded without a call
_LINES = 64


class _Chunks(list):
    """Encoded lines not yet written. _encode appends to it as to any list
    and, after each item of a container, calls spill once `due` lines are
    held; spill passes the lines to write, joined, once they reach _CHUNK
    characters. A write runs past _CHUNK by at most the lines appended
    since the last measurement, about _LINES of them, so only long lines,
    such as a long list of ints, make it much larger. keys holds, for each
    key tuple and depth of the dump's dicts, the keys in sorted order and
    the line that opens each item; every dict a report holds is a literal
    of its writer, so their number follows the report's shape, not its
    size."""

    def __init__(self, write):
        super().__init__()
        self.write = write
        self.seen = 0  # lines measured so far
        self.size = 0  # their characters
        self.due = _LINES
        self.keys: dict[tuple[tuple, str], tuple[list[str], list[str]]] = {}

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


def _key_lines(keys: tuple, inner: str) -> tuple[list[str], list[str]]:
    for k in keys:
        if type(k) is not str:
            raise TypeError(f"keys must be str, not {k.__class__.__name__}")
    order = sorted(keys)
    quoted = [_string(k) + ": " for k in order]
    return order, ["{" + inner + quoted[0]] + ["," + inner + q for q in quoted[1:]]


def _encode(o, indent: str, out: _Chunks) -> None:
    """Append the encoding of o, a dict, list or tuple, to out. indent is
    the newline and spaces before o's closing bracket; its items sit two
    spaces further in."""
    t = type(o)
    if t is dict:
        if not o:
            out.append("{}")
            return
        inner = indent + "  "
        # a record's lines are built once per key tuple and depth
        known = out.keys.get(tag := (tuple(o), inner))
        if known is None:
            known = out.keys[tag] = _key_lines(*tag)
        order, lines = known
        values = map(o.__getitem__, order)
        close = indent + "}"
    elif t is list or t is tuple:
        if not o:
            out.append("[]")
            return
        if type(o[0]) is int and _all_ints(o):
            out.append(_int_array(o, indent))
            return
        inner = indent + "  "
        lines = chain(("[" + inner,), repeat("," + inner))
        values = o
        close = indent + "]"
    else:
        raise TypeError(f"Object of type {t.__name__} is not a report value")
    for line, v in zip(lines, values):
        # by exact type: strs, ints, nulls, bools and lists of ints on their
        # item's line; any other value is a container, or _encode refuses it
        t = type(v)
        if t is str:
            out.append(line + _string(v))
        elif t is int:
            out.append(line + _int(v))
        elif v is None:
            out.append(line + "null")
        elif (t is list or t is tuple) and (not v or type(v[0]) is int and _all_ints(v)):
            out.append(line + (_int_array(v, inner) if v else "[]"))
        elif t is bool:
            out.append(line + ("true" if v else "false"))
        else:
            out.append(line)
            _encode(v, inner, out)
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
    if not isinstance(doc, dict):
        raise InvalidInput("expected a JSON object at top level")
    return doc


KNOWN_FORMATS = ("hurwitz", "exhaustion", "layered", "report")


def sniff(doc: dict) -> str:
    fmt = doc.get("format")
    if not isinstance(fmt, str):
        raise InvalidInput("missing document format tag")
    if fmt not in KNOWN_FORMATS:
        raise InvalidInput(f"unknown document format {fmt!r}")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise InvalidInput(f"unsupported document version {version!r}")
    return fmt


def _need(doc: dict, key: str, kind: type, where: str):
    if key not in doc:
        raise InvalidInput(f"missing {key!r} in {where}")
    value = doc[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise InvalidInput(f"{where}.{key} must be {kind.__name__}")
    return value


def _optional(doc: dict, key: str, kind: type, where: str, default):
    return _need(doc, key, kind, where) if key in doc else default


def _ints(value, where: str) -> tuple[int, ...]:
    # JSON integers decode as exact ints; bools are not ints here
    if not isinstance(value, list) or not _all_ints(value):
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

    if sniff(doc) != "hurwitz":
        raise InvalidInput(f"expected a hurwitz document, got {doc.get('format')!r}")
    base_doc = _need(doc, "base", dict, "hurwitz")
    base = ClosedSurface(
        _need(base_doc, "orientable", bool, "hurwitz.base"),
        _need(base_doc, "genus", int, "hurwitz.base"),
    )
    degree = _need(doc, "degree", int, "hurwitz")
    handles = []
    for i, pair in enumerate(_optional(doc, "handles", list, "hurwitz", [])):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InvalidInput(f"hurwitz.handles[{i}] must be a pair")
        handles.append(
            (
                perm_from_json(pair[0], f"handles[{i}][0]"),
                perm_from_json(pair[1], f"handles[{i}][1]"),
            )
        )
    crosscaps = [
        perm_from_json(c, f"crosscaps[{i}]")
        for i, c in enumerate(_optional(doc, "crosscaps", list, "hurwitz", []))
    ]
    meridians = [
        perm_from_json(m, f"meridians[{i}]")
        for i, m in enumerate(_optional(doc, "meridians", list, "hurwitz", []))
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

    if sniff(doc) != "exhaustion":
        raise InvalidInput(f"expected an exhaustion document, got {doc.get('format')!r}")
    raw = _need(doc, "pieces", list, "exhaustion")
    pieces = []
    for i, pd in enumerate(raw):
        if not isinstance(pd, dict):
            raise InvalidInput(f"exhaustion.pieces[{i}] must be an object")
        where = f"pieces[{i}]"
        pieces.append(
            Piece(
                _need(pd, "id", str, where),
                _need(pd, "level", int, where),
                _need(pd, "genus", int, where),
                _ints(_need(pd, "inner", list, where), f"{where}.inner"),
                _ints(_need(pd, "outer", list, where), f"{where}.outer"),
                _optional(pd, "orientable", bool, where, True),
            )
        )
    if "stable_depth" in doc:
        return NormalizedExhaustion(
            tuple(pieces), stable_depth=_need(doc, "stable_depth", int, "exhaustion")
        )
    return ExhaustionGraph(tuple(pieces))


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

    if sniff(doc) != "layered":
        raise InvalidInput(f"expected a layered document, got {doc.get('format')!r}")
    blocks = []
    for i, bd in enumerate(_need(doc, "blocks", list, "layered")):
        if not isinstance(bd, dict):
            raise InvalidInput(f"layered.blocks[{i}] must be an object")
        where = f"blocks[{i}]"
        inbound = bd.get("inbound")
        outbound = []
        for j, entry in enumerate(_need(bd, "outbound", list, where)):
            if not isinstance(entry, list) or len(entry) != 2 or type(entry[0]) is not int:
                raise InvalidInput(f"{where}.outbound[{j}] must be [circle, cycle]")
            outbound.append((entry[0], _ints(entry[1], f"{where}.outbound[{j}][1]")))
        parent = bd.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise InvalidInput(f"{where}.parent must be str or null")
        parent_circle = bd.get("parent_circle")
        if parent_circle is not None and type(parent_circle) is not int:
            raise InvalidInput(f"{where}.parent_circle must be int or null")
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
