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

`dump(doc, write)` hands `write` the text of
`json.dumps(doc, sort_keys=True, indent=2)` plus a newline, for every
document that call accepts, and raises TypeError where it does; `dumps`
returns what `dump` writes. The stdlib's C encoder runs only without an
indent, so that call would take the pure-Python path, which keeps one
small string per token until its final join. `dump` instead encodes
whole lines, a list of plain ints in one join, strings through the
stdlib's own escaper, and floats, non-str keys and the sort order by
the stdlib's rules; it joins them into chunks of at least `_CHUNK`
characters, one `write` each, so the whole text is never held, neither
joined nor line by line.
"""
from __future__ import annotations

import json
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
    such as a long list of ints, make it much larger."""

    def __init__(self, write):
        super().__init__()
        self.write = write
        self.seen = 0  # lines measured so far
        self.size = 0  # their characters
        self.due = _LINES

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
_INF = float("inf")


def _scalar(o) -> str:
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return _int(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _all_ints(items) -> bool:
    # one pass in C; bools and numpy ints are not ints here
    return {*map(type, items)} <= {int}


def _encode(o, indent: str, out: _Chunks) -> None:
    """Append the encoding of o to out. indent is the newline and spaces
    before o's closing bracket; its items sit two spaces further in."""
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            # a non-str key is quoted as the stdlib quotes it: "true", "1"
            out.append(sep + _string(k if isinstance(k, str) else _scalar(k)) + ": ")
            _encode(v, inner, out)
            if len(out) >= out.due:
                out.spill()
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "," + inner
        if _all_ints(o):
            out.append("[" + inner + sep.join(map(_int, o)) + indent + "]")
            return
        head = "[" + inner
        for item in o:
            out.append(head)
            _encode(item, inner, out)
            if len(out) >= out.due:
                out.spill()
            head = sep
        out.append(indent + "]")
    else:
        out.append(_scalar(o))


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"not valid JSON: {exc}") from None
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
