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
bool is no int and a subclass is no kind. `_text` is the one dispatch
on a value written, which `_column` follows for a column of values, and
`_need` the one check of a value read, which `_typed` makes for whole
record lists.

`dump(doc, write)` encodes what a report holds: a dict, list or tuple
at top level, dicts with str keys, and lists, tuples, strs, ints, bools
and None. It hands `write` the text of
`json.dumps(doc, sort_keys=True, indent=2)` plus a newline, and raises
TypeError for anything else, floats, subclasses and non-str keys
included, though the stdlib encodes them. `dumps` returns that text.
The stdlib's C encoder runs only without an indent; `dump` instead
builds whole lines, a list of plain ints in one join, strings through
the stdlib's own escaper and the digits of each int below 1024 from a
table made at import. Every dict's keys are checked, and sorted into a
`%` template, once per key tuple and depth. A value of at most `_LINES`
lines is built as one text; a longer one is written item by item, and
a list of records, dicts over one key tuple, a batch at a time by
column: each field's values of one kind are rendered by one map, the
items of its short lists as one column, a field of several kinds as a
column of each, and each row by its template. A batch holds as many
rows as `_BATCH` characters took in the last one. The 160-way fan's
normalized exhaustion encodes in 0.03 s instead of 0.09 s, its layered
cover in 0.08 s instead of 0.19 s, and the 800-level staircase in 0.09
s instead of 0.16 s (fastest of 9, in process, 2-core Xeon). The lines
are joined into chunks of at least `_CHUNK` characters, one `write`
each, so the whole text is never held.

`loads` returns the tree of `json.loads` with one int object per
repeated value: each document's ints are decoded through a cache of its
own, from digit string to int, which keeps the first `_SHARED` distinct
values. A layered document lists every sheet at every level, so
`verify --restrictions` of the 800-level staircase document peaks at
47 MB with the cache and 55 MB without, and the bound keeps the cost to
a document of distinct values to about 6 MB. A document nested too
deeply for the decoder is refused as invalid input.

The exhaustion and layered readers take their records through
`_records`: one getter per field over all records and one set of types
per field read them whole, and any record that does not match sends
every record through the field-by-field walk with `_need`, so each
error line names its place as before. The fan's cover decodes in 0.04
s instead of 0.11 s, and its normal form in 0.01 s instead of 0.05 s.
"""
from __future__ import annotations

import json
from itertools import chain, compress, islice, repeat, starmap
from json.encoder import encode_basestring_ascii as _string
from operator import is_, itemgetter
from types import NoneType
from typing import TYPE_CHECKING, NamedTuple

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
# container are not measured; a container of more items, unless all ints,
# is written item by item
_LINES = 64
# characters of a batch of records that the next batch's rows aim at
_BATCH = 1 << 16


class _Long(Exception):
    """Raised by _text for a container too long to hold as one text."""


class _Keys(NamedTuple):
    """How the dicts over one key tuple are written at one depth."""

    order: tuple[str, ...]  # the keys, sorted
    getters: tuple[itemgetter, ...]  # one for each key in order
    lines: list[str]  # the text before each value
    template: str  # the whole dict, a %s for each value
    row: str  # the dict as an item after the first of a list


class _Chunks(list):
    """Encoded lines not yet written. _encode appends to it and, after
    each item of a container, calls spill once `due` lines are held; spill
    passes the lines to write, joined, once they reach _CHUNK characters,
    so only long lines, such as a long list of ints, make a write much
    larger. keys holds a _Keys for each key tuple and depth; every dict a
    report holds is a literal of its writer, so their number follows the
    report's shape. rows holds the number of records in the next batch
    of a list of records."""

    def __init__(self, write):
        super().__init__()
        self.write = write
        self.seen = 0  # lines measured so far
        self.size = 0  # their characters
        self.due = _LINES
        self.keys: dict[tuple[tuple, str], _Keys] = {}
        self.rows = _LINES
        self.lines = 0  # of the text being built; see take

    def take(self, n: int) -> None:
        """Count n more lines in the text being built, and raise _Long
        once they exceed what _encode or _rows allowed it."""
        self.lines -= n
        if self.lines < 0:
            raise _Long

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
# the text of the two kinds whose every value is a constant
_WORDS = {None: "null", True: "true", False: "false"}


def _are(values, kinds: set) -> bool:
    # whether each of values is of exactly one of kinds, in one pass in C,
    # so that bools and numpy ints are not ints
    return {*map(type, values)} <= kinds


def _keys(o: dict, indent: str, out: _Chunks) -> _Keys:
    """The _Keys of o, a dict with at least one key, whose closing bracket
    follows indent."""
    if {*map(type, o)} != {str}:
        bad = next(k for k in o if type(k) is not str)
        raise TypeError(f"keys must be str, not {type(bad).__name__}")
    known = out.keys.get(tag := (tuple(o), indent))
    if known is None:
        order = tuple(sorted(o))
        inner = indent + "  "
        lines = ["," + inner + _string(k) + ": " for k in order]
        lines[0] = "{" + lines[0][1:]
        template = "".join(line.replace("%", "%%") + "%s" for line in lines) + indent + "}"
        known = out.keys[tag] = _Keys(order, tuple(map(itemgetter, order)), lines, template, "," + indent + template)
    return known


def _text(o, indent: str, out: _Chunks) -> str:
    """The text of o, by its exact type. indent is the newline and spaces
    before o's closing bracket; its items sit two spaces further in. Each
    item of a container takes one of out.lines, but a list of ints is one
    line; raises _Long when they run out."""
    t = type(o)
    if t is str:
        return _string(o)
    if t is int:
        return _DIGITS[o]
    if o is None or t is bool:
        return _WORDS[o]
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = indent + "  "
        # most lists that are not all ints hold lists, so the first item
        # is tested before them all
        if type(o[0]) is int and _are(o, {int}):
            items = map(_DIGITS.__getitem__, o)
        else:
            out.take(len(o))
            items = [_text(v, inner, out) for v in o]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if t is dict:
        if not o:
            return "{}"
        out.take(len(o))
        keys = _keys(o, indent, out)
        inner = indent + "  "
        return keys.template % tuple([_text(o[k], inner, out) for k in keys.order])
    raise TypeError(f"Object of type {t.__name__} is not a report value")


def _encode(o, indent: str, out: _Chunks, line: str = "") -> None:
    """Append o to out after line, the text before o on its first line,
    with indent as in _text. o is one text unless _text finds it too long;
    then its items are written one by one, and a list of dicts a batch of
    records at a time."""
    out.lines = _LINES
    try:
        out.append(line + _text(o, indent, out))
        return
    except _Long:
        pass
    inner = indent + "  "
    if type(o) is dict:
        keys = _keys(o, indent, out)
        lines = chain((line + keys.lines[0],), keys.lines[1:])
        values = map(o.__getitem__, keys.order)
        close = indent + "}"
    elif type(o[0]) is dict:
        _records_of(o, indent, out, line)
        return
    else:
        lines = chain((line + "[" + inner,), repeat("," + inner))
        values = o
        close = indent + "]"
    for item, v in zip(lines, values):
        _encode(v, inner, out, item)
        if len(out) >= out.due:
            out.spill()
    out.append(close)


def _records_of(o, indent: str, out: _Chunks, line: str) -> None:
    """Append o, a long list whose first item is a dict, in batches of
    out.rows items: a batch of dicts over one key set is written by
    column, each row by one template, and any other batch item by item.
    Each batch sets out.rows to the number of rows of _BATCH characters."""
    inner = indent + "  "
    first = line + "[" + inner
    start = 0
    while start < len(o):
        batch = o[start:start + out.rows]
        start += len(batch)
        try:
            rows = _rows(batch, inner, out)
        except _Long:
            rows = None
        if rows is None:
            for item, v in zip(chain((first,), repeat("," + inner)), batch):
                _encode(v, inner, out, item)
                if len(out) >= out.due:
                    out.spill()
        else:
            rows[0] = first + rows[0][len(inner) + 1:]
            out.rows = max(1, len(rows) * _BATCH // sum(map(len, rows)))
            out.extend(rows)
            out.spill()
        first = "," + inner
    out.append(indent + "]")


def _rows(batch, indent: str, out: _Chunks) -> list[str] | None:
    """The text of each dict of batch as an item after the first of a
    list, its closing bracket after indent, in about _LINES lines a dict;
    None unless every item is a dict over the first one's keys, each of
    them exactly a str, and at most _LINES of them. A str subclass equals
    its str, so every dict's keys are typed, not only the first's."""
    head = batch[0]
    if not head or {*map(type, batch)} != {dict} or {*map(type, chain.from_iterable(batch))} != {str}:
        return None
    keys = _keys(head, indent, out)
    if len(keys.order) > _LINES or {*map(len, batch)} != {len(keys.order)}:
        return None
    try:  # with as many keys as the first dict, each has its keys
        columns = [list(map(get, batch)) for get in keys.getters]
    except KeyError:
        return None
    out.lines = _LINES * len(batch)
    inner = indent + "  "
    return list(map(keys.row.__mod__, zip(*[_column(c, inner, out) for c in columns])))


def _column(values: list, indent: str, out: _Chunks):
    """The text of each of values, as _text writes it: by one map over
    values of one scalar kind, through the column of the items of lists
    of at most _LINES items, and else value by value. Values of several
    kinds are written as a column of each kind. Each value but an int
    takes one of out.lines, so the items of a list of ints take none."""
    kinds = {*map(type, values)}
    if len(kinds) != 1:
        order = list(map(type, values))
        texts = {kind: iter(_column(list(compress(values, map(is_, order, repeat(kind)))), indent, out)) for kind in kinds}
        return list(map(next, map(texts.__getitem__, order)))
    (kind,) = kinds
    if kind is int:
        return map(_DIGITS.__getitem__, values)
    out.take(len(values))
    if kind is str:
        return map(_string, values)
    if kind is NoneType or kind is bool:
        return map(_WORDS.__getitem__, values)
    if kind is list or kind is tuple:
        lengths = list(map(len, values))
        if max(lengths) <= _LINES:
            inner = indent + "  "
            head, sep, tail = "[" + inner, "," + inner, indent + "]"
            items = iter(_column(list(chain.from_iterable(values)), inner, out))
            return [head + sep.join(islice(items, n)) + tail if n else "[]" for n in lengths]
    return [_text(v, indent, out) for v in values]


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


class _Digits(dict):
    """Int to digit string: a held value's text is looked up in C, and
    any other is made by int.__repr__ itself."""

    __missing__ = staticmethod(_int)


# The ints a report repeats are small, as sheets, levels and genera, so
# the text of each int below 1024 is made once, at import (0.2 ms). A
# cache per report wrote no faster and, freed after each report, left a
# process that writes reports and then reads large documents 6-10 MB
# larger, since the allocator kept the space it had held.
_DIGITS = _Digits(zip(range(1 << 10), map(_int, range(1 << 10))))


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


def _records(doc: dict, fmt: str, key: str, typed, walk):
    """The fields of each record of doc, a fmt document whose key is a
    list of objects. typed(records) reads every record at once, and
    gives None when any record is not one it reads; the records are then
    read one by one by walk(record, where), which checks field by field
    and names the record where, key[i], in its messages."""
    _expect(doc, fmt)
    records = _need(doc, key, list, fmt)
    fields = typed(records) if records else []
    if fields is not None:
        return fields
    walked = []
    for i, record in enumerate(records):
        if type(record) is not dict:
            raise InvalidInput(f"{fmt}.{key}[{i}] must be an object")
        walked.append(walk(record, f"{key}[{i}]"))
    return walked


def _typed(records: list, fields: dict[str, set[type]]) -> list[list] | None:
    """The column of each field over records, a non-empty list, when every
    record is an object that holds each field as one of its kinds; else
    None. One getter and one set of types per field."""
    try:
        columns = [list(map(itemgetter(field), records)) for field in fields]
    except (KeyError, TypeError):  # a field absent, or a record no object
        return None
    if all(map(_are, columns, fields.values())):
        return columns
    return None


def _ints(value, where: str) -> tuple[int, ...]:
    if type(value) is not list or not _are(value, {int}):
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


_PIECE_FIELDS = {"id": {str}, "level": {int}, "genus": {int}, "inner": {list}, "outer": {list}}


def _typed_pieces(records: list):
    """The fields of every piece of records, or None; see _typed."""
    columns = _typed(records, _PIECE_FIELDS)
    if columns is None:
        return None
    ids, levels, genera, inner, outer = columns
    orientable = list(map(dict.get, records, repeat("orientable"), repeat(True)))
    if not (_are(orientable, {bool}) and _are(chain.from_iterable(inner + outer), {int})):
        return None
    return zip(ids, levels, genera, map(tuple, inner), map(tuple, outer), orientable)


def _walk_piece(pd: dict, where: str) -> tuple:
    return (
        _need(pd, "id", str, where),
        _need(pd, "level", int, where),
        _need(pd, "genus", int, where),
        _ints(_need(pd, "inner", list, where), f"{where}.inner"),
        _ints(_need(pd, "outer", list, where), f"{where}.outer"),
        _need(pd, "orientable", bool, where, True),
    )


def exhaustion_from_json(doc: dict) -> ExhaustionGraph:
    from .exhaustion import ExhaustionGraph, NormalizedExhaustion, Piece

    fields = _records(doc, "exhaustion", "pieces", _typed_pieces, _walk_piece)
    pieces = tuple(starmap(Piece, fields))
    del fields
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


_BLOCK_FIELDS = {
    "piece": {str},
    "level": {int},
    "kind": {str},
    "sheets": {list},
    "caps": {list},
    "inbound": {list, NoneType},
    "meridians": {list},
    "labels": {list},
    "outbound": {list},
    "parent": {str, NoneType},
    "parent_circle": {int, NoneType},
}


def _typed_blocks(records: list):
    """The fields of every block of records, or None; see _typed."""
    columns = _typed(records, _BLOCK_FIELDS)
    if columns is None:
        return None
    piece, level, kind, sheets, caps, inbound, meridians, labels, outbound, parent, parent_circle = columns
    words = [*chain.from_iterable(meridians + labels)]
    entries = [*chain.from_iterable(outbound)]
    if not (_are(words + entries, {list}) and {*map(len, entries)} <= {2}):
        return None
    circles_and_cycles = [*chain.from_iterable(entries)]
    circles, cycles = circles_and_cycles[::2], circles_and_cycles[1::2]
    ints = chain(circles, chain.from_iterable(sheets + caps + [x for x in inbound if x] + words + cycles))
    if not (_are(cycles, {list}) and _are(ints, {int})):
        return None
    # each block's outbound pairs, taken in turn from those of all blocks
    pairs = iter(zip(circles, map(tuple, cycles)))
    return zip(
        piece,
        level,
        kind,
        map(tuple, sheets),
        map(tuple, caps),
        [None if x is None else tuple(x) for x in inbound],
        map(tuple, map(map, repeat(tuple), meridians)),
        map(tuple, map(map, repeat(tuple), labels)),
        map(tuple, map(islice, repeat(pairs), map(len, outbound))),
        parent,
        parent_circle,
    )


def _walk_block(bd: dict, where: str) -> tuple:
    inbound = bd.get("inbound")
    outbound = []
    for j, entry in enumerate(_need(bd, "outbound", list, where)):
        if type(entry) is not list or len(entry) != 2 or type(entry[0]) is not int:
            raise InvalidInput(f"{where}.outbound[{j}] must be [circle, cycle]")
        outbound.append((entry[0], _ints(entry[1], f"{where}.outbound[{j}][1]")))
    parent = _need(bd, "parent", str, where, None)
    parent_circle = _need(bd, "parent_circle", int, where, None)
    return (
        _need(bd, "piece", str, where),
        _need(bd, "level", int, where),
        _need(bd, "kind", str, where),
        _ints(_need(bd, "sheets", list, where), f"{where}.sheets"),
        _ints(_need(bd, "caps", list, where), f"{where}.caps"),
        None if inbound is None else _ints(inbound, f"{where}.inbound"),
        _int_lists(_need(bd, "meridians", list, where), f"{where}.meridians"),
        _int_lists(_need(bd, "labels", list, where), f"{where}.labels"),
        tuple(outbound),
        parent,
        parent_circle,
    )


def layered_from_json(doc: dict) -> LayeredCover:
    from .layered import Block, LayeredCover

    fields = _records(doc, "layered", "blocks", _typed_blocks, _walk_block)
    blocks = tuple(starmap(Block, fields))
    del fields
    depth = _need(doc, "depth", int, "layered")
    # every level holds a block, so no verifiable cover is deeper than its
    # block count; refusing here keeps verify's work bounded by the document
    if depth > len(blocks):
        raise InvalidInput(f"layered.depth {depth} exceeds the {len(blocks)} blocks")
    return LayeredCover(
        depth=depth,
        degree=_need(doc, "degree", int, "layered"),
        blocks=blocks,
    )
