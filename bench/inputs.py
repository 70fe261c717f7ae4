"""Seeded input documents for the plane workload.

Each generator takes the workload seed. The seed relabels circles and
pieces; the shape, and so the work a job does, is the same for every
seed. The same seed gives byte-identical documents.
"""
from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

from coverbench import jsonio
from coverbench.exhaustion import ExhaustionGraph, Piece, normalize
from coverbench.layered import LayeredCover, build_cover, staircase

FAN_ENDS = 160
LADDER_WIDTH = 30
LADDER_DEPTH = 30
STAIRCASE_LEVELS = 800


def _labels(rng: random.Random, n: int, tag: str) -> list[str]:
    """n distinct fixed-width piece ids, so documents keep their size."""
    return [f"{tag}{k}" for k in rng.sample(range(10**7, 10**8), n)]


def fan_exhaustion(seed: int, ends: int = FAN_ENDS) -> ExhaustionGraph:
    """One level-1 piece with `ends` outer circles. Normalization inserts
    a disk below it and peels the circles off by pants splits."""
    rng = random.Random(seed)
    circles = rng.sample(range(1, 1000 * ends), ends)
    (name,) = _labels(rng, 1, "f")
    return ExhaustionGraph((Piece(name, 1, 0, (), tuple(circles)),))


def ladder_exhaustion(
    seed: int, width: int = LADDER_WIDTH, depth: int = LADDER_DEPTH
) -> ExhaustionGraph:
    """A ring of `width` pieces per level above a level-1 root. From level 3
    on, piece i glues to the right circle of piece i and the left circle
    of piece i + 1 (mod width) below, so normalization must tube them."""
    rng = random.Random(seed)
    circle_ids = iter(rng.sample(range(1, 100 * width * depth), width * (2 * depth - 1)))
    names = iter(_labels(rng, width * (depth - 1) + 1, "l"))
    root_out = tuple(next(circle_ids) for _ in range(width))
    pieces = [Piece(next(names), 1, 0, (), root_out)]
    below = []
    for c in root_out:
        out = (next(circle_ids), next(circle_ids))
        pieces.append(Piece(next(names), 2, 0, (c,), out))
        below.append(out)
    for level in range(3, depth + 1):
        current = []
        for i in range(width):
            inner = (below[i][1], below[(i + 1) % width][0])
            out = (next(circle_ids), next(circle_ids))
            pieces.append(Piece(next(names), level, 0, inner, out))
            current.append(out)
        below = current
    return ExhaustionGraph(tuple(pieces))


def staircase_document(seed: int, levels: int = STAIRCASE_LEVELS) -> LayeredCover:
    """The staircase cover with its blocks renamed by the seed."""
    cover = staircase(levels)
    rename = dict(zip((b.piece for b in cover.blocks), _labels(random.Random(seed), levels, "s")))
    blocks = tuple(
        replace(b, piece=rename[b.piece], parent=rename.get(b.parent)) for b in cover.blocks
    )
    return LayeredCover(cover.depth, cover.degree, blocks)


def write_plane_inputs(workdir: Path, seed: int) -> None:
    """Write fan.json, ladder.json, fan-normal.json, fan-cover.json and
    staircase.json into workdir."""
    fan = fan_exhaustion(seed)
    normal = normalize(fan)
    docs = {
        "fan.json": jsonio.exhaustion_to_json(fan),
        "ladder.json": jsonio.exhaustion_to_json(ladder_exhaustion(seed)),
        "fan-normal.json": jsonio.exhaustion_to_json(normal),
        "fan-cover.json": jsonio.layered_to_json(build_cover(normal, normal.stable_depth)),
        "staircase.json": jsonio.layered_to_json(staircase_document(seed)),
    }
    for name, doc in docs.items():
        (workdir / name).write_text(jsonio.dumps(doc))
