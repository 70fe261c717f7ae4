"""Permutations on {0, ..., n-1} with left-to-right composition.

Everything downstream reads words left to right: compose(p, q) is the
permutation "apply p, then q", i.e. compose(p, q)(i) == q(p(i)).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import eq, ne
from typing import Iterable, Sequence

from .errors import DegreeMismatch


@dataclass(frozen=True)
class Perm:
    """A bijection of {0, ..., n-1}, stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(int(i) for i in self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ValueError(f"not a bijection of range({n}): {images!r}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def cycles(self, *, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each rotated to start at its least point,
        listed in increasing order of that least point."""
        n = self.degree
        seen = [False] * n
        out: list[tuple[int, ...]] = []
        starts = range(n) if include_fixed else compress(range(n), map(ne, self.images, range(n)))
        for start in starts:
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def is_identity(self) -> bool:
        return all(map(eq, self.images, range(self.degree)))


def identity(n: int) -> Perm:
    return Perm(tuple(range(n)))


def compose(p: Perm, q: Perm) -> Perm:
    """Left-to-right product: first p, then q."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degree {p.degree} vs {q.degree}")
    return Perm(tuple(q.images[p.images[i]] for i in range(p.degree)))


def inverse(p: Perm) -> Perm:
    images = [0] * p.degree
    for i, j in enumerate(p.images):
        images[j] = i
    return Perm(tuple(images))


def transposition(n: int, a: int, b: int) -> Perm:
    if not (0 <= a < n and 0 <= b < n) or a == b:
        raise ValueError(f"bad transposition ({a} {b}) on range({n})")
    images = list(range(n))
    images[a], images[b] = b, a
    return Perm(tuple(images))


def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> Perm:
    """Build a permutation of range(n) from disjoint cycles."""
    images = list(range(n))
    touched: set[int] = set()
    for cyc in cycles:
        for k, i in enumerate(cyc):
            if not 0 <= i < n:
                raise ValueError(f"cycle entry {i} outside range({n})")
            if i in touched:
                raise ValueError(f"cycles are not disjoint at {i}")
            touched.add(i)
            images[i] = cyc[(k + 1) % len(cyc)]
    return Perm(tuple(images))


def orbits(gens: Sequence[Perm], n: int) -> list[tuple[int, ...]]:
    """Orbits of {0, ..., n-1} under the group generated by gens,
    each sorted, listed in increasing order of least element."""
    for g in gens:
        if g.degree != n:
            raise DegreeMismatch(f"generator degree {g.degree} vs {n}")
    seen = [False] * n
    out: list[tuple[int, ...]] = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for g in gens:
                j = g.images[i]
                # forward images suffice: permutations have finite order
                if not seen[j]:
                    seen[j] = True
                    orbit.append(j)
                    frontier.append(j)
        out.append(tuple(sorted(orbit)))
    return out
