"""Exact census counts from the characters of S_d.

Frobenius' formula, in the form given by Mednykh (Sib. Math. J. 25,
1984) and G. A. Jones (Quart. J. Math. 46, 1995), counts the tuples of
a census cell without building S_d. Over a base of Euler characteristic
chi (2 - 2g for o_g, 2 - h for n_h), the tuples whose b meridians are
transpositions number

    (d!)^(1 - chi) * sum over partitions lambda of d of
        (f^lambda)^chi * c(lambda)^b,

which is (d!)^(2g-1) sum (f^lambda)^(2-2g) c(lambda)^b over o_g and
(d!)^(h-1) sum (f^lambda)^(2-h) c(lambda)^b over n_h. Here f^lambda is
the dimension of the irreducible (hook length formula) and c(lambda)
the sum of its contents, which is the central character of the
transpositions. Every irreducible of S_d is real, so the Frobenius-Schur
indicator of the nonorientable formula is 1 throughout. With b = 0 this
counts the homomorphisms of the closed surface group. When the b >= 1
meridians may be any permutation, the last is fixed by the others and
the count is (d!)^(r + b - 1), r = 2 - chi surface generators.

Connected (transitive) counts come from the exponential formula. A
simple tuple splits into its orbits, each transposition lying in
exactly one, so the formula runs over sheets and meridians together.
Without the simple restriction it runs over sheets for free meridians,
and inclusion-exclusion over the meridians forced to be the identity
leaves those with every meridian nontrivial.

All arithmetic is exact: sums of Fractions whose denominators must
cancel to 1.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .surfaces import ClosedSurface, euler_characteristic


def _partitions(d: int, largest: int | None = None):
    """Partitions of d as non-increasing tuples."""
    if d == 0:
        yield ()
        return
    for first in range(min(d, largest or d), 0, -1):
        for rest in _partitions(d - first, first):
            yield (first, *rest)


@lru_cache(maxsize=None)
def _irreducibles(d: int) -> tuple[tuple[int, int], ...]:
    """(f^lambda, c(lambda)) for every partition lambda of d."""
    out = []
    for lam in _partitions(d):
        columns = [sum(1 for row in lam if row > j) for j in range(lam[0] if lam else 0)]
        hooks = 1
        for i, row in enumerate(lam):
            for j in range(row):
                hooks *= row - j + columns[j] - i - 1
        contents = sum(row * (row - 1) // 2 - i * row for i, row in enumerate(lam))
        out.append((factorial(d) // hooks, contents))
    return tuple(out)


def _exact(x: Fraction) -> int:
    assert x.denominator == 1, f"character sum {x} is not an integer"
    return x.numerator


def _simple_homs(chi: int, d: int, b: int) -> int:
    """Tuples over a base of Euler characteristic chi whose b meridians
    are transpositions of S_d; the closed surface's homomorphisms when
    b = 0. There are none when b is odd: a product of commutators or of
    squares is even, and b transpositions multiply to an odd permutation
    (S_0 and S_1 have no transpositions at all)."""
    if b % 2:
        return 0
    total = sum(Fraction(f) ** chi * c**b for f, c in _irreducibles(d))
    return _exact(Fraction(factorial(d)) ** (1 - chi) * total)


def _free_homs(chi: int, d: int, b: int) -> int:
    """Tuples whose b meridians may be any permutation, the identity
    included."""
    if b == 0:
        return _simple_homs(chi, d, 0)
    return factorial(d) ** (1 - chi + b)


def _nontrivial(counts, b: int) -> int:
    """Inclusion-exclusion: counts(k) is the number with k free meridians;
    the result has all b meridians different from the identity."""
    return sum((-1) ** j * comb(b, j) * counts(b - j) for j in range(b + 1))


def hom_count(base: ClosedSurface, d: int, b: int, simple_only: bool = True) -> int:
    """Every valid tuple of the census cell, connected or not: handle
    pairs or crosscaps closing the surface relation with b meridians,
    transpositions when simple_only, else any non-identity permutations."""
    chi = euler_characteristic(base)
    if simple_only:
        return _simple_homs(chi, d, b)
    return _nontrivial(lambda k: _free_homs(chi, d, k), b)


def connected_count(
    base: ClosedSurface, d: int, b: int, simple_only: bool = True
) -> int:
    """The valid tuples of the census cell whose sheets form one orbit:
    the census's total raw count."""
    chi = euler_characteristic(base)
    if simple_only and b % 2:
        return 0  # no tuple at all, see _simple_homs
    if simple_only:
        # split off the orbit of sheet 1: k sheets carrying j of the meridians
        homs = [[_simple_homs(chi, n, m) for m in range(b + 1)] for n in range(d + 1)]
        conn = [[0] * (b + 1) for _ in range(d + 1)]
        for n in range(1, d + 1):
            for m in range(b + 1):
                conn[n][m] = homs[n][m] - sum(
                    comb(n - 1, k - 1) * comb(m, j) * conn[k][j] * homs[n - k][m - j]
                    for k in range(1, n)
                    for j in range(m + 1)
                )
        return conn[d][b]

    def transitive(k: int) -> int:
        homs = [_free_homs(chi, n, k) for n in range(d + 1)]
        conn = [0] * (d + 1)
        for n in range(1, d + 1):
            conn[n] = homs[n] - sum(
                comb(n - 1, m - 1) * conn[m] * homs[n - m] for m in range(1, n)
            )
        return conn[d]

    return _nontrivial(transitive, b)
