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

More numbers of a simple row follow from these counts. Over any base
and for b >= 2, Burnside's lemma counts the conjugation classes of
connected tuples (class_count); over n_h, the orientation double cover
counts the orientable ones (orientable_count), and Burnside's lemma
their classes (orientable_class_count). Riemann-Hurwitz forces one
orientable and one nonorientable candidate total space, so these give a
simple cell's whole row for b >= 2 over any base, and
census.enumerate_covers answers it without enumerating. Without branch
points, orientable_count still checks what the census enumerates over
n_h.

All arithmetic is exact: sums of Fractions whose denominators must
cancel to 1, and integer quotients that must leave no remainder.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import InvalidData
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
    return _connected(euler_characteristic(base), d, b, simple_only)


@lru_cache(maxsize=None)
def _connected(chi: int, d: int, b: int, simple_only: bool) -> int:
    """connected_count, which depends on the base only through chi; cached,
    as admission and class_count ask for the same cell."""
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


def class_count(base: ClosedSurface, d: int, b: int) -> int:
    """The conjugation classes of connected simple tuples of a cell with
    b >= 2 branch points, by Burnside's lemma: the average, over the d!
    conjugators z, of the connected tuples z fixes.

    A tuple z fixes commutes with z entry by entry. The centraliser of a
    transitive tuple acts freely on the sheets, so a z != 1 fixing one is
    semiregular; since it also commutes with a transposition (a b), it
    swaps a and b. So only the d!/(2^m m!) fixed-point-free involutions z
    of d = 2m contribute (at b = 0 longer cycles contribute too, and this
    count does not apply). A tuple fixed by z is a double cover of the
    quotient X' by z, a connected unbranched cover of degree m (chi' =
    m chi), branched at one of the m lifts of each branch point. So

        classes = (connected_count(base, d, b) + [d = 2m] d!/(2^m m!)
                   * connected_count(base, m, 0) * m^b * 2^(2 - m chi)
                   * 2^(m - 1)) / d!,

    where 2^(2 - m chi) is the number of elements of H^1(X'; Z/2).

    2^(2 - m chi) * 2^(m - 1) = 2^(1 + m (1 - chi)) is a fraction only
    over the sphere with m >= 2, which has no connected unbranched cover
    of degree m, so the arithmetic stays in integers. A remainder means
    the counts are wrong and raises InvalidData naming the cell."""
    return _burnside(base, d, b, connected_count, "conjugation classes")


def orientable_class_count(base: ClosedSurface, d: int, b: int) -> int:
    """The conjugation classes of connected simple tuples over n_h, b >= 2,
    whose total space is orientable: class_count's sum over the tuples
    orientable_count counts.

    A tuple fixed by a fixed-point-free involution z is the double cover
    of its quotient X' described in class_count. The orientation
    character is trivial on the meridians, while the double cover's
    monodromy around each of them is not, so the cover is orientable
    exactly when X' is; and H^1(X'; Z/2) has 2^(2 - m chi) elements
    either way. So the formula is class_count's with orientable_count in
    place of connected_count, the unbranched quotients included:

        (orientable_count(base, d, b) + [d = 2m] d!/(2^m m!)
         * orientable_count(base, m, 0) * m^b * 2^(1 + m (1 - chi))) / d!.
    """
    return _burnside(base, d, b, orientable_count, "orientable conjugation classes")


def _burnside(base: ClosedSurface, d: int, b: int, count, what: str) -> int:
    """Burnside's class count of the connected simple tuples that
    count(base, n, b) counts, for class_count and orientable_class_count."""
    if b < 2:
        raise ValueError(f"the class count needs b >= 2 branch points, got {b}")
    if b % 2:
        return 0  # no tuple at all, see _simple_homs
    chi = euler_characteristic(base)
    total = count(base, d, b)
    m = d // 2
    quotients = count(base, m, 0) if d % 2 == 0 else 0
    if quotients:
        involutions = factorial(d) // (2**m * factorial(m))
        total += involutions * quotients * m**b * 2 ** (1 + m * (1 - chi))
    classes, rest = divmod(total, factorial(d))
    if rest:
        raise InvalidData(
            f"census cell ({base.name}, degree {d}, {b} branch points): Burnside's "
            f"lemma gives {total}/{factorial(d)} {what}, not an integer"
        )
    return classes


def orientable_count(base: ClosedSurface, d: int, b: int) -> int:
    """The connected simple tuples over n_h whose total space is
    orientable.

    A connected cover is orientable exactly when it factors through the
    orientation double cover o_(h-1) of the base. Then its d = 2m sheets
    split into two halves of m, which every crosscap swaps and every
    meridian keeps, and the split is unique. Counting the splits, the
    matchings of the two halves, the lift of each branch point to
    o_(h-1) that carries its transposition and the connected degree-m
    covers of o_(h-1) branched there gives

        C(2m, m)/2 * m! * 2^b * connected_count(o_(h-1), m, b),

    and 0 for odd d."""
    if base.orientable:
        raise ValueError(f"the orientable count needs a nonorientable base, got the {base.name}")
    if d % 2:
        return 0
    m = d // 2
    cover = ClosedSurface(True, base.genus - 1)
    return comb(d, m) // 2 * factorial(m) * 2**b * connected_count(cover, m, b)
