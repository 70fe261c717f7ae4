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

More numbers of a simple row follow from these counts. Over any base,
Burnside's lemma counts the conjugation classes of connected tuples
(class_count, which for b = 0 is Mednykh's count of conjugacy classes
of subgroups of index d); over n_h, the orientation double cover counts
the orientable ones (orientable_count), and Burnside's lemma their
classes (orientable_class_count). Riemann-Hurwitz forces one orientable
and one nonorientable candidate total space, so these give the whole row
of a simple cell, or of a cell without branch points, over any base, and
census.enumerate_covers answers it without enumerating.

All arithmetic is in integers (_simple_homs), and a quotient, the
sphere's character sum by d! or Burnside's, that leaves a remainder
raises InvalidData naming the cell.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, gcd

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
def _irreducibles(d: int) -> tuple[tuple[int, int, int], ...]:
    """(f^lambda, its hook product h_lambda, c(lambda)) for every partition lambda of d."""
    out = []
    for lam in _partitions(d):
        columns = [sum(1 for row in lam if row > j) for j in range(lam[0] if lam else 0)]
        hooks = 1
        for i, row in enumerate(lam):
            for j in range(row):
                hooks *= row - j + columns[j] - i - 1
        contents = sum(row * (row - 1) // 2 - i * row for i, row in enumerate(lam))
        out.append((factorial(d) // hooks, hooks, contents))
    return tuple(out)


def _simple_homs(chi: int, d: int, b: int) -> int:
    """Tuples over a base of Euler characteristic chi whose b meridians
    are transpositions of S_d; the closed surface's homomorphisms when
    b = 0. There are none when b is odd: a product of commutators or of
    squares is even, and b transpositions multiply to an odd permutation
    (S_0 and S_1 have no transpositions at all). For chi <= 1 a term
    (d!)^(1 - chi) (f^lambda)^chi c(lambda)^b is the integer
    f^lambda h_lambda^(1 - chi) c(lambda)^b, as h_lambda = d!/f^lambda;
    the sphere's sum of (f^lambda)^2 c(lambda)^b is divided by d! once."""
    if b % 2:
        return 0
    if chi <= 1:
        return sum(f * h ** (1 - chi) * c**b for f, h, c in _irreducibles(d))
    total = sum(f * f * c**b for f, _, c in _irreducibles(d))
    homs, rest = divmod(total, factorial(d))
    if rest:
        sums = f"the characters give {total}/{factorial(d)} tuples"
        raise InvalidData(f"census cell (sphere, degree {d}, {b} branch points): {sums}, not an integer")
    return homs


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
        # (odd counts of meridians have none), with Pascal's row of m
        homs = [[_simple_homs(chi, n, m) for m in range(b + 1)] for n in range(d + 1)]
        conn = [[0] * (b + 1) for _ in range(d + 1)]
        row = [1]
        for m in range(b + 1):
            row = [1, *(x + y for x, y in zip(row, row[1:])), 1] if m else row
            for n in range(1, d + 1) if m % 2 == 0 else ():
                conn[n][m] = homs[n][m] - sum(
                    comb(n - 1, k - 1) * row[j] * conn[k][j] * homs[n - k][m - j]
                    for k in range(1, n)
                    for j in range(0, m + 1, 2)
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
    """The conjugation classes of connected simple tuples of a cell, by
    Burnside's lemma (_burnside)."""
    return _burnside(base, d, b, False)


def orientable_class_count(base: ClosedSurface, d: int, b: int) -> int:
    """The conjugation classes of connected simple tuples over n_h whose
    total space is orientable, by Burnside's lemma (_burnside)."""
    return _burnside(base, d, b, True)


def _mobius(n: int) -> int:
    """The Moebius function: (-1)^r if n >= 1 is a product of r distinct
    primes, else 0."""
    mu, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return mu


def _epimorphisms(l: int, chi: int, orientable: bool, orientable_kernel: bool) -> int:
    """|Epi(pi_1 X, Z_l)| for a closed surface X of Euler characteristic
    chi, by Moebius inversion over the subgroups Z_k of Z_l of the
    homomorphisms into them: k^(2 - chi) over o_g, and gcd(2, k) k^(1 - chi)
    over n_h, whose h = 2 - chi crosscaps go to x_i with 2 sum x_i = 0.
    With orientable_kernel, over n_h, only those whose kernel is
    orientable: reduced mod 2 they give the orientation character, every
    x_i odd. That needs l/k odd and k = 2j, and then sum x_i = 0 mod j:
    j^(h - 1) for odd j, 2 j^(h - 1) for even j and h, none for even j
    and odd h."""
    h = 2 - chi

    def homs(k: int) -> int:
        if orientable:
            return k ** (2 - chi)
        if not orientable_kernel:
            return gcd(2, k) * k ** (h - 1)
        j, odd = divmod(k, 2)
        if odd or l // k % 2 == 0:
            return 0
        if j % 2:
            return j ** (h - 1)
        return 2 * j ** (h - 1) if h % 2 == 0 else 0

    return sum(_mobius(l // k) * homs(k) for k in range(1, l + 1) if l % k == 0)


def _burnside(base: ClosedSurface, d: int, b: int, orientable: bool) -> int:
    """The conjugation classes of the connected simple tuples of a cell,
    or over n_h, with orientable, of those whose total space is
    orientable: the average, over the d! conjugators z, of the tuples z
    fixes.

    A tuple z fixes commutes with z entry by entry. The centraliser of a
    transitive tuple acts freely on the sheets, so a z fixing one has
    cycle type l^m for some d = l m, and there are d!/(l^m m!) such z.
    The identity fixes all of them, connected_count or orientable_count.
    For l >= 2 a tuple fixed by z is a cyclic cover X -> X' of degree l,
    z its deck transformation, over the quotient X', a connected cover of
    degree m (chi' = m chi). X' is unbranched: a z without fixed points
    commuting with a transposition (a c) swaps a and c. Each of the
    connected_count(base, m, 0) tuples of X' and each such X -> X' give
    l^(m - 1) tuples fixed by z, one per labelling of the sheets over
    each sheet of X' but the first. Counting the X -> X':

    - b = 0: X -> X' is unbranched, so it is an epimorphism
      pi_1 X' -> Z_l (_epimorphisms). X is orientable when X' is and,
      over a nonorientable X', when the kernel is orientable.
    - b >= 2: z swaps the two sheets of each meridian, so l = 2, and
      X -> X' is a double cover branched at one of the m lifts of each
      branch point: m^b choices, times the 2^(2 - m chi) elements of
      H^1(X'; Z/2). The orientation character is trivial on the
      meridians, while the double cover's monodromy around each of them
      is not, so X is orientable exactly when X' is.

    Summed over the orientable and nonorientable X' (orientable_count and
    the rest of connected_count over n_h), with b = 0 this is Mednykh's
    count of conjugacy classes of subgroups of index d (J. Algebra 320,
    2008; Sib. Math. J. 27, 1986, over n_h). A power 2^(2 - m chi) or
    k^(1 - chi) is a fraction only for a surface X' that does not exist,
    and such terms are skipped, so the arithmetic stays in integers. A
    remainder means the counts are wrong and raises InvalidData naming
    the cell."""
    if b % 2:
        return 0  # no tuple at all, see _simple_homs
    chi = euler_characteristic(base)
    total = orientable_count(base, d, b) if orientable else connected_count(base, d, b)
    for l in range(2, d + 1 if b == 0 else 3):
        m = d // l
        covers = connected_count(base, m, 0) if m * l == d else 0
        if not covers:
            continue
        up = covers if base.orientable else orientable_count(base, m, 0)
        if b:
            fixed = (up if orientable else covers) * m**b * 2 ** (2 - m * chi)
        else:
            quotients = ((True, up), (False, covers - up))
            fixed = sum(
                n * _epimorphisms(l, m * chi, o, orientable) for o, n in quotients if n
            )
        total += factorial(d) // (l**m * factorial(m)) * l ** (m - 1) * fixed
    classes, rest = divmod(total, factorial(d))
    if rest:
        what = "orientable conjugation classes" if orientable else "conjugation classes"
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
