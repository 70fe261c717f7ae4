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
counts the homomorphisms of the closed surface group.

When the meridians may be any permutation (--all), c(lambda)^b becomes
P_lambda(t)^b, with P_lambda(t) the product of 1 + c t over the contents
c of lambda's boxes, the content evaluation of the Schur function
(Macdonald, Symmetric Functions and Hall Polynomials, ch. I): the sum of
chi^lambda(s) t^(d - cyc s) over s in S_d is f^lambda P_lambda(t). So
the count is graded by the total ramification V, the sum of d - cyc
over the meridians, and Riemann-Hurwitz reads each total space's Euler
characteristic d chi - V off its grade. c(lambda) is P_lambda's linear
coefficient, so a simple cell is the grade V = b of the same count.

Connected (transitive) counts come from the exponential formula. A
simple tuple splits into its orbits, each transposition lying in
exactly one, so the formula runs over sheets and meridians together.
With any meridians it runs over sheets, on products Q of content
polynomials (_connected_keys); as every count is then a sum of terms
a_Q Q(t)^b, inclusion-exclusion over the meridians forced to be the
identity turns each Q^b into (Q - 1)^b.

More numbers of a row follow from these counts. Over any base,
Burnside's lemma counts the conjugation classes of connected tuples
(for b = 0 Mednykh's count of conjugacy classes of subgroups of index
d); over n_h, the orientation double cover counts the orientable ones,
and Burnside's lemma their classes. For a simple cell, or a cell without
branch points, Riemann-Hurwitz leaves one orientable and one
nonorientable candidate total space; with any meridians each grade V
has its own pair. Either way these give the whole row of every census
cell, and census.enumerate_covers answers it without enumerating.

All arithmetic is in integers, and a quotient, the sphere's character
sum by d!, Burnside's by d! or a count's by the powers its terms were
scaled by, that leaves a remainder raises InvalidData naming the cell.
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


def _cell(base: ClosedSurface, d: int, b: int) -> str:
    return f"census cell ({base.name}, degree {d}, {b} branch points)"


def _exact(n: int, q: int, cell: str, what: str, noun: str) -> int:
    """n / q, which must leave no remainder: one names the cell."""
    count, rest = divmod(n, q)
    if rest:
        raise InvalidData(f"{cell}: {what} {n}/{q} {noun}, not an integer")
    return count


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
    return _exact(total, factorial(d), f"census cell (sphere, degree {d}, {b} branch points)",
                  "the characters give", "tuples")


@lru_cache(maxsize=None)
def _free_homs(chi: int, d: int) -> dict[tuple[int, ...], int]:
    """The tuples whose meridians may be any permutation, the identity
    included, by their grade: d! times their number with b meridians is
    the sum of a_Q Q(t)^b over this map's items, Q = P_lambda keyed by
    lambda's nonzero contents (a content 0 adds the factor 1) and
    a_Q = (d!)^(2 - chi) (f^lambda)^chi = (f^lambda)^2 h_lambda^(2 - chi).
    At t = 1 only P_(d) = d! is not 0, so the coefficients sum to
    (d!)^(1 - chi + b)."""
    return {
        tuple(sorted(j - i for i, row in enumerate(lam) for j in range(row) if j != i)): f * f * h ** (2 - chi)
        for lam, (f, h, _) in zip(_partitions(d), _irreducibles(d))
    }


@lru_cache(maxsize=None)
def _connected_keys(chi: int, d: int) -> dict[tuple[int, ...], int]:
    """The transitive tuples of _free_homs, in its form: the exponential
    formula, splitting off the orbit of sheet 1 (k sheets), on d! times
    the counts, so that a product of two keys is their merged contents."""
    conn = dict(_free_homs(chi, d))
    for k in range(1, d):
        scale = comb(d - 1, k - 1) * comb(d, k)
        rest = _free_homs(chi, d - k).items()
        for key, a in _connected_keys(chi, k).items():
            for other, w in rest:
                merged = tuple(sorted(key + other))
                conn[merged] = conn.get(merged, 0) - scale * a * w
    return {key: a for key, a in conn.items() if a}


@lru_cache(maxsize=None)
def _orientable_keys(chi: int, d: int) -> dict[tuple[int, ...], int]:
    """The transitive tuples over n_h (chi = 2 - h) whose total space is
    orientable, in _free_homs' form: orientable_count's argument with each
    meridian acting on both halves, so at the two lifts of its point to
    o_(h-1): C(d, d/2)/2 (d/2)! times the degree-d/2 covers of o_(h-1)
    with two meridians per point, each key taken twice. None for odd d."""
    if d % 2:
        return {}
    m = d // 2
    scale = factorial(d) * comb(d, m) // 2
    return {tuple(sorted(key + key)): scale * a for key, a in _connected_keys(2 * chi, m).items()}


def _mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, c in enumerate(q):
                out[i + j] += a * c
    return out


def _add(acc: list[int], p: list[int], scale: int = 1) -> None:
    acc.extend([0] * (len(p) - len(acc)))
    for i, a in enumerate(p):
        acc[i] += scale * a


def _power(p: list[int], n: int) -> list[int]:
    """p(t)^n: below the lowest nonzero coefficient u_0 of p, by
    J. C. P. Miller's recurrence k u_0 a_k = sum ((n + 1) i - k) u_i a_(k-i),
    whose quotients are exact, as every a_k is an integer."""
    if n == 0:
        return [1]
    low = next((i for i, a in enumerate(p) if a), None)
    if low is None:
        return []
    u = p[low:]
    while not u[-1]:
        u.pop()
    a = [u[0] ** n]
    for k in range(1, n * (len(u) - 1) + 1):
        top = min(k, len(u) - 1)
        a.append(sum(((n + 1) * i - k) * u[i] * a[k - i] for i in range(1, top + 1)) // (k * u[0]))
    return [0] * (low * n) + a


def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


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


def _punctures(l: int, k: int, r: int) -> list[int]:
    """The sum over values v in Z_k of t^(l - (l/k) gcd(v, k)) e^(2 pi i r v/k).
    A puncture of value v, in Z_k inside Z_l, lies over a k'-cycle of a
    meridian whose labels sum to (l/k) v, which lifts to gcd((l/k) v, l)
    cycles of length k' l / gcd: its ramification is l k' minus that gcd,
    and l k' is counted by the quotient's grade. The values with
    gcd(v, k) = g sum e^(2 pi i r v/k) to Ramanujan's sum c_(k/g)(r)."""
    w = [0] * l
    for g in _divisors(k):
        q = k // g
        w[l - l // k * g] += sum(_mobius(q // e) * e for e in _divisors(q) if r % e == 0)
    return w


def _epimorphisms(l: int, orientable: bool, orientable_kernel: bool):
    """|Epi(pi_1(X minus N points), Z_l)| for a closed surface X of Euler
    characteristic chi, graded by the punctures (_punctures), as terms
    (c, B, w): the sum of c B^(1 - chi) w(t)^N. It is a Moebius inversion
    over the subgroups Z_k of Z_l of the homomorphisms into them, whose
    puncture values v sum with the generators' to the relation: sum v = 0
    over o_g, k^(2g) times (1/k) sum_r w_r^N over the characters r of
    Z_k; 2 sum x_i + sum v = 0 over n_h, k^(h - 1) times w_r^N summed
    over r = 0 and, for even k, r = k/2, the roots of 2s = -sum v. With
    orientable_kernel, over n_h, only those whose kernel is orientable:
    reduced mod 2 they give the orientation character, every x_i odd and
    every v even. That needs l/k odd and k = 2j, and the halves of x_i
    - 1 and v then sum to -h/2 mod j: j^(h - 1) times w_r^N over Z_j for
    r = 0 and, for even j, (-1)^h for r = j/2, the term (-1, -j). With
    N = 0 the count is k^(2 - chi), gcd(2, k) k^(1 - chi), and for the
    orientable kernel j^(h - 1), 2 j^(h - 1) for even j and h, none for
    even j and odd h."""
    terms = []
    for k in _divisors(l):
        mu = _mobius(l // k)
        if not mu:
            continue
        if orientable:
            terms += [(mu * sum(1 for x in range(k // e) if gcd(x, k // e) == 1), k, _punctures(l, k, e))
                      for e in _divisors(k)]
        elif not orientable_kernel:
            terms += [(mu, k, _punctures(l, k, r)) for r in {0, k // 2 * (1 - k % 2)}]
        elif k % 2 == 0 and l // k % 2:
            j = k // 2
            terms.append((mu, j, _punctures(l, j, 0)))
            if j % 2 == 0:
                terms.append((-mu, -j, _punctures(l, j, j // 2)))
    return terms


def _quotients(base: ClosedSurface, m: int, b: int):
    """The connected degree-m covers X' of the base with b meridians,
    (X' orientable, its tuples in _free_homs' form). Without branch
    points only their number matters, m! times the closed-form count."""
    if b == 0:
        covers = connected_count(base, m, 0)
        up = covers if base.orientable else orientable_count(base, m, 0)
        quotients = ((True, {(): factorial(m) * up}), (False, {(): factorial(m) * (covers - up)}))
    else:
        chi = euler_characteristic(base)
        every = _connected_keys(chi, m)
        up = every if base.orientable else _orientable_keys(chi, m)
        down = {key: every.get(key, 0) - up.get(key, 0) for key in every.keys() | up.keys()}
        quotients = ((True, up), (False, {key: a for key, a in down.items() if a}))
    return [(o, keys) for o, keys in quotients if any(keys.values())]


def _content_poly(key: tuple[int, ...]) -> list[int]:
    q = [1]
    for c in key:
        q = _mul(q, [1, c])
    return q


@lru_cache(maxsize=None)
def _fixed(base: ClosedSurface, d: int, b: int, l: int, orientable: bool) -> list[int]:
    """The connected tuples of a cell of any meridians, or of one without
    branch points, fixed by one conjugator z of cycle type l^m (d = l m),
    by their grade V; with orientable, over n_h, those whose total space
    is orientable. l = 1 is the cell's raw count.

    A tuple z fixes commutes with z, so it lies in Z_l wr S_m: it is a
    cyclic cover X -> X' of degree l, z its deck transformation, over the
    quotient X', a connected degree-m cover of the base, whose tuples in
    S_m may have identity meridians. Each of its tuples and each such
    X -> X' give l^(m - 1) tuples fixed by z, one per labelling of the
    sheets over each sheet of X' but the first. Each cycle of a meridian
    of X' is a point of X' over its branch point, N = m b - V' of them,
    and the tuple's meridian acts on the sheets over it as a lift of the
    cycle, so X -> X' is an epimorphism onto Z_l from pi_1 of X' minus
    these N punctures (_epimorphisms), and V is l V' plus the punctures'
    grade. X is orientable when X' is and, over
    a nonorientable X', when the kernel is orientable.

    Summed over X' in _free_homs' form, a term c B^(1 - chi') w^N of
    _epimorphisms, with chi' = m chi - V', turns the grade t^V' of X' into
    (B t^l)^V' w^(m b - V'), so each key Q of X' becomes
    R(t) = w^m Q(B t^l / w), a polynomial as Q has degree below m, and
    B^(1 - m chi) is taken out once. Inclusion-exclusion over the
    meridians forced to be the identity then turns R^b into (R - 1)^b: a
    meridian of the tuple is the identity exactly when its quotient is
    and its punctures have value 0, the terms of R without t. Without
    branch points this is Mednykh's count (J. Algebra 320, 2008; Sib.
    Math. J. 27, 1986, over n_h). A remainder of the quotient by B and m!
    means the counts are wrong and raises InvalidData naming the cell."""
    m = d // l
    sums: dict[int, list[int]] = {}
    for up, keys in _quotients(base, m, b):
        for c, B, w in _epimorphisms(l, up, orientable and not up):
            acc = sums.setdefault(B, [])
            if not b:
                _add(acc, [c * sum(keys.values())])
                continue
            powers = [[1]]
            for _ in range(m):
                powers.append(_mul(powers[-1], w))
            for key, a in keys.items():
                r = [0] * (d + 1)
                for i, q in enumerate(_content_poly(key)):
                    for j, x in enumerate(powers[m - i]):
                        r[l * i + j] += q * B**i * x
                r[0] -= 1
                _add(acc, _power(r, b), c * a)
    fixed: list[int] = []
    exponent = 1 - m * euler_characteristic(base)
    for B, acc in sums.items():
        scale, quotient = (B**exponent, factorial(m)) if exponent >= 0 else (1, factorial(m) * B**-exponent)
        what = f"a conjugator of cycle type {l}^{m} fixes"
        _add(fixed, [_exact(n * scale, quotient, _cell(base, d, b), what, f"tuples of grade {V}")
                     for V, n in enumerate(acc)])
    return fixed


def connected_count(
    base: ClosedSurface, d: int, b: int, simple_only: bool = True
) -> int:
    """The valid tuples of the census cell whose sheets form one orbit:
    the census's total raw count."""
    if simple_only or b == 0:
        return _connected(euler_characteristic(base), d, b)
    return sum(_fixed(base, d, b, 1, False))


@lru_cache(maxsize=None)
def _connected(chi: int, d: int, b: int) -> int:
    """connected_count of a simple cell, which depends on the base only
    through chi; cached, as the census and class_counts ask for the same
    cell. It splits off the orbit of sheet 1: k sheets carrying j of the
    meridians (odd counts of meridians have none), with Pascal's row of
    m."""
    if b % 2:
        return 0  # no tuple at all, see _simple_homs
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


def raw_counts(
    base: ClosedSurface, d: int, b: int, simple_only: bool = True, orientable: bool = False
) -> list[int]:
    """The connected tuples of a cell by their total ramification V, a
    simple cell's all at V = b; with orientable, over n_h, those whose
    total space is orientable."""
    if simple_only or b == 0:
        return [0] * b + [orientable_count(base, d, b) if orientable else connected_count(base, d, b)]
    return _fixed(base, d, b, 1, orientable)


def class_count(base: ClosedSurface, d: int, b: int) -> int:
    """The conjugation classes of connected simple tuples of a cell, by
    Burnside's lemma (class_counts)."""
    return class_counts(base, d, b)[b]


def orientable_class_count(base: ClosedSurface, d: int, b: int) -> int:
    """The conjugation classes of connected simple tuples over n_h whose
    total space is orientable, by Burnside's lemma (class_counts)."""
    return class_counts(base, d, b, True, True)[b]


def class_counts(
    base: ClosedSurface, d: int, b: int, simple_only: bool = True, orientable: bool = False
) -> list[int]:
    """The conjugation classes of raw_counts, by Burnside's lemma: the
    average, over the d! conjugators z, of the tuples z fixes.

    A tuple z fixes commutes with z entry by entry. The centraliser of a
    transitive tuple acts freely on the sheets, so a z fixing one has
    cycle type l^m for some d = l m, and there are d!/(l^m m!) such z.
    _fixed counts the tuples each fixes, the identity's being the raw
    count. For a simple cell with b >= 2 only l <= 2 fixes any: z swaps
    the two sheets of each meridian, and X -> X' is a double cover of an
    unbranched X' (_fixed) branched at one of the m lifts of each branch
    point: m^b choices, times the 2^(2 - m chi) elements of
    H^1(X'; Z/2). The orientation character is trivial on the meridians,
    while the double cover's monodromy around each of them is not, so X
    is orientable exactly when X' is. A power 2^(2 - m chi) is a fraction
    only for a surface X' that does not exist, and such terms are
    skipped, so the arithmetic stays in integers. A remainder means the
    counts are wrong and raises InvalidData naming the cell."""
    if simple_only and b % 2:
        return [0] * (b + 1)  # no tuple at all, see _simple_homs
    chi = euler_characteristic(base)
    total = [0] * (b + 1)
    for l in _divisors(d):
        m = d // l
        if not (simple_only and b):
            fixed = _fixed(base, d, b, l, orientable)
        elif l == 1:
            fixed = raw_counts(base, d, b, True, orientable)
        elif l == 2 and connected_count(base, m, 0):
            covers = connected_count(base, m, 0)
            up = covers if base.orientable else orientable_count(base, m, 0)
            fixed = [0] * b + [(up if orientable else covers) * m**b * 2 ** (2 - m * chi)]
        else:
            continue
        _add(total, fixed, factorial(d) // (l**m * factorial(m)) * l ** (m - 1))
    noun = "orientable conjugation classes" if orientable else "conjugation classes"
    return [_exact(n, factorial(d), _cell(base, d, b), "Burnside's lemma gives", noun) for n in total]


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
