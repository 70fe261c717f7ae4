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

One route counts every cell. A product Q of content polynomials is
keyed by the first T power sums of its contents (_key), from which
Newton's identities give Q's coefficients up to t^T, and every count is
taken modulo t^(T + 1): T = d for a cell of any meridians, whose Q have
degree below d, so nothing is cut; T = 1 for a simple cell, whose key
is c(lambda); T = 0 for a cell without branch points, where only the
number of tuples is left. Connected (transitive) counts come from the
exponential formula over sheets, on these keys (_connected_keys): the
key of a product is the sum of the keys. Every count is then a sum of
terms a_Q Q(t)^b, and inclusion-exclusion over the meridians forced to
be the identity turns each Q^b into (Q - 1)^b. As Q - 1 has no constant
term, the grade V = b of (Q - 1)^b is Q's linear coefficient to the b,
so the cut at T = 1 is exact for the one grade a simple cell has.

More numbers of a row follow from these counts. Over any base,
Burnside's lemma counts the conjugation classes of connected tuples
(for b = 0 Mednykh's count of conjugacy classes of subgroups of index
d); over n_h, the orientation double cover counts the orientable ones,
and Burnside's lemma their classes. Each grade V has one orientable and
one nonorientable candidate total space. These give the whole row of
every census cell, and census.enumerate_covers answers it without
enumerating, once sums_cost, the price of these sums, admits it.

All arithmetic is in integers, and a quotient, Burnside's by d! or a
count's by the powers its terms were scaled by (the sphere's character
sum by d! among them), that leaves a remainder raises InvalidData
naming the cell.
"""
from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import chain
from math import comb, factorial, gcd, isqrt, prod
from operator import add, itemgetter, mul

from .errors import STEP_BUDGET, InvalidData
from .surfaces import ClosedSurface, euler_characteristic

# Prices for errors.admit, which census._admit_cells applies. The key
# steps: the hook lengths of the partitions of every n <= d, d/2 steps
# each, and once T >= 1 as many again for its contents and key, w^2 times
# as much, so a cell whose count may be long cannot take long sums before
# its digits are checked; and a step a word of _POWER_BITS bits of the
# coefficients, (|chi| + 1) log2 n! bits, for each merge of keys in the
# exponential formula (_partition_table), over n_h also those of the
# orientable keys at 2 chi. Every cell up to degree d shares them. The
# power steps: _KEY_STEPS for each keyed product Q, the power of w words
# of its lowest coefficient that starts (R - 1)^b, and Miller's
# recurrence, D = min(T, d - 1) products of one word by w for each
# further coefficient. Fitted on 490 whole CLI runs at and around the
# edges (2-core Xeon, Python 3.11): 0.26 to 1.6 us a step over 1 s. Above
# the interpreter a cell peaks at 31 bytes a step for s2/3/6151 --all, 8
# for torus/39/0 and under 2 for simple cells with branch points and the
# parity audit.
_KEY_STEPS = 32
_POWER_BITS = 2048


def _partitions(d: int):
    """Partitions of d as non-increasing tuples, the largest first: each
    lowers the last part above 1 by one and spreads what follows it over
    parts no larger."""
    part = [d] if d else []
    while True:
        yield tuple(part)
        ones = 0
        while part and part[-1] == 1:
            part.pop()
            ones += 1
        if not part:
            return
        k = part.pop() - 1
        q, r = divmod(ones + 1, k)
        part += [k] * (q + 1) + [r] * (r > 0)


@lru_cache(maxsize=None)
def _irreducibles(d: int) -> tuple[tuple[int, int], ...]:
    """(f^lambda, its hook product h_lambda) for every partition lambda of d."""
    out = []
    for lam in _partitions(d):
        columns, i = [], len(lam)
        for j in range(lam[0] if lam else 0):
            while lam[i - 1] <= j:
                i -= 1
            columns.append(i)
        # the box (i, j) has hook length (row - j - i - 1) + columns[j]
        hooks = prod(prod(map(add, range(row - i - 1, -i - 1, -1), columns)) for i, row in enumerate(lam))
        out.append((factorial(d) // hooks, hooks))
    return tuple(out)


def _cell(base: ClosedSurface, d: int, b: int) -> str:
    return f"census cell ({base.name}, degree {d}, {b} branch points)"


@lru_cache(maxsize=None)
def _partition_table() -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Row n: p(0) + ... + p(n), and for keys cut at T = 0, 1 and past n
    bounds on the keys of degree n (one, n(n - 1) + 1 content sums, and
    p(n) (isqrt(p(n)) + 1) products Q) and on the merges up to degree n
    (_connected_keys), the keys of degree k by the at most p(n' - k) of
    _free_homs for k < n' <= n. p(n) is Euler's pentagonal recurrence.
    No cell is admitted past the first n whose sum passes STEP_BUDGET."""
    p, free, table = [1], [(1, 1, 1)], [(1, (1, 1, 1), (0, 0, 0))]
    while table[-1][0] <= STEP_BUDGET:
        n = len(p)
        terms = ((k, n - k * (3 * k + s) // 2) for k in range(1, isqrt(n) + 2) for s in (-1, 1))
        p.append(sum((-1) ** (k + 1) * p[m] for k, m in terms if m >= 0))
        free.append((1, min(p[n], n * (n - 1) + 1), p[n]))
        keys = (1, min(p[n] * (isqrt(p[n]) + 1), n * (n - 1) + 1), p[n] * (isqrt(p[n]) + 1))
        merges = [sum(table[k][1][j] * free[n - k][j] for k in range(1, n)) for j in range(3)]
        table.append((table[-1][0] + p[n], keys, tuple(map(add, table[-1][2], merges))))
    return table


def sums_cost(base: ClosedSurface, d: int, b: int, simple_only: bool) -> tuple[int, int]:
    """The key steps and the power steps of a cell's sums (see the prices
    above), none for a simple cell with odd b, which has no tuple. The
    table is read up to d or until the key steps alone pass the budget,
    so a huge degree is priced at once, its powers not."""
    if simple_only and b % 2:
        return 0, 0
    T = cut(d, b, simple_only)
    per_partition = d * (1 + min(T, 1)) // 2
    table = _partition_table()
    n = min(d, bisect_right(table, STEP_BUDGET // per_partition, key=itemgetter(0))) if per_partition else d
    partitions, keys, _ = table[n]
    kind, chi = min(T, 2), abs(euler_characteristic(base))
    degrees = [(n, chi)] if base.orientable or n % 2 else [(n, chi), (n // 2, 2 * chi)]
    merge_steps = sum(
        table[m][2][kind] * (1 + (c + 1) * (factorial(m) - 1).bit_length() // _POWER_BITS) for m, c in degrees
    )
    powers = 0  # bits of the largest power: (d!)^(|chi| + 1) and Q(1)^b, or c^b
    if n == d:
        largest = factorial(d) if T > 1 else d * (d - 1) // 2
        powers = (chi + 1) * (factorial(d) - 1).bit_length() + b * (largest - 1).bit_length()
    words = 1 + powers // _POWER_BITS
    D = min(T, d - 1)
    key_steps = per_partition * partitions * words**2 + merge_steps
    power_steps = keys[kind] * (_KEY_STEPS + words + b * (D - 1) * D) * words
    return key_steps, power_steps


def _exact(n: int, q: int, cell: str, what: str, noun: str) -> int:
    """n / q, which must leave no remainder: one names the cell."""
    count, rest = divmod(n, q)
    if rest:
        raise InvalidData(f"{cell}: {what} {n}/{q} {noun}, not an integer")
    return count


def cut(d: int, b: int, simple_only: bool) -> int:
    """The number T of power sums a cell's keys hold: 0 without branch
    points, 1 for a simple cell and d for a cell of any meridians."""
    return 0 if b == 0 else 1 if simple_only else d


def _digit_bits(T: int) -> int:
    """The bits of each power sum but the last in a key (_key): T > 1
    only for a cell of any meridians, where T = d, and a product of
    degree n <= d has n contents of size below n, so |p_k| < T^T for
    every k < T."""
    return T * T.bit_length() + 1


def _key(contents: list[int], T: int) -> int:
    """The first T power sums p_k of contents as the digits of one
    integer, p_1 lowest, in base 2^_digit_bits(T): the sum of p_k
    2^((k - 1) _digit_bits(T)). The last digit is not bounded, so T = 1
    keys a product by its c(lambda) itself. Adding two keys adds their
    power sums digit by digit: the key of a product of two Q is the sum
    of theirs, and doubling a key doubles its power sums."""
    bits = _digit_bits(T)
    key, powers = 0, contents
    for k in range(T):
        key += sum(powers) << k * bits
        powers = list(map(mul, powers, contents))
    return key


def _power_sums(key: int, T: int) -> list[int]:
    """The digits p_1..p_T of a key, each but the last read as the
    balanced residue that _digit_bits(T) bounds."""
    bits = _digit_bits(T)
    half = 1 << bits - 1
    sums = []
    for _ in range(T - 1):
        p = (key + half) % (2 * half) - half
        sums.append(p)
        key = (key - p) >> bits
    return sums + [key]


@lru_cache(maxsize=None)
def _free_homs(chi: int, d: int, T: int) -> dict[int, int]:
    """The tuples whose meridians may be any permutation, the identity
    included, by their grade: d! times their number with b meridians is
    the sum of a_Q Q(t)^b over this map's items, Q = P_lambda keyed by
    the first T power sums of lambda's contents and
    a_Q = (d!)^(2 - chi) (f^lambda)^chi = (f^lambda)^2 h_lambda^(2 - chi).
    At t = 1 only P_(d) = d! is not 0, so the coefficients sum to
    (d!)^(1 - chi + b)."""
    keys: dict[int, int] = {}
    for lam, (f, h) in zip(_partitions(d), _irreducibles(d)):
        contents = chain.from_iterable(range(-i, row - i) for i, row in enumerate(lam))
        key = _key(list(contents) if T else [], T)
        keys[key] = keys.get(key, 0) + f * f * h ** (2 - chi)
    return keys


@lru_cache(maxsize=None)
def _connected_keys(chi: int, d: int, T: int) -> dict[int, int]:
    """The transitive tuples of _free_homs, in its form: the exponential
    formula, splitting off the orbit of sheet 1 (k sheets), on d! times
    the counts, so that a product of two keys is their sum."""
    conn = dict(_free_homs(chi, d, T))
    for k in range(1, d):
        scale = comb(d - 1, k - 1) * comb(d, k)
        rest = _free_homs(chi, d - k, T).items()
        for key, a in _connected_keys(chi, k, T).items():
            a *= scale
            for other, w in rest:
                conn[key + other] = conn.get(key + other, 0) - a * w
    return {key: a for key, a in conn.items() if a}


@lru_cache(maxsize=None)
def _orientable_keys(chi: int, d: int, T: int) -> dict[int, int]:
    """The transitive tuples over n_h (chi = 2 - h) whose total space is
    orientable, in _free_homs' form. Such a cover factors through the
    orientation double cover o_(h-1) of the base: its d = 2m sheets split
    into two halves of m, which every crosscap swaps and every meridian
    keeps, and the split is unique. Each meridian acts on both halves, so
    at the two lifts of its point to o_(h-1): C(d, m)/2 m! times the
    degree-m covers of o_(h-1) with two meridians per point, each key
    taken twice. None for odd d."""
    if d % 2:
        return {}
    m = d // 2
    scale = factorial(d) * comb(d, m) // 2
    return {2 * key: scale * a for key, a in _connected_keys(2 * chi, m, T).items()}


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


def _elementary(sums: list[int], n: int) -> list[int]:
    """The coefficients e_0..e_n of the product of 1 + c t over the
    contents c whose power sums are sums, by Newton's identities
    k e_k = sum (-1)^(i-1) e_(k-i) p_i over 1 <= i <= k, whose quotients
    are exact, as every e_k is an integer."""
    signed = [-p if i % 2 else p for i, p in enumerate(sums)]
    e = [1]
    for k in range(1, n + 1):
        e.append(sum(map(mul, reversed(e), signed)) // k)
    return e


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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _quotients(base: ClosedSurface, m: int, T: int):
    """The connected degree-m covers X' of the base, (X' orientable, its
    tuples in _free_homs' form with T power sums)."""
    chi = euler_characteristic(base)
    every = _connected_keys(chi, m, T)
    up = every if base.orientable else _orientable_keys(chi, m, T)
    down = {key: every.get(key, 0) - up.get(key, 0) for key in every.keys() | up.keys()}
    quotients = ((True, up), (False, {key: a for key, a in down.items() if a}))
    return [(o, keys) for o, keys in quotients if any(keys.values())]


@lru_cache(maxsize=None)
def _fixed(
    base: ClosedSurface, d: int, b: int, l: int, orientable: bool, simple_only: bool, graded: bool
) -> list[int]:
    """The connected tuples of a cell fixed by one conjugator z of cycle
    type l^m (d = l m), by their grade V from V = b; with orientable,
    over n_h, those whose total space is orientable. l = 1 is the cell's
    raw count. A simple cell with odd b has none: a product of
    commutators or of squares is even, and b transpositions multiply to
    an odd permutation (S_0 and S_1 have no transpositions at all).

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
    grade. X is orientable when X' is and, over a nonorientable X', when
    the kernel is orientable.

    Summed over X' in _free_homs' form, a term c B^(1 - chi') w^N of
    _epimorphisms, with chi' = m chi - V', turns the grade t^V' of X' into
    (B t^l)^V' w^(m b - V'), so each key Q of X' becomes
    R(t) = w^m Q(B t^l / w), a polynomial as Q has degree below m, and
    B^(1 - m chi) is taken out once. Inclusion-exclusion over the
    meridians forced to be the identity then turns R^b into (R - 1)^b: a
    meridian of the tuple is the identity exactly when its quotient is
    and its punctures have value 0, the terms of R without t, whose sum
    is 1, so (R - 1)^b is t^b times the b-th power of (R - 1)/t and the
    grades start at V = b. All of it is taken modulo t^(T + 1) (see the
    module's docstring): with T = 1, R's linear coefficient
    m w_1 + [l = 1] c(lambda) B is not 0 only for l <= 2, and with T = 0
    this is Mednykh's count (J. Algebra 320, 2008; Sib. Math. J. 27,
    1986, over n_h). Not graded, each R is taken at t = 1, and the one
    item is the count over every grade, a power per key. A remainder of
    the quotient by B and m! means the counts are wrong and raises
    InvalidData naming the cell."""
    if orientable and base.orientable:
        raise ValueError(f"the orientable count needs a nonorientable base, got the {base.name}")
    if simple_only and b % 2:
        return []
    T = cut(d, b, simple_only)
    m = d // l
    sums: dict[int, list[int]] = {}
    for up, keys in _quotients(base, m, T):
        for c, B, w in _epimorphisms(l, up, orientable and not up):
            acc = sums.setdefault(B, [])
            powers = [[1]]
            for _ in range(m):
                powers.append(_mul(powers[-1], w)[: T + 1])
            for key, a in keys.items():
                r = [0] * (T + 1)
                for i, q in enumerate(_elementary(_power_sums(key, T), min(T // l, m - 1))):
                    q *= B**i
                    for j, x in enumerate(powers[m - i][: T + 1 - l * i], l * i):
                        r[j] += q * x
                _add(acc, _power(r[1:], b) if graded else [sum(r[1:]) ** b], c * a)
    fixed: list[int] = []
    exponent = 1 - m * euler_characteristic(base)
    what = f"a conjugator of cycle type {l}^{m} fixes"
    for B, acc in sums.items():
        scale, quotient = (B**exponent, factorial(m)) if exponent >= 0 else (1, factorial(m) * B**-exponent)
        noun = "tuples of grade {}" if graded else "tuples"
        _add(fixed, [_exact(n * scale, quotient, _cell(base, d, b), what, noun.format(V))
                     for V, n in enumerate(acc, b)])
    return fixed


def raw_counts(
    base: ClosedSurface, d: int, b: int, simple_only: bool = True, orientable: bool = False
) -> list[int]:
    """The connected tuples of a cell by their total ramification V, item
    i for V = b + i, as every meridian moves a sheet: a simple cell's all
    in item 0; with orientable, over n_h, those whose total space is
    orientable."""
    return _fixed(base, d, b, 1, orientable, simple_only, True)


def class_counts(
    base: ClosedSurface, d: int, b: int, simple_only: bool = True, orientable: bool = False
) -> list[int]:
    """The conjugation classes of raw_counts, by Burnside's lemma: the
    average, over the d! conjugators z, of the tuples z fixes.

    A tuple z fixes commutes with z entry by entry. The centraliser of a
    transitive tuple acts freely on the sheets, so a z fixing one has
    cycle type l^m for some d = l m, and there are d!/(l^m m!) such z.
    _fixed counts the tuples each fixes, the identity's being the raw
    count. A remainder means the counts are wrong and raises InvalidData
    naming the cell."""
    total: list[int] = []
    for l in _divisors(d):
        m = d // l
        conjugators = factorial(d) // (l**m * factorial(m))
        _add(total, _fixed(base, d, b, l, orientable, simple_only, True), conjugators * l ** (m - 1))
    noun = "orientable conjugation classes" if orientable else "conjugation classes"
    return [_exact(n, factorial(d), _cell(base, d, b), "Burnside's lemma gives", noun) for n in total]


def connected_count(base: ClosedSurface, d: int, b: int, simple_only: bool = True) -> int:
    """The valid tuples of the census cell whose sheets form one orbit:
    the census's total raw count, raw_counts at t = 1. Cut at T <= 1 the
    counts have one grade, so the graded count is it."""
    return sum(_fixed(base, d, b, 1, False, simple_only, cut(d, b, simple_only) < 2))

