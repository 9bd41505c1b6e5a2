"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive: plain subset scans, enumeration of
all perfect matchings with a quadratic crossing check, dictionary lookups
built by exhaustive enumeration, Bruhat order by rank matrices, and the
Temperley-Lieb product by walking glued diagrams.  The library must agree
with these on every desk-scale input.  Only public names of tlimm are used
here, so an oracle shares no private code with what it checks.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from tlimm import perm, tl


def brute_contains_pattern(w, v) -> bool:
    """Plain subset scan over all position subsets."""
    for positions in itertools.combinations(range(len(w)), len(v)):
        values = [w[p] for p in positions]
        order = sorted(values)
        if tuple(order.index(x) + 1 for x in values) == v:
            return True
    return False


def brute_all_matchings(n: int) -> set[tuple[int, ...]]:
    """All perfect matchings of 2n points, filtered by the quadratic
    non-crossing definition; returned as pairing tuples."""
    out = set()

    def rec(pairing: dict[int, int], free: list[int]):
        if not free:
            chords = [(p, q) for p, q in pairing.items() if p < q]
            for (a, b), (c, d) in itertools.combinations(chords, 2):
                if a < c < b < d or c < a < d < b:
                    break
            else:
                out.add(tuple(pairing[p] for p in range(2 * n)))
            return
        p = free[0]
        for q in free[1:]:
            pairing[p], pairing[q] = q, p
            rec(pairing, [x for x in free if x not in (p, q)])
            del pairing[p], pairing[q]

    rec({}, list(range(2 * n)))
    return out


def matchings_in_fill_order(n: int) -> list[tuple[int, ...]]:
    """The pairing tuples of the non-crossing matchings of 2n points, in
    the order of a recursive fill: the first free point pairs with each
    odd-offset free point in turn, and for each choice every filling of
    the points inside is combined with every filling of those outside."""
    out = []
    pairing = [-1] * (2 * n)

    def fill(free: list[int]):
        if not free:
            yield
            return
        p = free[0]
        for k in range(1, len(free), 2):
            q = free[k]
            pairing[p], pairing[q] = q, p
            for _ in fill(free[1:k]):
                yield from fill(free[k + 1 :])

    for _ in fill(list(range(2 * n))):
        out.append(tuple(pairing))
    return out


def brute_is_noncrossing(pairing) -> bool:
    """The definition: pairing is a fixed-point-free involution of its
    positions with no two chords p < q and r < s such that p < r < q < s."""
    size = len(pairing)
    if not all(0 <= q < size and q != p and pairing[q] == p for p, q in enumerate(pairing)):
        return False
    chords = [(p, q) for p, q in enumerate(pairing) if p < q]
    return not any(p < r < q < s for (p, q), (r, s) in itertools.permutations(chords, 2))


@functools.lru_cache(maxsize=None)
def beta_lookup(n: int):
    """Enumeration-based inverse of beta: matching -> permutation."""
    table = {}
    for w in itertools.permutations(range(1, n + 1)):
        if not brute_contains_pattern(w, (3, 2, 1)):
            table[tl.beta(w)] = w
    return table


def brute_compatible_permutations(c) -> frozenset:
    """The 321-avoiding w such that every pair of beta(w), read as vertex
    labels off its text form, joins a black vertex to a white one: an
    unprimed i is black iff i is in c.blacks, a primed j' is white iff j is
    in c.primed_whites."""

    def black(vertex: str) -> bool:
        label = int(vertex.rstrip("'"))
        if vertex.endswith("'"):
            return label not in c.primed_whites
        return label in c.blacks

    return frozenset(
        w for m, w in beta_lookup(c.n).items()
        if all(black(a) != black(b)
               for a, b in (pair.split("-") for pair in tl.format_matching(m).split()))
    )


def zone_solutions(n: int, zones) -> list:
    """Every (coloring, matching) on the 2n circular positions that meets
    the zones, by a scan of every coloring that meets the zone counts
    against every matching of tl.all_matchings(n): each pair must join a
    black (True) position to a white one, and no pair may have both ends
    in one sealed zone.  A zone is (positions, blacks, whites, sealed);
    zones that do not partition the positions, or a zone whose counts do
    not fill it, are a ValueError."""
    if sorted(p for positions, _, _, _ in zones for p in positions) != list(range(2 * n)):
        raise ValueError("zones do not partition the positions")
    if any(blacks + whites != len(positions) for positions, blacks, whites, _ in zones):
        raise ValueError("a zone's counts do not fill it")
    zone_of = {p: z for z, (positions, _, _, _) in enumerate(zones) for p in positions}
    sealed = {z for z, (_, _, _, seal) in enumerate(zones) if seal}
    out = []
    for choice in itertools.product(
        *(itertools.combinations(positions, blacks) for positions, blacks, _, _ in zones)
    ):
        black = set(itertools.chain.from_iterable(choice))
        colors = tuple(p in black for p in range(2 * n))
        for m in tl.all_matchings(n):
            if all(colors[p] != colors[q]
                   and not (zone_of[p] == zone_of[q] and zone_of[p] in sealed)
                   for p, q in m.pairs()):
                out.append((colors, m))
    return out


def transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    """The transposition (i j) in S_n, for 1 <= i, j <= n."""
    word = list(range(1, n + 1))
    word[i - 1], word[j - 1] = word[j - 1], word[i - 1]
    return tuple(word)


def brute_bruhat_leq(u, v) -> bool:
    """Bruhat order by greedy chains of length-increasing transpositions."""
    if u == v:
        return True
    if perm.length(u) >= perm.length(v):
        return False
    n = len(u)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            if u[i - 1] < u[j - 1]:
                bigger = perm.compose(u, transposition(n, i, j))
                if perm.length(bigger) == perm.length(u) + 1 and brute_bruhat_leq(
                    bigger, v
                ):
                    return True
    return False


def cells(shape) -> frozenset[tuple[int, int]]:
    """The cells (i, j) of a skew shape, read off contains_cell."""
    n = shape.n
    return frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if shape.contains_cell(i, j)
    )


def hull_cells_by_definition(w) -> frozenset[tuple[int, int]]:
    """The cells (i, j) that every skew shape through the points (a, w(a))
    holds, point by point.  Both bounds of a skew shape are
    non-increasing, so a point (a, w(a)) with a >= i and w(a) >= j forces
    lam_i >= j, and a point (b, w(b)) with b <= i and w(b) <= j forces
    mu_i < j; the bounds forced so make a skew shape, so no other cell is
    forced, and these are the cells of the minimal shape."""
    n = len(w)
    points = list(enumerate(w, 1))
    return frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if any(a >= i and x >= j for a, x in points)
        and any(b <= i and y <= j for b, y in points)
    )


def inversions(u) -> int:
    """The number of inversions, counted pair by pair."""
    return sum(1 for i, j in itertools.combinations(range(len(u)), 2) if u[i] > u[j])


def inversion_sign(u) -> int:
    """(-1)^(number of inversions)."""
    return -1 if inversions(u) % 2 else 1


def brute_percent_immanant(shape) -> dict:
    """{u: sign(u)} for the u in S_n, in lexicographic order, whose every
    point (i, u(i)) is a cell of the shape: a filter over all of S_n."""
    n = shape.n
    # cell[i - 1][j - 1] is True iff (i, j) is a cell of the shape.
    cell = [[shape.contains_cell(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    return {
        u: inversion_sign(u)
        for u in itertools.permutations(range(1, n + 1))
        if all(cell[i][x - 1] for i, x in enumerate(u))
    }


def row_tally_by_definition(n: int, rows) -> list[int]:
    """For each u in S_n, in lexicographic order, the number of rows i with
    u(i) in rows[i - 1], counted u by u and row by row."""
    allowed = [set(row) for row in rows]
    return [sum(x in row for x, row in zip(u, allowed))
            for u in itertools.permutations(range(1, n + 1))]


def determinant(n: int) -> dict:
    """{u: sign(u)} over all of S_n, in lexicographic order."""
    return {u: inversion_sign(u) for u in itertools.permutations(range(1, n + 1))}


def brute_cm_immanant(n: int, I, J) -> dict:
    """{u: sign(u)} for the u in S_n, in lexicographic order, with
    u(I) = J: a filter over all of S_n."""
    J = set(J)
    return {
        u: inversion_sign(u)
        for u in itertools.permutations(range(1, n + 1))
        if {u[i - 1] for i in I} == J
    }


def packed(values) -> int:
    """The packed column of rank-indexed values: value r times 2^(32r),
    summed, so each value sits in its own 32-bit lane as a plain sum of
    shifted ints."""
    return sum(v << 32 * r for r, v in enumerate(values))


def evaluate(f, matrix) -> Fraction:
    """sum_u f(u) prod_i X[i][u(i)], one Fraction product at a time."""
    total = Fraction(0)
    for u, c in f.coeffs.items():
        prod = Fraction(c)
        for i, x in enumerate(u):
            prod *= Fraction(matrix[i][x - 1])
        total += prod
    return total


def compose_word(n: int, word) -> tuple[int, ...]:
    """Multiply out a word in the generators s_i, left to right."""
    result = list(range(1, n + 1))
    for i in word:
        result[i - 1], result[i] = result[i], result[i - 1]
    return tuple(result)


def restriction(w, positions) -> tuple[int, ...]:
    """The pattern of w on a non-empty set of positions, rank-compressed to
    a permutation."""
    values = [w[p - 1] for p in sorted(set(positions))]
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def block_structure(w) -> tuple[tuple[int, int], ...]:
    """The maximal runs of consecutive ascending values of w, in position
    order, as (rank of the run's first value among the runs, length)."""
    runs: list[tuple[int, int]] = []  # (starting value, length)
    i = 0
    while i < len(w):
        j = i
        while j + 1 < len(w) and w[j + 1] == w[j] + 1:
            j += 1
        runs.append((w[i], j - i + 1))
        i = j + 1
    by_value = sorted(start for start, _ in runs)
    return tuple((by_value.index(start) + 1, size) for start, size in runs)


def rank_table(w) -> list[list[int]]:
    """r[i][j] = |w([1,i]) intersected with [1,j]| for 0 <= i, j <= n."""
    n = len(w)
    r = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            r[i][j] = r[i - 1][j] + (1 if w[i - 1] <= j else 0)
    return r


def bruhat_leq(u, v) -> bool:
    """Bruhat order by the rank comparison: u <= v iff every rank of u
    dominates the corresponding rank of v."""
    ru, rv = rank_table(u), rank_table(v)
    n = len(u)
    return all(ru[i][j] >= rv[i][j] for i in range(1, n + 1) for j in range(1, n + 1))


def is_1324_adjacent(w, w2) -> bool:
    """True iff w and w2 differ by swapping two values that sit in the middle
    of a common increasing frame: positions c < a < b < d with the values at
    c and d below and above both swapped values."""
    diff = [i for i in range(len(w)) if w[i] != w2[i]]
    if len(diff) != 2:
        return False
    a, b = diff
    if w[a] != w2[b] or w[b] != w2[a]:
        return False
    lo, hi = min(w[a], w[b]), max(w[a], w[b])
    return any(w[c] < lo for c in range(a)) and any(
        w[d] > hi for d in range(b + 1, len(w))
    )


@functools.lru_cache(maxsize=None)
def adjacent_pairs_by_definition(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every 1324-adjacent pair of S_n by is_1324_adjacent alone, each once,
    from its side w with w(a) < w(b): adjacent permutations differ by one
    swap, so each w in lexicographic order tries the swap of each pair of
    positions a < b in lexicographic order."""
    pairs = []
    for w in itertools.permutations(range(1, n + 1)):
        for a, b in itertools.combinations(range(n), 2):
            if w[a] < w[b]:
                other = list(w)
                other[a], other[b] = w[b], w[a]
                if is_1324_adjacent(w, tuple(other)):
                    pairs.append((w, tuple(other)))
    return tuple(pairs)


def find_alternation_violation(f):
    """The first 1324-adjacent pair (w, w2) of adjacent_pairs_by_definition
    with f(w) != -f(w2), read pair by pair from f's coefficient dict; None
    when there is none."""
    coeffs = f.coeffs
    for w, w2 in adjacent_pairs_by_definition(f.n):
        if coeffs.get(w, 0) != -coeffs.get(w2, 0):
            return w, w2
    return None


def glue(x, y):
    """The diagram product x.y of two matchings and the number of closed
    loops formed, by walking paths through the glued diagram.

    The surviving unprimed boundary is y's, the surviving primed boundary is
    x's; y's primed vertex j' is identified with x's unprimed vertex j.
    """
    n = x.n
    total = 2 * n
    result = [-1] * total
    seen_mid = [False] * n  # indexed by x's unprimed position

    def walk(on_x: bool, pos: int) -> int:
        while True:
            if on_x:
                pos = x.pairing[pos]
                if pos >= n:
                    return pos
                seen_mid[pos] = True
                on_x, pos = False, total - 1 - pos
            else:
                pos = y.pairing[pos]
                if pos < n:
                    return pos
                mid = total - 1 - pos
                seen_mid[mid] = True
                on_x, pos = True, mid

    for start in range(total):
        if result[start] != -1:
            continue
        end = walk(start >= n, start)
        result[start], result[end] = end, start

    loops = 0
    for mid in range(n):
        if seen_mid[mid]:
            continue
        loops += 1
        pos = mid
        while not seen_mid[pos]:
            seen_mid[pos] = True
            other = x.pairing[pos]
            seen_mid[other] = True
            pos = total - 1 - y.pairing[total - 1 - other]

    return tl.NonCrossingMatching(n, tuple(result)), loops


def tl_product(x: dict, y: dict) -> dict:
    """The product of two {matching: coeff} combinations in TL_n(2): the
    bilinear extension of glue, each closed loop worth 2; zero terms are
    dropped."""
    terms: dict = {}
    for mx, cx in x.items():
        for my, cy in y.items():
            m, loops = glue(mx, my)
            terms[m] = terms.get(m, 0) + cx * cy * 2**loops
    return {m: c for m, c in terms.items() if c}
