"""
Black/white vertex colorings and their compatible matchings.

A coloring of the 2n vertices is stored as a pair (I, J): I the set of
unprimed black vertices, J the set of primed *white* vertices.  A coloring
is compatible with a matching when every pair joins a black vertex to a
white one; :func:`_compatibility_table` is the one list of that relation.

The ``unique_matching_*`` constructions produce, for given zone sizes, the
single coloring-and-matching satisfying a prescribed list of zone
conditions; they are built directly as rainbow blocks of nested pairs,
not by search.  Suite A7 in :mod:`tlimm.verify` is the uniqueness oracle:
it looks up every coloring that meets the zone counts in that table, which
is built from the matchings alone, and holds what it lists to the zones.
"""

from __future__ import annotations

import warnings
from typing import Container, Iterable, NamedTuple, Sequence

from . import limits
from .errors import PreconditionError
from .perm import Perm, check_perm, is_321_avoiding
from .tl import (
    NonCrossingMatching,
    all_matchings,
    beta,
    beta_inv,
    vertex_of_position,
    _matching,
)


class _ColoringFields(NamedTuple):
    n: int
    blacks: frozenset[int]
    primed_whites: frozenset[int]


class Coloring(_ColoringFields):
    """A coloring given by its unprimed blacks I and primed whites J, as
    frozensets: an immutable record that hashes and compares as the tuple
    (n, blacks, primed_whites)."""

    __slots__ = ()

    def __new__(cls, n: int, blacks: Iterable[int], primed_whites: Iterable[int]) -> Coloring:
        if not isinstance(blacks, frozenset) or not isinstance(primed_whites, frozenset):
            blacks, primed_whites = frozenset(blacks), frozenset(primed_whites)
        if not all(1 <= i <= n for i in blacks):
            raise ValueError(f"black labels {sorted(blacks)} exceed n={n}")
        if not all(1 <= j <= n for j in primed_whites):
            raise ValueError(f"labels {sorted(primed_whites)}' exceed n={n}")
        return tuple.__new__(cls, (n, blacks, primed_whites))

    def is_black_position(self, p: int) -> bool:
        """Color of the 0-based circular position p."""
        label, primed = vertex_of_position(self.n, p)
        if primed:
            return label not in self.primed_whites
        return label in self.blacks

    @classmethod
    def from_circle(cls, n: int, colors: Sequence[bool]) -> Coloring:
        """The coloring with colors[p] the color of circular position p
        (True = black)."""
        if len(colors) != 2 * n:
            raise ValueError(f"{len(colors)} colors for 2n={2 * n} positions")
        blacks = frozenset(p + 1 for p in range(n) if colors[p])
        primed_whites = frozenset(
            2 * n - p for p in range(n, 2 * n) if not colors[p]
        )
        return cls(n, blacks, primed_whites)


def is_compatible(m: NonCrossingMatching, c: Coloring) -> bool:
    """True iff every pair of m joins a black vertex to a white one."""
    if m.n != c.n:
        raise PreconditionError(f"size mismatch: {m.n} vs {c.n}")
    return all(c.is_black_position(p) != c.is_black_position(q) for p, q in m.pairs())


def compatible_permutations(c: Coloring) -> frozenset[Perm]:
    """All 321-avoiding w whose matching is compatible with the coloring."""
    n = c.n
    if len(c.blacks) != len(c.primed_whites):
        warnings.warn(
            f"coloring has {len(c.blacks)} unprimed blacks but "
            f"{len(c.primed_whites)} primed whites; no compatible matching exists"
        )
        return frozenset()
    mask = _black_mask(n, c.blacks, c.primed_whites)
    return frozenset(w for _, _, w in _compatibility_table(n)[mask])


def _black_mask(n: int, blacks: Iterable[int], primed_whites: Container[int]) -> int:
    """The key in :func:`_compatibility_table` of the coloring (blacks, primed_whites)."""
    whites = sum(1 << 2 * n - j for j in range(1, n + 1) if j not in primed_whites)
    return sum(1 << i - 1 for i in blacks) + whites


@limits.capped_cache(limits.max_n, "compatibility table", maxsize=4)
def _compatibility_table(n: int) -> dict[int, list[tuple]]:
    """Every matching m of ``all_matchings(n)``, as one shared entry (m,
    m.pairs(), beta_inv(m)), filed under each of its 2^n proper colorings,
    those that give each pair one black end.  A coloring is keyed by the
    bitmask of its black circular positions (:func:`tl.vertex_position`):
    bit i - 1 for a black i, bit 2n - j for a black j'.  Every balanced
    coloring has a compatible matching, so the table has exactly C(2n, n)
    keys; each key lists its matchings in ``all_matchings`` order.

    >>> [w for _, _, w in _compatibility_table(2)[0b0101]]
    [(2, 1), (1, 2)]
    """
    table: dict[int, list[tuple]] = {}
    for m in all_matchings(n):
        entry = (m, m.pairs(), beta_inv(m))
        masks = [0]
        for p, q in entry[1]:
            masks = [mask | bit for bit in (1 << p, 1 << q) for mask in masks]
        for mask in masks:
            table.setdefault(mask, []).append(entry)
    return table


def canonical_coloring(w: Perm) -> Coloring:
    """The coloring with i black, w(i)' white at excedances and the reverse
    at deficiencies; fixed points take i black, i' white.

    >>> c = canonical_coloring((2, 1))
    >>> sorted(c.blacks), sorted(c.primed_whites)
    ([1], [2])
    """
    check_perm(w)
    if not is_321_avoiding(w):
        raise PreconditionError(f"{w} contains the pattern 321")
    blacks, primed_whites = set(), set()
    for i, x in enumerate(w, start=1):
        if x >= i:
            blacks.add(i)
            primed_whites.add(x)
    return Coloring(len(w), blacks, primed_whites)


# ---------------------------------------------------------------------------
# Unique matchings for prescribed zone conditions.
#
# The general solution is built on 0-based circular positions as (colors,
# pairing), colors a list of booleans (True = black); Case 1 and Case 2
# transport it through a reflection of the circle.


def _unique_general(a: int, b: int, c: int, d: int, e: int) -> tuple[list[bool], list[int]]:
    """Unique coloring/matching on 2n positions, n = a+b+c+d+e, with:
    [0, b+c+e) black; a black and b white in [b+c+e, a+2b+c+e) with no
    internal pair; [a+2b+c+e, a+b+e+n) white; d black and c white in
    [a+b+e+n, 2n) with no internal pair.

    Read from position 0, the solution is ten blocks of sizes c, e, b, b,
    a, a, e, d, d, c and colors B, B, B, W, B, W, W, W, B, W.  Each block
    is joined to the other block of its letter by a rainbow of nested
    pairs: the first block opens them and the second closes them.

    >>> _unique_general(1, 1, 1, 1, 0)
    ([True, True, False, True, False, False, True, False], [7, 2, 1, 4, 3, 6, 5, 0])
    """
    size = {"a": a, "b": b, "c": c, "d": d, "e": e}
    colors: list[bool] = []
    pairing = [0] * (2 * sum(size.values()))
    # The letters nest like brackets, c(e(bb)(aa)e)(dd)c, so one stack of
    # open positions serves every rainbow.
    opened: list[int] = []
    seen = set()
    for letter, color in zip("cebbaaeddc", "BBBWBWWWBW"):
        for _ in range(size[letter]):
            p = len(colors)
            colors.append(color == "B")
            if letter in seen:
                q = opened.pop()
                pairing[p], pairing[q] = q, p
            else:
                opened.append(p)
        seen.add(letter)
    return colors, pairing


def unique_matching_general(
    a: int, b: int, c: int, d: int, e: int
) -> tuple[Coloring, NonCrossingMatching]:
    """The unique coloring and compatible matching on the 0-based circular
    positions, n = a + b + c + d + e, with [0, b+c+e) black; a blacks and b
    whites in [b+c+e, a+2b+c+e) with no internal pair; [a+2b+c+e, a+b+e+n)
    white; d blacks and c whites in [a+b+e+n, 2n) with no internal pair.

    >>> col, m = unique_matching_general(0, 1, 1, 0, 0)
    >>> sorted(col.blacks), sorted(col.primed_whites), m.pairing
    ([1, 2], [1, 2], (3, 2, 1, 0))
    """
    if min(a, b, c, d, e) < 0:
        raise PreconditionError("zone sizes must be non-negative")
    n = a + b + c + d + e
    colors, pairing = _unique_general(a, b, c, d, e)
    m = _matching(n, tuple(pairing))
    return Coloring.from_circle(n, colors), m


def _pull_back(
    n: int, const: int, colors: list[bool], pairing: list[int]
) -> tuple[Coloring, NonCrossingMatching]:
    """Transport a circular solution through the involution
    p -> (const - p) mod 2n and convert the coloring to (I, J) form."""
    total = 2 * n
    phi = lambda p: (const - p) % total
    new_pairing = [0] * total
    for p in range(total):
        new_pairing[phi(p)] = phi(pairing[p])
    col = Coloring.from_circle(n, [colors[phi(p)] for p in range(total)])
    return col, _matching(n, tuple(new_pairing))


def unique_matching_case1(
    a: int, b: int, c: int, d: int, e: int
) -> tuple[Coloring, NonCrossingMatching]:
    """The unique coloring/matching with [a+1, n-d] black, [b+1, n-c]'
    white, a blacks and b whites in [1,a] u [1,b]', d blacks and c whites in
    [n-d+1,n] u [n-c+1,n]', and no pair internal to either mixed zone.

    >>> _, m = unique_matching_case1(1, 1, 1, 1, 0)
    >>> m == beta((2, 1, 4, 3))
    True
    """
    if min(a, b, c, d) < 1 or e < 0:
        raise PreconditionError("case-1 zone sizes need a, b, c, d >= 1 and e >= 0")
    n = a + b + c + d + e
    colors, pairing = _unique_general(a, b, c, d, e)
    return _pull_back(n, n - d - 1, colors, pairing)


def unique_matching_case2(
    a: int, e: int, b: int, c: int, f: int, d: int
) -> tuple[Coloring, NonCrossingMatching]:
    """The unique coloring/matching with [1, a+e] black, [a+e+b+c+1, n]
    white, [1, b+f]' black, [b+f+a+d+1, n]' white, c blacks and b whites in
    [a+e+1, a+e+b+c], d blacks and a whites in [b+f+1, b+f+a+d]', and no
    pair internal to either middle zone.

    >>> _, m = unique_matching_case2(1, 1, 1, 1, 0, 1)
    >>> m == beta((2, 4, 1, 5, 3))
    True
    """
    if min(a, b, c, d) < 1 or min(e, f) < 0 or max(e, f) < 1:
        raise PreconditionError(
            "case-2 zone sizes need a, b, c, d >= 1 and max(e, f) >= 1"
        )
    n = a + b + c + d + e + f
    colors, pairing = _unique_general(d, a, b, c, e + f)
    return _pull_back(n, a + e - 1, colors, pairing)
