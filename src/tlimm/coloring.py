"""
Black/white vertex colorings and their compatible matchings.

A coloring of the 2n vertices is stored either as a pair (I, J) — I the set
of unprimed black vertices, J the set of primed *white* vertices — or as a
:class:`CircularColoring`, a B/W string over the circular positions
1, ..., n, n', ..., 1'.  A coloring is compatible with a matching when every
pair joins a black vertex to a white one.

The ``unique_matching_*`` constructions produce, for given zone sizes, the
single coloring-and-matching satisfying a prescribed list of zone
conditions; they are built by an inductive peeling recursion (pair off an
extreme vertex, shrink the instance) rather than by search.  Suite A7 in
:mod:`tlimm.verify` is the uniqueness oracle: it searches every
(coloring, matching) pair that meets the zone conditions.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Iterable

from .errors import PreconditionError
from .perm import Perm, is_321_avoiding
from .tl import (
    NonCrossingMatching,
    all_matchings,
    beta,
    beta_inv,
    parse_vertex,
    vertex_of_position,
    vertex_position,
    _matching,
)

BLACK = "B"
WHITE = "W"


@dataclasses.dataclass(frozen=True)
class Coloring:
    """A coloring given by its unprimed blacks I and primed whites J."""

    n: int
    blacks: frozenset[int]
    primed_whites: frozenset[int]

    def __post_init__(self):
        if not all(1 <= i <= self.n for i in self.blacks):
            raise ValueError(f"black labels {sorted(self.blacks)} exceed n={self.n}")
        if not all(1 <= j <= self.n for j in self.primed_whites):
            raise ValueError(f"labels {sorted(self.primed_whites)}' exceed n={self.n}")

    def is_black_position(self, p: int) -> bool:
        """Color of the 0-based circular position p."""
        label, primed = vertex_of_position(self.n, p)
        if primed:
            return label not in self.primed_whites
        return label in self.blacks

    def circular(self) -> CircularColoring:
        return CircularColoring(
            self.n,
            "".join(
                BLACK if self.is_black_position(p) else WHITE
                for p in range(2 * self.n)
            ),
        )


def make_coloring(n: int, I: Iterable[int], J: Iterable[int]) -> Coloring:
    return Coloring(n, frozenset(I), frozenset(J))


def format_coloring(c: Coloring) -> str:
    """The text form of a coloring.

    >>> format_coloring(make_coloring(4, [1, 4], [1, 4]))
    'I={1,4} J={1,4}'
    """
    fmt = lambda s: "{" + ",".join(str(i) for i in sorted(s)) + "}"
    return f"I={fmt(c.blacks)} J={fmt(c.primed_whites)}"


def parse_coloring(text: str) -> Coloring:
    """Parse "I={1,4} J={1,4}"; n is taken as the largest label mentioned
    unless given explicitly as a leading "n=<k>" token."""
    n = 0
    sets: dict[str, frozenset[int]] = {}
    for token in text.split():
        name, _, body = token.partition("=")
        if name == "n":
            n = int(body)
            continue
        body = body.strip("{}")
        values = frozenset(int(x) for x in body.split(",") if x)
        sets[name] = values
    if "I" not in sets or "J" not in sets:
        raise ValueError(f"cannot parse coloring from {text!r}")
    n = max([n, *sets["I"], *sets["J"]])
    return Coloring(n, sets["I"], sets["J"])


@dataclasses.dataclass(frozen=True)
class CircularColoring:
    """Colors of the 0-based circular positions, as a B/W string."""

    n: int
    colors: str

    def __post_init__(self):
        if len(self.colors) != 2 * self.n:
            raise ValueError(f"{len(self.colors)} colors for 2n={2 * self.n} positions")
        if not set(self.colors) <= {BLACK, WHITE}:
            raise ValueError(f"colors must be {BLACK}/{WHITE}: {self.colors!r}")

    def is_black_position(self, p: int) -> bool:
        return self.colors[p] == BLACK

    def to_ij(self) -> Coloring:
        blacks = frozenset(
            p + 1 for p in range(self.n) if self.colors[p] == BLACK
        )
        primed_whites = frozenset(
            2 * self.n - p
            for p in range(self.n, 2 * self.n)
            if self.colors[p] == WHITE
        )
        return Coloring(self.n, blacks, primed_whites)


def is_compatible(m: NonCrossingMatching, c: Coloring | CircularColoring) -> bool:
    """True iff every pair of m joins a black vertex to a white one."""
    if m.n != c.n:
        raise PreconditionError(f"size mismatch: {m.n} vs {c.n}")
    return all(
        c.is_black_position(p) != c.is_black_position(q) for p, q in m.pairs()
    )


def compatible_permutations(c: Coloring) -> frozenset[Perm]:
    """All 321-avoiding w whose matching is compatible with the coloring."""
    if len(c.blacks) != len(c.primed_whites):
        warnings.warn(
            f"coloring has {len(c.blacks)} unprimed blacks but "
            f"{len(c.primed_whites)} primed whites; no compatible matching exists"
        )
        return frozenset()
    return frozenset(
        beta_inv(m) for m in all_matchings(c.n) if is_compatible(m, c)
    )


def canonical_coloring(w: Perm) -> Coloring:
    """The coloring with i black, w(i)' white at excedances and the reverse
    at deficiencies; fixed points take i black, i' white.

    >>> format_coloring(canonical_coloring((2, 1)))
    'I={1} J={2}'
    """
    if not is_321_avoiding(w):
        raise PreconditionError(f"{w} contains the pattern 321")
    blacks, primed_whites = set(), set()
    for i, x in enumerate(w, start=1):
        if x >= i:
            blacks.add(i)
            primed_whites.add(x)
    return Coloring(len(w), frozenset(blacks), frozenset(primed_whites))


def has_internal_pairing(m: NonCrossingMatching, vertices: Iterable) -> bool:
    """True iff some pair of m has both endpoints in the given vertex set.

    Vertices may be ints (unprimed labels), strings like "3'", or
    (label, primed) tuples.
    """
    positions = set()
    for v in vertices:
        if isinstance(v, int):
            positions.add(vertex_position(m.n, v, False))
        elif isinstance(v, str):
            positions.add(vertex_position(m.n, *parse_vertex(v)))
        else:
            label, primed = v
            positions.add(vertex_position(m.n, label, primed))
    return any(p in positions and q in positions for p, q in m.pairs())


# ---------------------------------------------------------------------------
# Unique matchings for prescribed zone conditions.
#
# All three constructions work on 0-based circular positions and return
# (colors, pairing) with colors a list of booleans (True = black).


def _reflect(total: int, colors: list[bool], pairing: list[int], const: int):
    """Relabel position p as (const - p) mod total and flip all colors."""
    new_colors = [False] * total
    new_pairing = [0] * total
    for p in range(total):
        q = (const - p) % total
        new_colors[q] = not colors[p]
    for p in range(total):
        new_pairing[(const - p) % total] = (const - pairing[p]) % total
    return new_colors, new_pairing


def _shift(total: int, colors: list[bool], pairing: list[int], by: int):
    new_colors = [False] * total
    new_pairing = [0] * total
    for p in range(total):
        q = (p + by) % total
        new_colors[q] = colors[p]
        new_pairing[q] = (pairing[p] + by) % total
    return new_colors, new_pairing


def _unique_simple(a: int, b: int, c: int) -> tuple[list[bool], list[int]]:
    """Unique coloring/matching with positions [a, a+b) black, [a+b, a+b+c)
    white, and no pair inside [0, a)."""
    assert a >= 0 and b >= 0 and c >= 0 and (a + b + c) % 2 == 0
    total = a + b + c
    if a == 0:
        assert b == c
        colors = [True] * b + [False] * c
        pairing = [total - 1 - p for p in range(total)]
        return colors, pairing
    if b <= c:
        # Position 0 must pair with the last position and is black.
        inner_colors, inner_pairing = _unique_simple(a - 1, b, c - 1)
        colors = [True] + inner_colors + [False]
        pairing = [total - 1] + [q + 1 for q in inner_pairing] + [0]
        return colors, pairing
    # Mirror through the free zone to swap the roles of b and c.
    colors, pairing = _unique_simple(a, c, b)
    return _reflect(total, colors, pairing, a - 1)


def _unique_general(a: int, b: int, c: int, d: int, e: int) -> tuple[list[bool], list[int]]:
    """Unique coloring/matching on 2n positions, n = a+b+c+d+e, with:
    [0, b+c+e) black; a black and b white in [b+c+e, a+2b+c+e) with no
    internal pair; [a+2b+c+e, a+b+e+n) white; d black and c white in
    [a+b+e+n, 2n) with no internal pair."""
    assert min(a, b, c, d, e) >= 0
    n = a + b + c + d + e
    total = 2 * n
    if c == 0 and d == 0:
        colors, pairing = _unique_simple(a + b, a + e, b + e)
        colors = [not col for col in colors]
        return _shift(total, colors, pairing, b + e)
    if c >= d:
        # The last position pairs with the first; peel them off.
        inner_colors, inner_pairing = _unique_general(a, b, c - 1, d, e)
        colors = [True] + inner_colors + [False]
        pairing = [total - 1] + [q + 1 for q in inner_pairing] + [0]
        return colors, pairing
    colors, pairing = _unique_general(b, a, d, c, e)
    return _reflect(total, colors, pairing, total - 1 - c - d)


def unique_matching_general(
    a: int, b: int, c: int, d: int, e: int
) -> tuple[CircularColoring, NonCrossingMatching]:
    """The unique coloring and compatible matching on the 0-based circular
    positions, n = a + b + c + d + e, with [0, b+c+e) black; a blacks and b
    whites in [b+c+e, a+2b+c+e) with no internal pair; [a+2b+c+e, a+b+e+n)
    white; d blacks and c whites in [a+b+e+n, 2n) with no internal pair.

    >>> col, m = unique_matching_general(0, 1, 1, 0, 0)
    >>> col.colors, m.pairing
    ('BBWW', (3, 2, 1, 0))
    """
    if min(a, b, c, d, e) < 0:
        raise PreconditionError("zone sizes must be non-negative")
    n = a + b + c + d + e
    colors, pairing = _unique_general(a, b, c, d, e)
    m = _matching(n, tuple(pairing))
    col = CircularColoring(n, "".join(BLACK if x else WHITE for x in colors))
    assert is_compatible(m, col)
    return col, m


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
    circ = CircularColoring(
        n, "".join(BLACK if colors[phi(p)] else WHITE for p in range(total))
    )
    return circ.to_ij(), _matching(n, tuple(new_pairing))


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
