"""
Permutations of [n] = {1, ..., n} in one-line notation.

A permutation w is a tuple of ints (w(1), ..., w(n)); values and positions
are both 1-based throughout the public interface.  The text format is a
compact digit string for n <= 9 ("2143") and comma-separated otherwise
("2,1,4,3"); both are accepted by :func:`parse_perm`.

Products compose left-to-right as maps: (v * w)(i) = v(w(i)).
"""

from __future__ import annotations

import functools
import itertools
from array import array
from typing import Iterator, NamedTuple, Sequence

from . import limits
from .errors import PreconditionError

Perm = tuple[int, ...]


def is_perm(seq: Sequence[int]) -> bool:
    """Return True if seq is a rearrangement of 1..n where n = len(seq)."""
    return sorted(seq) == list(range(1, len(seq) + 1))


def check_perm(w: Perm) -> None:
    """Refuse a w that is not a permutation of 1..len(w): PreconditionError."""
    if not is_perm(w):
        raise PreconditionError(f"not a permutation of 1..{len(w)}: {w}")


def parse_perm(text: str) -> Perm:
    """Parse "2143" or "2,1,4,3" into a permutation tuple.

    >>> parse_perm("2143")
    (2, 1, 4, 3)
    >>> parse_perm("10,2,3,4,5,6,7,8,9,1")[0]
    10
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation string")
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        parts = list(text)
    try:
        word = tuple(int(p) for p in parts)
        check_perm(word)
    except ValueError as exc:
        raise ValueError(f"cannot parse permutation from {text!r}: {exc}") from None
    return word


def format_perm(w: Perm) -> str:
    """Format a permutation compactly.

    >>> format_perm((2, 1, 4, 3))
    '2143'
    """
    if len(w) <= 9:
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


class PermIndex(NamedTuple):
    """S_n in the order of :func:`all_perms`, and the rank of each
    permutation in that order."""

    perms: tuple[Perm, ...]
    rank: dict[Perm, int]


# Room for every n up to the cap: an evicted index is rebuilt from new
# tuples, and the tables that hold its permutations, such as the pairs and
# classes, would no longer share them with it.
@limits.capped_cache(limits.max_n, "permutation index", maxsize=16)
def perm_index(n: int) -> PermIndex:
    """The index of S_n that rank-indexed tables share.

    >>> perm_index(3).rank[(2, 1, 3)]
    2
    """
    perms = tuple(all_perms(n))
    return PermIndex(perms, dict(zip(perms, range(len(perms)))))


@limits.capped_cache(limits.max_n, "symmetry ranks", maxsize=16)
def symmetry_ranks(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each rank r of :func:`perm_index`, the rank of the inverse and
    the rank of the w0-conjugate of the permutation at r, as two tuples.

    >>> symmetry_ranks(3)
    ((0, 1, 2, 4, 3, 5), (0, 2, 1, 4, 3, 5))
    """
    perms, rank = perm_index(n)
    return (tuple(rank[inverse(u)] for u in perms),
            tuple(rank[conjugate_by_longest(u)] for u in perms))


def compose(v: Perm, w: Perm) -> Perm:
    """The product v.w acting as (v.w)(i) = v(w(i)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(v) != len(w):
        raise PreconditionError(f"size mismatch: {len(v)} vs {len(w)}")
    return tuple(v[w[i] - 1] for i in range(len(w)))


def inverse(w: Perm) -> Perm:
    """The inverse permutation.  w is not checked (:func:`check_perm`): this
    is on hot paths, such as the store's inversion of every 321-avoider.

    >>> inverse((2, 3, 4, 1))
    (4, 1, 2, 3)
    """
    result = [0] * len(w)
    for i, x in enumerate(w):
        result[x - 1] = i + 1
    return tuple(result)


def longest_word(n: int) -> Perm:
    """The order-reversing permutation n, n-1, ..., 1.

    >>> longest_word(4)
    (4, 3, 2, 1)
    >>> longest_word(0)
    ()
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return tuple(range(n, 0, -1))


def conjugate_by_longest(w: Perm) -> Perm:
    """w0 . w . w0, i.e. i -> n+1 - w(n+1-i)."""
    n = len(w)
    return tuple(n + 1 - w[n - 1 - i] for i in range(n))


def length(w: Perm) -> int:
    """Coxeter length = number of inversions.

    >>> length((2, 1, 4, 3))
    2
    """
    # Each value is counted against the larger values seen before it, read
    # from a bitmask of the values seen so far.
    seen = inversions = 0
    for x in w:
        inversions += (seen >> x).bit_count()
        seen |= 1 << x
    return inversions


def sign(w: Perm) -> int:
    """(-1)^length(w).  w is not checked (:func:`check_perm`): this is on
    hot paths, such as suite A1's pass over the 321-avoiders."""
    return -1 if length(w) & 1 else 1


def reduced_word(w: Perm) -> tuple[int, ...]:
    """A reduced word (i_1, ..., i_k) with s_{i_1} . s_{i_2} ... s_{i_k} = w.

    Deterministic: the word is produced by selection sort, repeatedly walking
    the value 1, then 2, ... leftward to its place via adjacent swaps.

    >>> reduced_word((2, 3, 4, 1))
    (1, 2, 3)
    >>> reduced_word((2, 1))
    (1,)

    A w that is not a permutation of 1..n misses some value of 1..n, and
    is a PreconditionError when the walk looks for that value.
    """
    word = list(w)
    swaps: list[int] = []
    for value in range(1, len(w) + 1):
        try:
            pos = word.index(value) + 1
        except ValueError:
            raise PreconditionError(f"not a permutation of 1..{len(w)}: {w}") from None
        while pos > value:
            word[pos - 2], word[pos - 1] = word[pos - 1], word[pos - 2]
            swaps.append(pos - 1)
            pos -= 1
    return tuple(reversed(swaps))


@functools.lru_cache(maxsize=256)
def _pattern_bounds(v: Perm) -> tuple[tuple[int, int], ...]:
    """For each k, the indices (lo, hi) among v[:k] of the values just
    below and just above v[k]: m stands for "none below" and m + 1 for
    "none above".  A v that is not a permutation is a PreconditionError.

    >>> _pattern_bounds((2, 4, 1, 3))
    ((4, 5), (0, 5), (4, 0), (0, 1))
    """
    m = len(v)
    if not is_perm(v):
        raise PreconditionError(f"pattern is not a permutation of 1..{m}: {v}")
    return tuple(
        (max((j for j in range(k) if v[j] < v[k]), key=v.__getitem__, default=m),
         min((j for j in range(k) if v[j] > v[k]), key=v.__getitem__, default=m + 1))
        for k in range(m)
    )


@functools.lru_cache(maxsize=1 << 16)
def contains_pattern(w: Perm, v: Perm) -> bool:
    """True iff some set of positions of w carries the pattern v.

    Positions are chosen left to right by backtracking; the k-th value must
    lie strictly between the chosen values that v puts just below and just
    above v[k] (:func:`_pattern_bounds`).  A v that is not a permutation,
    or is longer than w, is a PreconditionError.

    >>> contains_pattern((3, 1, 5, 2, 4), (1, 2, 3))
    True
    >>> contains_pattern((3, 1, 5, 2, 4), (3, 2, 1))
    False
    """
    bounds = _pattern_bounds(v)
    n, m = len(w), len(v)
    if m > n:
        raise PreconditionError(f"pattern of length {m} in host of length {n}")
    # values[k] is the k-th chosen value; the two sentinels after them
    # bound a value that has nothing below or above it in v[:k], taken from
    # w's own range, so that any host of distinct values is read by order.
    values = [0] * m + [min(w, default=0) - 1, max(w, default=0) + 1]
    return _extend(w, bounds, values, 0, 0)


def _extend(w: Perm, bounds: tuple[tuple[int, int], ...], values: list[int],
            start: int, k: int) -> bool:
    """True iff the k values chosen so far, held in values[:k], extend to
    an occurrence of the pattern of ``bounds`` with the rest taken from
    w[start:] in order.  A plain function, not a closure, so a call leaves
    no reference cycle for the collector."""
    m = len(bounds)
    if k == m:
        return True
    lo, hi = bounds[k]
    low, high = values[lo], values[hi]
    for p in range(start, len(w) - m + k + 1):
        x = w[p]
        if low < x < high:
            values[k] = x
            if _extend(w, bounds, values, p + 1, k + 1):
                return True
    return False


def avoids(w: Perm, *patterns: Perm) -> bool:
    """True iff w contains none of the given patterns."""
    return not any(
        len(p) <= len(w) and contains_pattern(w, p) for p in patterns
    )


def is_321_avoiding(w: Perm) -> bool:
    """True iff w avoids 321, in one pass: the entries that are not
    left-to-right maxima must increase.

    >>> is_321_avoiding((3, 1, 5, 2, 4)), is_321_avoiding((4, 1, 3, 2))
    (True, False)
    """
    top = low = 0
    for x in w:
        if x > top:
            top = x
        elif x > low:
            low = x
        else:
            return False
    return True


@limits.capped_cache(limits.max_n, "321-avoiding permutations", maxsize=16)
def avoiding_321(n: int) -> tuple[Perm, ...]:
    """All 321-avoiding permutations of [n], lexicographically sorted.

    Deleting k from a 321-avoiding permutation of [k] leaves one of
    [k - 1], so the avoiders of [k] are among the insertions of k into the
    avoiders of [k - 1]: they are built so for k = 1..n, filtered and
    sorted, never from all of S_n.  n is still held to the whole-S_n cap.

    >>> [format_perm(w) for w in avoiding_321(3)]
    ['123', '132', '213', '231', '312']
    """
    avoiders: tuple[Perm, ...] = ((),)
    for k in range(1, n + 1):
        avoiders = tuple(sorted(
            w
            for v in avoiders
            for i in range(k)
            if is_321_avoiding(w := v[:i] + (k,) + v[i:])
        ))
    return avoiders


@limits.capped_cache(limits.max_n, "1324-adjacent ranks", maxsize=8)
def adjacent_1324_ranks(n: int) -> tuple[array, array]:
    """Every unordered 1324-adjacent pair in S_n, once each, as the ranks
    in :func:`perm_index` of its two sides: w and w2 differ by swapping
    the values at positions a < b, and some c < a and d > b hold values
    below and above both swapped values.

    Each pair is listed from the side with the increasing middle, in
    (rank of w, a, b) order, the pair order; the two ``array('q')`` hold
    the ranks of w and of w2, and the first is increasing.  Built from
    S_(n-1) by :func:`_adjacent_candidates`, so n is held to the whole-S_n
    cap.

    >>> [list(ranks) for ranks in adjacent_1324_ranks(4)]
    [[0], [2]]
    >>> [format_perm(perm_index(4).perms[r]) for r in (0, 2)]
    ['1234', '1324']
    """
    left, right = array("q"), array("q")
    if n < 4:
        return left, right
    candidates, swapped, bounds = _adjacent_candidates(n - 1)
    # A pair never swaps position 1, so it lies in the block of ranks that
    # share u(1) = v: u is v followed by some sigma of S_(n-1), its values
    # at v and above raised by one, at rank (v - 1)(n - 1)! + rank(sigma).
    # Raising keeps the order of sigma's values, so a swap of sigma is a
    # pair of u iff sigma's candidate admits v as its witness below.
    width = len(perm_index(n).perms) // n
    for v in range(1, n + 1):
        keep = [bound >= v for bound in bounds]
        base = (v - 1) * width
        left.extend(map(base.__add__, itertools.compress(candidates, keep)))
        right.extend(map(base.__add__, itertools.compress(swapped, keep)))
    return left, right


def _adjacent_candidates(n: int) -> tuple[list[int], list[int], list[int]]:
    """Every swap of positions a < b in a sigma of S_n with sigma(a) <
    sigma(b) and a larger value after b, in (rank of sigma, a, b) order:
    the ranks of sigma and of the swapped sigma, and the swap's bound.
    Placed after a new first value v, the swap is 1324-adjacent iff v is
    at most the bound: n + 1 when a smaller value comes before a in sigma
    (any v works), else sigma(a) (v itself must be the smaller value).

    >>> _adjacent_candidates(3)
    ([0], [2], [1])
    """
    perms, rank = perm_index(n)
    left, right, bounds = [], [], []
    for r, s in enumerate(perms):
        # suffix_max[i] is the greatest value at position i or after it.
        suffix_max = list(itertools.accumulate(reversed(s), max))[::-1]
        low = n + 1  # the least value before position a
        for a in range(n - 2):
            x = s[a]
            if x < low:
                bound = low = x
            else:
                bound = n + 1
            for b in range(a + 1, n - 1):
                y = s[b]
                if x < y < suffix_max[b + 1]:
                    left.append(r)
                    right.append(rank[s[:a] + (y,) + s[a + 1:b] + (x,) + s[b + 1:]])
                    bounds.append(bound)
    return left, right, bounds
