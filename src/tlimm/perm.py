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
import operator
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import limits
from .errors import PreconditionError

Perm = tuple[int, ...]


def is_perm(seq: Sequence[int]) -> bool:
    """Return True if seq is a rearrangement of 1..n where n = len(seq)."""
    return sorted(seq) == list(range(1, len(seq) + 1))


def perm(seq: Iterable[int]) -> Perm:
    """Coerce seq to a validated permutation tuple.

    >>> perm([2, 1, 4, 3])
    (2, 1, 4, 3)
    """
    word = tuple(seq)
    if not is_perm(word):
        raise ValueError(f"not a permutation of 1..{len(word)}: {word}")
    return word


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
        return perm(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"cannot parse permutation from {text!r}: {exc}") from None


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


@limits.capped_cache(limits.max_n, "permutation index", maxsize=4)
def perm_index(n: int) -> PermIndex:
    """The index of S_n that rank-indexed tables share.

    >>> perm_index(3).rank[(2, 1, 3)]
    2
    """
    perms = tuple(all_perms(n))
    return PermIndex(perms, {u: r for r, u in enumerate(perms)})


def gatherer(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A function taking a sequence, such as a rank-indexed column, to the
    tuple of its items at positions, for any number of positions:
    ``operator.itemgetter`` needs one, and returns the bare item for one.

    >>> gatherer([2, 0])("abc"), gatherer([1])("abc"), gatherer([])("abc")
    (('c', 'a'), ('b',), ())
    """
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    return lambda seq: tuple(seq[p] for p in positions)


def _check_same_size(v: Perm, w: Perm) -> None:
    if len(v) != len(w):
        raise PreconditionError(f"size mismatch: {len(v)} vs {len(w)}")


def compose(v: Perm, w: Perm) -> Perm:
    """The product v.w acting as (v.w)(i) = v(w(i)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    _check_same_size(v, w)
    return tuple(v[w[i] - 1] for i in range(len(w)))


def inverse(w: Perm) -> Perm:
    """The inverse permutation.

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
    """(-1)^length(w)."""
    return -1 if length(w) & 1 else 1


def reduced_word(w: Perm) -> tuple[int, ...]:
    """A reduced word (i_1, ..., i_k) with s_{i_1} . s_{i_2} ... s_{i_k} = w.

    Deterministic: the word is produced by selection sort, repeatedly walking
    the value 1, then 2, ... leftward to its place via adjacent swaps.

    >>> reduced_word((2, 3, 4, 1))
    (1, 2, 3)
    >>> reduced_word((2, 1))
    (1,)
    """
    word = list(w)
    swaps: list[int] = []
    for value in range(1, len(w) + 1):
        pos = word.index(value) + 1
        while pos > value:
            word[pos - 2], word[pos - 1] = word[pos - 1], word[pos - 2]
            swaps.append(pos - 1)
            pos -= 1
    return tuple(reversed(swaps))


@functools.lru_cache(maxsize=1 << 16)
def contains_pattern(w: Perm, v: Perm) -> bool:
    """True iff some set of positions of w carries the pattern v.

    >>> contains_pattern((3, 1, 5, 2, 4), (1, 2, 3))
    True
    >>> contains_pattern((3, 1, 5, 2, 4), (3, 2, 1))
    False
    """
    n, m = len(w), len(v)
    if m > n:
        raise PreconditionError(f"pattern of length {m} in host of length {n}")
    if m == 0:
        return True

    def extend(start: int, chosen: tuple[int, ...]) -> bool:
        k = len(chosen)
        if k == m:
            return True
        for p in range(start, n - (m - k) + 1):
            x = w[p]
            if all((x > w[q]) == (v[k] > v[j]) for j, q in enumerate(chosen)):
                if extend(p + 1, chosen + (p,)):
                    return True
        return False

    return extend(0, ())


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
    """All 321-avoiding permutations of [n], lexicographically sorted; a
    scan of all of S_n, so n is held to the whole-S_n cap."""
    return tuple(w for w in all_perms(n) if is_321_avoiding(w))


@limits.capped_cache(limits.max_n, "1324-adjacent pairs", maxsize=8)
def adjacent_1324_pairs(n: int) -> tuple[tuple[Perm, Perm], ...]:
    """Every unordered 1324-adjacent pair in S_n, once each: w and w2
    differ by swapping the values at positions a < b, and some c < a and
    d > b hold values below and above both swapped values.

    Each pair is listed from the side with the increasing middle, and
    holds the permutations of :func:`perm_index`, not copies.  A scan of
    all of S_n, so n is held to the whole-S_n cap.
    """
    perms, rank = perm_index(n)
    pairs = []
    for w in perms:
        # suffix_max[i] is the greatest value at position i or after it.
        suffix_max = list(itertools.accumulate(reversed(w), max))[::-1]
        low = n + 1  # the least value before position a
        for a in range(n - 2):
            x = w[a]
            if x < low:
                low = x
                continue
            for b in range(a + 1, n - 1):
                y = w[b]
                if x < y < suffix_max[b + 1]:
                    other = w[:a] + (y,) + w[a + 1:b] + (x,) + w[b + 1:]
                    pairs.append((w, perms[rank[other]]))
    return tuple(pairs)
