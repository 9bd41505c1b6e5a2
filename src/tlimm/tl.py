"""
The Temperley-Lieb algebra TL_n(2) on non-crossing matchings.

A basis diagram is a perfect non-crossing matching of the 2n vertices
1, ..., n, n', ..., 1'.  Vertex i sits at circular position i and vertex i'
at circular position 2n+1-i, so the circle reads 1, 2, ..., n, n', ..., 1'.
Internally a matching is an involution ``pairing`` on 0-based circular
positions, exactly as a balanced bracket sequence.

The package multiplies only on the right by a generator: m . t_i is a
local surgery on m's unprimed boundary at labels i, i+1, and a closed loop
multiplies the coefficient by 2.  ``_steps(n)`` tabulates that surgery.
Theta is multiplied out over the table in two ways that share nothing but
the table: ``theta(u)`` one row step at a time over a reduced word
(:func:`_row_times_theta_gen`), and every theta(u) of S_n at once, level
by level in length over whole columns of big-int lanes
(:func:`_theta_columns`, which fills the store :func:`all_tl_immanants`).
The orientation of that product is a convention; the one used here is pinned
by the test anchor ``beta((2,3,4,1)) == parse_matching("1-3' 2-4' 3-4 1'-2'")``
and is the one under which every ``beta(w)`` is compatible with the
black/white coloring of w (see :mod:`tlimm.coloring`).  A theta row is
worked on as ``{index in all_matchings(n): coeff}`` and handed out as
``{NonCrossingMatching: coeff}``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from array import array
from typing import Iterator

from . import limits
from .errors import PreconditionError, VerificationError
from .perm import (
    Perm,
    format_perm,
    gatherer,
    is_321_avoiding,
    length,
    perm_index,
    reduced_word,
    right_mult_gen,
)


def catalan(n: int) -> int:
    """The nth Catalan number.

    >>> [catalan(n) for n in range(9)]
    [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    """
    return math.comb(2 * n, n) // (n + 1)


def is_noncrossing(pairing: tuple[int, ...]) -> bool:
    """Check that pairing is a fixed-point-free involution whose chords do
    not cross, i.e. a balanced bracket sequence."""
    size = len(pairing)
    if not all(
        0 <= pairing[p] < size and pairing[p] != p and pairing[pairing[p]] == p
        for p in range(size)
    ):
        return False
    stack: list[int] = []
    for p in range(size):
        if pairing[p] > p:
            stack.append(pairing[p])
        elif stack.pop() != p:
            return False
    return True


@dataclasses.dataclass(frozen=True)
class NonCrossingMatching:
    """A perfect non-crossing matching of 1..n and 1'..n'."""

    n: int
    pairing: tuple[int, ...]

    def __post_init__(self):
        if len(self.pairing) != 2 * self.n:
            raise ValueError(f"{len(self.pairing)} partners for {2 * self.n} vertices")
        if not is_noncrossing(self.pairing):
            raise ValueError(f"pairing {self.pairing} is not non-crossing and perfect")
        # Paired circular positions always differ by an odd amount.
        if not all((p - q) % 2 == 1 for p, q in enumerate(self.pairing)):
            raise ValueError(f"pairing {self.pairing} joins positions of equal parity")

    def __repr__(self):
        return f"NonCrossingMatching({self.n}, {format_matching(self)!r})"

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs as 0-based circular positions (p, q) with p < q."""
        return tuple(
            (p, q) for p, q in enumerate(self.pairing) if p < q
        )


def vertex_position(n: int, label: int, primed: bool) -> int:
    """0-based circular position of a labelled vertex."""
    if not 1 <= label <= n:
        raise ValueError(f"vertex label {label} out of range for n={n}")
    return (2 * n - label) if primed else (label - 1)


def vertex_of_position(n: int, p: int) -> tuple[int, bool]:
    return (p + 1, False) if p < n else (2 * n - p, True)


def format_matching(m: NonCrossingMatching) -> str:
    """Space-separated pairs, e.g. "1-3' 2-4' 3-4 1'-2'".

    Within a pair, unprimed vertices precede primed ones and labels ascend;
    pairs are sorted by their first vertex the same way.
    """
    shown = []
    for p, q in m.pairs():
        ends = sorted(
            (vertex_of_position(m.n, p), vertex_of_position(m.n, q)),
            key=lambda v: (v[1], v[0]),
        )
        shown.append(ends)
    shown.sort(key=lambda ends: (ends[0][1], ends[0][0]))
    return " ".join(
        "-".join(f"{label}'" if primed else str(label) for label, primed in ends)
        for ends in shown
    )


def parse_matching(text: str, n: int | None = None) -> NonCrossingMatching:
    """Parse the space-separated pair format; n is inferred from the number
    of pairs when not given.

    >>> parse_matching("1-2 1'-2'").pairing
    (1, 0, 3, 2)
    """
    tokens = text.split()
    if n is None:
        n = len(tokens)
    pairing = [-1] * (2 * n)
    for token in tokens:
        left, _, right = token.partition("-")
        # A vertex is a label, with an apostrophe when primed: "3" or "3'".
        p, q = (vertex_position(n, int(v.rstrip("'")), v.endswith("'"))
                for v in (left, right))
        pairing[p], pairing[q] = q, p
    if -1 in pairing:
        raise ValueError(f"not a perfect matching of 2n={2*n} vertices: {text!r}")
    return NonCrossingMatching(n, tuple(pairing))


@functools.lru_cache(maxsize=1 << 14)
def _matching(n: int, pairing: tuple[int, ...]) -> NonCrossingMatching:
    # Interned constructor: identical diagrams share one object.
    return NonCrossingMatching(n, pairing)


def identity_matching(n: int) -> NonCrossingMatching:
    """Every i paired with i'."""
    return _matching(n, tuple(2 * n - 1 - p for p in range(2 * n)))


def generator(n: int, i: int) -> NonCrossingMatching:
    """The diagram of t_i: cup i-(i+1), cap i'-(i+1)', all else through.

    >>> format_matching(generator(3, 2))
    "1-1' 2-3 2'-3'"
    """
    if not 1 <= i <= n - 1:
        raise PreconditionError(f"generator index {i} out of range for n={n}")
    pairing = [2 * n - 1 - p for p in range(2 * n)]
    pairing[i - 1], pairing[i] = i, i - 1
    pairing[2 * n - i - 1], pairing[2 * n - i] = 2 * n - i, 2 * n - i - 1
    return _matching(n, tuple(pairing))


def _attach_generator(m: NonCrossingMatching, i: int) -> tuple[NonCrossingMatching, int]:
    """m . t_i, a local surgery on m's unprimed boundary at labels i, i+1."""
    p, q = i - 1, i
    a, b = m.pairing[p], m.pairing[q]
    if a == q:
        return m, 1
    pairing = list(m.pairing)
    pairing[p], pairing[q] = q, p
    pairing[a], pairing[b] = b, a
    return _matching(m.n, tuple(pairing)), 0


@dataclasses.dataclass
class TLElement:
    """One entry of :func:`theta_table`: theta(u) in TL_n as its nonzero
    terms {matching: coeff}."""

    n: int
    terms: dict[NonCrossingMatching, int]


def beta(w: Perm) -> NonCrossingMatching:
    """The matching attached to a 321-avoiding w: the diagram of the product
    of the t_i over a reduced word of w.

    >>> format_matching(beta((2, 3, 4, 1)))
    "1-3' 2-4' 3-4 1'-2'"
    """
    if not is_321_avoiding(w):
        raise PreconditionError(f"{w} contains the pattern 321")
    m = identity_matching(len(w))
    for i in reduced_word(w):
        m, loops = _attach_generator(m, i)
        if loops:
            raise VerificationError(f"t_{i} closes a loop in the product for {w}")
    return m


def beta_inv(m: NonCrossingMatching) -> Perm:
    """The unique 321-avoiding w with beta(w) = m.

    Reads the permutation off the pairing structure: in beta(w) each pair
    joins a vertex of weak-excedance type to one of deficiency type, with the
    weak side carrying the smaller label (ties are fixed points).  Collecting
    the weak positions P and the values V = w(P) determines w, since both
    subsequences of a 321-avoiding permutation are increasing.

    >>> beta_inv(parse_matching("1-2 1'-2'"))
    (2, 1)
    """
    n = m.n
    weak_positions = []
    weak_values = []
    for p, q in m.pairs():
        (i, i_primed) = vertex_of_position(n, p)
        (j, j_primed) = vertex_of_position(n, q)
        if not i_primed and not j_primed:
            weak_positions.append(min(i, j))
        elif i_primed and j_primed:
            weak_values.append(max(i, j))
        else:
            pos, val = (j, i) if i_primed else (i, j)
            if pos <= val:
                weak_positions.append(pos)
                weak_values.append(val)
    weak_positions.sort()
    weak_values.sort()
    rest_positions = sorted(set(range(1, n + 1)) - set(weak_positions))
    rest_values = sorted(set(range(1, n + 1)) - set(weak_values))
    word = [0] * n
    for pos, val in zip(weak_positions, weak_values):
        word[pos - 1] = val
    for pos, val in zip(rest_positions, rest_values):
        word[pos - 1] = val
    return tuple(word)


@limits.capped_cache(limits.max_n, "non-crossing matchings", maxsize=16)
def all_matchings(n: int) -> tuple[NonCrossingMatching, ...]:
    """All Catalan(n) non-crossing matchings of 2n vertices."""
    out = []
    pairing = [-1] * (2 * n)

    def fill(free: list[int]) -> Iterator[None]:
        if not free:
            yield
            return
        p = free[0]
        # Pairing p with free[k] splits the rest into an inside and an
        # outside arc, each of which must be matched within itself.
        for k in range(1, len(free), 2):
            q = free[k]
            pairing[p], pairing[q] = q, p
            for _ in fill(free[1:k]):
                yield from fill(free[k + 1 :])

    for _ in fill(list(range(2 * n))):
        out.append(_matching(n, tuple(pairing)))
    return tuple(out)


# The table _steps(n) returns.
_Steps = tuple[tuple[tuple[int, int], ...], ...]


@limits.capped_cache(limits.max_n, "matching index", maxsize=16)
def _matching_index(n: int) -> dict[NonCrossingMatching, int]:
    """The index of each matching in all_matchings(n)."""
    return {m: k for k, m in enumerate(all_matchings(n))}


@limits.capped_cache(limits.max_n, "Temperley-Lieb step table", maxsize=16)
def _steps(n: int) -> _Steps:
    """steps[k][i-1] = (k', loops): matching k of all_matchings(n) times t_i
    is matching k' with that many closed loops."""
    index = _matching_index(n)
    products = [[_attach_generator(m, i) for i in range(1, n)] for m in all_matchings(n)]
    return tuple(tuple((index[g], loops) for g, loops in row) for row in products)


def _row_times_theta_gen(steps: _Steps, row: dict[int, int], d: int) -> dict[int, int]:
    """row . (t_d - 1) for a row {index in all_matchings(n): coeff}, read
    off the step table; zero terms are dropped."""
    terms: dict[int, int] = {}
    for k, c in row.items():
        glued, loops = steps[k][d - 1]
        terms[glued] = terms.get(glued, 0) + (c << loops)
        terms[k] = terms.get(k, 0) - c
    return {k: c for k, c in terms.items() if c}


def _theta_row(u: Perm) -> dict[int, int]:
    """theta(u) as a row {index in all_matchings(n): coeff}: the
    left-to-right product of (t_i - 1) over a reduced word of u, one row
    step at a time over ``_steps(n)``."""
    steps = _steps(len(u))
    # The identity matching comes last in all_matchings(n).
    row = {len(steps) - 1: 1}
    for d in reduced_word(u):
        row = _row_times_theta_gen(steps, row, d)
    return row


# While _theta_columns multiplies out one group of S_n, a column's values
# on that group sit in one int of 16-bit lanes; the store itself keeps
# value + _BYTE_BIAS in one unsigned byte per permutation.
_BYTE_BIAS = 128
_UNBIAS = bytes(x ^ _BYTE_BIAS for x in range(256))


def _theta_columns(n: int) -> list[array]:
    """theta(u) for every u in S_n as columns: column k, for matching k of
    all_matchings(n), is an ``array('b')`` whose entry r is the coefficient
    of that matching in theta(u), u of rank r in :func:`tlimm.perm.perm_index`.
    A coefficient outside a signed byte is a VerificationError naming n, w,
    u and the value.

    Each u != e is theta(u s_d) (t_d - 1), d the first descent of u, and
    u s_d is one shorter than u.  Internally S_n is ordered by (length,
    first descent, rank), so the u of one length and first descent form a
    contiguous group whose parents u s_d all lie on the level below.  For
    a group, every column that is nonzero somewhere on that level is
    gathered at the parents into one int of 16-bit lanes v_k', and the
    group's slice of column k is the sum of (v_k' << loops) over the k'
    that t_d takes to k, less v_k: a few big-int adds per column, not a
    dict update per term.  At the end one gather per column puts it back
    into rank order.
    """
    steps = _steps(n)
    matchings = all_matchings(n)
    perms = perm_index(n).perms
    rank = perm_index(n).rank
    size = len(perms)
    lengths = list(map(length, perms))
    descents = [next((i for i in range(1, n) if u[i - 1] > u[i]), 0) for u in perms]
    # A stable sort keeps rank order within each group.
    order = sorted(range(size), key=lambda r: (lengths[r], descents[r]))
    position = [0] * size
    for i, r in enumerate(order):
        position[r] = i
    columns = [bytearray([_BYTE_BIAS]) * size for _ in matchings]
    # theta(e) is the identity matching, which comes last in all_matchings(n).
    columns[-1][0] += 1
    below: set[int] = {len(matchings) - 1}  # columns nonzero on the level below
    level: set[int] = set()
    start, depth = 1, 1
    for (ell, d), group in itertools.groupby(order[1:], key=lambda r: (lengths[r], descents[r])):
        if ell != depth:
            below, level, depth = level, set(), ell
        members = list(group)
        size_g = len(members)
        gather = gatherer([position[rank[right_mult_gen(perms[r], d)]] for r in members])
        one = int.from_bytes(b"\x01\x00" * size_g, "little")
        zero = _BYTE_BIAS * one
        lanes = bytearray(2 * size_g)
        sums: dict[int, int] = {}
        for k in below:
            lanes[::2] = bytes(gather(columns[k]))
            v = int.from_bytes(lanes, "little") - zero
            glued, loops = steps[k][d - 1]
            sums[glued] = sums.get(glued, 0) + (v << loops)
            sums[k] = sums.get(k, 0) - v
        # The check below is exact.  A lane of v holds a stored value in
        # [-128, 127].  Matching k is k' t_d only if k has the cup d-(d+1):
        # then k' is k itself, with one loop, or joins d and d+1 to the two
        # ends of one of the other n - 1 chords of k, either way round.  So
        # lane i of sums[k] is x_i, a sum of those values whose coefficients
        # (2 for k itself, 1 for each other k', and -1 for v_k) add up to at
        # most 2n + 1 in absolute value: |x_i| <= 128 (2n + 1) < 2^15 for
        # n < 127.  sums[k] + zero is the sum of (x_i + 128) 2^(16 i).  If
        # it lies in [0, 2^(16 size_g)) with no high byte of a lane set, its
        # base-2^16 digits y_i lie in [0, 256), and since
        # |x_i + 128 - y_i| < 2^16, y_i = x_i + 128: every x_i is a signed
        # byte.  Signed bytes x_i, in turn, give such an int.
        top = 1 << (16 * size_g)
        high = 0xFF00 * one
        for k, v in sums.items():
            v += zero
            if v == zero:
                continue
            if not 0 <= v < top or v & high:
                # The same bound makes x_i + 2^15 an unsigned 16-bit digit.
                digits = (v + ((1 << 15) - _BYTE_BIAS) * one).to_bytes(2 * size_g, "little")
                c, u = next((x - (1 << 15), perms[r]) for x, r in zip(array("H", digits), members)
                            if not -_BYTE_BIAS <= x - (1 << 15) < _BYTE_BIAS)
                raise VerificationError(
                    f"f_w(u) = {c} at n={n}, w={format_perm(beta_inv(matchings[k]))}, "
                    f"u={format_perm(u)} does not fit the signed-byte store")
            columns[k][start:start + size_g] = v.to_bytes(2 * size_g, "little")[::2]
            level.add(k)
        start += size_g
    to_rank = gatherer(position)
    out = []
    for k in range(len(columns)):
        out.append(array("b", bytes(to_rank(columns[k])).translate(_UNBIAS)))
        columns[k] = None  # each internal column is freed once converted
    return out


@limits.capped_cache(limits.theta_max_n, "theta table", maxsize=4)
def all_tl_immanants(n: int) -> dict[Perm, array]:
    """The coefficients f_w(u) of every 321-avoiding w in S_n, the one
    stored table of them: column ``[w]`` is an ``array('b')`` whose entry
    ``r`` is f_w(u) for the u of rank r in :func:`tlimm.perm.perm_index`.
    Filled by the level-order pass :func:`_theta_columns`.  The columns
    are shared: do not change them.

    >>> all_tl_immanants(2)[(2, 1)].tolist()
    [0, 1]
    """
    return {beta_inv(m): col for m, col in zip(all_matchings(n), _theta_columns(n))}


def theta(u: Perm) -> dict[NonCrossingMatching, int]:
    """The image of u under the algebra map s_i -> t_i - 1, as its nonzero
    terms {matching: coeff}; independent of the choice of reduced word.
    The step table covers all Catalan(n) matchings, so n is held to the
    whole-S_n cap of :mod:`tlimm.limits`.

    >>> theta((2, 1))[generator(2, 1)], theta((2, 1))[identity_matching(2)]
    (1, -1)
    """
    matchings = all_matchings(len(u))
    return {matchings[k]: c for k, c in _theta_row(u).items()}


def theta_table(n: int) -> dict[Perm, TLElement]:
    """theta(u) for every u in S_n: the transpose of the store
    :func:`all_tl_immanants`, built anew on each call."""
    store = all_tl_immanants(n)
    perms = perm_index(n).perms
    rows = [{} for _ in perms]
    for w, column in store.items():
        m = beta(w)
        for r in itertools.compress(range(len(perms)), column):
            rows[r][m] = column[r]
    table = {}
    for r, u in enumerate(perms):
        table[u] = TLElement(n, rows[r])
        rows[r] = None  # each row is freed once it is copied
    return table


def f_coeff(w: Perm, u: Perm) -> int:
    """The coefficient of beta(w) in theta(u), read off the row of theta(u)
    at the index of beta(w).

    >>> f_coeff((2, 1, 4, 3), (4, 3, 2, 1))
    2
    """
    if len(w) != len(u):
        raise PreconditionError(f"size mismatch: {len(w)} vs {len(u)}")
    k = _matching_index(len(w))[beta(w)]
    return _theta_row(u).get(k, 0)
