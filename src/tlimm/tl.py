"""
The Temperley-Lieb algebra TL_n(2) on non-crossing matchings.

A basis diagram is a perfect non-crossing matching of the 2n vertices
1, ..., n, n', ..., 1'.  Vertex i sits at circular position i and vertex i'
at circular position 2n+1-i, so the circle reads 1, 2, ..., n, n', ..., 1'.
Internally a matching is an involution ``pairing`` on 0-based circular
positions, exactly as a balanced bracket sequence.

The package multiplies only on the right by a generator: m . t_i is a
local surgery on m's unprimed boundary at labels i, i+1, and a closed loop
multiplies the coefficient by 2.  One function, :func:`_glue`, does it in
place on a pairing list: ``_beta_pairing(w)`` runs one list along a reduced
word, and ``_steps(n)`` tabulates it, gluing a copy of each pairing and
looking the glued tuple up in ``_matching_index(n)``, the index of the
pairings in the order of all_matchings(n).

The tables are built from pairing tuples alone.  :func:`_pairings` lists
them size by size, each a concatenation of two shifted smaller ones; the
index, its one caller, keys them, ``all_matchings`` interns a matching over
each key, and the step table, the store and ``f_coeff`` read only tuples
and their indices.  A :class:`NonCrossingMatching` is built only where one
is handed out, as by ``all_matchings``, ``beta``, ``theta`` and
``theta_table``.

Theta is multiplied out over the table by one row step,
:func:`_row_times_theta_gen`, which consumes the row it is given.  It has
three callers: ``theta(u)``, one step at a time along a reduced word of u;
``f_coeff(w, u)``, one coefficient, from such a row over the front of the
word and a dual row over its back (:func:`_dual_times_theta_gen`); and
every theta(g) of S_n at once along the coset chain, a row holding one int
of 16-bit lanes per matching, a whole block of S_n (:func:`_theta_columns`,
which fills the store :func:`all_tl_immanants`).

The dual step is the transpose of the row step.  For Y a product of
factors (t_d - 1) over the back of the word, let dual_Y[k] be the
coefficient of beta(w) in m_k . Y, for matching m_k of all_matchings(n); as
m_k . t_d = 2^loops_k m_{g_k} with (g_k, loops_k) = moves[k] in the entry
of t_d, dual_{(t_d - 1) Y}[k] = (dual_Y[g_k] << loops_k) - dual_Y[k].  So
the coefficient of beta(w) in theta(u) is sum_k row[k] dual[k] wherever
the two meet.  An entry can be nonzero only if k or g_k is a key of dual_Y,
so the step walks dual_Y's own keys j and, from the same entry, the k with
g_k = j != k; such a k closes no loop, so one that is no key of dual_Y
takes dual_Y[j] as it is.

The orientation of the product is a convention; the one used here is pinned
by the test anchor ``beta((2,3,4,1)) == parse_matching("1-3' 2-4' 3-4 1'-2'")``
and is the one under which every ``beta(w)`` is compatible with the
black/white coloring of w (see :mod:`tlimm.coloring`).  A theta row is
handed out as ``{NonCrossingMatching: coeff}``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from typing import Callable, NamedTuple

from . import limits
from .errors import LimitError, PreconditionError, VerificationError
from .perm import (
    Perm,
    format_perm,
    inverse,
    is_321_avoiding,
    perm_index,
    reduced_word,
)


def catalan(n: int) -> int:
    """The nth Catalan number.

    >>> [catalan(n) for n in range(9)]
    [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    """
    return math.comb(2 * n, n) // (n + 1)


def is_noncrossing(pairing: tuple[int, ...]) -> bool:
    """Check that pairing is a fixed-point-free involution whose chords do
    not cross, i.e. a balanced bracket sequence: in one pass, each opener
    is pushed and each closer must pop the opener it is paired with, both
    ways."""
    stack: list[int] = []
    for p, q in enumerate(pairing):
        if q > p:
            stack.append(p)
        elif not stack or stack.pop() != q or pairing[q] != p:
            return False
    return not stack


class _MatchingFields(NamedTuple):
    n: int
    pairing: tuple[int, ...]


class NonCrossingMatching(_MatchingFields):
    """A perfect non-crossing matching of 1..n and 1'..n', its pairing as a
    tuple: an immutable record that hashes and compares as the tuple
    (n, pairing)."""

    __slots__ = ()

    def __new__(cls, n: int, pairing: tuple[int, ...]) -> NonCrossingMatching:
        if not isinstance(pairing, tuple):
            pairing = tuple(pairing)
        if len(pairing) != 2 * n:
            raise ValueError(f"{len(pairing)} partners for {2 * n} vertices")
        if not is_noncrossing(pairing):
            raise ValueError(f"pairing {pairing} is not non-crossing and perfect")
        return tuple.__new__(cls, (n, pairing))

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


def parse_matching(text: str) -> NonCrossingMatching:
    """Parse the space-separated pair format; n is the number of pairs.

    >>> parse_matching("1-2 1'-2'").pairing
    (1, 0, 3, 2)
    """
    tokens = text.split()
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


# Holds every matching on up to 10 strands: Catalan(0) + ... + Catalan(10)
# = 23 714 <= 2^15.
@functools.lru_cache(maxsize=1 << 15)
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


def _glue(pairing: list[int], i: int) -> int:
    """Turn pairing into m . t_i in place, a local surgery on m's unprimed
    boundary at labels i, i+1, and return the number of loops it closes."""
    p, q = i - 1, i
    a, b = pairing[p], pairing[q]
    if a == q:
        return 1
    pairing[p], pairing[q] = q, p
    pairing[a], pairing[b] = b, a
    return 0


class TLElement(NamedTuple):
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
    return _matching(len(w), _beta_pairing(w))


def _beta_pairing(w: Perm) -> tuple[int, ...]:
    """beta(w)'s pairing, with no matching built, glued in one list along a
    reduced word of w, whose guard refuses a non-permutation before 321."""
    word = reduced_word(w)
    if not is_321_avoiding(w):
        raise PreconditionError(f"{w} contains the pattern 321")
    pairing = list(range(2 * len(w) - 1, -1, -1))
    for i in word:
        if _glue(pairing, i):
            raise VerificationError(f"t_{i} closes a loop in the product for {w}")
    return tuple(pairing)


def beta_inv(m: NonCrossingMatching) -> Perm:
    """The unique 321-avoiding w with beta(w) = m.

    Reads the permutation off the pairing structure: in beta(w) each pair
    joins a vertex of weak-excedance type to one of deficiency type, with the
    weak side carrying the smaller label (ties are fixed points).  Marking
    the weak positions P and the values V = w(P) determines w, since both
    subsequences of a 321-avoiding permutation are increasing.  One pass
    over the chords p < q does it: a cup (both ends unprimed) marks position
    p + 1, a cap (both primed) the value 2n - p, and a through strand joins
    position p + 1 to value 2n - q and marks both if p + 1 <= 2n - q.

    >>> beta_inv(parse_matching("1-2 1'-2'"))
    (2, 1)
    """
    return _beta_inv(m.n, m.pairing)


def _beta_inv(n: int, pairing: tuple[int, ...]) -> Perm:
    """beta_inv of the matching of n strands with this pairing, read off the
    tuple alone."""
    top = 2 * n - 1
    weak_position, weak_value = bytearray(n), bytearray(n)
    for p, q in enumerate(pairing):
        if p > q:
            continue
        if q < n:
            weak_position[p] = 1
        elif p >= n:
            weak_value[top - p] = 1
        elif p <= top - q:
            weak_position[p] = weak_value[top - q] = 1
    # The rest values, then the weak ones, each increasing.
    values = range(1, n + 1)
    runs = (itertools.compress(values, map(operator.not_, weak_value)),
            itertools.compress(values, weak_value))
    return tuple(map(next, map(runs.__getitem__, weak_position)))


def _pairings(n: int) -> list[tuple[int, ...]]:
    """Every non-crossing pairing of 2n positions, in the order of
    all_matchings(n), built size by size.  Position 0 pairs with 2i + 1 for
    i = 0, ..., n - 1 in turn, which splits the rest into the i pairs
    inside, on positions 1..2i, and the n - 1 - i pairs outside, from
    2i + 2 on; the inside pairings vary slowest, then the outside ones,
    each in this same order.  So each pairing is one concatenation of
    shifted smaller pairings, and the identity comes last.  The pieces are
    lists and only the pairings of n become tuples: freed tuples would wait
    on CPython's tuple free lists until a full collection, about 0.2 MB of
    them at n = 8."""
    by_size: list[list[list[int]]] = [[[]]]
    for size in range(1, n + 1):
        out = []
        for i in range(size):
            # 0 and 2i + 1 around the inside, shifted by 1; the outside,
            # shifted by 2i + 2.
            heads = [[2 * i + 1, *map((1).__add__, p), 0] for p in by_size[i]]
            tails = [[*map((2 * i + 2).__add__, p)] for p in by_size[size - 1 - i]]
            out += [head + tail for head in heads for tail in tails]
        by_size.append(out)
    return list(map(tuple, by_size[n]))


@limits.capped_cache(limits.max_n, "non-crossing matchings", maxsize=16)
def all_matchings(n: int) -> tuple[NonCrossingMatching, ...]:
    """All Catalan(n) non-crossing matchings of 2n vertices, in the order
    of :func:`_pairings`, each interned over the keys of the index."""
    return tuple(_matching(n, pairing) for pairing in _matching_index(n))


@limits.capped_cache(limits.max_n, "matching index", maxsize=16)
def _matching_index(n: int) -> dict[tuple[int, ...], int]:
    """The index in all_matchings(n) of each matching, keyed by its
    pairing tuple, with no matching object built: the one call of
    :func:`_pairings`, whose tuples the matchings share.  Each key passes
    the checks of the matching constructor; one that fails is a
    VerificationError naming it."""
    pairings = _pairings(n)
    for pairing in pairings:
        if len(pairing) != 2 * n or not is_noncrossing(pairing):
            raise VerificationError(
                f"pairing {pairing} is not a non-crossing matching of {2 * n} vertices")
    return dict(zip(pairings, range(len(pairings))))


class _Step(NamedTuple):
    """Right multiplication by one generator t_d over all_matchings(n)."""

    # moves[k] = (k', loops): matching k times t_d is 2^loops matching k'.
    moves: tuple[tuple[int, int], ...]
    # preimages[j]: the k != j with k' = j, in increasing order.
    preimages: tuple[tuple[int, ...], ...]


# The table _steps(n) returns: the entry of t_d at d-1.
_Steps = tuple[_Step, ...]


@limits.capped_cache(limits.max_n, "Temperley-Lieb step table", maxsize=16)
def _steps(n: int) -> _Steps:
    """Each generator's moves and their preimages, one pass over the
    matchings per generator, each glued in a copy of its pairing and looked
    up by the glued tuple.  The ints are the index's own, so a preimage
    tuple holds no int objects of its own."""
    index = _matching_index(n)
    table = []
    for d in range(1, n):
        moves = []
        groups: dict[int, list[int]] = {}
        for pairing, k in index.items():
            glued = list(pairing)
            loops = _glue(glued, d)
            j = k if loops else index[tuple(glued)]
            moves.append((j, loops))
            if j != k:
                groups.setdefault(j, []).append(k)
        preimages: list[tuple[int, ...]] = [()] * len(moves)
        for j, ks in groups.items():
            preimages[j] = tuple(ks)
        table.append(_Step(tuple(moves), tuple(preimages)))
    return tuple(table)


def _row_times_theta_gen(steps: _Steps, row: dict[int, int], d: int) -> dict[int, int]:
    """row . (t_d - 1) for a row {index in all_matchings(n): coeff}, read
    off the step table; zero terms are dropped.  The one forward product:
    :func:`_theta_row`, :func:`f_coeff` and :func:`_theta_columns` call it.
    It consumes row, popping each term as it reads it, so each of the coset
    chain's big ints is freed once read; the store's peak rests on that."""
    moves = steps[d - 1].moves
    terms: dict[int, int] = {}
    while row:
        k, c = row.popitem()
        glued, loops = moves[k]
        terms[glued] = terms.get(glued, 0) + (c << loops)
        terms[k] = terms.get(k, 0) - c
    return {k: c for k, c in terms.items() if c}


def _dual_times_theta_gen(steps: _Steps, dual: dict[int, int], d: int) -> dict[int, int]:
    """The dual row of (t_d - 1) Y from that of Y, {k: coefficient of the
    target matching in m_k . Y}, the transpose of
    :func:`_row_times_theta_gen`: entry k becomes
    ``(dual[g_k] << loops_k) - dual[k]`` with ``(g_k, loops_k) =
    moves[k]``.  Only k in dual or with g_k in dual can be nonzero, so the
    walk is over dual's own entries j and their preimages alone.

    :func:`_glue` closes a loop only where it leaves the pairing as it is,
    so g_k != k implies loops_k = 0: a preimage k of j that is not in dual
    takes ``dual[j]`` as it is, nonzero as every entry of dual is, and no
    k is a preimage of two entries."""
    moves, preimages = steps[d - 1]
    get = dual.get
    terms: dict[int, int] = {}
    for j, c in dual.items():
        glued, loops = moves[j]
        v = (get(glued, 0) << loops) - c
        if v:
            terms[j] = v
        for k in preimages[j]:
            if k not in dual:
                terms[k] = c
    return terms


def _theta_row(u: Perm) -> dict[int, int]:
    """theta(u) as a row {index in all_matchings(n): coeff}: the
    left-to-right product of (t_i - 1) over a reduced word of u, one row
    step at a time over ``_steps(n)``."""
    steps = _steps(len(u))
    # The identity matching comes last in all_matchings(n).
    row = {catalan(len(u)) - 1: 1}
    for d in reduced_word(u):
        row = _row_times_theta_gen(steps, row, d)
    return row


# A lane of _theta_columns holds a signed byte plus _BYTE_BIAS.
_BYTE_BIAS = 128
_UNBIAS = bytes(x ^ _BYTE_BIAS for x in range(256))


def _theta_columns(n: int) -> list[array]:
    """theta(g) for every g in S_n as columns: column k, for matching k of
    all_matchings(n), is an ``array('b')`` whose entry r is the coefficient
    of that matching in theta(g), g^-1 of rank r in
    :func:`tlimm.perm.perm_index`.  A coefficient outside a signed byte is a
    VerificationError naming n, the value, and the w and u of the store entry
    it would fill (see :func:`all_tl_immanants`).

    The pass walks the coset chain.  G_a, the permutations fixing 1..a-1,
    is the disjoint union of the blocks G_{a+1} c_j, j = a..n, with
    c_j = s_a s_{a+1} ... s_{j-1}; as c_{j+1} = c_j s_j, block j+1 of a
    column is block j times (t_j - 1), all of G_{a+1} at once.  The blocks
    run in order of j = g^-1(a), each in the order of G_{a+1}, so by
    induction G_a, and in the end S_n = G_1, is in lexicographic order of
    g^-1.
    """
    steps, size = _steps(n), catalan(n)
    columns = [array("b", bytes(math.factorial(n))) for _ in range(size)]
    # theta(e), on G_n = {e} and at rank 0, is the identity matching, which
    # comes last in all_matchings(n); for n < 2 that is all of S_n.
    columns[-1][0] = 1
    level = {size - 1: 1}
    for a in range(n - 1, 0, -1):
        lanes = math.factorial(n - a)
        one = int.from_bytes(b"\x01\x00" * lanes, "little")
        zero, top, high = _BYTE_BIAS * one, 1 << (16 * lanes), 0xFF00 * one
        block, level = level, {}
        for j in range(a, n + 1):
            if j > a:
                block = _row_times_theta_gen(steps, block, j - 1)
            # The check is exact.  Every lane of the block multiplied passed
            # it, so holds a signed byte.  k is k' t_{j-1} only if k has the
            # cup (j-1)-j: then k' is k (one loop) or joins j-1 and j to the
            # ends of one of k's other n - 1 chords, either way round.  So
            # lane x_i of v sums bytes with coefficients (2, 1 each, and -1
            # for k) of absolute sum at most 2n + 1: |x_i| <= 128 (2n + 1)
            # < 2^15 for n < 127.  If v + zero, the sum of (x_i + 128)
            # 2^(16 i), lies in [0, 2^(16 lanes)) with no high lane byte set,
            # its base-2^16 digits y_i lie in [0, 256), and as
            # |x_i + 128 - y_i| < 2^16, y_i = x_i + 128: every x_i is a
            # signed byte.  Signed bytes x_i, in turn, give such an int.
            start = (j - a) * lanes
            for k, v in block.items():
                biased = v + zero
                if not 0 <= biased < top or biased & high:
                    raise _overflow(n, a, start, k, biased + ((1 << 15) - _BYTE_BIAS) * one)
                if a > 1:
                    level[k] = level.get(k, 0) + (v << (16 * start))
                else:
                    signed = biased.to_bytes(2 * lanes, "little")[::2].translate(_UNBIAS)
                    memoryview(columns[k]).cast("B")[start:start + lanes] = signed
    return columns


def _overflow(n: int, a: int, start: int, k: int, shifted: int) -> VerificationError:
    """The error for the first lane outside a signed byte of column k's
    block at lane start of G_a; lane i of shifted holds x_i + 2^15, an
    unsigned 16-bit digit by the bound in :func:`_theta_columns`."""
    digits = array("H", shifted.to_bytes(2 * math.factorial(n - a), "little"))
    i, c = next((i, x - (1 << 15)) for i, x in enumerate(digits)
                 if not -_BYTE_BIAS <= x - (1 << 15) < _BYTE_BIAS)
    # Lane L of G_a holds theta(g) for the L-th g^-1 of G_a in lexicographic
    # order, which the store keeps at w = beta_inv(m_k)^-1 and u = g^-1.
    tail = next(itertools.islice(itertools.permutations(range(a, n + 1)), start + i, None))
    u, w = tuple(range(1, a)) + tail, inverse(_beta_inv(n, next(itertools.islice(_matching_index(n), k, None))))
    return VerificationError(
        f"f_w(u) = {c} at n={n}, w={format_perm(w)}, u={format_perm(u)} "
        "does not fit the signed-byte store")


# The largest n whose store fits its signed-byte lanes: at n = 9,
# f_coeff(214365879, 869472513) = 155.
STORE_MAX_N = 8


def _below_store_ceiling(store: Callable) -> Callable:
    """The store with n > :data:`STORE_MAX_N` refused first, whatever the
    caps: its LimitError names the witness and gives no cap advice, which
    could not help.  ``cache_info`` and ``cache_clear`` are the store's."""

    @functools.wraps(store)
    def checked(n: int):
        if n > STORE_MAX_N:
            raise LimitError(
                f"Temperley-Lieb immanant store requested for n={n}: its columns hold "
                f"f_w(u) in signed-byte lanes, which hold n <= {STORE_MAX_N} only; at "
                "n = 9, f_w(u) = 155 for w = 214365879, u = 869472513")
        return store(n)

    return checked


# Four sizes, not every n up to the cap: `tlimm verify --suite all` then
# builds stores 2-6 twice, but holding the 2.2 MB store of n = 7 to its end
# raised its peak RSS by 0.5 MB.
@_below_store_ceiling
@limits.capped_cache(limits.theta_max_n, "Temperley-Lieb immanant store", maxsize=4)
def all_tl_immanants(n: int) -> dict[Perm, array]:
    """The coefficients f_w(u) of every 321-avoiding w in S_n, the one
    stored table of them: column ``[w]`` is an ``array('b')`` whose entry
    ``r`` is f_w(u) for the u of rank r in :func:`tlimm.perm.perm_index`.
    The columns are shared: do not change them.

    Above :data:`STORE_MAX_N` some f_w(u) leaves a signed byte, so such an
    n is a LimitError that names the witness whatever the caps, raised
    before the table cap is checked and before any table or column is
    built: the n = 9 store would otherwise allocate Catalan(9) = 4 862
    columns of 9! bytes, about 1.76 GB, before it found the first such
    coefficient.

    :func:`_theta_columns` gives the coefficient of m_k in theta(g) at the
    rank of g^-1.  The flip * of a diagram, top to bottom, is an
    anti-automorphism of TL_n that fixes every t_i, so theta(g^-1) =
    theta(g)* and beta(w^-1) = beta(w)*; the coefficient of m_k in theta(g)
    is that of m_k* in theta(g^-1), which is f_w(g^-1) for
    w = beta_inv(m_k)^-1.  So column k is the column of that w, with no
    gather.

    >>> all_tl_immanants(2)[(2, 1)].tolist()
    [0, 1]
    """
    ws = [_beta_inv(n, pairing) for pairing in _matching_index(n)]
    columns = dict(zip(map(inverse, ws), _theta_columns(n)))
    return {w: columns[w] for w in ws}


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
    perms = perm_index(n).perms
    rows = [{} for _ in perms]
    # The store's key k is beta_inv(m_k): its columns follow all_matchings(n).
    for m, column in zip(all_matchings(n), all_tl_immanants(n).values()):
        for r in itertools.compress(range(len(perms)), column):
            rows[r][m] = column[r]
    return {u: TLElement(n, row) for u, row in zip(perms, rows)}


def f_coeff(w: Perm, u: Perm) -> int:
    """The coefficient of beta(w) in theta(u), met in the middle of a
    reduced word of u: a row from the identity over its front and a dual
    row from beta(w) over its back, the smaller of the two taking each next
    step, summed against each other where they meet.

    >>> f_coeff((2, 1, 4, 3), (4, 3, 2, 1))
    2
    """
    if len(w) != len(u):
        raise PreconditionError(f"size mismatch: {len(w)} vs {len(u)}")
    n = len(u)
    steps = _steps(n)
    word = reduced_word(u)
    # The identity matching comes last in all_matchings(n).
    row, dual = {catalan(n) - 1: 1}, {_matching_index(n)[_beta_pairing(w)]: 1}
    front, back = 0, len(word)
    while front < back:
        if len(row) <= len(dual):
            row = _row_times_theta_gen(steps, row, word[front])
            front += 1
        else:
            back -= 1
            dual = _dual_times_theta_gen(steps, dual, word[back])
    if len(dual) < len(row):
        row, dual = dual, row
    return sum(c * dual.get(k, 0) for k, c in row.items())
