"""
Immanants as exact coefficient columns over S_n.

An :class:`Immanant` holds one exact coefficient per permutation (an int,
or a Fraction after rational scaling), listed by rank in perm_index(n);
evaluating it on a matrix of exact rationals gives the polynomial value
sum_u f(u) * x_{1,u(1)} ... x_{n,u(n)}.

Skew shapes live inside the n x n box with (1, 1) the upper-left cell:
``SkewShape(n, lam, mu)`` holds cell (i, j) iff mu_i < j <= lam_i.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import operator
import re
from array import array
from fractions import Fraction
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from . import limits
from .errors import LimitError, PreconditionError, VerificationError
from .perm import (
    Perm,
    adjacent_1324_ranks,
    check_perm,
    format_perm,
    inverse,
    is_321_avoiding,
    parse_perm,
    perm_index,
)
from .tl import all_tl_immanants

Coeff = int | Fraction
Matrix = tuple[tuple[Fraction, ...], ...]


def _integer(x) -> int:
    """Read an integer from JSON: an int, an integer string, or a float of
    integral value; a boolean, a fractional or non-finite number, or a value
    of another type, is a ValueError."""
    if isinstance(x, bool) or isinstance(x, float) and not x.is_integer():
        raise ValueError(f"not an integer: {x!r}")
    try:
        return int(x)
    except TypeError:
        raise ValueError(f"not an integer: {x!r}") from None


_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def _rational(x) -> Fraction:
    """Read an exact rational: an int, a Fraction, or a string "p" or "p/q";
    anything else, and q = 0, is a ValueError.

    >>> _rational("-2/4"), _rational(3)
    (Fraction(-1, 2), Fraction(3, 1))
    """
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    match = _RATIONAL.fullmatch(x.strip()) if isinstance(x, str) else None
    if match is None:
        raise ValueError(f"not a rational p or p/q: {x!r}")
    p, q = match.groups()
    if q is not None and int(q) == 0:
        raise ValueError(f"zero denominator in {x!r}")
    return Fraction(int(p), int(q or 1))


class _SkewShapeFields(NamedTuple):
    n: int
    lam: tuple[int, ...]
    mu: tuple[int, ...]


class SkewShape(_SkewShapeFields):
    """A skew diagram lam/mu embedded in the n x n box, its bounds as tuples:
    an immutable record that hashes and compares as the tuple (n, lam, mu)."""

    __slots__ = ()

    def __new__(cls, n: int, lam: Sequence[int], mu: Sequence[int]) -> SkewShape:
        if not isinstance(lam, tuple) or not isinstance(mu, tuple):
            lam, mu = tuple(lam), tuple(mu)
        if len(lam) != n or len(mu) != n:
            raise ValueError("lam and mu must each list one bound per row")
        if any(not 0 <= x <= n for x in lam + mu):
            raise ValueError(f"row bounds must lie in [0, {n}]")
        if any(lam[i] < lam[i + 1] or mu[i] < mu[i + 1] for i in range(n - 1)):
            raise ValueError("lam and mu must be non-increasing")
        if any(m > l for l, m in zip(lam, mu)):
            raise ValueError("mu must be contained in lam")
        return tuple.__new__(cls, (n, lam, mu))

    def contains_cell(self, i: int, j: int) -> bool:
        """True iff the cell in row i, column j (1-based) is in the shape."""
        return self.mu[i - 1] < j <= self.lam[i - 1]

    def to_json(self) -> dict:
        return {"n": self.n, "lambda": list(self.lam), "mu": list(self.mu)}

    @classmethod
    def from_json(cls, data: Mapping) -> SkewShape:
        """Read the JSON form; a document of the wrong shape is a ValueError."""
        try:
            n = _integer(data["n"])
            lam = _pad_bounds(n, data["lambda"])
            mu = _pad_bounds(n, data.get("mu", []))
        except TypeError as exc:
            raise ValueError(f"not a skew shape document: {exc}") from None
        return cls(n, lam, mu)


def _pad_bounds(n: int, values: Iterable[int]) -> tuple[int, ...]:
    # n sizes the padding, so its sign and cap are checked before anything
    # is built.
    if n < 0:
        raise ValueError(f"negative size n={n}")
    limits.check_limit(n, limits.max_n(), "skew shape")
    out = [_integer(v) for v in values]
    if len(out) > n:
        raise ValueError(f"more than {n} row bounds given")
    return tuple(out + [0] * (n - len(out)))


def skew_shape(n: int, lam: Sequence[int], mu: Sequence[int] = ()) -> SkewShape:
    """Build a shape, padding trailing zero rows.

    >>> skew_shape(5, (5, 5, 3, 2, 2), (2, 1)).contains_cell(3, 5)
    False
    """
    return SkewShape(n, _pad_bounds(n, lam), _pad_bounds(n, mu))


def hull(w: Perm) -> SkewShape:
    """The minimal skew shape through all points (i, w(i)): row i spans from
    the running minimum of w on [1, i] to the suffix maximum on [i, n].

    A running minimum and a suffix maximum are non-increasing, and mu_i <
    w(i) <= lam_i, so the shape needs only its two outer bounds checked,
    mu_n >= 0 and lam_1 <= n; a w that breaks them is a ValueError, as the
    checking constructor raises.  w is not otherwise checked: this is on
    hot paths, such as suite A9's pass over S_n.

    >>> hull((2, 1, 4, 3))
    SkewShape(n=4, lam=(4, 4, 4, 3), mu=(1, 0, 0, 0))
    """
    n = len(w)
    mu, lam = [], [0] * n
    running = n + 1
    for x in w:
        if x < running:
            running = x
        mu.append(running - 1)
    running = 0
    for i in range(n - 1, -1, -1):
        if w[i] > running:
            running = w[i]
        lam[i] = running
    if n and (mu[-1] < 0 or lam[0] > n):
        raise ValueError(f"row bounds must lie in [0, {n}]")
    return tuple.__new__(SkewShape, (n, tuple(lam), tuple(mu)))


def lies_in(u: Perm, shape: SkewShape) -> bool:
    """True iff every point (i, u(i)) is a cell of the shape."""
    if len(u) != shape.n:
        raise PreconditionError(f"size mismatch: {len(u)} vs {shape.n}")
    return all(map(operator.lt, shape.mu, u)) and all(map(operator.le, u, shape.lam))


# ---------------------------------------------------------------------------
# Immanants


class Immanant:
    """An exact map S_n -> coefficients: ``values[r]`` is the normalized
    coefficient of the u of rank r in perm_index(n), zeros included.  The
    values may be a store column of :func:`all_tl_immanants`, so they must
    not be changed.  Equal when n and values are; unhashable.

    ``rows`` is None, or, on the immanants :func:`percent_immanant` and
    :func:`cm_immanant` return, the allowed values of each row: the values
    are then sign(u) on the u with u(i) in ``rows[i - 1]`` for every row i,
    so Imm_f(X) is the determinant of X with the entries outside the rows
    set to zero, and :func:`evaluate` computes it so.  Such an immanant
    builds its values only when they are first read, as the ``array('b')``
    that :func:`signed_bytes` makes of the rows' :func:`row_mask`, and
    keeps them; they must not be changed either.  Every other immanant,
    from the constructor, :meth:`from_json`, + and :meth:`scaled` among
    them, has ``rows`` None and its values from the start."""

    __slots__ = ("n", "_values", "rows")
    __hash__ = None

    def __init__(self, n: int, coeffs: Mapping[Perm, Coeff]):
        rank = perm_index(n).rank  # n held to the whole-S_n cap first
        values = [0] * len(rank)
        for u, c in coeffs.items():
            r = rank.get(u)
            if r is None:
                raise PreconditionError(f"{u} is not a permutation of S_{n}")
            values[r] = _exact(c)
        self.n, self._values, self.rows = n, values, None

    @property
    def values(self) -> Sequence[Coeff]:
        """The coefficients by rank, built from ``rows`` on the first read
        where they are not held yet: sign(u) on the u with u(i) in
        ``rows[i - 1]`` for every row i, zero elsewhere."""
        values = self._values
        if values is None:
            values = self._values = signed_bytes(self.n, 1, row_mask(self.n, self.rows))
        return values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and all(map(operator.eq, self.values, other.values))

    def __repr__(self):
        return f"Immanant(n={self.n!r}, coeffs={self.coeffs!r})"

    @property
    def coeffs(self) -> dict[Perm, Coeff]:
        """The nonzero coefficients by permutation, in rank order: a new
        dict, built for printing; changing it changes nothing else."""
        values = self.values
        return dict(zip(itertools.compress(perm_index(self.n).perms, values),
                        filter(None, values)))

    def coeff(self, u: Perm) -> Coeff:
        r = perm_index(self.n).rank.get(tuple(u))
        if r is None:
            raise PreconditionError(f"{u} is not a permutation of S_{self.n}")
        return self.values[r]

    def __add__(self, other: Immanant) -> Immanant:
        if self.n != other.n:
            raise PreconditionError(f"size mismatch: {self.n} vs {other.n}")
        return _wrap(self.n, list(map(_exact, map(operator.add, self.values, other.values))))

    def scaled(self, c: Coeff) -> Immanant:
        c = _exact(c)
        return _wrap(self.n, [_exact(c * v) if v else 0 for v in self.values])

    def to_json(self) -> dict:
        terms = [{"perm": format_perm(u), "coeff": str(c)} for u, c in self.coeffs.items()]
        return {"n": self.n, "terms": terms}

    @classmethod
    def from_json(cls, data: Mapping) -> Immanant:
        """Read the JSON form; a document of the wrong shape is a ValueError,
        and n above the whole-S_n cap a LimitError, before any term is read."""
        try:
            n = _integer(data["n"])
            if n < 0:
                raise ValueError(f"immanant size must be non-negative, got {n}")
            limits.check_limit(n, limits.max_n(), "immanant")
            coeffs = {}
            for term in data["terms"]:
                # to_json writes the one permutation of S_0 as "".
                text = str(term["perm"])
                u = () if n == 0 and text == "" else parse_perm(text)
                if len(u) != n:
                    raise ValueError(f"permutation {text!r} is not in S_{n}")
                if u in coeffs:
                    raise ValueError(f"permutation {format_perm(u)!r} is listed twice")
                coeffs[u] = _rational(term["coeff"])
        except TypeError as exc:
            raise ValueError(f"not an immanant document: {exc}") from None
        return cls(n, coeffs)


def zero_immanant(n: int) -> Immanant:
    return Immanant(n, {})


def _exact(c: Coeff) -> Coeff:
    """c normalized, a Fraction of denominator 1 as its int; a type other
    than int or Fraction, bool included, is inexact and a PreconditionError."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    raise PreconditionError(f"inexact coefficient of type {type(c).__name__}")


def _wrap(n: int, values: Sequence[Coeff] | None,
          rows: tuple[Collection[int], ...] | None = None) -> Immanant:
    """The Immanant over values, exact and normalized by rank, held
    uncopied, with the rows slot given; values None, with rows given,
    leaves them to be built from the rows when first read."""
    f = Immanant.__new__(Immanant)
    f.n, f._values, f.rows = n, values, rows
    return f


# ---------------------------------------------------------------------------
# Columns
#
# A column lists one value per u in S_n, by the ranks r of perm_index(n).
# Single columns are ``array('b')``, one signed byte per u: the store's
# columns of f_w(u), the closed forms of classify, and the signed
# indicators of percent and complementary-minor immanants.  They are built
# in byte lanes from the prefix lanes of a cached basis: below[i][v] is 1
# in the lane of every u with u(i + 1) <= v, so the u whose row takes a
# value in (lo, hi] are the lanes of one difference, below[i][hi] -
# below[i][lo], and no row is translated per call.  Masks and tallies stay
# ints, one unsigned byte lane per u, from the basis to signed_bytes, which
# turns them into the column once.
#
# A packed column is one int over S_n, the sum of f(u_r) * 2^(32r): a
# signed 32-bit lane per u.  Only sums that can leave a signed byte, and
# the columns compared with them, are packed: pack_column spreads a byte
# column into the lanes, and since the packing is linear, +, unary -,
# s * column, sum and == then act on every value at once, in exact integer
# arithmetic.  The zero column is 0.

_LANE = 32
# The most terms sum_columns adds; its docstring proves the bound.
MAX_TERMS = (1 << (_LANE - 1)) // 128
# _NEGATE[x] is -x as an unsigned byte: the two's complement of a byte lane.
_NEGATE = bytes(-x & 0xFF for x in range(256))


class _Basis(NamedTuple):
    # below[i][v] has byte lane r equal to 1 iff perms[r][i] <= v, for
    # v = 0..n: 0 at v = 0, and every row shares ``ones`` at v = n.
    below: tuple[tuple[int, ...], ...]
    ones: int  # 1 in every 8-bit lane
    one: int  # 1 in every 32-bit lane
    odd_bytes: int  # 0xFF in the 8-bit lanes of odd permutations


def _spread(data: bytes, width: int = _LANE // 8) -> int:
    """The int whose lane r of ``width`` bytes holds the unsigned byte
    data[r]: by default a packed column."""
    lanes = bytearray(width * len(data))
    lanes[::width] = data
    return int.from_bytes(lanes, "little")


# _FLIP[x] is 1 - x on the bytes 0 and 1: the other parity.
_FLIP = bytes([1, 0]) + bytes(254)


def _odd_lanes(n: int) -> bytes:
    """One byte per rank of perm_index(n): 1 for the odd permutations.  S_m
    in rank order is m blocks of S_(m-1), block v led by the value v + 1,
    which adds v inversions; so the lanes of S_m are those of S_(m-1) and
    their flip, alternating block by block.

    >>> _odd_lanes(3)
    b'\\x00\\x01\\x01\\x00\\x00\\x01'
    """
    odd = b"\x00"
    for m in range(2, n + 1):
        flip = odd.translate(_FLIP)
        odd = b"".join(flip if v & 1 else odd for v in range(m))
    return odd


# Room for every n up to the cap: `tlimm verify --suite all` builds each
# basis once, and the largest it reads, n = 7, is 0.24 MB.
@limits.capped_cache(limits.max_n, "column basis", maxsize=16)
def _basis(n: int) -> _Basis:
    perms = perm_index(n).perms
    ones = int.from_bytes(b"\x01" * len(perms), "little")
    # at_most[v - 1] maps a value to 1 iff it is at most v.
    at_most = [bytes(x <= v for x in range(256)) for v in range(1, n)]
    below = tuple(
        (0, *(int.from_bytes(values.translate(table), "little") for table in at_most), ones)
        for values in map(bytes, zip(*perms)))
    return _Basis(below, ones, _spread(b"\x01" * len(perms)),
                  0xFF * int.from_bytes(_odd_lanes(n), "little"))


def _runs(n: int, allowed: Iterable[int]) -> Iterable[tuple[int, int]]:
    """The maximal runs (lo, hi] of the values of allowed in 1..n, in
    increasing order, read value by value."""
    present = bytearray(n + 2)
    for x in allowed:
        if 1 <= x <= n:
            present[x] = 1
    starts = [v - 1 for v in range(1, n + 1) if present[v] and not present[v - 1]]
    ends = [v for v in range(1, n + 1) if present[v] and not present[v + 1]]
    return zip(starts, ends)


def _row_lanes(n: int, rows: Sequence[Iterable[int]]) -> Iterable[int]:
    """For each row i, the int whose byte lane r is 1 iff u_r(i) is in
    ``rows[i - 1]``: one prefix difference per run of allowed values.  A
    ``range`` of step 1 is one run, clipped to 1..n, and no value of it is
    read; any other row, such as the sets J and its complement of a
    complementary minor, is read value by value by :func:`_runs`."""
    if len(rows) != n:
        raise PreconditionError(f"{len(rows)} rows given for n={n}")
    for below, allowed in zip(_basis(n).below, rows):
        if type(allowed) is range and allowed.step == 1:
            lo, hi = max(allowed.start - 1, 0), min(allowed.stop - 1, n)
            yield below[hi] - below[lo] if lo < hi else 0
            continue
        lanes = 0
        for lo, hi in _runs(n, allowed):
            lanes += below[hi] - below[lo]
        yield lanes


def row_tally(n: int, rows: Sequence[Iterable[int]]) -> int:
    """The byte-lane column, one 8-bit lane per rank of perm_index(n), whose
    lane for u counts the rows i with u(i) in ``rows[i - 1]``; there must
    be n rows, read as :func:`_row_lanes` reads them.  A value outside 1..n
    matches nothing.  A lane counts at most n <= 255 rows, so no lane
    carries."""
    return sum(_row_lanes(n, rows))


def row_mask(n: int, rows: Sequence[Iterable[int]]) -> int:
    """The byte-lane column, one 8-bit lane per rank of perm_index(n), that
    is 1 for the u with u(i) in ``rows[i - 1]`` for every row i, else 0:
    the rows of :func:`row_tally` ANDed.  At n = 0 the one (empty) u is
    held."""
    return functools.reduce(operator.and_, _row_lanes(n, rows), _basis(n).ones)


def signed_bytes(n: int, s: int, lanes: int) -> array:
    """The ``array('b')`` of s * sign(u_r) * v_r over the ranks r of
    perm_index(n), for s = +-1 and the byte lanes v_r in [0, 127] of
    ``lanes``: on a :func:`row_mask` or :func:`shape_mask`, the signed
    indicator of the u the mask holds.  The lanes whose sign is -1 take
    -v_r as an unsigned byte, from one negation of every lane at once: bit
    7 of v_r + 127, a sum no lane carries out of, is 1 iff v_r > 0, and
    ``nonzero`` * 256 - lanes borrows 1 from the next lane exactly where
    v_r > 0, leaving 256 - v_r there and 0 in the zero lanes."""
    basis = _basis(n)
    flip = basis.odd_bytes if s > 0 else ~basis.odd_bytes
    nonzero = (lanes + 0x7F * basis.ones) >> 7 & basis.ones
    minus = (nonzero << 8) - lanes
    return array("b", (lanes ^ ((lanes ^ minus) & flip)).to_bytes(math.factorial(n), "little"))


def pack_column(n: int, values: array) -> int:
    """The packed column of an ``array('b')`` over S_n, such as a store
    column of :func:`all_tl_immanants`: each byte is spread into its lane
    unsigned, and a byte with its high bit set stands for itself less 256.

    >>> Column(2, pack_column(2, array("b", [3, -1])))
    Immanant(n=2, coeffs={(1, 2): 3, (2, 1): -1})
    """
    unsigned = _spread(values.tobytes())
    return unsigned - ((unsigned & (_basis(n).one << 7)) << 1)


def sum_columns(columns: Sequence[int]) -> int:
    """The packed sum of columns whose values are signed bytes, as packed
    store columns and signed indicators, negated or not, are.  A sum of k
    values in [-128, 127] lies in [-128k, 127k], inside the lane range
    [-2^31, 2^31) for every k <= 2^31 / 128 = 2^24 = :data:`MAX_TERMS`, so
    no lane overflows; more terms are a VerificationError.

    >>> column = pack_column(2, array("b", [1, -2]))
    >>> Column(2, sum_columns([column] * 3))
    Immanant(n=2, coeffs={(1, 2): 3, (2, 1): -6})
    """
    if len(columns) > MAX_TERMS:
        raise VerificationError(
            f"a sum of {len(columns)} columns could overflow a {_LANE}-bit lane")
    return sum(columns)


class Column(NamedTuple):
    """A packed column of S_n as a check's value: equal to another iff
    their n and lanes are, and shown as the Immanant over its decoded
    lanes, each read as a signed 32-bit int."""

    n: int
    lanes: int

    def __repr__(self) -> str:
        top = _basis(self.n).one << (_LANE - 1)
        lanes = array("i")
        lanes.frombytes(((self.lanes + top) ^ top).to_bytes(
            lanes.itemsize * math.factorial(self.n), "little"))
        return repr(_wrap(self.n, lanes))


def _shape_rows(shape: SkewShape) -> tuple[range, ...]:
    """The values each row of a shape allows: (mu_i, lam_i] for row i."""
    return tuple(range(m + 1, l + 1) for m, l in zip(shape.mu, shape.lam))


def shape_mask(shape: SkewShape) -> int:
    """The :func:`row_mask` of the u that lie in the shape, row i taking a
    value in (mu_i, lam_i], read from the bounds themselves: the prefix
    differences below[i][lam_i] - below[i][mu_i] ANDed, with no row list
    built and no run searched.  A row with mu_i = 0 is below[i][lam_i]
    alone, and a whole row (0, n] is skipped."""
    n = shape.n
    basis = _basis(n)
    mask = basis.ones
    for below, m, l in zip(basis.below, shape.mu, shape.lam):
        if m:
            mask &= below[l] - below[m]
        elif l != n:
            mask &= below[l]
    return mask


def percent_immanant(shape: SkewShape) -> Immanant:
    """Signed indicator of the permutations lying in the shape: row i takes
    a value in (mu_i, lam_i].  It is the determinant of X with the entries
    outside the shape set to zero, so it is returned with ``rows`` set to
    the shape's rows, and :func:`evaluate` takes it by elimination.  n is
    held to the whole-S_n cap here, but no column is built: its values,
    sign(u) on the u in :func:`shape_mask`, are built on their first read
    and must not be changed.

    >>> percent_immanant(hull((2, 1, 4, 3))).coeff((2, 1, 4, 3))
    1
    >>> evaluate(percent_immanant(hull((2, 1, 4, 3))),
    ...          [[1, 2, 0, 1], [3, 4, 1, 0], [0, 1, 2, 1], [1, 0, 1, 2]])
    Fraction(-6, 1)
    """
    limits.check_limit(shape.n, limits.max_n(), "percent immanant")
    return _wrap(shape.n, None, _shape_rows(shape))


def tl_immanant(w: Perm) -> Immanant:
    """The Temperley-Lieb immanant of a 321-avoiding w: the coefficient of u
    is the coefficient of beta(w) in theta(u).  Its values are the stored
    column of w itself, not a copy.  A non-permutation is refused as one,
    whether it fails the 321 test (checked only then) or misses the store."""
    if not is_321_avoiding(w):
        check_perm(w)
        raise PreconditionError(f"{w} contains the pattern 321")
    column = all_tl_immanants(len(w)).get(w)
    if column is None:
        raise PreconditionError(f"not a permutation of 1..{len(w)}: {w}")
    return _wrap(len(w), column)


def _cm_rows(n: int, I: Iterable[int], J: Iterable[int]) -> tuple[frozenset[int], ...]:
    """The values each row allows in the complementary minor of (I, J):
    the rows in I take values in J, the other rows the values outside J."""
    I, J = frozenset(I), frozenset(J)
    if len(I) != len(J):
        raise PreconditionError(f"|I| = {len(I)} but |J| = {len(J)}")
    if n < 0:
        raise PreconditionError(f"n must be non-negative, got {n}")
    limits.check_limit(n, limits.max_n(), "complementary minor")
    if not I | J <= set(range(1, n + 1)):
        raise PreconditionError(
            f"I and J must lie in 1..{n}, got I = {sorted(I)}, J = {sorted(J)}"
        )
    outside = frozenset(range(1, n + 1)) - J
    return tuple(J if i in I else outside for i in range(1, n + 1))


def cm_immanant(n: int, I: Iterable[int], J: Iterable[int]) -> Immanant:
    """The complementary-minor immanant of (I, J): sign(u) on the u with
    u(I) = J, zero elsewhere.  It is the determinant of X with the entries
    outside the rows of :func:`_cm_rows` set to zero, so it is returned
    with ``rows`` set to those, and :func:`evaluate` takes it by
    elimination.  I, J and n are checked here, the cap among them, but no
    column is built: its values are built on their first read and must
    not be changed.

    >>> cm_immanant(3, {1}, {3})
    Immanant(n=3, coeffs={(3, 1, 2): 1, (3, 2, 1): -1})
    """
    return _wrap(n, None, _cm_rows(n, I, J))


# ---------------------------------------------------------------------------
# Evaluation on exact rational matrices


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    """Coerce nested sequences of ints / Fractions / "p/q" strings into a
    square matrix of Fractions; a Fraction entry is kept as it is."""
    out = tuple(tuple(x if type(x) is Fraction else _rational(x) for x in row)
                for row in rows)
    n = len(out)
    if any(len(row) != n for row in out):
        raise ValueError("matrix must be square")
    return out


def _load_json(text: str):
    """json.loads, with a document nested too deeply for the parser a
    ValueError like any other malformed document."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


def parse_matrix(text: str) -> Matrix:
    """Parse a JSON array of arrays of rational strings."""
    try:
        return as_matrix(_load_json(text))
    except TypeError as exc:
        raise ValueError(f"not a matrix document: {exc}") from None


def _integer_rows(X: Sequence[Sequence[int | Fraction]]) -> tuple[list[list[int]], int]:
    """Each row of X times the lcm d_i of its denominators, and
    d_1 * ... * d_n: the rows as integers and what divides their products.
    Each entry's numerator and denominator are read once, as a pair."""
    ratios = [[x.as_integer_ratio() for x in row] for row in X]
    scales = [math.lcm(*(q for _, q in row)) for row in ratios]
    rows = [[p * (d // q) for p, q in row] for row, d in zip(ratios, scales)]
    return rows, math.prod(scales)


class _SplitPlan(NamedTuple):
    # prefix[j] holds u(j + 1) - 1 for each prefix u(1..j + 1), j < h, in
    # rank order: one byte per block of (n - j - 1)! ranks.
    prefix: tuple[bytes, ...]
    # code[r] is the base-n number with the digits u_r(h + 1) - 1, ...,
    # u_r(n) - 1, the first the most significant.
    code: array


def _code_type(n: int) -> str:
    """The narrowest array type of the suffix codes of the row split of
    S_n: a code has n - h digits below n, h = ceil(n/2), so it is below
    n^(n - h), which must fit the lane.  16 bits hold it up to n = 9 (9^4 =
    6 561) and 32 bits up to n = 16 (16^8 = 2^32); a larger n is a
    LimitError, never a code cut short.

    >>> _code_type(9), _code_type(10)
    ('H', 'I')
    """
    for typecode in "HI":
        if n ** (n - (n + 1) // 2) <= 1 << 8 * array(typecode).itemsize:
            return typecode
    raise LimitError(f"the suffix codes of S_{n} do not fit a 32-bit lane")


# Room for every n up to the cap, as for the basis it reads: at n = 8 the
# codes take 80 kB.
@limits.capped_cache(limits.max_n, "row split plan", maxsize=16)
def _split_plan(n: int) -> _SplitPlan:
    """The digits :func:`evaluate` splits S_n by, read from the basis
    lanes: in byte lane r, below[i][1] + ... + below[i][n] counts the
    v >= u_r(i), so n less that sum is u_r(i) - 1.  Each digit is at most
    n - 1, so no byte lane carries, and in a code lane the digits add up to
    at most n^(n - h) - 1, which :func:`_code_type` fits to the lane, so
    Horner's rule on the spread lanes carries neither."""
    typecode = _code_type(n)
    basis, size, h = _basis(n), math.factorial(n), (n + 1) // 2
    digits = [(n * basis.ones - sum(below[1:])).to_bytes(size, "little")
              for below in basis.below]
    width, code = array(typecode).itemsize, 0
    for lanes in digits[h:]:
        code = code * n + _spread(lanes, width)
    return _SplitPlan(tuple(digits[j][::math.factorial(n - j - 1)] for j in range(h)),
                      array(typecode, code.to_bytes(width * size, "little")))


def _bareiss(M: list[list[int]]) -> int:
    """The determinant of a square integer matrix, M overwritten, by
    Bareiss's fraction-free elimination: step k sets each entry below and
    right of the pivot to (x * pivot - a * y) / p, p the pivot of step
    k - 1 (1 at first), a division that Sylvester's identity makes exact, so
    every entry stays an integer; a zero pivot swaps in a lower row with a
    nonzero entry in its column, and flips the sign.  O(n^3) operations."""
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        top = M[k][k + 1:]
        pivot = M[k][k]
        for row in M[k + 1:]:
            a = row[k]
            row[k + 1:] = [(x * pivot - a * y) // prev for x, y in zip(row[k + 1:], top)]
        prev = pivot
    return sign * M[-1][-1] if n else 1


def evaluate(f: Immanant, matrix: Sequence[Sequence]) -> Fraction:
    """sum_u f(u) * prod_i X[i, u(i)], exactly, by one of two kernels
    chosen by f's ``rows``.  Row i of X is scaled by the lcm d_i of its
    denominators (:func:`_integer_rows`), so every product is an integer,
    and the sum is divided once.

    An immanant with ``rows`` set, as :func:`percent_immanant` and
    :func:`cm_immanant` return, is the determinant of X with the entries
    outside its rows set to zero: those entries of the integer rows are
    zeroed and the determinant taken by :func:`_bareiss`, O(n^3).

    Any other column is split at row h = ceil(n/2) as in a Laplace
    expansion.  Its values are scaled by the lcm d of their denominators;
    an ``array`` column, or one of ints only, as store columns are, is
    read as it is, with d = 1.  The u that share u(1..h) are one block of
    (n - h)! ranks, so with T the product of the top rows over each prefix
    and B the product of the bottom rows over each suffix code, the sum is
    sum over blocks of T(prefix) * sum over the block of f(u) * B(code(u)):
    T and B cost one multiply per prefix and per code, and the column one
    multiply per rank, n! in all.

    >>> evaluate(cm_immanant(2, (), ()), [[1, 2], [3, 4]])
    Fraction(-2, 1)
    """
    X = as_matrix(matrix)
    n = f.n
    if len(X) != n:
        raise PreconditionError(f"size mismatch: matrix {len(X)} vs immanant {n}")
    rows, scale = _integer_rows(X)
    if f.rows is not None:
        return Fraction(_bareiss([[x if j in allowed else 0 for j, x in enumerate(row, 1)]
                                  for row, allowed in zip(rows, f.rows)]), scale)
    plan = _split_plan(n)
    values, d = f.values, 1
    if not (isinstance(values, array) or set(map(type, values)) <= {int}):
        d = math.lcm(*(c.denominator for c in values))
        values = [c.numerator * (d // c.denominator) for c in values]
    h = len(plan.prefix)
    bottom = [1]
    for row in rows[h:]:
        bottom = [b * x for b in bottom for x in row]
    # Level j repeats each product for the n - j values that extend its
    # prefix; the levels stream into one another.
    top = (1,)
    for j, (row, prefix) in enumerate(zip(rows, plan.prefix)):
        top = map(operator.mul, itertools.chain.from_iterable(
            map(itertools.repeat, top, itertools.repeat(n - j))), map(row.__getitem__, prefix))
    terms = map(operator.mul, values, map(bottom.__getitem__, plan.code))
    blocks = map(sum, zip(*[terms] * math.factorial(n - h)))
    return Fraction(sum(map(operator.mul, top, blocks)), d * scale)


def witness_matrix(w: Perm) -> tuple[tuple[int, ...], ...]:
    """A 0/1 matrix with three equal rows on which the percent immanant of
    hull(w) evaluates to +-1, for w avoiding 321 and 1324 and containing
    2143.  Ones sit on the anti-diagonal, at (1,1) and (n,n), and at the
    four cells (1, i), (n+1-i, 1), (n, i), (n+1-i, n) for
    i = max(w(1), n+1 - w^{-1}(n)); rows 1, n+1-i and n coincide.
    """
    n = len(w)
    i = max(w[0], n + 1 - inverse(w)[n - 1])
    ones = {(r, n + 1 - r) for r in range(1, n + 1)}
    ones |= {(1, 1), (n, n), (1, i), (n + 1 - i, 1), (n + 1 - i, n), (n, i)}
    return tuple(
        tuple(1 if (r, c) in ones else 0 for c in range(1, n + 1))
        for r in range(1, n + 1)
    )


# ---------------------------------------------------------------------------
# The span of percent immanants


# Per n, how many byte columns alternation_violations lays out side by
# side over one block of (n-1)! ranks, so that its u-major copy and the
# negated one hold a chunk's block, 64 * n! bytes at most, not the batch.
_ALTERNATION_CHUNK = 64


def u_major(columns: Sequence[array], start: int, stop: int) -> bytearray:
    """k byte columns over the ranks start..stop - 1 laid out u-major: row
    r - start holds the k bytes columns[0][r], ..., columns[k - 1][r], so
    rows compare and gather k columns at once.

    >>> list(u_major([array("b", [1, 2, 3]), array("b", [4, 5, 6])], 1, 3))
    [2, 5, 3, 6]
    """
    k = len(columns)
    rows = bytearray(k * (stop - start))
    for j, column in enumerate(columns):
        rows[j::k] = column[start:stop]
    return rows


def alternation_violations(n: int, columns: Sequence[Sequence[Coeff]]
                           ) -> list[tuple[Perm, Perm] | None]:
    """For each rank-indexed column f, such as a store column of
    :func:`all_tl_immanants`: the first 1324-adjacent pair (w, w') in the
    pair order of :func:`adjacent_1324_ranks` with f(w) + f(w') != 0, or
    None when f is 1324-sign-alternating.  A column whose length is not n!
    is a PreconditionError.  The pairs are read as their two ranks; only a
    violation is turned back into permutations.

    The ``array('b')`` columns with no -128 are read in byte lanes, up to
    ``_ALTERNATION_CHUNK`` * n at a time, one block of the (n-1)! ranks
    that share u(1) after another: row r of the block holds the k bytes
    f(u_r) of the chunk's k columns (:func:`u_major`), a second copy is
    negated by one translate, and each of the block's pairs compares its
    left row with its negated right row, in one pass over the block's run
    of pairs.  Lanes that differ are violations; a lane's first one
    settles it and zeroes that lane in both copies, so the block's later
    pairs take the equal-rows path wherever only settled lanes differed.
    Each block lays out only the columns still pending, and the pass stops
    once every column is settled.
    Any other column goes by compress over the pairs whose values do not
    cancel.

    >>> alternation_violations(4, [all_tl_immanants(4)[(1, 3, 2, 4)], [0] * 24])
    [((1, 2, 3, 4), (1, 3, 2, 4)), None]
    """
    left, right = adjacent_1324_ranks(n)
    perms = perm_index(n).perms
    size = len(perms)
    found: list[tuple[Perm, Perm] | None] = [None] * len(columns)
    bytewise = []
    for i, column in enumerate(columns):
        if len(column) != size:
            raise PreconditionError(f"column {i} has {len(column)} entries, not {n}! = {size}")
        # Without -128, f(w) + f(w') = 0 iff the byte of f(w) equals the
        # byte of -f(w').
        if (isinstance(column, array) and column.typecode == "b"
                and b"\x80" not in column.tobytes()):
            bytewise.append(i)
        else:
            sums = map(operator.add, map(column.__getitem__, left), map(column.__getitem__, right))
            ranks = next(itertools.compress(zip(left, right), sums), None)
            if ranks:
                found[i] = perms[ranks[0]], perms[ranks[1]]
    # A pair swaps two values after position 1, so both of its permutations
    # lie in the block of (n-1)! ranks that share u(1), and each block's
    # pairs are one run of the pair order: a chunk is laid out one block at
    # a time, and each run is walked once per chunk.
    width = size // max(n, 1)
    step = _ALTERNATION_CHUNK * max(n, 1)
    cleared = bytes(width)
    for start in range(0, len(bytewise), step):
        chunk = bytewise[start:start + step]
        first = 0
        for base in range(0, size, width):
            end = bisect.bisect_left(left, base + width, first)
            if first == end:
                continue
            k = len(chunk)
            rows = u_major([columns[i] for i in chunk], base, base + width)
            neg = rows.translate(_NEGATE)
            # 0xFF in the lanes of the columns not yet settled.
            pending = (1 << 8 * k) - 1
            for a, b in zip(left[first:end], right[first:end]):
                x, y = (a - base) * k, (b - base) * k
                lhs, rhs = rows[x:x + k], neg[y:y + k]
                if lhs == rhs:
                    continue
                hit = int.from_bytes(lhs, "little") ^ int.from_bytes(rhs, "little")
                pair = perms[a], perms[b]
                for j, lane in enumerate(hit.to_bytes(k, "little")):
                    if lane:
                        found[chunk[j]] = pair
                        pending ^= 0xFF << 8 * j
                        # A settled lane reads 0 in both copies from here on,
                        # so the later pairs of the block match there.
                        rows[j::k] = neg[j::k] = cleared
                if not pending:
                    break
            first = end
            chunk = list(itertools.compress(chunk, pending.to_bytes(k, "little")))
            if not chunk:
                break
    return found


@limits.capped_cache(limits.max_n, "1324-relatedness classes", maxsize=8)
def related_classes(n: int) -> tuple[tuple[Perm, ...], ...]:
    """The partition of S_n by the transitive closure of 1324-adjacency,
    each class sorted, classes ordered by their minimum.  The classes hold
    the permutations of :func:`perm_index`, not copies.

    >>> [tuple(map(format_perm, c)) for c in related_classes(4) if len(c) > 1]
    [('1234', '1324')]
    >>> minima = [c[0] for c in related_classes(7)]
    >>> minima == sorted(minima)
    True
    """
    perms = perm_index(n).perms
    # Union-find over ranks; each union hangs the larger root under the
    # smaller, so every root is the least rank of its class.
    parent = list(range(len(perms)))

    def find(r: int) -> int:
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    for a, b in zip(*adjacent_1324_ranks(n)):
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    # In rank order, a class is first met at its root, so classes come out
    # ordered by their minimum and each class sorted.
    groups: dict[int, list[Perm]] = {}
    for r, u in enumerate(perms):
        groups.setdefault(find(r), []).append(u)
    return tuple(map(tuple, groups.values()))


def percent_basis_decompose(f: Immanant) -> list[tuple[Perm, Coeff]]:
    """Write f as a sum of coefficient * (sum of sign(u) u over a class of
    :func:`related_classes`), each class named by its minimum, the terms
    in increasing order of it; f must be 1324-sign-alternating, which
    :func:`alternation_violations` tests on f's column.

    >>> percent_basis_decompose(zero_immanant(3))
    []
    """
    violation, = alternation_violations(f.n, [f.values])
    if violation is not None:
        w, w2 = violation
        raise PreconditionError(
            "not in the span of percent immanants: adjacent pair "
            f"{format_perm(w)}, {format_perm(w2)} has coefficients "
            f"{f.coeff(w)}, {f.coeff(w2)}"
        )
    rank, odd, out = perm_index(f.n).rank, _odd_lanes(f.n), []
    for members in related_classes(f.n):
        rep = members[0]
        r = rank[rep]
        # A normalized value stays normalized when negated.
        c = f.values[r]
        if c:
            out.append((rep, -c if odd[r] else c))
    return out
