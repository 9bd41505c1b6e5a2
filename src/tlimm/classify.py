"""
Classification and decomposition of Temperley-Lieb immanants into percent
immanants.

For a 321-avoiding w the signed immanant sign(w) * Imm_w is:

* a single percent immanant (of hull(w)) iff w also avoids 1324 and 2143;
* a sum of exactly two percent immanants iff w additionally contains 2143
  but avoids 24153, 31524, 231564 and 312645;
* not a linear combination of percent immanants otherwise.

Permutations avoiding 321 and 1324 but containing 2143 fall into two block
shapes, Case 1 = [2][1][3][5][4] with block lengths (a, b, e, c, d) and
Case 2 = [3][5][1][6][2][4] with block lengths (a, e, b, c, f, d); those
parameters drive closed-form coefficients and the complementary-minor
expansions below.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from itertools import combinations
from typing import Callable, NamedTuple

from .errors import PreconditionError, VerificationError
from .immanant import (
    SkewShape,
    hull,
    lies_in,
    row_tally,
    shape_mask,
    signed_bytes,
)
from .perm import (
    Perm,
    avoids,
    check_perm,
    format_perm,
    inverse,
    is_321_avoiding,
    perm_index,
    sign,
)
from .tl import all_tl_immanants

PATTERN_1324 = (1, 3, 2, 4)
PATTERN_2143 = (2, 1, 4, 3)
FORBIDDEN_PATTERNS = (
    PATTERN_1324,
    (2, 4, 1, 5, 3),
    (3, 1, 5, 2, 4),
    (2, 3, 1, 5, 6, 4),
    (3, 1, 2, 6, 4, 5),
)


class Case1(NamedTuple):
    """Block lengths (a, b, e, c, d) of the shape [2][1][3][5][4]."""

    a: int
    b: int
    e: int
    c: int
    d: int

    @property
    def n(self) -> int:
        return self.a + self.b + self.e + self.c + self.d

    def to_json(self) -> dict:
        return {"variant": "case1", "a": self.a, "b": self.b, "e": self.e,
                "c": self.c, "d": self.d}


class Case2(NamedTuple):
    """Block lengths (a, e, b, c, f, d) of the shape [3][5][1][6][2][4]."""

    a: int
    e: int
    b: int
    c: int
    f: int
    d: int

    @property
    def n(self) -> int:
        return self.a + self.e + self.b + self.c + self.f + self.d

    def to_json(self) -> dict:
        return {"variant": "case2", "a": self.a, "e": self.e, "b": self.b,
                "c": self.c, "f": self.f, "d": self.d}


CaseParams = Case1 | Case2


class Decomposition(NamedTuple):
    """sign(w) * Imm_w written as a sum of percent immanants, when possible;
    kind "none" has sign 0 and no shapes, as its JSON form carries neither."""

    kind: str  # "one" | "two" | "none"
    sign: int
    shapes: tuple[SkewShape, ...]

    def to_json(self) -> dict:
        if self.kind == "none":
            return {"kind": "none"}
        return {
            "kind": self.kind,
            "sign": self.sign,
            "shapes": [s.to_json() for s in self.shapes],
        }


def corner_params(w: Perm) -> tuple[int, int, int, int]:
    """(w^{-1}(1) - 1, w(1) - 1, n - w(n), n - w^{-1}(n)): the corner
    rectangle dimensions of the hull of a 321-avoiding permutation.

    >>> corner_params((3, 1, 5, 2, 4))
    (1, 2, 1, 2)
    """
    n = len(w)
    winv = inverse(w)
    return (winv[0] - 1, w[0] - 1, n - w[n - 1], n - winv[n - 1])


def avoids_main_patterns(w: Perm) -> bool:
    """True iff w avoids 321 and the five patterns whose absence makes the
    Temperley-Lieb immanant a combination of percent immanants."""
    return is_321_avoiding(w) and avoids(w, *FORBIDDEN_PATTERNS)


def _seq(a: int, b: int) -> list[int]:
    """The run (a, a+1, ..., b); empty when a > b."""
    return list(range(a, b + 1))


def build_case1(a: int, b: int, e: int, c: int, d: int) -> Perm:
    """One-line notation of the Case-1 permutation.

    >>> build_case1(1, 1, 0, 1, 1)
    (2, 1, 4, 3)
    """
    if min(a, b, c, d) < 1 or e < 0:
        raise PreconditionError("case-1 blocks need a, b, c, d >= 1 and e >= 0")
    n = a + b + e + c + d
    word = (
        _seq(b + 1, b + a)
        + _seq(1, b)
        + _seq(b + a + 1, b + a + e)
        + _seq(n - c + 1, n)
        + _seq(n - c - d + 1, n - c)
    )
    return tuple(word)


def build_case2(a: int, e: int, b: int, c: int, f: int, d: int) -> Perm:
    """One-line notation of the Case-2 permutation.

    >>> build_case2(1, 1, 1, 1, 0, 1)
    (2, 4, 1, 5, 3)
    >>> build_case2(1, 0, 1, 1, 1, 1)
    (3, 1, 5, 2, 4)
    """
    if min(a, b, c, d) < 1 or min(e, f) < 0 or max(e, f) < 1:
        raise PreconditionError(
            "case-2 blocks need a, b, c, d >= 1 and max(e, f) >= 1"
        )
    n = a + e + b + c + f + d
    word = (
        _seq(b + f + 1, b + f + a)
        + _seq(n - c - e + 1, n - c)
        + _seq(1, b)
        + _seq(n - c + 1, n)
        + _seq(b + 1, b + f)
        + _seq(n - d - c - e + 1, n - c - e)
    )
    return tuple(word)


def classify_2143(w: Perm) -> CaseParams:
    """Case parameters of a permutation avoiding 321 and 1324 and
    containing 2143.

    >>> classify_2143((2, 1, 4, 3))
    Case1(a=1, b=1, e=0, c=1, d=1)
    >>> classify_2143((2, 4, 1, 5, 3))
    Case2(a=1, e=1, b=1, c=1, f=0, d=1)
    """
    params = _case(w)[1]
    if params is None:
        raise PreconditionError(f"{w} avoids the pattern 2143")
    return params


def _case(w: Perm, strict: bool = True) -> tuple[bool, CaseParams | None]:
    """The one check chain on w, in the paper's order: a permutation, 321,
    1324, then 2143.  Returns whether w avoids 1324, and w's case
    parameters, None unless it contains 2143.  A non-permutation or a 321
    is a PreconditionError, and a 1324 too unless strict is off."""
    check_perm(w)
    if not is_321_avoiding(w):
        raise PreconditionError(f"{w} contains the pattern 321")
    if not avoids(w, PATTERN_1324):
        if strict:
            raise PreconditionError(f"{w} contains the pattern 1324")
        return False, None
    return True, None if avoids(w, PATTERN_2143) else _case_params(w)


def _case_params(w: Perm) -> CaseParams:
    """The case and its blocks of a w that :func:`_case` has checked, from
    the corner parameters, rebuilt and compared with w."""
    n = len(w)
    ap, bp, cp, dp = corner_params(w)
    if ap + bp + cp + dp <= n:
        params: CaseParams = Case1(ap, bp, n - ap - bp - cp - dp, cp, dp)
        rebuilt = build_case1(params.a, params.b, params.e, params.c, params.d)
    else:
        # The finer split of the corner parameters: a counts the leading
        # positions whose values stay below the top band, d the trailing
        # positions whose values stay above the bottom band.
        a = sum(1 for x in range(1, ap + 1) if w[x - 1] <= n - cp)
        d = sum(1 for x in range(n - dp + 1, n + 1) if w[x - 1] >= bp + 1)
        e, f = ap - a, dp - d
        params = Case2(a, e, bp - f, cp - e, f, d)
        rebuilt = build_case2(
            params.a, params.e, params.b, params.c, params.f, params.d
        )
    if rebuilt != w:
        raise VerificationError(f"{params} rebuilds {rebuilt}, not {w}")
    return params


def _binomial(a: int, b: int) -> int:
    # Zero when either argument is negative.
    if a < 0 or b < 0:
        return 0
    return math.comb(a + b, a)


@functools.cache
def _pascal() -> tuple[bytes, ...]:
    """_pascal()[b][a] = binomial(a, b) = (a + b choose a) for a, b < 16, or
    128 where it does not fit a signed byte: built once, on first use."""
    return tuple(bytes(min(math.comb(a + b, a), 128) for a in range(16)) for b in range(16))


# (first, second, weight): the weight of f_w(u) is weight(A, B), where A
# counts the rows i with u(i) in first[i - 1] and B those in second[i - 1].
Tallies = tuple[list[range], list[range], Callable[[int, int], int]]


def _tallies(params: CaseParams) -> Tallies:
    """The binomial weight of f_w(u) on hull(w), for a w with these case
    parameters, as two row tallies.  Case 1: A counts rows 1..a valued
    above n-c, B rows n-d+1..n valued at most b, and the weight is
    binomial(A, B).  Case 2: of the b+c rows after a+e, C counts those
    valued above b+f+a+d and D those valued at most b+f, and the weight is
    binomial(c - C, b - D)."""
    n, none = params.n, range(0)
    if isinstance(params, Case1):
        a, b, tail = params.a, params.b, n - params.d
        above = range(n - params.c + 1, n + 1)
        return ([above] * a + [none] * (n - a),
                [none] * tail + [range(1, b + 1)] * params.d, _binomial)
    skip, mid, b, c = params.a + params.e, params.b + params.c, params.b, params.c
    low = b + params.f
    high = range(low + params.a + params.d + 1, n + 1)
    rest = [none] * (n - skip - mid)
    return ([none] * skip + [high] * mid + rest,
            [none] * skip + [range(1, low + 1)] * mid + rest,
            lambda above, below: _binomial(c - above, b - below))


def _weight_table(params: CaseParams) -> bytes:
    """The 256-byte table that turns the lane byte A + 16 * B of
    :func:`_tallies` into the weight, for A, B <= n < 16, with 128 for a
    weight that does not fit a signed byte and for every byte whose tallies
    are not both at most n.  Each row B is sliced from :func:`_pascal`,
    with no call per entry: Case 1 reads binomial(A, B) along row B, and
    Case 2 reads binomial(c - A, b - B) along row b - B backwards, zero for
    A > c and for B > b."""
    n, pascal = params.n, _pascal()
    if isinstance(params, Case1):
        rows = [pascal[B][:n + 1] for B in range(n + 1)]
    else:
        b, c = params.b, params.c
        rows = [pascal[b - B][c::-1] + bytes(n - c) for B in range(b + 1)]
        rows += [bytes(n + 1)] * (n - b)
    return b"".join(row.ljust(16, b"\x80") for row in rows).ljust(256, b"\x80")


def closed_form(w: Perm) -> Callable[[Perm], int]:
    """The coefficient u -> f_w(u) of x_u in Imm_w, in closed form, for w
    avoiding 321 and 1324: sign(w) * sign(u) * weight(u) on the u that lie
    in hull(w), and 0 elsewhere.  The weight is 1 when w avoids 2143 and
    otherwise the binomial of :func:`classify_2143`'s parameters.  The
    pattern checks, sign(w), hull(w) and the weight are derived here, once
    per w; a u that is not a permutation, or whose length differs
    (:func:`tlimm.immanant.lies_in`), is a PreconditionError.
    :func:`closed_form_column` gives the same values for all of S_n.

    >>> f = closed_form((2, 1, 4, 3))
    >>> f((2, 1, 3, 4)), f((4, 3, 2, 1))
    (0, 2)
    """
    params = _case(w)[1]
    sw, shape = sign(w), hull(w)
    tallies = None if params is None else _tallies(params)

    def coeff(u: Perm) -> int:
        check_perm(u)
        if not lies_in(u, shape):
            return 0
        if tallies is None:
            return sw * sign(u)
        first, second, weight = tallies
        return sw * sign(u) * weight(sum(map(operator.contains, first, u)),
                                     sum(map(operator.contains, second, u)))

    return coeff


def closed_form_column(w: Perm) -> array:
    """``closed_form(w)`` over all of S_n, with the layout of a store
    column of :func:`all_tl_immanants`: an ``array('b')`` whose entry r is
    f_w(u) for the u of rank r in :func:`tlimm.perm.perm_index`.  It is
    built in byte lanes, kept as ints until
    :func:`tlimm.immanant.signed_bytes` signs them: the hull mask is the
    :func:`tlimm.immanant.shape_mask` that percent columns are signed from,
    read from the hull's bounds, and for a w containing 2143, the lane byte
    A + 16 * B of the two weight tallies (:func:`tlimm.immanant.row_tally`,
    whose rows are ranges, each one prefix difference) is turned into the
    weight by one translate with :func:`_weight_table`, and kept on the
    mask.  A weight above 127 is a VerificationError, as it is for the
    store.

    >>> closed_form_column((2, 1, 4, 3))[-1]
    2
    """
    params = _case(w)[1]
    n = len(w)
    # Each tally counts at most n rows, so below 16 the lane byte
    # A + 16 * B determines A and B.
    if n >= 16:
        raise PreconditionError(f"closed-form columns need n < 16, got {n}")
    sw, inside = sign(w), shape_mask(hull(w))
    if params is None:
        return signed_bytes(n, sw, inside)
    first, second, weight = _tallies(params)
    size = math.factorial(n)
    lanes = (row_tally(n, first) + 16 * row_tally(n, second)).to_bytes(size, "little")
    # 0xFF times the 0/1 hull mask keeps the weights of the u in hull(w).
    values = (int.from_bytes(lanes.translate(_weight_table(params)), "little")
              & 0xFF * inside)
    # A weight is at most the sentinel 128, so bit 7 of a lane marks it.
    if values & inside << 7:
        r = values.to_bytes(size, "little").index(128)
        raise VerificationError(
            f"closed-form weight {weight(lanes[r] % 16, lanes[r] // 16)} at n={n}, "
            f"w={format_perm(w)}, u={format_perm(perm_index(n).perms[r])} "
            "does not fit a signed byte")
    return signed_bytes(n, sw, values)


def closed_form_coeff(w: Perm, u: Perm) -> int:
    """The coefficient of x_u in Imm_w, in closed form, for w avoiding 321
    and 1324: ``closed_form(w)(u)``.

    >>> closed_form_coeff((2, 1, 4, 3), (2, 1, 3, 4))
    0
    >>> closed_form_coeff((2, 1, 4, 3), (4, 3, 2, 1))
    2
    """
    return closed_form(w)(u)


def antidiag_coeff(w: Perm) -> int:
    """|f_w(w0)| in closed form for w avoiding 321 and 1324 and containing
    2143.

    >>> antidiag_coeff((2, 1, 4, 3))
    2
    >>> antidiag_coeff((2, 3, 1, 5, 6, 4))
    3
    """
    params = classify_2143(w)
    a, b, c, d = params.a, params.b, params.c, params.d
    return math.comb(min(a, c) + min(b, d), min(b, d))


def cm_expansion(w: Perm) -> list[tuple[int, frozenset[int], frozenset[int]]]:
    """The signed complementary-minor expansion of the Temperley-Lieb
    immanant of w (for w avoiding 321 and 1324, containing 2143):
    sign(w) * sum of sign * CM_{I,J} over the returned triples equals Imm_w.

    Terms are ordered lexicographically by (sorted I, sorted J).
    """
    params = classify_2143(w)
    n = len(w)
    out = []
    if isinstance(params, Case1):
        a, b, c, d = params.a, params.b, params.c, params.d
        for k1 in range(0, min(a, b) + 1):
            for I1 in combinations(range(1, a + 1), k1):
                for I2 in combinations(range(1, b + 1), k1):
                    for k3 in range(0, min(c, d) + 1):
                        for I3 in combinations(range(n - d + 1, n + 1), k3):
                            for I4 in combinations(range(n - c + 1, n + 1), k3):
                                s = -1 if (k1 + k3) % 2 else 1
                                out.append(
                                    (s, frozenset(I1 + I3), frozenset(I2 + I4))
                                )
    else:
        a, e, b, c, f, d = (
            params.a, params.e, params.b, params.c, params.f, params.d,
        )
        left = tuple(range(1, a + e + 1))
        right = tuple(range(b + f + a + d + 1, n + 1))
        for I1 in combinations(range(a + e + 1, a + e + b + c + 1), c):
            for I2 in combinations(range(b + f + 1, b + f + a + d + 1), a):
                out.append((1, frozenset(left + I1), frozenset(I2 + right)))
    out.sort(key=lambda term: (sorted(term[1]), sorted(term[2])))
    return out


def rect_cm_expansion(w: Perm) -> list[tuple[frozenset[int], frozenset[int]]]:
    """The complementary-minor expansion of the percent immanant of hull(w),
    for w avoiding 321, 1324 and 2143 with w(1) = 1 or w(1) = w(n) + 1:
    all (I, [1, w(n)]) with |I| = w(n) and
    [w^{-1}(n)+1, n] <= I <= [w^{-1}(1), n].

    >>> [(sorted(I), sorted(J)) for I, J in rect_cm_expansion((3, 1, 4, 2))]
    [([2, 4], [1, 2]), ([3, 4], [1, 2])]
    """
    if _case(w)[1] is not None:
        raise PreconditionError(f"{w} contains the pattern 2143")
    n = len(w)
    if not w or w[0] not in (1, w[n - 1] + 1):
        raise PreconditionError(
            f"{w} is not in normal form: need w(1) = 1 or w(1) = w(n) + 1"
        )
    winv = inverse(w)
    forced = tuple(range(winv[n - 1] + 1, n + 1))
    free = range(winv[0], winv[n - 1] + 1)
    k = w[n - 1] - len(forced)
    J = frozenset(range(1, w[n - 1] + 1))
    out = [
        (frozenset(forced + extra), J) for extra in combinations(free, k)
    ]
    out.sort(key=lambda term: sorted(term[0]))
    return out


# ---------------------------------------------------------------------------
# The one-or-two percent immanant decomposition


def _second_shape(params: Case1) -> SkewShape | None:
    """The companion shape of the two-term decomposition of a Case 1 w, as
    row bounds, or None when no row below matches: the rows cover exactly
    (a = 1 or c = 1) and (b = 1 or d = 1).  x^k is k copies of x, and the
    first row whose branch matches wins:

    branch        lam                     mu
    a = 1, b = 1  n^(n-d), (n-c)^d        n-c, 1^(n-d-1), 0^d
    a = 1, d = 1  n^(n-1), b              n-c, 0^(n-1)
    c = 1, d = 1  n^a, (n-1)^(n-a-1), b   b^a, 0^(n-a)
    c = 1, b = 1  n^a, (n-1)^(n-a)        1^(n-d), 0^d
    """
    n, a, b, c, d = params.n, params.a, params.b, params.c, params.d
    if a == 1 and b == 1:
        lam = (n,) * (n - d) + (n - c,) * d
        mu = (n - c,) + (1,) * (n - d - 1) + (0,) * d
    elif a == 1 and d == 1:
        lam = (n,) * (n - 1) + (b,)
        mu = (n - c,) + (0,) * (n - 1)
    elif c == 1 and d == 1:
        lam = (n,) * a + (n - 1,) * (n - a - 1) + (b,)
        mu = (b,) * a + (0,) * (n - a)
    elif c == 1 and b == 1:
        lam = (n,) * a + (n - 1,) * (n - a)
        mu = (1,) * (n - d) + (0,) * d
    else:
        return None
    return SkewShape(n, lam, mu)


def shape_sum_columns(w: Perm, d: Decomposition) -> tuple[array, array]:
    """The two sides of "the shapes of d sum to sign(w) * Imm_w" as byte
    columns: the stored column of w, and the sum of the shape masks of d's
    shapes, signed by d.sign.  A lane counts at most two shapes, so it stays
    in the [0, 127] that :func:`tlimm.immanant.signed_bytes` takes.
    :func:`decompose`'s validation and suite A2 compare them.

    >>> shape_sum_columns((2, 1), decompose((2, 1)))
    (array('b', [0, 1]), array('b', [0, 1]))
    """
    n = len(w)
    # The store first: above its ceiling it refuses n before a mask is built.
    stored = all_tl_immanants(n)[w]
    return stored, signed_bytes(n, d.sign, sum(map(shape_mask, d.shapes)))


def decompose(w: Perm, validate: bool | None = None) -> Decomposition:
    """Write sign(w) * Imm_w as a sum of at most two percent immanants, or
    report that no combination of percent immanants equals Imm_w.

    The kind comes from the case parameters: "one" when w avoids 1324 and
    2143, "two" for a Case 1 with a :func:`_second_shape`, else "none";
    suite A2 holds it to the five forbidden patterns.

    With validate (default: on for n <= 6) the shape sum is compared in
    byte lanes with the stored Temperley-Lieb immanant by
    :func:`shape_sum_columns`; a mismatch raises VerificationError.

    >>> decompose((1, 2, 3, 4)).kind
    'one'
    >>> decompose((2, 4, 1, 5, 3)).kind
    'none'
    """
    avoids_1324, params = _case(w, strict=False)
    validate = len(w) <= 6 if validate is None else validate
    if not avoids_1324:
        return Decomposition("none", 0, ())
    if params is None:
        result = Decomposition("one", sign(w), (hull(w),))
    else:
        second = _second_shape(params) if isinstance(params, Case1) else None
        if second is None:
            return Decomposition("none", 0, ())
        result = Decomposition("two", sign(w), (hull(w), second))
    if validate:
        expected, actual = shape_sum_columns(w, result)
        if expected != actual:
            raise VerificationError(f"decomposition of {format_perm(w)} failed validation")
    return result
