"""
Exhaustive verification suites.

Each suite checks one exact identity over a whole desk-scale range.  It is
a generator of ``(claim, witness, expected, actual)`` checks and of
:class:`_Block` s of them, declared once by ``@_suite(name, sizes)``, which
enters it in ``SUITES`` and its default sizes in ``DEFAULT_SIZES``.  A
witness is data: a permutation, a string or a dict of labelled parts such as
``{"w": w, "u": u}``.  The runner counts the checks, records a
:class:`Failure` (claim, rendered witness, ``repr`` of both values) only for
a check whose two values differ, and times the stream, so ``suite_aN(n)``
returns a :class:`VerificationReport`.  A block whose whole-column verdict
passes adds its count at once; any other block is run check by check, so a
report is the same either way.  An exception raised by the stream ends it
as one more check, a :class:`Failure` with claim "suite raised", witness
``after <the last witness yielded>`` (the input that raised comes after
that check; ``n=...`` before the first) and the message, led by the
exception's type unless it is a VerificationError.  A suite makes its own
inputs, so a PreconditionError is such a fault too; only a LimitError, a
size the caps refuse, propagates.  Suites A1-A10 are the acceptance gate;
``run_suite`` runs one suite at one size.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import random
import time
from array import array
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import classify, coloring, immanant, perm, tl
from .classify import PATTERN_1324, PATTERN_2143
from .errors import LimitError, VerificationError
from .perm import Perm


class Failure(NamedTuple):
    claim: str
    witness: str
    expected: str
    actual: str


class VerificationReport(NamedTuple):
    suite: str
    n: int
    checks: int
    failures: list[Failure]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILED"
        return (
            f"{self.suite} n={self.n}: {self.checks} checks, "
            f"{status}, {self.elapsed:.2f}s"
        )

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "checks": self.checks,
            "failures": [f._asdict() for f in self.failures],
            "elapsed": round(self.elapsed, 3),
        }


# (claim, witness, expected, actual); the witness is rendered by _render.
_Check = tuple[str, object, object, object]


class _Block(NamedTuple):
    """``count`` checks settled by one verdict.  ``passes`` may be true only
    if every check that ``expand()`` yields passes; ``expand()`` yields the
    ``count`` checks in order, and the runner calls it only when ``passes``
    is false."""

    count: int
    passes: bool
    expand: Callable[[], Iterator[_Check]]


# Filled by @_suite, in declaration order.
SUITES: dict[str, Callable[..., VerificationReport]] = {}
DEFAULT_SIZES: dict[str, tuple[int, ...]] = {}


def _render(witness: object) -> str:
    """The text of a witness: a permutation (a plain tuple) in compact form,
    a dict as ``label=text`` pairs, anything else by ``str``, so a record,
    itself a tuple subclass, shows as its repr.

    >>> _render({"w": (2, 1, 4, 3), "u": ()}), _render("n=3")
    ('w=2143 u=', 'n=3')
    """
    if isinstance(witness, dict):
        return " ".join(f"{label}={_render(part)}" for label, part in witness.items())
    if type(witness) is tuple:
        return perm.format_perm(witness)
    return str(witness)


def _suite(name: str, sizes: tuple[int, ...]):
    """Make a generator of checks into the suite ``name``, run by default at
    ``sizes``: the result runs the generator and returns its report."""

    def decorate(
        checks: Callable[..., Iterator[_Check | _Block]]
    ) -> Callable[..., VerificationReport]:
        @functools.wraps(checks)
        def run(n: int, **kwargs) -> VerificationReport:
            count = 0
            failures: list[Failure] = []
            witness: object = None
            start = time.perf_counter()
            try:
                for item in checks(n, **kwargs):
                    if isinstance(item, _Block):
                        if item.passes:
                            count += item.count
                            continue
                        stream: Iterable[_Check] = item.expand()
                    else:
                        stream = (item,)
                    for claim, witness, expected, actual in stream:
                        count += 1
                        if expected != actual:
                            failures.append(
                                Failure(claim, _render(witness), repr(expected), repr(actual))
                            )
            except LimitError:
                raise
            except Exception as exc:
                count += 1
                where = f"n={n}" if witness is None else f"after {_render(witness)}"
                message = str(exc) if isinstance(exc, VerificationError) else (
                    f"{type(exc).__name__}: {exc}")
                failures.append(Failure("suite raised", where, "no error", message))
            return VerificationReport(name, n, count, failures, time.perf_counter() - start)

        SUITES[name] = run
        DEFAULT_SIZES[name] = sizes
        return run

    return decorate


def _applicable_two_case(n: int) -> list[Perm]:
    """321- and 1324-avoiding permutations containing 2143."""
    return [
        w
        for w in perm.avoiding_321(n)
        if perm.avoids(w, PATTERN_1324) and not perm.avoids(w, PATTERN_2143)
    ]


@_suite("A1", (3, 4, 5, 6))
def suite_a1(n: int) -> Iterator[_Check]:
    """Single-percent classification: tl_immanant(w) equals
    sign(w) * percent(hull(w)) exactly when w avoids 1324 and 2143.  Each
    distinct hull's mask (:func:`classify.shape_mask`) is built once and
    signed once per sign, in one pass over avoiding_321(n); the store and
    the masks are read through classify, as its shape sums read them."""
    store = classify.all_tl_immanants(n)
    masks: dict[immanant.SkewShape, int] = {}
    signed: dict[tuple[immanant.SkewShape, int], array] = {}
    for w in perm.avoiding_321(n):
        shape, s = immanant.hull(w), perm.sign(w)
        column = signed.get((shape, s))
        if column is None:
            if shape not in masks:
                masks[shape] = classify.shape_mask(shape)
            column = signed[shape, s] = immanant.signed_bytes(n, s, masks[shape])
        yield ("one-percent iff avoids 1324 and 2143", w,
               perm.avoids(w, PATTERN_1324, PATTERN_2143), store[w] == column)


@_suite("A2", (3, 4, 5, 6))
def suite_a2(n: int) -> Iterator[_Check]:
    """Two-percent classification: decompose(w) is non-none iff w avoids the
    five forbidden patterns iff tl_immanant(w) is 1324-sign-alternating, and
    the produced shape sum matches exactly."""
    store = immanant.all_tl_immanants(n)
    avoiders = perm.avoiding_321(n)
    violations = immanant.alternation_violations(n, [store[w] for w in avoiders])
    for w, violation in zip(avoiders, violations):
        d = classify.decompose(w, validate=False)
        ok_patterns = classify.avoids_main_patterns(w)
        yield ("decomposable iff avoids forbidden patterns", w,
               ok_patterns, d.kind != "none")
        yield ("decomposable iff sign-alternating", w, ok_patterns, violation is None)
        if d.kind != "none":
            yield ("shape sum equals signed immanant", w, *classify.shape_sum_columns(w, d))


# How many (w, u) pairs A3 draws at n >= 7.
_A3_SAMPLES = 100_000


@_suite("A3", (3, 4, 5, 6, 7))
def suite_a3(n: int, seed: int = 20_433) -> Iterator[_Check | _Block]:
    """Closed-form coefficients agree with the Temperley-Lieb expansion:
    exhaustive for n <= 6, sampled at n = 7.  One block: equal whole
    columns pass every pair, so only a failing run draws its pairs.  Each
    closed column is compared as it is built, and only those that differ
    are kept; a failing run reads the others from the store, which they
    equal.  From n = 7 on, each w whose two columns differ then adds one
    check at the first u in rank order where they do, so an entry the
    sample misses fails too."""
    imms = immanant.all_tl_immanants(n)
    perms, rank = perm.perm_index(n)
    applicable = [w for w in perm.avoiding_321(n) if perm.avoids(w, PATTERN_1324)]
    differing = {}
    for w in applicable:
        column = classify.closed_form_column(w)
        if column != imms[w]:
            differing[w] = column

    def expand() -> Iterator[_Check]:
        # Which pairs a seed draws depends on this (length, u) order.
        universe = sorted(perms, key=lambda u: (perm.length(u), u))
        claim = "closed form equals expansion coefficient"
        if n <= 6:
            pairs: Iterable[tuple[Perm, Perm]] = itertools.product(applicable, universe)
        else:
            claim += " (sampled)"
            rng = random.Random(seed)
            pairs = (
                (applicable[rng.randrange(len(applicable))],
                 universe[rng.randrange(len(universe))])
                for _ in range(_A3_SAMPLES)
            )
        for w, u in pairs:
            r = rank[u]
            yield (claim, {"w": w, "u": u}, imms[w][r], differing.get(w, imms[w])[r])

    yield _Block(len(applicable) * len(perms) if n <= 6 else _A3_SAMPLES,
                 not differing, expand)
    if n > 6:
        for w, column in differing.items():
            r = next(r for r, (a, b) in enumerate(zip(imms[w], column)) if a != b)
            yield ("closed form equals expansion coefficient (first differing u)",
                   {"w": w, "u": perms[r]}, imms[w][r], column[r])


@_suite("A4", (2, 3, 4, 5))
def suite_a4(n: int) -> Iterator[_Check]:
    """Complementary minors expand into compatible Temperley-Lieb immanants:
    (-1)^(s(I)+s(J)) CM_{I,J} = sum of Imm_w over compatible w."""
    store = {w: immanant.pack_column(n, col) for w, col in immanant.all_tl_immanants(n).items()}
    table = coloring._compatibility_table(n)
    for k in range(n + 1):
        for I in itertools.combinations(range(1, n + 1), k):
            for J in itertools.combinations(range(1, n + 1), k):
                lhs = ((-1) ** (sum(I) + sum(J))
                       * immanant.pack_column(n, immanant.cm_immanant(n, I, J).values))
                rhs = immanant.sum_columns(
                    [store[w] for _, _, w in table[coloring._black_mask(n, I, J)]])
                yield ("signed CM equals compatible immanant sum",
                       f"I={set(I) or '{}'} J={set(J) or '{}'}",
                       immanant.Column(n, lhs), immanant.Column(n, rhs))


# How many w suite_a5 lays out side by side: each of its layouts holds
# 64 n! bytes at most, not the whole store.
_A5_CHUNK = 64


@_suite("A5", (2, 3, 4, 5))
def suite_a5(n: int) -> Iterator[_Block]:
    """Coefficient symmetry: f_w(u) = f_{w^-1}(u^-1) = f_{w0 w w0}(w0 u w0),
    read from the rank-indexed columns.  One block per w.  The columns of
    up to 64 w are laid out u-major (:func:`immanant.u_major`), and so are
    those of their w^-1 and of their w0 w w0, whose rows are gathered by
    the symmetry ranks; equal layouts pass every w of the chunk, and
    otherwise each w's lane is compared on its own."""
    imms = immanant.all_tl_immanants(n)
    perms = perm.perm_index(n).perms
    size = len(perms)
    inverse_rank, conjugate_rank = perm.symmetry_ranks(n)

    def expand(w: Perm, fw, fwi, fwc) -> Iterator[_Check]:
        for r, u in enumerate(perms):
            value = fw[r]
            witness = {"w": w, "u": u}
            yield ("f is inverse-symmetric", witness, value, fwi[inverse_rank[r]])
            yield ("f is w0-conjugation-symmetric", witness,
                   value, fwc[conjugate_rank[r]])

    def gathered(ws: Sequence[Perm], ranks: Sequence[int]) -> bytes:
        # Row r of the result is row ranks[r] of the layout of ws.
        k = len(ws)
        rows = immanant.u_major([imms[v] for v in ws], 0, size)
        return b"".join([rows[k * s:k * s + k] for s in ranks])

    avoiders = perm.avoiding_321(n)
    for start in range(0, len(avoiders), _A5_CHUNK):
        chunk = avoiders[start:start + _A5_CHUNK]
        k = len(chunk)
        inverses = list(map(perm.inverse, chunk))
        conjugates = list(map(perm.conjugate_by_longest, chunk))
        rows = immanant.u_major([imms[w] for w in chunk], 0, size)
        inv = gathered(inverses, inverse_rank)
        conj = gathered(conjugates, conjugate_rank)
        same = rows == inv == conj
        for j, (w, wi, wc) in enumerate(zip(chunk, inverses, conjugates)):
            yield _Block(2 * size, same or rows[j::k] == inv[j::k] == conj[j::k],
                         functools.partial(expand, w, imms[w], imms[wi], imms[wc]))


@_suite("A6", (1, 2, 3, 4, 5, 6, 7, 8))
def suite_a6(n: int) -> Iterator[_Check]:
    """The matching bijection: 321-avoiding permutations, non-crossing
    matchings and the Catalan number all agree, with beta a bijection."""
    avoiders = perm.avoiding_321(n)
    matchings = tl.all_matchings(n)
    yield ("Catalan many avoiders", {"n": n}, tl.catalan(n), len(avoiders))
    yield ("Catalan many matchings", {"n": n}, tl.catalan(n), len(matchings))
    images = [tl.beta(w) for w in avoiders]
    distinct = set(images)
    yield ("beta is injective", {"n": n}, len(avoiders), len(distinct))
    yield ("beta is onto the matchings", {"n": n}, set(matchings), distinct)
    for w, m in zip(avoiders, images):
        yield ("beta round trip", w, w, tl.beta_inv(m))


# (positions, blacks, whites, sealed): the zone holds exactly that many black
# and white positions, and a sealed zone holds no pair of the matching.
Zone = tuple[Sequence[int], int, int, bool]


def _labels(n: int, lo: int, hi: int, primed: bool = False) -> tuple[int, ...]:
    """Circular positions of the vertices lo..hi, or lo'..hi' if primed."""
    if primed:
        return tuple(range(2 * n - hi, 2 * n - lo + 1))
    return tuple(range(lo - 1, hi))


def _black(positions: Sequence[int]) -> Zone:
    return (positions, len(positions), 0, False)


def _white(positions: Sequence[int]) -> Zone:
    return (positions, 0, len(positions), False)


def _general_zones(a: int, b: int, c: int, d: int, e: int) -> tuple[Zone, ...]:
    """The zones of ``unique_matching_general``, in circular order."""
    n = a + b + c + d + e
    return (
        _black(range(0, b + c + e)),
        (range(b + c + e, a + 2 * b + c + e), a, b, True),
        _white(range(a + 2 * b + c + e, a + b + e + n)),
        (range(a + b + e + n, 2 * n), d, c, True),
    )


def _case1_zones(a: int, b: int, c: int, d: int, e: int) -> tuple[Zone, ...]:
    """The zones of ``unique_matching_case1``."""
    n = a + b + c + d + e
    return (
        _black(_labels(n, a + 1, n - d)),
        _white(_labels(n, b + 1, n - c, True)),
        (_labels(n, 1, a) + _labels(n, 1, b, True), a, b, True),
        (_labels(n, n - d + 1, n) + _labels(n, n - c + 1, n, True), d, c, True),
    )


def _case2_zones(a: int, e: int, b: int, c: int, f: int, d: int) -> tuple[Zone, ...]:
    """The zones of ``unique_matching_case2``."""
    n = a + e + b + c + f + d
    return (
        _black(_labels(n, 1, a + e)),
        (_labels(n, a + e + 1, a + e + b + c), c, b, True),
        _white(_labels(n, a + e + b + c + 1, n)),
        _black(_labels(n, 1, b + f, True)),
        (_labels(n, b + f + 1, b + f + a + d, True), d, a, True),
        _white(_labels(n, b + f + a + d + 1, n, True)),
    )


def _zone_solutions(
    index: dict[int, list[tuple]],
    zones: Sequence[Zone],
) -> list[tuple[tuple[bool, ...], tl.NonCrossingMatching]]:
    """Every (coloring, matching) on the 2n circular positions that meets
    the zones, which must partition the positions: each zone holds its
    counts of black (True) and white positions, every pair joins black to
    white, and no pair has both ends in one sealed zone.  Exhaustive: every
    coloring that meets the counts is looked up by its black mask in
    ``index``, the :func:`coloring._compatibility_table` of n, whose list
    for it holds exactly the matchings that join black to white under it;
    those are then held to the sealed zones.  Listed in coloring order,
    then ``all_matchings`` order.

    >>> index = coloring._compatibility_table(2)
    >>> zones = _general_zones(1, 1, 0, 0, 0)
    >>> _zone_solutions(index, zones)
    [((True, False, True, False), NonCrossingMatching(2, "1-2 1'-2'"))]
    >>> len(_zone_solutions(index, [(p, k, w, False) for p, k, w, _ in zones]))
    3
    """
    n = next(iter(index)).bit_count()  # every proper coloring has n blacks
    covered = sorted(p for positions, _, _, _ in zones for p in positions)
    if covered != list(range(2 * n)):
        raise ValueError(f"zones do not partition the {2 * n} positions")
    for positions, blacks, whites, _ in zones:
        if blacks + whites != len(positions):
            raise ValueError(f"zone {positions} cannot hold {blacks}+{whites} colors")
    sealed = {
        p: z
        for z, (positions, _, _, seal) in enumerate(zones)
        if seal
        for p in positions
    }
    out = []
    for choice in itertools.product(
        *(itertools.combinations(positions, blacks) for positions, blacks, _, _ in zones)
    ):
        mask = sum(1 << p for p in itertools.chain.from_iterable(choice))
        found = [
            m for m, pairs, _ in index.get(mask, ())
            if not any(p in sealed and sealed[p] == sealed.get(q) for p, q in pairs)
        ]
        if found:
            colors = tuple(bool(mask >> p & 1) for p in range(2 * n))
            out.extend((colors, m) for m in found)
    return out


def _compositions(total: int, parts: int, minima: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
    if parts == 1:
        if total >= minima[0]:
            yield (total,)
        return
    for first in range(minima[0], total + 1):
        for rest in _compositions(total - first, parts - 1, minima[1:]):
            yield (first,) + rest


def _a7_instances(n: int) -> Iterator[tuple]:
    """Every zone-condition instance of suite A7 at n, in its order: the
    family, the parameters by name, the witness text, the zones, and the
    family's construction and permutation builder (None for general)."""
    families = (
        ("general", "abcde", _compositions(n, 5, (0, 0, 0, 0, 0)),
         coloring.unique_matching_general, _general_zones, None),
        ("case-1", "abcde", _compositions(n, 5, (1, 1, 1, 1, 0)),
         coloring.unique_matching_case1, _case1_zones, classify.build_case1),
        ("case-2", "aebcfd",
         (t for t in _compositions(n, 6, (1, 0, 1, 1, 0, 1))
          if max(t[1], t[4]) >= 1),
         coloring.unique_matching_case2, _case2_zones, classify.build_case2),
    )
    for family, names, instances, construct, zones, build in families:
        for sizes in instances:
            # By keyword, because build_case1 takes (a, b, e, c, d).
            params = dict(zip(names, sizes))
            witness = f"({','.join(names)})=({','.join(map(str, sizes))})"
            yield family, params, witness, zones(**params), construct, build


@_suite("A7", (2, 3, 4, 5, 6))
def suite_a7(n: int) -> Iterator[_Check]:
    """Unique-matching constructions match brute force: every zone-condition
    instance has exactly one (coloring, matching) solution and it is the
    constructed one, which in turn equals beta of the built permutation."""
    index = coloring._compatibility_table(n)
    for family, params, witness, zones, construct, build in _a7_instances(n):
        col, m = construct(**params)
        colors = tuple(col.is_black_position(p) for p in range(2 * n))
        yield (f"{family} zone instance has the one constructed solution", witness,
               [(colors, m)], _zone_solutions(index, zones))
        if build is not None:
            yield (f"{family} matching is beta of the built permutation", witness,
                   tl.beta(build(**params)), m)


@_suite("A8", (4, 5, 6, 7))
def suite_a8(n: int) -> Iterator[_Check]:
    """Anti-diagonal coefficients: the closed form matches |f_w(w0)|, with
    the two fixed anchors at n = 4 and n = 6."""
    # The one row of theta(w0), read at the index of beta(w)'s pairing: no
    # matching object is built.
    row, index = tl._theta_row(perm.longest_word(n)), tl._matching_index(n)
    for w in _applicable_two_case(n):
        yield ("closed form matches |f_w(w0)|", w,
               abs(row.get(index[tl._beta_pairing(w)], 0)), classify.antidiag_coeff(w))
    if n == 4:
        yield ("anchor f_2143(4321)", "2143",
               2, tl.f_coeff((2, 1, 4, 3), (4, 3, 2, 1)))
    if n == 6:
        yield ("anchor |f_231564(654321)|", "231564",
               3, abs(tl.f_coeff((2, 3, 1, 5, 6, 4), (6, 5, 4, 3, 2, 1))))


@_suite("A9", (2, 3, 4, 5, 6))
def suite_a9(n: int, seed: int = 94_711) -> Iterator[_Check]:
    """1324-relatedness classes coincide with hull fibers, and random span
    elements decompose and reconstruct exactly (n <= 5)."""
    classes = immanant.related_classes(n)
    # In rank order each fiber is met first at its least member and grows
    # sorted, the documented order of related_classes, so the two
    # partitions compare as they are.
    fibers: dict[immanant.SkewShape, list[Perm]] = {}
    for w in perm.perm_index(n).perms:
        fibers.setdefault(immanant.hull(w), []).append(w)
    yield ("classes equal hull fibers", {"n": n}, tuple(map(tuple, fibers.values())), classes)
    if n <= 5:
        rng = random.Random(seed + n)

        def random_shape() -> immanant.SkewShape:
            lam = sorted((rng.randint(0, n) for _ in range(n)), reverse=True)
            raw = sorted((rng.randint(0, n) for _ in range(n)), reverse=True)
            mu = [min(r, l) for r, l in zip(raw, lam)]
            return immanant.SkewShape(n, tuple(lam), tuple(mu))

        for trial in range(25):
            f = immanant.zero_immanant(n)
            for _ in range(3):
                f = f + immanant.percent_immanant(random_shape()).scaled(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                )
            terms = {}
            for rep, c in immanant.percent_basis_decompose(f):
                members = next(cl for cl in classes if rep in cl)
                terms.update((u, c * perm.sign(u)) for u in members)
            rebuilt = immanant.Immanant(n, terms)
            yield ("span element reconstructs from class decomposition",
                   {"n": n, "trial": trial}, f, rebuilt)


@_suite("A10", (4, 5, 6))
def suite_a10(n: int) -> Iterator[_Check]:
    """Complementary-minor expansions reproduce the immanants exactly, and
    the 0/1 witness matrix separates percent from Temperley-Lieb values:
    on it each immanant's value is the sum of its column over the witness
    support, the ranks of the u whose row product is 1, with no
    arithmetic on the matrix and no Immanant evaluated."""
    applicable = _applicable_two_case(n)
    store = immanant.all_tl_immanants(n)
    signed = [(w, classify.cm_expansion(w)) for w in applicable]
    # The rectangle expansion needs w(1) = 1 or w(1) = w(n) + 1, so n >= 1.
    rectangles = [
        (w, classify.rect_cm_expansion(w)) for w in perm.avoiding_321(n)
        if perm.avoids(w, PATTERN_1324, PATTERN_2143) and w and w[0] in (1, w[-1] + 1)
    ]
    # Each packed column is built at its first use and dropped after its
    # last, so it is built once and only the columns still to be read are
    # held: at n = 8, 528 distinct of 2 626 uses, at most 112 at a time.
    uses = collections.Counter(
        (I, J) for _, terms in signed for _, I, J in terms)
    uses.update((I, J) for _, terms in rectangles for I, J in terms)
    columns: dict[tuple[frozenset[int], frozenset[int]], int] = {}

    def cm(I: frozenset[int], J: frozenset[int]) -> int:
        column = columns.pop((I, J), None)
        if column is None:
            column = immanant.pack_column(n, immanant.cm_immanant(n, I, J).values)
        uses[I, J] -= 1
        if uses[I, J]:
            columns[I, J] = column
        return column

    for w, terms in signed:
        total = immanant.sum_columns([s * cm(I, J) for s, I, J in terms])
        yield ("signed CM expansion equals the immanant", w,
               immanant.Column(n, immanant.pack_column(n, store[w])),
               immanant.Column(n, perm.sign(w) * total))
    for w, terms in rectangles:
        total = immanant.sum_columns([cm(I, J) for I, J in terms])
        yield ("rectangle CM expansion equals the hull percent immanant", w,
               immanant.Column(n, immanant.pack_column(
                   n, immanant.percent_immanant(immanant.hull(w)).values)),
               immanant.Column(n, total))
    size = math.factorial(n)
    for w in applicable:
        X = immanant.witness_matrix(w)
        # X is 0/1, so the row product of u is 1 on the support, the u with
        # every X[i, u(i)] = 1, and 0 elsewhere: an immanant's value on X is
        # its column summed over the support.  X's three equal rows share
        # three columns, so the support holds 3! = 6 ranks.
        mask = immanant.row_mask(n, [[j for j, x in enumerate(row, 1) if x] for row in X])
        support = list(itertools.compress(itertools.count(), mask.to_bytes(size, "little")))
        percent, tl_w = (Fraction(sum(map(column.__getitem__, support)))
                         for column in (immanant.percent_immanant(immanant.hull(w)).values,
                                        store[w]))
        yield ("witness matrix: hull percent immanant is +-1", w, 1, abs(percent))
        yield ("witness matrix: Temperley-Lieb immanant vanishes", w, Fraction(0), tl_w)


def run_suite(suite: str, n: int) -> VerificationReport:
    """Run one suite at one size."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return SUITES[suite](n)
