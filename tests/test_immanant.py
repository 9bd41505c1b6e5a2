import ast
import gc
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import re
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

import tlimm
from tlimm import classify, coloring, immanant, perm, tl, verify
from tlimm.errors import LimitError, PreconditionError, VerificationError

from oracles import (
    brute_cm_immanant,
    brute_percent_immanant,
    cells,
    determinant,
    restriction,
)
import oracles


def box(n):
    """The whole n x n box, whose percent immanant is the determinant."""
    return immanant.skew_shape(n, (n,) * n)


def box_shapes(n):
    """Every skew shape in the n x n box."""
    bounds = [
        tuple(v) for v in itertools.product(range(n + 1), repeat=n)
        if all(v[i] >= v[i + 1] for i in range(n - 1))
    ]
    for lam in bounds:
        for mu in bounds:
            if all(m <= l for l, m in zip(lam, mu)):
                yield immanant.SkewShape(n, lam, mu)


def test_skew_shape_validation():
    immanant.skew_shape(5, (5, 5, 3, 2, 2), (2, 1))
    with pytest.raises(ValueError):
        immanant.SkewShape(3, (1, 2, 3), (0, 0, 0))  # lam increasing
    with pytest.raises(ValueError):
        immanant.SkewShape(3, (3, 2, 1), (3, 3, 0))  # mu above lam
    with pytest.raises(ValueError):
        immanant.skew_shape(2, (3, 1))  # out of the box
    with pytest.raises(ValueError, match="negative size n=-1"):
        immanant.skew_shape(-1, ())
    with pytest.raises(ValueError, match="not an integer: True"):
        immanant.skew_shape(1, (True,))


def test_hull_anchors():
    assert immanant.hull(perm.identity(4)) == box(4)
    assert immanant.hull((2, 1, 4, 3)) == immanant.skew_shape(
        4, (4, 4, 4, 3), (1, 0, 0, 0)
    )
    assert immanant.hull((2, 3, 4, 1)) == immanant.skew_shape(
        4, (4, 4, 4, 1), (1, 1, 1, 0)
    )


@pytest.mark.parametrize("n", range(0, 8))
def test_hull_matches_its_definition(n):
    """hull(w) holds exactly the cells that every skew shape through the
    points of w holds, and its bounds pass the checking constructor, though
    hull builds the shape without it."""
    for w in perm.perm_index(n).perms:
        shape = immanant.hull(w)
        assert type(shape) is immanant.SkewShape
        assert immanant.SkewShape(n, shape.lam, shape.mu) == shape, w
        assert cells(shape) == oracles.hull_cells_by_definition(w), w


def test_hull_refuses_values_outside_the_box():
    """A value above n or below 1 breaks one of the two outer bounds that
    hull checks, and is the ValueError the checking constructor raises."""
    for w in ((5, 1), (0, 1), (1, 3), (2, 1, 4)):
        with pytest.raises(ValueError, match=r"row bounds must lie in \[0, \d\]"):
            immanant.hull(w)


def test_value_types_compare_and_hash_by_value():
    """A frozen value built from lists equals the one built from tuples or
    frozensets, hashes the same, and finds it as a dict key."""
    for built, frozen in (
        (immanant.SkewShape(2, [2, 1], [0, 0]), immanant.SkewShape(2, (2, 1), (0, 0))),
        (coloring.Coloring(3, [1, 1], {1}), coloring.Coloring(3, frozenset({1}), frozenset({1}))),
        (tl.NonCrossingMatching(2, [1, 0, 3, 2]), tl.NonCrossingMatching(2, (1, 0, 3, 2))),
    ):
        assert built == frozen and hash(built) == hash(frozen)
        assert {built: 1}[frozen] == 1 and {frozen: 1}[built] == 1


def test_lies_in_and_shape_leq():
    shape = immanant.skew_shape(5, (5, 5, 3, 2, 2), (2, 1))
    assert not immanant.lies_in((3, 4, 5, 1, 2), shape)  # row 3 needs <= 3
    for w in perm.all_perms(4):
        assert immanant.lies_in(w, immanant.hull(w))
        assert immanant.lies_in(w, box(4))
        assert cells(immanant.hull(w)) <= cells(box(4))
    assert not immanant.lies_in((1, 2, 3, 4), immanant.hull((2, 1, 4, 3)))
    assert not cells(immanant.hull((2, 1, 4, 3))) <= cells(immanant.hull((2, 3, 4, 1)))


@pytest.mark.parametrize("n", range(1, 6))
def test_engulfing(n):
    """lies_in(w, s) iff the cells of hull(w) lie in s."""
    shapes = {immanant.hull(w) for w in perm.all_perms(n)}
    shapes.add(box(n))
    for w in perm.all_perms(n):
        hw = cells(immanant.hull(w))
        for s in shapes:
            assert immanant.lies_in(w, s) == (hw <= cells(s))


def test_percent_immanant():
    det = immanant.percent_immanant(box(3))
    assert det.coeffs == determinant(3)
    f = immanant.percent_immanant(immanant.hull((2, 1, 4, 3)))
    assert f.coeff((2, 1, 4, 3)) == 1
    shape = immanant.skew_shape(5, (5, 5, 3, 2, 2), (2, 1))
    assert immanant.percent_immanant(shape).coeff((3, 4, 5, 1, 2)) == 0


@pytest.mark.parametrize("n", range(1, 5))
def test_bigtableau_antidiagonal_and_alternation(n):
    """Over every shape in the n x n box: a nonzero percent immanant's shape
    holds the whole anti-diagonal, and every percent immanant alternates in
    sign across 1324-adjacent pairs."""
    shapes = list(box_shapes(n))
    columns = [immanant.percent_immanant(shape).values for shape in shapes]
    assert immanant.alternation_violations(n, columns) == [None] * len(shapes)
    for shape in shapes:
        f = immanant.percent_immanant(shape)
        if f.coeffs:
            assert all(
                shape.contains_cell(i, n + 1 - i) for i in range(1, n + 1)
            )


def terms(f):
    """The coefficients of f in their dict order."""
    return list(f.coeffs.items())


@pytest.mark.parametrize("n", range(0, 5))
def test_placement_matches_filter_on_box_shapes(n):
    for shape in box_shapes(n):
        expected = list(brute_percent_immanant(shape).items())
        assert terms(immanant.percent_immanant(shape)) == expected, shape
    assert terms(immanant.cm_immanant(n, (), ())) == list(determinant(n).items())


@pytest.mark.parametrize("n", range(1, 8))
def test_placement_matches_filter_on_hulls_and_decompose_shapes(n):
    shapes = set()
    for w in perm.avoiding_321(n):
        shapes.add(immanant.hull(w))
        shapes.update(classify.decompose(w, validate=False).shapes)
    for shape in sorted(shapes, key=lambda s: (s.lam, s.mu)):
        expected = list(brute_percent_immanant(shape).items())
        assert terms(immanant.percent_immanant(shape)) == expected, shape


@pytest.mark.parametrize("n", range(0, 6))
def test_cm_placement_matches_filter(n):
    for k in range(n + 1):
        for I in itertools.combinations(range(1, n + 1), k):
            for J in itertools.combinations(range(1, n + 1), k):
                assert terms(immanant.cm_immanant(n, I, J)) == list(
                    brute_cm_immanant(n, I, J).items()), (I, J)


def lanes(n, column):
    """The byte lanes of an int column over S_n, by rank."""
    return list(column.to_bytes(math.factorial(n), "little"))


def row_sets(n):
    """Row lists for the builders: every hull of S_n as ranges, then
    seeded non-contiguous sets and ranges reaching past 1..n, empty and
    full rows, and rows of only the values 0 and n + 1."""
    hulls = {immanant.hull(w) for w in perm.all_perms(n)}
    for shape in sorted(hulls, key=lambda s: (s.lam, s.mu)):
        yield [range(m + 1, l + 1) for m, l in zip(shape.mu, shape.lam)]
    rng = random.Random(100 + n)
    values = list(range(-1, n + 3)) + [255, 256, 1000]
    for _ in range(40):
        yield [set(rng.sample(values, rng.randrange(len(values) + 1))) for _ in range(n)]
        yield [range(rng.randrange(-2, n + 2), rng.randrange(-1, n + 4), rng.choice((1, 1, 2, -1)))
               for _ in range(n)]
    yield [()] * n
    yield [range(1, n + 1)] * n
    yield [range(0, n + 2)] * n
    yield [{0, n + 1}] * n
    yield [[0, *range(1, n + 1), n + 1]] * n


@pytest.mark.parametrize("n", range(0, 9))
def test_parity_lanes_match_inversion_count(n):
    """The basis's parity lanes, built block by block from S_(n-1), hold
    0xFF exactly at the u of perm_index(n) with an odd number of
    inversions, counted pair by pair; n = 8 is under the default cap."""
    perms = perm.perm_index(n).perms
    lanes = immanant._basis(n).odd_bytes.to_bytes(len(perms), "little")
    assert lanes == bytes(0xFF if oracles.inversion_sign(u) < 0 else 0 for u in perms)


@pytest.mark.parametrize("n", range(0, 7))
def test_row_tally_and_mask_match_the_definition(n):
    for rows in row_sets(n):
        expected = oracles.row_tally_by_definition(n, rows)
        assert lanes(n, immanant.row_tally(n, rows)) == expected, rows
        assert lanes(n, immanant.row_mask(n, rows)) == [int(c == n) for c in expected], rows


def test_row_values_outside_1_to_n_match_nothing():
    n = 4
    outside = [-300, -256, -1, 0, n + 1, 255, 256, 1000]
    assert immanant.row_tally(n, [outside] * n) == 0
    assert immanant.row_mask(n, [outside] * n) == 0
    assert immanant.row_tally(n, [[*outside, 2]] * n) == immanant.row_tally(n, [[2]] * n)
    with pytest.raises(PreconditionError, match="3 rows given for n=4"):
        immanant.row_tally(n, [()] * 3)


@pytest.mark.parametrize("n", range(0, 7))
def test_shape_and_percent_columns_match_the_definition(n):
    for shape in {immanant.hull(w) for w in perm.all_perms(n)}:
        count = oracles.row_tally_by_definition(
            n, [range(m + 1, l + 1) for m, l in zip(shape.mu, shape.lam)])
        inside = [int(c == n) for c in count]
        assert lanes(n, immanant.shape_mask(shape)) == inside, shape
        assert immanant.percent_immanant(shape).values.tolist() == [
            oracles.inversion_sign(u) * x
            for u, x in zip(itertools.permutations(range(1, n + 1)), inside)], shape


@pytest.mark.parametrize("n", range(0, 8))
def test_shape_mask_is_the_row_mask_of_the_shape_rows(n):
    """shape_mask reads the bounds themselves; row_mask of the rows
    (mu_i, lam_i] gives the same lanes, for every skew shape in the box at
    n <= 4 and every hull at n <= 7."""
    shapes = {immanant.hull(w) for w in perm.perm_index(n).perms}
    if n <= 4:
        shapes.update(box_shapes(n))
    for shape in shapes:
        assert immanant.shape_mask(shape) == immanant.row_mask(
            n, immanant._shape_rows(shape)), shape


@pytest.mark.parametrize("n", range(0, 7))
def test_range_rows_match_the_definition(n):
    """A range row is clipped to 1..n, one prefix difference for step 1 and
    read value by value otherwise; each row's lanes match its count by
    definition, for empty, clipped and step-2 ranges."""
    rows = [range(0), range(3, 3), range(n, 1), range(-2, 0), range(0, n + 3),
            range(-5, 2), range(2, n + 9), range(1, n + 1, 2), range(2, n + 3, 2),
            range(n, 0, -2)]
    for row in rows:
        expected = oracles.row_tally_by_definition(n, [row] * n)
        assert lanes(n, immanant.row_tally(n, [row] * n)) == expected, row
        for i, column in enumerate(immanant._row_lanes(n, [row] * n)):
            only = [row if k == i else () for k in range(n)]
            assert lanes(n, column) == oracles.row_tally_by_definition(n, only), (row, i)


def test_shape_and_percent_columns_read_no_runs(monkeypatch):
    """Shape masks read the shape's bounds, and rows that are step-1
    ranges, as a percent immanant's values read, are one prefix difference
    each: none of them searches runs."""
    calls = []
    real = immanant._runs

    def counted(n, allowed):
        calls.append(allowed)
        return real(n, allowed)

    monkeypatch.setattr(immanant, "_runs", counted)
    n = 5
    for shape in {immanant.hull(w) for w in perm.perm_index(n).perms}:
        immanant.shape_mask(shape)
        immanant.percent_immanant(shape).values
        immanant.row_mask(n, immanant._shape_rows(shape))
    for w in verify._applicable_two_case(n):
        classify.closed_form_column(w)
    assert calls == []


@pytest.mark.parametrize("n", range(0, 7))
def test_closed_form_columns_match_the_definition(n):
    """The hull mask and both weight tallies of every w avoiding 321 and
    1324, counted u by u from the rows that classify's tallies allow."""
    perms = list(itertools.permutations(range(1, n + 1)))
    for w in perm.avoiding_321(n):
        if n >= 4 and perm.contains_pattern(w, (1, 3, 2, 4)):
            continue
        shape = immanant.hull(w)
        inside = oracles.row_tally_by_definition(
            n, [range(m + 1, l + 1) for m, l in zip(shape.mu, shape.lam)])
        if n >= 4 and perm.contains_pattern(w, (2, 1, 4, 3)):
            first, second, weight = classify._tallies(classify.classify_2143(w))
            weights = map(weight, oracles.row_tally_by_definition(n, first),
                          oracles.row_tally_by_definition(n, second))
        else:
            weights = itertools.repeat(1)
        expected = [oracles.inversion_sign(w) * oracles.inversion_sign(u) * x if c == n else 0
                    for u, c, x in zip(perms, inside, weights)]
        assert classify.closed_form_column(w).tolist() == expected, w


@pytest.mark.parametrize("n", range(0, 5))
def test_cm_columns_match_the_definition(n):
    perms = list(itertools.permutations(range(1, n + 1)))
    for k in range(n + 1):
        for I in itertools.combinations(range(1, n + 1), k):
            for J in itertools.combinations(range(1, n + 1), k):
                rest = set(range(1, n + 1)) - set(J)
                count = oracles.row_tally_by_definition(
                    n, [J if i in I else rest for i in range(1, n + 1)])
                assert immanant.cm_immanant(n, I, J).values.tolist() == [
                    oracles.inversion_sign(u) if c == n else 0
                    for u, c in zip(perms, count)], (I, J)


def test_packed_lanes_hold_their_range():
    n, low, high = 3, -(2**31), 2**31 - 1
    values = [low, high, 0, -1, 1, 127]
    # A Column shows the Immanant over its decoded lanes.
    assert repr(immanant.Column(n, oracles.packed(values))) == repr(immanant.Immanant(
        n, {u: v for u, v in zip(perm.all_perms(n), values) if v}))
    # Sums reach both ends of a lane exactly.
    a = oracles.packed([-(2**30), 2**30 - 1, 5, -5, -128, 127])
    b = oracles.packed([-(2**30), 2**30, -5, 5, -128, 127])
    total = immanant.sum_columns([a, b])
    assert total == oracles.packed([low, high, 0, 0, -256, 254])
    assert repr(immanant.Column(n, total)) == repr(immanant.Immanant(n, {
        (1, 2, 3): low, (1, 3, 2): high, (3, 1, 2): -256, (3, 2, 1): 254}))
    assert -b == oracles.packed([2**30, -(2**30), 5, -5, 128, -127])
    # The docstring's bound: 2^24 signed-byte terms stay inside a lane.
    assert immanant.MAX_TERMS == 2**24
    assert -128 * immanant.MAX_TERMS >= low and 127 * immanant.MAX_TERMS <= high
    assert immanant.sum_columns([]) == 0 == immanant.pack_column(n, array("b", bytes(6)))
    with pytest.raises(VerificationError):
        immanant.sum_columns(range(immanant.MAX_TERMS + 1))


def stored_and_perturbed(n):
    """Every store column of S_n, then each with one seeded entry moved by
    a seeded nonzero amount inside a signed byte: violations at every
    place a column can hold one."""
    rng = random.Random(n)
    for column in immanant.all_tl_immanants(n).values():
        yield column
        moved = array("b", column)
        r = rng.randrange(len(moved))
        moved[r] = rng.choice([x for x in range(-127, 128) if x != moved[r]])
        yield moved


@pytest.mark.parametrize("n", range(0, 8))
def test_gathered_alternation_matches_pairwise(n):
    """One batch call over every stored and perturbed column, each followed
    by its list form, and every eighth also by a copy holding -128 at a
    seeded rank, gives each column the pair-by-pair oracle's answer.  The
    batch is repeated until its byte-path columns fill more than two
    chunks, so lanes are settled in several chunks and list columns sit
    between them."""
    perms = perm.perm_index(n).perms
    rng = random.Random(-1 - n)
    bytewise = list(stored_and_perturbed(n))
    columns, expected = [], []
    for i, column in enumerate(bytewise):
        found = oracles.find_alternation_violation(immanant.Immanant(n, dict(zip(perms, column))))
        columns += [column, column.tolist()]
        expected += [found, found]
        if i % 8 == 0:
            low = array("b", column)
            low[rng.randrange(len(low))] = -128
            columns.append(low)
            expected.append(oracles.find_alternation_violation(
                immanant.Immanant(n, dict(zip(perms, low)))))
    copies = 1 + 2 * immanant._ALTERNATION_CHUNK * max(n, 1) // len(bytewise)
    assert immanant.alternation_violations(n, columns * copies) == expected * copies


def test_alternation_with_minus_128_takes_the_generic_path():
    """-128 is its own negation as a byte, so a column holding it on both
    sides of a pair is read by sums, where the pair does not cancel.  In a
    batch, the byte and list columns around it keep their own answers."""
    first = oracles.adjacent_pairs_by_definition(4)[0]
    rank = perm.perm_index(4).rank
    outside = next(r for u, r in rank.items() if u not in first)

    def column(values):
        out = array("b", bytes(24))
        for r, x in values.items():
            out[r] = x
        return out

    both = column({rank[first[0]]: -128, rank[first[1]]: -128})
    off_by_one = column({rank[first[0]]: -128, rank[first[1]]: 127})
    cancelling = column({rank[first[0]]: 5, rank[first[1]]: -5})
    doubled = column({rank[first[0]]: 5, rank[first[1]]: 5})
    elsewhere = column({outside: -128})
    batch = [both, cancelling, off_by_one, off_by_one.tolist(), doubled,
             elsewhere, [0] * 24, doubled.tolist(), cancelling.tolist()]
    assert immanant.alternation_violations(4, batch) == \
        [first, None, first, first, first, None, None, first, None]


@pytest.mark.parametrize("column", [array("b", bytes(23)), [0] * 25, []],
                         ids=["short bytes", "long list", "empty"])
def test_alternation_refuses_columns_not_of_length_n_factorial(column):
    with pytest.raises(PreconditionError, match=r"column 1 has \d+ entries, not 4! = 24"):
        immanant.alternation_violations(4, [[0] * 24, column])


def test_alternation_blocks_settle_in_pair_order():
    """At n = 7, more than one chunk of sparse byte columns: each holds
    seeded nonzero values at members of pairs in the first block of ranks
    sharing u(1), in the last such block that holds pairs, in both, twice
    in the first block, or nowhere.  Every column gets the pair-by-pair
    oracle's first violation, so a lane settled in an earlier block or by
    an earlier pair is not moved by a later one."""
    n = 7
    perms, rank = perm.perm_index(n)
    width = math.factorial(n - 1)
    blocks = {}
    for pair in oracles.adjacent_pairs_by_definition(n):
        blocks.setdefault(rank[pair[0]] // width, []).append(pair)
    head, tail = blocks[min(blocks)], blocks[max(blocks)]
    assert min(blocks) == 0 and max(blocks) > 0
    rng = random.Random(29)
    kinds = [(head,), (tail,), (head, tail), (head, head), (tail, tail), ()]
    columns = []
    while len(columns) <= 2 * immanant._ALTERNATION_CHUNK * n:
        column = array("b", bytes(len(perms)))
        for block in rng.choice(kinds):
            column[rank[rng.choice(rng.choice(block))]] = rng.choice((-127, -1, 1, 3, 127))
        columns.append(column)
    expected = [oracles.find_alternation_violation(immanant.Immanant(n, dict(zip(perms, c))))
                for c in columns]
    assert any(pair in head for pair in expected) and any(pair in tail for pair in expected)
    assert None in expected
    assert immanant.alternation_violations(n, columns) == expected


class LoggedColumn(array):
    """An ``array('b')`` that logs (its name, the start rank) of every
    slice read from it."""

    def __new__(cls, values, name, log):
        column = super().__new__(cls, "b", values)
        column.name, column.log = name, log
        return column

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.log.append((self.name, key.start))
        return super().__getitem__(key)


def test_alternation_lays_out_only_pending_columns():
    """At n = 6, more than two chunks of byte columns, each zero but for
    one seeded value at a member of a pair in the first, a middle or the
    last block of ranks sharing u(1) that holds pairs, or zero throughout.
    Each gets the oracle's first pair, a column settled in block b is
    never read for a later block, and a zero column is read for every
    block with pairs."""
    n = 6
    perms, rank = perm.perm_index(n)
    width = math.factorial(n - 1)
    pairs = oracles.adjacent_pairs_by_definition(n)
    blocks = sorted({rank[w] // width for w, _ in pairs})
    chosen = blocks[0], blocks[len(blocks) // 2], blocks[-1]
    assert len(set(chosen)) == 3
    members = {b: [u for pair in pairs if rank[pair[0]] // width == b for u in pair]
               for b in chosen}
    rng = random.Random(35)
    log, columns, settles = [], [], []
    while len(columns) <= 2 * immanant._ALTERNATION_CHUNK * n:
        values = bytearray(len(perms))
        block = rng.choice(chosen + (None,))
        if block is not None:
            values[rank[rng.choice(members[block])]] = rng.choice((1, 5, 127, 0xFF, 0x81))
        columns.append(LoggedColumn(values, len(columns), log))
        settles.append(block)
    expected = [oracles.find_alternation_violation(immanant.Immanant(n, dict(zip(perms, c))))
                for c in columns]
    assert [pair and rank[pair[0]] // width for pair in expected] == settles
    assert immanant.alternation_violations(n, columns) == expected
    read = {}
    for name, start in log:
        read.setdefault(name, []).append(start // width)
    for name, block in enumerate(settles):
        assert read[name] == (blocks if block is None else blocks[:blocks.index(block) + 1])


@pytest.mark.parametrize("n", range(0, 4))
def test_alternation_without_pairs_finds_nothing(n):
    size = math.factorial(n)
    rng = random.Random(n)
    columns = [array("b", bytes(size)), array("b", rng.randbytes(size)),
               array("b", [-128] * size), list(range(size))]
    assert perm.adjacent_1324_ranks(n) == (array("q"), array("q"))
    assert oracles.adjacent_pairs_by_definition(n) == ()
    assert immanant.alternation_violations(n, columns) == [None] * 4 == [
        oracles.find_alternation_violation(immanant.Immanant(n, {})) for _ in columns]


def test_byte_lane_packing_matches_generic():
    values = [-128, 127, 0, -1, 1, -127]
    assert immanant.pack_column(3, array("b", values)) == oracles.packed(values)
    assert repr(immanant.Column(3, immanant.pack_column(3, array("b", values)))) == repr(
        immanant.Immanant(3, {u: v for u, v in zip(perm.all_perms(3), values) if v}))
    for n in range(0, 7):
        for column in immanant.all_tl_immanants(n).values():
            assert immanant.pack_column(n, column) == oracles.packed(column)
    # Percent and complementary-minor columns against brute-force values.
    for n in range(0, 6):
        perms = perm.perm_index(n).perms

        def brute(terms):
            return oracles.packed([terms.get(u, 0) for u in perms])

        shapes = set()
        for w in perm.avoiding_321(n):
            shapes.add(immanant.hull(w))
            shapes.update(classify.decompose(w, validate=False).shapes)
        for shape in shapes:
            column = immanant.percent_immanant(shape).values
            assert immanant.pack_column(n, column) == brute(brute_percent_immanant(shape))
        for k in range(n + 1):
            for I in itertools.combinations(range(1, n + 1), k):
                for J in itertools.combinations(range(1, n + 1), k):
                    column = immanant.cm_immanant(n, I, J).values
                    assert immanant.pack_column(n, column) == brute(brute_cm_immanant(n, I, J))


def test_signed_indicators_leave_no_cycle():
    # The results must be freed by reference counting alone: a kernel that
    # recursed through a nested closure would leave a cycle per call.
    w = (2, 3, 1, 5, 6, 4)
    immanant.percent_immanant(immanant.hull(w))
    immanant.cm_immanant(6, {1, 2}, {3, 4})
    gc.collect()
    gc.disable()
    try:
        for v in perm.avoiding_321(6):
            immanant.percent_immanant(immanant.hull(v))
        immanant.cm_immanant(6, {1, 2}, {3, 4})
        immanant.cm_immanant(5, (), ())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tl_immanant_anchors():
    f = immanant.tl_immanant((2, 1))
    assert f.coeff((2, 1)) == 1 and f.coeff((1, 2)) == 0
    assert immanant.tl_immanant((2, 1, 4, 3)).coeff((4, 3, 2, 1)) == 2
    for n in range(1, 6):
        assert immanant.tl_immanant(perm.identity(n)).coeffs == determinant(n)
    with pytest.raises(PreconditionError):
        immanant.tl_immanant((3, 2, 1))


@pytest.mark.parametrize("n", range(0, 8))
def test_all_tl_immanants_match_f_coeff(n):
    # The keys come in a fixed order.  Each stored column, entry by rank,
    # against the single-shot theta(u), which does not go through the coset
    # chain, to n = 6, and to n = 5 against f_coeff, which meets a row and
    # a dual row in the middle.  n = 0 and 1 have only the identity.
    imms = immanant.all_tl_immanants(n)
    assert list(imms) == [tl.beta_inv(m) for m in tl.all_matchings(n)]
    if n == 7:
        return
    perms = perm.perm_index(n).perms
    rows = [tl.theta(u) for u in perms]
    for w in perm.avoiding_321(n):
        target = tl.beta(w)
        assert imms[w].tolist() == [row.get(target, 0) for row in rows]
        if n <= 5:
            assert imms[w].tolist() == [tl.f_coeff(w, u) for u in perms]


# sha256 over repr(w) and the column's bytes, w in key order, for each n.
STORE_DIGESTS = {
    0: "8451c891063e888666c933c5334f16352070b8c56dcffe42fcb88cf0f5864b5b",
    1: "30c21a8fa28a371f98ed65814a39b14a456cc6aa3a99e6e5ed5829390b05c6e2",
    2: "6123e29ddcdc77ad79fc4e72660e77fa4fd3d1df479fad6391a87800ea6f7a4a",
    3: "b0b35956daec0732c2a8f3d319f0a7ac7981b2cb2a8974dbd145ce1696f61f3d",
    4: "cb15aae52e57d7c28de16a09bb2a75054a50fdab63be50b4fc92680cb732e2f0",
    5: "7ce04065ab2f9ca7a6e4efa7f6b46ee19e136b59c0f94688af39eb9aa0ed310c",
    6: "f912a2525fec0169e371e7feb771acbb7a0cfc6921f610e7d55100c1a0ae2cc8",
    7: "4ef72941d464d2d9e7a2b044f89b9cb219650d4cc82e6885292abd9c74acd4d4",
}


def test_store_bytes_are_pinned():
    """Every byte and the key order of the store at n = 0..7, including
    the n = 7 columns that the sampled tests only partly read; the same
    stream over all n at once is the cross-check."""
    whole = hashlib.sha256()
    for n, digest in STORE_DIGESTS.items():
        one = hashlib.sha256()
        for w, column in tl.all_tl_immanants(n).items():
            for h in (one, whole):
                h.update(repr(w).encode())
                h.update(column.tobytes())
        assert one.hexdigest() == digest, n
    assert whole.hexdigest() == "7791762f93e2dd61fc988c6bd60bb6af2897f465cd1aabcf45a014648b2f1a23"


def test_store_rejects_coefficient_beyond_a_byte(monkeypatch):
    # At n = 2 the identity matching (index 1) times t_1 is t_1 (index 0);
    # a loop count of 8 on that step makes f_21(21) = 2^8.  At n = 3, t_2
    # (index 3) times t_1 is sent to beta(231) (index 2) with 8 loops, so
    # theta(s_2 s_1) = theta(312) holds 2^8 times beta(231).  The store
    # keeps that at w = 231^-1 = 312 and u = 312^-1 = 231: a message naming
    # w^-1 or u^-1 does not match.  The store reads only the moves.
    assert tl.beta_inv(tl.all_matchings(3)[2]) == (2, 3, 1)

    def patched(n, k, j):
        """The step table of n with matching k times t_1 sent to j with 8
        loops."""
        first, *rest = tl._steps(n)
        moves = list(first.moves)
        moves[k] = (j, 8)
        return (first._replace(moves=tuple(moves)), *rest)

    tables = {2: patched(2, 1, 0), 3: patched(3, 3, 2)}
    monkeypatch.setattr(tl, "_steps", tables.__getitem__)
    with pytest.raises(VerificationError, match=r"256 at n=2, w=21, u=21 "):
        immanant.all_tl_immanants.__wrapped__(2)
    with pytest.raises(VerificationError, match=r"256 at n=3, w=312, u=231 "):
        immanant.all_tl_immanants.__wrapped__(3)


def test_tl_immanant_is_a_copy():
    """The dict that coeffs builds is a copy: changing it leaves the store
    column, which the immanant holds, as it was."""
    w = (2, 1, 4, 3)
    column = immanant.all_tl_immanants(4)[w].tolist()
    f = immanant.tl_immanant(w)
    f.coeffs[(4, 3, 2, 1)] = 99
    f.coeffs.clear()
    assert immanant.all_tl_immanants(4)[w].tolist() == column
    assert immanant.tl_immanant(w).coeff((4, 3, 2, 1)) == 2


def test_immanants_hold_their_columns():
    """tl_immanant holds the store column itself, and percent_immanant and
    cm_immanant the ``array('b')`` columns their values build, equal to the
    brute-force filters; only the public constructor, from_json, + and
    scaled build a list."""
    for n in range(5):
        store = immanant.all_tl_immanants(n)
        for w in perm.avoiding_321(n):
            assert immanant.tl_immanant(w).values is store[w]
    shape = immanant.hull((2, 1, 4, 3))
    assert immanant.percent_immanant(shape).coeffs == brute_percent_immanant(shape)
    assert immanant.cm_immanant(4, {1}, {4}).coeffs == brute_cm_immanant(4, {1}, {4})
    for f in (immanant.percent_immanant(shape), immanant.cm_immanant(4, {1}, {4})):
        assert type(f.values) is array and f.values.typecode == "b"
        assert len(f.values) == 24
    f = immanant.tl_immanant((2, 1, 4, 3))
    for g, k in ((f + f, 2), (f.scaled(3), 3), (immanant.Immanant(4, f.coeffs), 1)):
        assert type(g.values) is list and g.values == [k * c for c in f.values]


def test_tagged_immanants_build_no_column_until_read(monkeypatch):
    """Every column is signed by signed_bytes, and a spy on it sees no call
    from percent_immanant, cm_immanant or evaluate on either: the values
    are built on the first read alone, once."""
    calls = []
    real = immanant.signed_bytes

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(immanant, "signed_bytes", spy)
    X = determinant_matrices(random.Random(4_340), 4)[0]
    tagged = [immanant.percent_immanant(immanant.hull((2, 1, 4, 3))),
              immanant.cm_immanant(4, {1, 2}, {2, 4})]
    for f in tagged:
        assert immanant.evaluate(f, X)
    assert calls == []
    for f in tagged:
        first = f.values
        assert f.values is first
    assert len(calls) == 2


def test_tagged_values_are_the_columns_once_read():
    """Read values equal brute_percent_immanant(hull(w)) by rank for every
    321-avoiding w at n <= 6, and brute_cm_immanant(n, I, J) for every
    (I, J) at n <= 4; a second read returns the same object."""
    for n in range(7):
        perms = perm.perm_index(n).perms
        for w in perm.avoiding_321(n):
            shape = immanant.hull(w)
            f = immanant.percent_immanant(shape)
            brute = brute_percent_immanant(shape)
            assert f.values.tolist() == [brute.get(u, 0) for u in perms], w
            assert f.values is f.values
    for n in range(5):
        perms = perm.perm_index(n).perms
        subsets = [I for k in range(n + 1) for I in itertools.combinations(range(1, n + 1), k)]
        for I, J in itertools.product(subsets, repeat=2):
            if len(I) == len(J):
                f = immanant.cm_immanant(n, I, J)
                brute = brute_cm_immanant(n, I, J)
                assert f.values.tolist() == [brute.get(u, 0) for u in perms], (I, J)
                assert f.values is f.values


def test_cm_immanant():
    assert immanant.cm_immanant(3, (), ()).coeffs == determinant(3)
    f = immanant.cm_immanant(4, {1}, {4})
    assert f.coeff((4, 1, 2, 3)) == -1
    assert f.coeff((4, 1, 3, 2)) == 1
    assert f.coeff((1, 4, 2, 3)) == 0
    with pytest.raises(PreconditionError):
        immanant.cm_immanant(3, {1}, {1, 2})


@pytest.mark.parametrize("n, I, J", [
    (3, {0}, {1}),  # would read u[-1], the row of 3
    (3, {4}, {1}),
    (3, {1}, {4}),
    (3, {1}, {0}),
    (-1, (), ()),
])
def test_cm_immanant_rejects_indices_outside_1_to_n(n, I, J):
    with pytest.raises(PreconditionError):
        immanant.cm_immanant(n, I, J)


@pytest.mark.parametrize("n", range(1, 5))
def test_cm_sign_law(n):
    """CM_{I,J} = (-1)^(s(I)+s(J)) Delta_{I,J} Delta_{Ic,Jc}, coefficientwise:
    the minor product assigns sgn(restriction) * sgn(complement restriction)."""
    for k in range(n + 1):
        for I in itertools.combinations(range(1, n + 1), k):
            for J in itertools.combinations(range(1, n + 1), k):
                f = immanant.cm_immanant(n, I, J)
                s = (-1) ** (sum(I) + sum(J))
                for u in perm.all_perms(n):
                    if {u[i - 1] for i in I} != set(J):
                        assert f.coeff(u) == 0
                        continue
                    # product of the signs of the two flattened blocks
                    inside = restriction(u, I) if I else ()
                    comp = tuple(sorted(set(range(1, n + 1)) - set(I)))
                    outside = restriction(u, comp) if comp else ()
                    prod = (perm.sign(inside) if inside else 1) * (
                        perm.sign(outside) if outside else 1
                    )
                    assert f.coeff(u) == s * prod


def test_immanant_arithmetic_and_json():
    f = immanant.tl_immanant((2, 1, 4, 3))
    assert f + f.scaled(-1) == immanant.zero_immanant(4)
    g = immanant.Immanant.from_json(f.to_json())
    assert f == g
    round_trip = json.loads(json.dumps(f.to_json()))
    assert immanant.Immanant.from_json(round_trip) == f
    h = f.scaled(Fraction(1, 2))
    assert immanant.Immanant.from_json(h.to_json()) == h


def test_immanant_sums_normalize_and_drop_zeros():
    f = immanant.tl_immanant((2, 1, 4, 3))
    half = f.scaled(Fraction(1, 2))
    for g in (half + half, half.scaled(2)):
        assert g == f and {type(c) for c in g.coeffs.values()} == {int}
    assert f.scaled(0).coeffs == {} and (f + f.scaled(-1)).coeffs == {}
    made = immanant.Immanant(2, {(1, 2): Fraction(2), (2, 1): Fraction(0)})
    assert made.coeffs == {(1, 2): 2} and type(made.coeffs[(1, 2)]) is int
    with pytest.raises(PreconditionError):
        f + immanant.tl_immanant((2, 1))
    for u in ((1, 2, 3), (1, 1)):
        with pytest.raises(PreconditionError):
            immanant.Immanant(2, {u: 1})


def test_immanants_refuse_inexact_coefficients():
    """Only int and Fraction coefficients are exact: a float, complex or
    bool one is refused, naming its type, by the constructor and by
    scaled, which normalize through one check, as + does.  (+ adds two
    exact columns, so nothing inexact can come in through it.)"""
    f = immanant.tl_immanant((2, 1))
    for c in (0.5, 1.0, 1j, True, False):
        with pytest.raises(PreconditionError, match=type(c).__name__):
            immanant.Immanant(2, {(1, 2): c})
        with pytest.raises(PreconditionError, match=type(c).__name__):
            immanant.Immanant(2, {(1, 2): Fraction(1, 2), (2, 1): c})
    for c in (0.5, 2.0, 1j, True):
        with pytest.raises(PreconditionError, match=type(c).__name__):
            f.scaled(c)
    half = immanant.Immanant(2, {(1, 2): Fraction(1, 2), (2, 1): 3})
    assert half.scaled(2).coeffs == {(1, 2): 1, (2, 1): 6}
    assert (half + f).coeffs == {(1, 2): Fraction(1, 2), (2, 1): 4}
    assert f.scaled(Fraction(-3)).coeffs == {(2, 1): -3}


def test_evaluate():
    det3, det2 = (immanant.Immanant(n, determinant(n)) for n in (3, 2))
    assert immanant.evaluate(det3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    X = immanant.parse_matrix('[["1/2", "1"], ["1", "2"]]')
    assert immanant.evaluate(det2, X) == 0
    with pytest.raises(PreconditionError):
        immanant.evaluate(det2, [[1]])


def test_evaluate_matches_fraction_oracle():
    """Seeded Fraction immanants on seeded rational matrices, every third
    with a zero row, against the Fraction oracle, for n = 0..7: the row
    split at h = ceil(n/2) leaves blocks of (n - h)! ranks, so n = 6 and 7
    cover both parities of n."""
    rng = random.Random(20_418)
    assert immanant.evaluate(immanant.Immanant(0, {(): Fraction(3, 2)}), []) == Fraction(3, 2)
    for n in range(0, 8):
        universe = list(perm.all_perms(n))
        for trial in range(6):
            f = immanant.Immanant(n, {
                u: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for u in rng.sample(universe, rng.randint(0, len(universe)))
            })
            X = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                 for _ in range(n)]
            if n and trial % 3 == 0:
                X[rng.randrange(n)] = [0] * n
            assert immanant.evaluate(f, X) == oracles.evaluate(f, X), (n, trial)
        if n:
            w = perm.avoiding_321(n)[-1]
            f = immanant.tl_immanant(w)
            assert immanant.evaluate(f, X) == oracles.evaluate(f, X)


def test_row_split_matches_oracle():
    """evaluate's row split equals the Fraction oracle on every store
    column at n = 6, and at n = 8, the default cap, on a seeded Fraction
    immanant and on an untagged copy of a CM column; untagged copies of
    hull percent columns equal their tagged value by elimination.  One
    seeded rational matrix per n."""
    rng = random.Random(42)

    def matrix(n):
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(n)]

    X = matrix(6)
    for w in immanant.all_tl_immanants(6):
        f = immanant.tl_immanant(w)
        assert immanant.evaluate(f, X) == oracles.evaluate(f, X), w
    X = matrix(8)
    universe = perm.perm_index(8).perms
    cm = immanant.cm_immanant(8, {1, 4, 5, 8}, {2, 3, 6, 7})
    fraction = immanant.Immanant(8, {
        u: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for u in rng.sample(universe, 3_000)})
    for f in (immanant.Immanant(8, cm.coeffs), fraction):
        assert f.rows is None and any(f.values)
        assert immanant.evaluate(f, X) == oracles.evaluate(f, X)
    for w in perm.avoiding_321(8)[::400]:
        tagged = immanant.percent_immanant(immanant.hull(w))
        untagged = immanant.Immanant(8, tagged.coeffs)
        assert tagged.rows is not None and untagged.rows is None
        assert immanant.evaluate(untagged, X) == immanant.evaluate(tagged, X), w


@pytest.mark.parametrize("n", range(0, 9))
def test_split_plan_reads_each_permutation(n):
    """The plan's bytes, read from the basis lanes, are each prefix's last
    value less one, and its codes each suffix's values less one as base-n
    digits, the first the most significant."""
    perms = perm.perm_index(n).perms
    plan = immanant._split_plan(n)
    h = (n + 1) // 2
    assert len(plan.prefix) == h and plan.code.typecode == "H"
    for j, prefix in enumerate(plan.prefix):
        assert list(prefix) == [u[j] - 1 for u in perms[::math.factorial(n - j - 1)]]
    assert list(plan.code) == [
        sum((x - 1) * n ** (n - 1 - i) for i, x in enumerate(u[h:], start=h)) for u in perms]


def test_suffix_codes_widen_before_they_would_carry():
    """Each code type holds every code n^(n - h) - 1 of its n; the codes
    widen to 32 bits at n = 10 (10^5 > 2^16), and past 32 bits, at n = 17
    (17^8 > 2^32), the type is a LimitError, found before any table is
    built."""
    assert [immanant._code_type(n) for n in range(17)] == ["H"] * 10 + ["I"] * 7
    for n in range(17):
        assert n ** (n - (n + 1) // 2) <= 1 << 8 * array(immanant._code_type(n)).itemsize
    assert 10 ** 5 > 1 << 16 and 17 ** 8 > 1 << 32
    with pytest.raises(LimitError, match="32-bit"):
        immanant._code_type(17)


def determinant_matrices(rng, n):
    """The matrices the determinant path meets: a seeded dense rational
    one with its (1, 1) entry zero, so that the first pivot needs a row
    swap; the same with a nonzero (1, 1) entry, with two equal rows and
    with a zero row; and permutation matrices, every one for n <= 3 and
    three seeded ones above."""
    def entry():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    dense = [[entry() for _ in range(n)] for _ in range(n)]
    out = [dense]
    if n:
        corner, twin, zero = ([list(row) for row in dense] for _ in range(3))
        corner[0][0] = Fraction(0)
        twin[-1] = list(twin[0])
        zero[rng.randrange(n)] = [0] * n
        out = [corner, dense, twin, zero]
    perms = perm.perm_index(n).perms
    for u in perms if n <= 3 else rng.sample(perms, 3):
        out.append([[int(u[i] == j) for j in range(1, n + 1)] for i in range(n)])
    return out


def assert_determinant_path(f, matrices, oracle_on=None):
    """f carries its rows, and on each matrix evaluate's elimination equals
    the row split of an untagged copy, and on the first ``oracle_on``
    matrices (all by default) the Fraction oracle, which costs one
    Fraction product per term and row."""
    assert f.rows is not None
    untagged = immanant.Immanant(f.n, f.coeffs)
    assert untagged.rows is None and untagged == f
    for k, X in enumerate(matrices):
        value = immanant.evaluate(f, X)
        assert immanant.evaluate(untagged, X) == value, (f.rows, X)
        if oracle_on is None or k < oracle_on:
            assert value == oracles.evaluate(f, X), (f.rows, X)


@pytest.mark.parametrize("n", range(0, 5))
def test_percent_determinants_in_the_box(n):
    """Every skew shape in the n x n box, n <= 4, n = 0 and 1 among them."""
    rng = random.Random(4_300 + n)
    matrices = determinant_matrices(rng, n)
    for shape in box_shapes(n):
        assert_determinant_path(immanant.percent_immanant(shape), matrices)


@pytest.mark.parametrize("n", (5, 6, 7))
def test_percent_determinants_on_hulls(n):
    """Every hull of S_n at n = 5 and 6, and every tenth at n = 7, in the
    order of the shapes, on the matrices of :func:`determinant_matrices`;
    at n = 6 and 7 the Fraction oracle takes only the first, whose first
    pivot is zero: on the supports of those hulls it costs seconds per
    matrix."""
    rng = random.Random(4_310 + n)
    matrices = determinant_matrices(rng, n)
    hulls = sorted({immanant.hull(w) for w in perm.perm_index(n).perms})
    for shape in hulls[::10 if n == 7 else 1]:
        assert_determinant_path(immanant.percent_immanant(shape), matrices,
                                None if n == 5 else 1)


@pytest.mark.parametrize("n", range(0, 7))
def test_cm_determinants(n):
    """Every (I, J) with |I| = |J| for n <= 4, and 30 seeded pairs at
    n = 5 and 6."""
    rng = random.Random(4_320 + n)
    matrices = determinant_matrices(rng, n)
    subsets = [I for k in range(n + 1) for I in itertools.combinations(range(1, n + 1), k)]
    pairs = [(I, J) for I in subsets for J in subsets if len(I) == len(J)]
    for I, J in pairs if n <= 4 else rng.sample(pairs, 30):
        assert_determinant_path(immanant.cm_immanant(n, I, J), matrices)


def test_only_percent_and_cm_immanants_carry_rows():
    """percent_immanant and cm_immanant set the rows slot; the constructor,
    from_json, tl_immanant, zero_immanant, + and scaled leave it None, so
    a sum or a multiple goes by the row split and gets its own value: a
    sum that kept the rows of its terms would give the determinant once."""
    f = immanant.percent_immanant(immanant.hull((2, 1, 4, 3)))
    g = immanant.cm_immanant(4, {1, 2}, {2, 4})
    assert f.rows == (range(2, 5), range(1, 5), range(1, 5), range(1, 4))
    assert g.rows == ({2, 4}, {2, 4}, {1, 3}, {1, 3})
    X = determinant_matrices(random.Random(4_330), 4)[0]
    built = (f + f, f + g, g + f, f.scaled(3), g.scaled(Fraction(1, 2)),
             immanant.Immanant(4, f.coeffs), immanant.Immanant.from_json(g.to_json()),
             immanant.tl_immanant((2, 1, 4, 3)), immanant.zero_immanant(4))
    assert all(h.rows is None for h in built)
    assert immanant.evaluate(f, X) and immanant.evaluate(g, X)
    assert immanant.evaluate(f + f, X) == 2 * immanant.evaluate(f, X)
    assert immanant.evaluate(f + g, X) == immanant.evaluate(f, X) + immanant.evaluate(g, X)
    assert immanant.evaluate(g.scaled(Fraction(1, 2)), X) == immanant.evaluate(g, X) / 2


def test_rows_take_the_determinant_path(monkeypatch):
    """A tagged call never reads the row-split plan; an untagged one does,
    so the spy is live."""
    reads = []
    plan = immanant._split_plan

    def spy(n):
        reads.append(n)
        return plan(n)

    monkeypatch.setattr(immanant, "_split_plan", spy)
    X = determinant_matrices(random.Random(4_340), 6)[0]
    tagged = [immanant.percent_immanant(immanant.hull((2, 1, 4, 3, 6, 5))),
              immanant.cm_immanant(6, {1, 3}, {4, 6}), immanant.percent_immanant(box(0))]
    for f in tagged:
        immanant.evaluate(f, X if f.n else [])
    assert reads == []
    immanant.evaluate(immanant.Immanant(6, tagged[0].coeffs), X)
    assert reads == [6]


def held_terms(f, X):
    """The terms of f at the u whose row product on X is nonzero: the only
    ones that can contribute to evaluate(f, X)."""
    return immanant.Immanant(f.n, {u: c for u, c in f.coeffs.items()
                                   if all(X[i][x - 1] for i, x in enumerate(u))})


@pytest.mark.parametrize("n", range(4, 8))
def test_evaluate_on_witness_matrices(n):
    """On the 0/1 witness matrices evaluate agrees with the Fraction oracle,
    on each immanant and on its terms at the u with a nonzero row product:
    at most 6 of them, the support suite A10 sums over.  Every tenth w at
    n = 7, where the oracle is slow."""
    applicable = [w for w in perm.avoiding_321(n) if perm.avoids(w, classify.PATTERN_1324)
                  and not perm.avoids(w, classify.PATTERN_2143)]
    for w in applicable[::10 if n == 7 else 1]:
        X = immanant.witness_matrix(w)
        for f in (immanant.tl_immanant(w), immanant.percent_immanant(immanant.hull(w))):
            held = held_terms(f, X)
            assert len(held.coeffs) <= 6, w
            assert immanant.evaluate(f, X) == immanant.evaluate(held, X) == oracles.evaluate(f, X), w


def test_evaluate_walks_agree_on_sparse_and_dense_matrices():
    """evaluate on f and on its held terms, those at the u whose row
    product on X is nonzero, gives the Fraction oracle's value, with
    Fraction coefficients.  An immanant with every term meets permutation
    matrices, seeded matrices at least half zeros (one with a zero row),
    and n = 0; store and scaled percent immanants meet dense 7 x 7
    matrices, where every term is held."""
    rng = random.Random(31)

    def entry():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    def on_all_and_held_terms(f, X):
        return immanant.evaluate(f, X), immanant.evaluate(held_terms(f, X), X)

    for n in range(0, 6):
        universe = list(perm.all_perms(n))
        full = immanant.Immanant(n, {u: entry() for u in universe})
        for u in universe:
            X = [[int(u[i] == j) for j in range(1, n + 1)] for i in range(n)]
            assert on_all_and_held_terms(full, X) == (oracles.evaluate(full, X),) * 2
            assert oracles.evaluate(full, X) == full.coeff(u)
        for trial in range(8):
            X = [[0] * n for _ in range(n)]
            for cell in rng.sample(range(n * n), n * n // 2):
                X[cell // n][cell % n] = entry()
            if n and trial == 0:
                X[rng.randrange(n)] = [0] * n
            assert on_all_and_held_terms(full, X) == (oracles.evaluate(full, X),) * 2, (n, trial)
    dense = [[entry() for _ in range(7)] for _ in range(7)]
    for w in perm.avoiding_321(7)[::120]:
        for f in (immanant.tl_immanant(w),
                  immanant.percent_immanant(immanant.hull(w)).scaled(Fraction(2, 3))):
            assert held_terms(f, dense) == f
            assert immanant.evaluate(f, dense) == oracles.evaluate(f, dense), w
    for f in (immanant.zero_immanant(0), immanant.Immanant(0, {(): Fraction(-5, 3)})):
        assert on_all_and_held_terms(f, []) == (oracles.evaluate(f, []),) * 2


def mixed_entries(rng, n):
    """A dense n x n matrix of nonzero entries given as ints, Fractions and
    "p/q" strings, cycling through the three kinds cell by cell."""
    def entry(k):
        p, q = rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)
        return (p, Fraction(p, q), f"{p}/{q}")[k % 3]

    return [[entry(i * n + j) for j in range(n)] for i in range(n)]


def test_evaluate_matches_oracle_for_int_fraction_and_mixed_coefficients():
    """evaluate against the Fraction oracle on dense 7 x 7 matrices
    of int, Fraction and "p/q" entries: all-int coefficients (store and
    hull percent immanants), all-Fraction ones, and an int immanant plus
    one Fraction term; then n = 0 and n = 1."""
    rng = random.Random(3_607)
    universe = list(perm.all_perms(7))
    for w in perm.avoiding_321(7)[::60]:
        tl_w = immanant.tl_immanant(w)
        fractions = immanant.Immanant(7, {
            v: Fraction(2 * rng.randint(-5, 5) + 1, 2 * rng.randint(1, 4))
            for v in rng.sample(universe, 300)})
        mixed = tl_w + immanant.Immanant(7, {rng.choice(universe): Fraction(1, 3)})
        X = mixed_entries(rng, 7)
        for f, types in ((tl_w, {int}),
                         (immanant.percent_immanant(immanant.hull(w)), {int}),
                         (fractions, {Fraction}),
                         (mixed, {int, Fraction})):
            assert set(map(type, f.coeffs.values())) == types
            assert immanant.evaluate(f, X) == oracles.evaluate(f, X), (w, types)
    small = [immanant.zero_immanant(0), immanant.Immanant(0, {(): 4}),
             immanant.Immanant(0, {(): Fraction(-5, 3)})]
    for f in small:
        assert immanant.evaluate(f, []) == oracles.evaluate(f, [])
    for c in (3, Fraction(-7, 4)):
        f = immanant.Immanant(1, {(1,): c})
        for x in (5, Fraction(2, 9), "-2/4", 0):
            assert immanant.evaluate(f, [[x]]) == oracles.evaluate(f, [[x]]), (c, x)


def test_int_coefficients_take_no_coefficient_lcm(monkeypatch):
    """On a dense matrix, an all-int immanant calls math.lcm only for the
    n row scales; Fraction coefficients add one call for their own lcm."""
    real = math.lcm
    X = mixed_entries(random.Random(17), 7)
    w = perm.avoiding_321(7)[200]
    for f, expected in ((immanant.tl_immanant(w), 7),
                        (immanant.percent_immanant(immanant.hull(w)), 7),
                        (immanant.tl_immanant(w).scaled(Fraction(1, 2)), 8)):
        calls = []
        with monkeypatch.context() as m:
            m.setattr(math, "lcm", lambda *args: calls.append(args) or real(*args))
            value = immanant.evaluate(f, X)
        assert len(calls) == expected and value == oracles.evaluate(f, X)


def test_as_matrix_keeps_fractions_and_refuses_what_it_refused():
    """Fraction entries come back as the same objects; ints and "p/q"
    strings are read as Fractions; a bool, a float, a zero denominator
    and a ragged row are each a ValueError."""
    half, third = Fraction(1, 2), Fraction(-1, 3)
    X = immanant.as_matrix([[half, 3], ["-2/4", third]])
    assert X[0][0] is half and X[1][1] is third
    assert X == ((Fraction(1, 2), Fraction(3)), (Fraction(-1, 2), Fraction(-1, 3)))
    assert all(type(x) is Fraction for row in X for x in row)
    assert immanant.as_matrix([]) == ()
    for bad in ([[True]], [[1.0]], [["1/0"]], [[1, 2], [3]], [[half, 1], [2]]):
        with pytest.raises(ValueError):
            immanant.as_matrix(bad)
        if len(bad) == 1:
            with pytest.raises(ValueError):
                immanant.evaluate(immanant.Immanant(1, {(1,): 1}), bad)


@pytest.mark.parametrize("n", (4, 5))
def test_three_equal_rows_kill_tl_immanants(n):
    rng = random.Random(n)
    for trial in range(3):
        base = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        base[1] = base[0][:]
        base[n - 1] = base[0][:]
        for w in perm.avoiding_321(n):
            assert immanant.evaluate(immanant.tl_immanant(w), base) == 0


def test_witness_matrix():
    X = immanant.witness_matrix((2, 1, 4, 3))
    assert X[0] == X[2] == X[3]
    assert abs(immanant.evaluate(
        immanant.percent_immanant(immanant.hull((2, 1, 4, 3))), X
    )) == 1
    assert immanant.evaluate(immanant.tl_immanant((2, 1, 4, 3)), X) == 0


def moved(f, move):
    """The immanant with the coefficient of u moved to move(u)."""
    return immanant.Immanant(f.n, {move(u): c for u, c in f.coeffs.items()})


@pytest.mark.parametrize("n", range(1, 6))
def test_transforms(n):
    """Hull percent immanants are carried to each other by u -> u^-1 and
    u -> w0 u w0; suite A5 checks the same symmetries of the Temperley-Lieb
    immanants."""
    for w in perm.all_perms(n):
        f = immanant.percent_immanant(immanant.hull(w))
        assert moved(f, perm.inverse) == immanant.percent_immanant(
            immanant.hull(perm.inverse(w))
        )
        assert moved(f, perm.conjugate_by_longest) == immanant.percent_immanant(
            immanant.hull(perm.conjugate_by_longest(w))
        )


def test_sign_alternation():
    for n in (3, 4):
        columns = [immanant.percent_immanant(immanant.hull(w)).values for w in perm.all_perms(n)]
        assert immanant.alternation_violations(n, columns) == [None] * len(columns)
    assert immanant.alternation_violations(4, [immanant.cm_immanant(4, (), ()).values]) == [None]
    column = immanant.all_tl_immanants(5)[(2, 4, 1, 5, 3)]
    assert immanant.alternation_violations(5, [column]) != [None]


def test_classes_examples():
    assert all(len(c) == 1 for c in immanant.related_classes(3))
    big = next(c for c in immanant.related_classes(5) if (1, 2, 3, 4, 5) in c)
    assert set(big) == {
        w for w in perm.all_perms(5) if w[0] == 1 and w[4] == 5
    }


@pytest.mark.parametrize("n", range(0, 9))
def test_related_classes_are_ordered_by_minimum(n):
    """Each class is sorted and their minima strictly increase, also from
    n = 7 on, where a union-find root need not be the least member."""
    classes = immanant.related_classes(n)
    minima = [c[0] for c in classes]
    assert all(a < b for a, b in zip(minima, minima[1:]))
    assert all(list(c) == sorted(c) for c in classes)


def test_percent_basis_decompose():
    assert immanant.percent_basis_decompose(immanant.zero_immanant(3)) == []
    for n in (3, 4, 5):
        for w in perm.avoiding_321(n):
            f = immanant.percent_immanant(immanant.hull(w))
            rebuilt = immanant.zero_immanant(n)
            for rep, c in immanant.percent_basis_decompose(f):
                members = next(
                    cl for cl in immanant.related_classes(n) if rep in cl
                )
                indicator = immanant.Immanant(n, {u: perm.sign(u) for u in members})
                rebuilt = rebuilt + indicator.scaled(c)
            assert rebuilt == f
    f = immanant.tl_immanant((2, 1, 4, 3))
    rebuilt = immanant.zero_immanant(4)
    for rep, c in immanant.percent_basis_decompose(f):
        members = next(cl for cl in immanant.related_classes(4) if rep in cl)
        indicator = immanant.Immanant(4, {u: perm.sign(u) for u in members})
        rebuilt = rebuilt + indicator.scaled(c)
    assert rebuilt == f
    with pytest.raises(PreconditionError):
        immanant.percent_basis_decompose(immanant.tl_immanant((2, 4, 1, 5, 3)))
    # Terms in increasing order of representative, also at n = 7.
    f = immanant.percent_immanant(immanant.hull(perm.parse_perm("3416725")))
    reps = [rep for rep, _ in immanant.percent_basis_decompose(f)]
    assert reps == sorted(set(reps)) and len(reps) > 1


def test_span_layer_keeps_only_its_kernels():
    """Membership is alternation_violations on columns, the class
    indicators are plain Immanants and 1324-adjacency is one rank table: no
    wrapper restates any of them."""
    for module in (tlimm, immanant, perm):
        for name in ("is_1324_sign_alternating", "_dense", "class_indicator",
                     "alternation_violation", "adjacent_1324_pairs"):
            assert not hasattr(module, name), (module.__name__, name)


CAPPED_TABLES = [
    perm.perm_index, perm.symmetry_ranks, perm.avoiding_321, perm.adjacent_1324_ranks,
    immanant.related_classes, immanant.all_tl_immanants, immanant._basis,
    immanant._split_plan, tl.all_matchings, tl._matching_index, tl._steps,
    coloring._compatibility_table,
]


def test_capped_tables_are_found():
    """The list above is every ``limits.capped_cache`` function of tlimm,
    found by an AST scan: a table that loses the decorator, or a new one
    that is not listed, fails here."""
    src = Path(tl.__file__).resolve().parent
    found = {node.name for path in src.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef)
             and any(isinstance(d, ast.Call) and ast.unparse(d.func).endswith("capped_cache")
                     for d in node.decorator_list)}
    assert found == {fn.__name__ for fn in CAPPED_TABLES}


def test_readme_names_every_capped_table():
    """README's "Size limits and memory" names each capped table in one
    sentence; a table added or deleted without a README edit fails here.
    The store is named where it is defined, as ``tl.all_tl_immanants``."""
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    head = "is a `limits.capped_cache`:"
    start = readme.index(head) + len(head)
    sentence = readme[start:readme.index("held to the table cap.", start)]
    named = re.findall(r"`(\w+\.\w+)`", sentence)
    assert sorted(named) == sorted(
        f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}" for fn in CAPPED_TABLES)


def test_import_fills_no_cache():
    """A fresh ``import tlimm`` builds no table: every lru cache of the
    package, the capped tables of the list above among them, is empty, so
    no table's cost hides in an import."""
    script = """
import importlib, json, pkgutil, sys
import tlimm
sizes = {}
for info in pkgutil.iter_modules(tlimm.__path__):
    module = importlib.import_module("tlimm." + info.name)
    for name, value in vars(module).items():
        if hasattr(value, "cache_info") and value.__module__ == module.__name__:
            sizes[f"{info.name}.{name}"] = value.cache_info().currsize
print(json.dumps(sizes))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(tl.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    sizes = json.loads(done.stdout)
    capped = {f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}" for fn in CAPPED_TABLES}
    assert capped <= set(sizes) and "immanant._basis" in capped
    assert {name: size for name, size in sizes.items() if size} == {}


def test_cold_import_loads_no_introspection_modules():
    """Importing the library and its command line loads none of
    ``dataclasses`` and the modules it pulls in: every CLI query starts a
    cold interpreter and would pay for them.  ``-S`` keeps ``site`` from
    loading anything first."""
    script = """
import sys
import tlimm, tlimm.verify, tlimm.cli
print(" ".join(m for m in ("dataclasses", "inspect", "ast", "dis") if m in sys.modules))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(tl.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


@pytest.mark.parametrize("fn", CAPPED_TABLES, ids=lambda fn: fn.__name__)
def test_capped_table_cache_clear_rebuilds(fn):
    first = fn(4)
    fn.cache_clear()
    assert fn.cache_info().currsize == 0
    second = fn(4)
    assert second is not first
    assert second == first
    assert fn.cache_info()[:2] == (0, 1)


@pytest.mark.parametrize("fn", CAPPED_TABLES, ids=lambda fn: fn.__name__)
def test_capped_tables_refuse_negative_n(fn):
    """A negative n is refused before the cache is looked up, so no table
    is built for it or cached under it."""
    size = fn.cache_info().currsize
    with pytest.raises(PreconditionError, match="negative n=-1"):
        fn(-1)
    assert fn.cache_info().currsize == size


@pytest.mark.parametrize("fn", CAPPED_TABLES, ids=lambda fn: fn.__name__)
def test_caps_hold_for_cached_sizes(monkeypatch, fn):
    """A size cached under the default cap is refused once the cap is
    lowered below it: the cap is checked before the cache."""
    fn(5)
    monkeypatch.setenv("TLIMM_MAX_N", "4")
    with pytest.raises(LimitError):
        fn(5)


def test_alternation_scans_are_capped(monkeypatch):
    # A store column takes the byte path, warmed here at the default cap.
    column = immanant.all_tl_immanants(5)[perm.identity(5)]
    assert immanant.alternation_violations(5, [column]) == [None]
    monkeypatch.setenv("TLIMM_MAX_N", "4")
    with pytest.raises(LimitError):
        perm.adjacent_1324_ranks(5)
    with pytest.raises(LimitError):
        immanant.alternation_violations(5, [column])
    with pytest.raises(LimitError):
        immanant.percent_basis_decompose(immanant.Immanant(5, {}))
    monkeypatch.delenv("TLIMM_MAX_N")
    with pytest.raises(LimitError):
        immanant.percent_basis_decompose(immanant.Immanant(10, {}))


def test_limits(monkeypatch):
    """n above the cap is refused when a percent or CM immanant is asked
    for, not when its values are first read."""
    monkeypatch.setenv("TLIMM_MAX_N", "4")
    with pytest.raises(LimitError):
        immanant.cm_immanant(5, (), ())
    with pytest.raises(LimitError):
        immanant.percent_immanant(immanant.hull((2, 1, 4, 3, 5)))
    monkeypatch.delenv("TLIMM_MAX_N")
    with pytest.raises(LimitError):
        immanant.cm_immanant(9, (), ())
    with pytest.raises(LimitError):
        immanant.tl_immanant(perm.identity(8))


def test_cap_changes_are_seen_on_the_next_cached_hit(monkeypatch):
    """The variable is read on every call, set or unset, so a warmed cache
    never hides a change to it."""
    monkeypatch.delenv("TLIMM_MAX_N", raising=False)
    index = perm.perm_index(7)
    assert perm.perm_index(7) is index
    monkeypatch.setenv("TLIMM_MAX_N", "6")
    with pytest.raises(LimitError):
        perm.perm_index(7)
    monkeypatch.delenv("TLIMM_MAX_N")
    assert perm.perm_index(7) is index
    monkeypatch.setenv("TLIMM_MAX_N", "seven")
    with pytest.raises(LimitError, match="must be an integer, got 'seven'"):
        perm.perm_index(7)
    monkeypatch.setenv("TLIMM_MAX_N", "7")
    assert perm.perm_index(7) is index
