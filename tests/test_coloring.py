import ast
import itertools
import math
from pathlib import Path

import pytest

from tlimm import coloring, perm, tl, verify
from tlimm.errors import PreconditionError

from oracles import beta_lookup, brute_compatible_permutations


def test_coloring_from_any_iterables():
    """A coloring built from lists or ranges holds frozensets."""
    c = coloring.Coloring(4, [4, 1], [1, 4])
    assert (c.blacks, c.primed_whites) == (frozenset({1, 4}), frozenset({1, 4}))
    empty = coloring.Coloring(3, [], range(0))
    assert (empty.blacks, empty.primed_whites) == (frozenset(), frozenset())


def test_circular_conversion():
    c = coloring.Coloring(2, [1], [1])
    # positions read 1, 2, 2', 1'
    colors = [True, False, True, False]
    assert [c.is_black_position(p) for p in range(4)] == colors
    assert coloring.Coloring.from_circle(2, colors) == c
    with pytest.raises(ValueError):
        coloring.Coloring.from_circle(2, colors[:3])


def test_is_compatible():
    assert coloring.is_compatible(tl.beta((2, 1)), coloring.Coloring(2, [1], [1]))
    assert coloring.is_compatible(
        tl.beta((1, 2, 3)), coloring.Coloring(3, [1], [1])
    )
    all_black = coloring.Coloring(3, [1, 2, 3], [])
    for m in tl.all_matchings(3):
        assert not coloring.is_compatible(m, all_black)
    with pytest.raises(PreconditionError):
        coloring.is_compatible(tl.beta((2, 1)), coloring.Coloring(3, [1], [1]))


def test_compatible_permutations():
    got = coloring.compatible_permutations(coloring.Coloring(3, [1], [1]))
    assert got == frozenset({(1, 2, 3), (2, 1, 3)})
    assert coloring.compatible_permutations(
        coloring.Coloring(1, [], [])
    ) == frozenset({(1,)})
    assert (2, 1, 4, 3) in coloring.compatible_permutations(
        coloring.Coloring(4, [1, 4], [1, 4])
    )
    with pytest.warns(UserWarning):
        assert coloring.compatible_permutations(
            coloring.Coloring(2, [1], [])
        ) == frozenset()
    assert coloring.compatible_permutations(coloring.Coloring(3, {1}, {1})) == got


@pytest.mark.parametrize("n", range(0, 8))
def test_compatibility_table_keys_every_balanced_coloring(n):
    """Each matching is compatible with 2^n colorings, and together they
    cover every balanced coloring: the keys are exactly the black masks of
    2n bits with n set, C(2n, n) of them."""
    table = coloring._compatibility_table(n)
    assert sorted(table) == sorted(
        sum(1 << p for p in blacks) for blacks in itertools.combinations(range(2 * n), n))
    assert len(table) == math.comb(2 * n, n)


def test_compatibility_table_reads_no_construction():
    """Suite A7 checks the unique-matching constructions against the
    compatibility table, so the table is built from the matchings alone:
    its source names none of the constructions or the coloring record."""
    source = Path(coloring.__file__).read_text()
    table = next(node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_compatibility_table")
    names = {getattr(node, "id", None) or getattr(node, "attr", None)
             for node in ast.walk(table)}
    forbidden = {name for name in names if name and (
        name in ("_unique_general", "_pull_back", "from_circle", "Coloring")
        or name.startswith("unique_matching_"))}
    assert forbidden == set()


@pytest.mark.parametrize("n", range(0, 6))
def test_compatible_permutations_match_oracle(n):
    # is_compatible and compatible_permutations for every coloring (I, J).
    # With |I| != |J| no perfect matching joins black to white, and
    # compatible_permutations warns.
    subsets = [S for k in range(n + 1) for S in itertools.combinations(range(1, n + 1), k)]
    for I in subsets:
        for J in subsets:
            c = coloring.Coloring(n, I, J)
            expected = brute_compatible_permutations(c)
            assert {w for m, w in beta_lookup(n).items()
                    if coloring.is_compatible(m, c)} == expected, (I, J)
            if len(I) == len(J):
                assert coloring.compatible_permutations(c) == expected, (I, J)
            else:
                assert expected == frozenset()
                with pytest.warns(UserWarning):
                    assert coloring.compatible_permutations(c) == frozenset()


def test_canonical_coloring():
    c = coloring.canonical_coloring((2, 1))
    assert (c.blacks, c.primed_whites) == (frozenset({1}), frozenset({2}))
    ident = coloring.canonical_coloring(perm.identity(4))
    assert ident.blacks == frozenset(range(1, 5))
    assert ident.primed_whites == frozenset(range(1, 5))
    with pytest.raises(PreconditionError):
        coloring.canonical_coloring((3, 2, 1))


@pytest.mark.parametrize("n", range(1, 8))
def test_canonical_coloring_law(n):
    """Every pair of beta(w) joins a black vertex to a white vertex whose
    label is at least the black one."""
    for w in perm.avoiding_321(n):
        m = tl.beta(w)
        c = coloring.canonical_coloring(w)
        assert coloring.is_compatible(m, c)
        for p, q in m.pairs():
            labels = {}
            for pos in (p, q):
                label, _ = tl.vertex_of_position(n, pos)
                labels[c.is_black_position(pos)] = label
            assert labels[True] <= labels[False]


def test_unique_matching_general_rainbow():
    col, m = coloring.unique_matching_general(0, 3, 3, 0, 0)
    assert col == coloring.Coloring(6, range(1, 7), range(1, 7))
    assert m.pairing == tuple(11 - p for p in range(12))


def test_unique_matching_case_anchors():
    _, m1 = coloring.unique_matching_case1(1, 1, 1, 1, 0)
    assert m1 == tl.beta((2, 1, 4, 3))
    _, m2 = coloring.unique_matching_case2(1, 1, 1, 1, 0, 1)
    assert m2 == tl.beta((2, 4, 1, 5, 3))
    with pytest.raises(PreconditionError):
        coloring.unique_matching_case1(0, 1, 1, 1, 1)
    with pytest.raises(PreconditionError):
        coloring.unique_matching_case2(1, 0, 1, 1, 0, 1)


def test_unique_matching_case1_figure():
    """The illustrated instance a = c = 2, e = b = d = 1 on n = 7."""
    col, m = coloring.unique_matching_case1(2, 1, 2, 1, 1)
    assert m == tl.parse_matching("1-3' 2-3 4-4' 5-7' 6-7 5'-6' 1'-2'")
    assert col.blacks == frozenset({1, 3, 4, 5, 6})
    assert col.primed_whites == frozenset({2, 3, 4, 5, 7})


@pytest.mark.parametrize("n", (0, 1, 7))
def test_unique_matching_outside_default_sizes(n):
    """Suite A7 beyond its default sizes: n = 0 and 1 have only general
    instances, and n = 7 is the largest size the case constructions reach."""
    report = verify.run_suite("A7", n)
    assert report.checks > 0 and report.ok, report.failures[:3]
