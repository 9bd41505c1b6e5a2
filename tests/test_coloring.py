import ast
import itertools
import math
from pathlib import Path

import pytest

from tlimm import coloring, immanant, perm, tl, verify
from tlimm.errors import PreconditionError, VerificationError

from oracles import brute_compatible_permutations


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
    """The compatibility relation, read from the table through
    compatible_permutations and held to the brute-force oracle: anchors,
    and an all-black coloring that no matching is compatible with."""
    for c, w in ((coloring.Coloring(2, [1], [1]), (2, 1)),
                 (coloring.Coloring(3, [1], [1]), (1, 2, 3))):
        got = coloring.compatible_permutations(c)
        assert w in got and got == brute_compatible_permutations(c)
    all_black = coloring.Coloring(3, [1, 2, 3], [])
    assert brute_compatible_permutations(all_black) == frozenset()
    assert (1 << 6) - 1 not in coloring._compatibility_table(3)
    with pytest.warns(UserWarning):
        assert coloring.compatible_permutations(all_black) == frozenset()


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


@pytest.mark.parametrize("n", range(0, 8))
def test_cm_plan_lists_match_the_compatibility_table(n):
    """For every 321-avoiding w: the plan's four index sets are the
    canonical coloring (I, J) of w, 0-based, and their complements; w is
    in the table's list of its coloring, and the plan's ``others`` is that
    list without w, in the same order; the keys of the index are the
    tuples of perm_index(n)."""
    plan = coloring._cm_plan(n)
    table = coloring._compatibility_table(n)
    ws = list(plan.index)
    assert ws == [tl.beta_inv(m) for m in tl.all_matchings(n)]
    for w, k in plan.index.items():
        c = coloring.canonical_coloring(w)
        I, J, Ic, Jc = plan.minors[k]
        assert [i + 1 for i in I] == sorted(c.blacks)
        assert [j + 1 for j in J] == sorted(c.primed_whites)
        assert sorted(I + Ic) == sorted(J + Jc) == list(range(n))
        listed = [v for _, _, v in table[coloring._black_mask(n, c.blacks, c.primed_whites)]]
        assert w in listed
        assert [ws[j] for j in plan.others[k]] == [v for v in listed if v != w], w
        assert w is perm.perm_index(n).perms[perm.perm_index(n).rank[w]]


def test_cm_plan_refuses_a_missing_w_and_a_cycle(monkeypatch):
    """The matching of 231 read as another w: as 123, whose coloring only
    the identity matching fits, 123 misses its own list, which a
    VerificationError names; as 213, whose coloring both the matching of
    213 and that of 231 fit, the two colorings list each other, a cycle,
    which graphlib finds."""
    real = coloring._beta_inv
    for other, message in (((1, 2, 3), "123 is not compatible with its own"),
                           ((2, 1, 3), "has a cycle")):
        monkeypatch.setattr(coloring, "_beta_inv", lambda n, pairing, other=other: (
            other if real(n, pairing) == (2, 3, 1) else real(n, pairing)))
        with pytest.raises(VerificationError, match=message):
            coloring._cm_plan.__wrapped__(3)


def test_cm_route_reads_no_construction():
    """The plan and the complementary-minor route of evaluate reach the
    Temperley-Lieb immanants through matchings, colorings and minors
    alone: their source names no theta, step table, gluing or store."""
    forbidden = {"_theta_columns", "_theta_row", "_steps", "_glue", "all_tl_immanants",
                 "theta", "theta_table", "f_coeff", "_store_keys"}
    for module, names in ((coloring, {"_cm_plan", "_weak_positions"}),
                          (immanant, {"_cm_value", "_minor", "_bareiss"})):
        tree = ast.parse(Path(module.__file__).read_text())
        found = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name in names}
        assert set(found) == names
        for name, node in found.items():
            used = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}
            assert used & forbidden == set(), name


@pytest.mark.parametrize("n", range(0, 6))
def test_compatible_permutations_match_oracle(n):
    # compatible_permutations, which reads the compatibility table, for
    # every coloring (I, J).  With |I| != |J| no perfect matching joins
    # black to white, and compatible_permutations warns.
    subsets = [S for k in range(n + 1) for S in itertools.combinations(range(1, n + 1), k)]
    for I in subsets:
        for J in subsets:
            c = coloring.Coloring(n, I, J)
            expected = brute_compatible_permutations(c)
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
        assert w in coloring.compatible_permutations(c)
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
