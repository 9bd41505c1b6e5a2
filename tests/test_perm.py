import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlimm import perm
from tlimm.errors import PreconditionError

from oracles import (
    adjacent_pairs_by_definition,
    block_structure,
    brute_bruhat_leq,
    brute_contains_pattern,
    bruhat_leq,
    compose_word,
    inversion_sign,
    inversions,
    is_1324_adjacent,
    restriction,
    transposition,
)

perms_of = lambda n: st.permutations(range(1, n + 1)).map(tuple)
small_perms = st.integers(min_value=1, max_value=6).flatmap(perms_of)


def test_parse_format_roundtrip():
    assert perm.parse_perm("2143") == (2, 1, 4, 3)
    assert perm.parse_perm("2,1,4,3") == (2, 1, 4, 3)
    assert perm.format_perm((2, 1, 4, 3)) == "2143"
    w = tuple(range(10, 0, -1))
    assert perm.parse_perm(perm.format_perm(w)) == w
    with pytest.raises(ValueError):
        perm.parse_perm("2133")


def test_compose_inverse():
    assert perm.compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)
    assert perm.compose((3, 1, 4, 2), perm.identity(4)) == (3, 1, 4, 2)
    w0 = perm.longest_word(4)
    assert perm.compose(w0, w0) == (1, 2, 3, 4)
    assert perm.inverse((2, 3, 4, 1)) == (4, 1, 2, 3)
    assert perm.inverse(perm.identity(5)) == perm.identity(5)
    assert perm.inverse((2, 1)) == (2, 1)
    with pytest.raises(PreconditionError):
        perm.compose((1, 2), (1, 2, 3))


def test_longest_word_and_length():
    assert perm.longest_word(4) == (4, 3, 2, 1)
    assert perm.longest_word(1) == (1,)
    assert perm.longest_word(0) == ()
    with pytest.raises(ValueError):
        perm.longest_word(-1)
    assert perm.length(perm.longest_word(4)) == 6
    assert perm.length((2, 1, 4, 3)) == 2
    assert perm.sign((2, 1, 4, 3)) == 1
    assert perm.length(perm.identity(5)) == 0
    assert perm.sign(perm.longest_word(4)) == 1


@pytest.mark.parametrize("n", range(0, 8))
def test_length_and_sign_match_pair_counts(n):
    for w in perm.all_perms(n):
        assert (perm.length(w), perm.sign(w)) == (inversions(w), inversion_sign(w)), w


@pytest.mark.parametrize("n", range(1, 7))
def test_reduced_word_roundtrip(n):
    for w in perm.all_perms(n):
        word = perm.reduced_word(w)
        assert len(word) == perm.length(w)
        assert compose_word(n, word) == w


def test_reduced_word_anchors():
    assert perm.reduced_word((2, 3, 4, 1)) == (1, 2, 3)
    assert perm.reduced_word(perm.identity(3)) == ()
    assert perm.reduced_word((2, 1)) == (1,)


def test_restriction():
    """The oracle of test_immanant::test_cm_sign_law."""
    assert restriction((3, 1, 5, 2, 4), {2, 4, 5}) == (1, 2, 3)
    assert restriction((5, 6, 1, 2, 3, 7, 8, 4), {1, 2, 3}) == (2, 3, 1)
    w = (3, 1, 4, 2)
    assert restriction(w, range(1, 5)) == w


def test_contains_pattern_anchors():
    assert perm.contains_pattern((3, 1, 5, 2, 4), (1, 2, 3))
    assert not perm.contains_pattern((3, 1, 5, 2, 4), (3, 2, 1))
    assert perm.contains_pattern((2, 1, 4, 3), (2, 1, 4, 3))
    with pytest.raises(PreconditionError):
        perm.contains_pattern((2, 1), (2, 1, 3))
    # A host of distinct values outside 1..n is read by their order.
    assert perm.contains_pattern((5,), (1,))
    assert perm.contains_pattern((10, -3, 7), (3, 1, 2))
    assert not perm.contains_pattern((10, -3, 7), (1, 2, 3))


def test_contains_pattern_leaves_no_cycles():
    """A call leaves no garbage that only the cyclic collector frees: with
    the collector off, a batch of uncached calls, hits and misses among
    them, leaves nothing for gc.collect() to find."""
    hosts = perm.avoiding_321(6)[:40]
    perm.contains_pattern.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for w in hosts:
            for v in PAPER_PATTERNS[:5]:
                perm.contains_pattern(w, v)
        assert perm.contains_pattern.cache_info().misses == 200
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", range(0, 9))
def test_321_scan_against_subset_scan(n):
    """The one-pass test, and avoiding_321, which is built from the avoiders
    of n - 1, against the subset scan over all of S_n."""
    avoiders = []
    for w in perm.all_perms(n):
        avoids = not brute_contains_pattern(w, (3, 2, 1))
        assert perm.is_321_avoiding(w) == avoids, w
        if avoids:
            avoiders.append(w)
    assert perm.avoiding_321(n) == tuple(avoiders)


def test_symmetry_ranks_are_the_ranks_of_inverse_and_conjugate():
    for n in range(0, 6):
        perms, rank = perm.perm_index(n)
        assert perm.symmetry_ranks(n) == (
            tuple(rank[perm.inverse(u)] for u in perms),
            tuple(rank[perm.conjugate_by_longest(u)] for u in perms))


# The patterns of the paper's classification: 321 and these six.
PAPER_PATTERNS = [(1, 3, 2, 4), (2, 1, 4, 3), (2, 4, 1, 5, 3), (3, 1, 5, 2, 4),
                  (2, 3, 1, 5, 6, 4), (3, 1, 2, 6, 4, 5)]


def test_contains_pattern_refuses_non_permutations():
    """A pattern that is not a permutation of 1..m has no meaning: it is
    refused on every host, the first call and a repeat alike."""
    for w, v in [((1, 2, 3), (1, 1)), ((3, 2, 1), (1, 1)), ((1, 2, 3), (5,)),
                 ((2, 1), (5,)), ((3, 1, 2), (0, 1)), ((2, 1, 3), (2, 3)),
                 ((1,), (1, 1))]:
        for _ in range(2):
            with pytest.raises(PreconditionError, match="not a permutation"):
                perm.contains_pattern(w, v)
    assert perm.contains_pattern((2, 1), ())


@pytest.mark.parametrize("n", range(1, 7))
def test_contains_pattern_against_subset_scan(n):
    patterns = [(1,), (2, 1), (3, 2, 1), *PAPER_PATTERNS]
    for w in perm.all_perms(n):
        for v in patterns:
            if len(v) <= n:
                assert perm.contains_pattern(w, v) == brute_contains_pattern(w, v)


def test_paper_patterns_over_321_avoiders_at_7():
    for w in perm.avoiding_321(7):
        for v in PAPER_PATTERNS:
            assert perm.contains_pattern(w, v) == brute_contains_pattern(w, v), (w, v)


@settings(max_examples=150, deadline=None)
@given(small_perms, st.data())
def test_pattern_symmetry_inverse(w, data):
    m = data.draw(st.integers(min_value=1, max_value=len(w)))
    v = data.draw(perms_of(m))
    assert perm.contains_pattern(w, v) == perm.contains_pattern(
        perm.inverse(w), perm.inverse(v)
    )


@settings(max_examples=150, deadline=None)
@given(small_perms, st.data())
def test_pattern_symmetry_conjugation(w, data):
    m = data.draw(st.integers(min_value=1, max_value=len(w)))
    v = data.draw(perms_of(m))
    w0, v0 = perm.longest_word(len(w)), perm.longest_word(m)
    assert perm.contains_pattern(w, v) == perm.contains_pattern(
        perm.compose(w0, perm.compose(w, w0)), perm.compose(v0, perm.compose(v, v0))
    )


def test_bruhat_anchors():
    assert bruhat_leq((1, 4, 2, 3), (2, 4, 3, 1))
    assert bruhat_leq((2, 1, 4, 3), (2, 1, 4, 3))
    assert not bruhat_leq((2, 1, 4, 3), (1, 2, 3, 4))


@pytest.mark.parametrize("n", range(1, 5))
def test_bruhat_against_chain_oracle(n):
    """The two Bruhat oracles, rank matrices and chains, agree."""
    for u in perm.all_perms(n):
        for v in perm.all_perms(n):
            assert bruhat_leq(u, v) == brute_bruhat_leq(u, v)


@pytest.mark.parametrize("n", range(1, 6))
def test_bruhat_graded_and_inversions(n):
    for u in perm.all_perms(n):
        for v in perm.all_perms(n):
            if bruhat_leq(u, v):
                assert perm.length(u) <= perm.length(v)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if u[i - 1] > u[j - 1]:
                    smaller = perm.compose(u, transposition(n, i, j))
                    assert bruhat_leq(smaller, u) and smaller != u


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(perms_of(n), perms_of(n), st.sets(st.integers(1, n)))
))
def test_restriction_monotone(args):
    w, v, extra = args
    positions = {i + 1 for i in range(len(w)) if w[i] != v[i]} | extra
    if not positions:
        positions = {1}
    if bruhat_leq(restriction(w, positions), restriction(v, positions)):
        assert bruhat_leq(w, v)


def test_block_structure():
    """The oracle of the block shapes in test_classify::test_classify_round_trip."""
    assert block_structure((5, 6, 1, 2, 3, 7, 8, 4)) == (
        (3, 2), (1, 3), (4, 2), (2, 1),
    )
    assert block_structure(perm.identity(5)) == ((1, 5),)
    assert block_structure((2, 1, 4, 3)) == ((2, 1), (1, 1), (4, 1), (3, 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_block_structure_reassembles(n):
    for w in perm.all_perms(n):
        blocks = block_structure(w)
        assert sum(size for _, size in blocks) == n
        assert sorted(rank for rank, _ in blocks) == list(range(1, len(blocks) + 1))
        starts = sorted(
            (rank, size) for rank, size in blocks
        )
        # Rebuild the one-line notation from the blocks.
        base = {}
        value = 1
        for rank, size in starts:
            base[rank] = value
            value += size
        word = []
        for rank, size in blocks:
            word.extend(range(base[rank], base[rank] + size))
        assert tuple(word) == w


def test_1324_adjacent():
    assert is_1324_adjacent((1, 4, 2, 3, 5), (1, 3, 2, 4, 5))
    assert is_1324_adjacent((1, 3, 2, 4, 5), (1, 2, 3, 4, 5))
    assert not is_1324_adjacent((2, 1, 4, 3), (2, 1, 4, 3))
    assert not is_1324_adjacent((2, 1, 4, 3), (2, 4, 1, 3))


def adjacent_pairs(n):
    """The pairs of adjacent_1324_ranks(n) read as permutations."""
    perms = perm.perm_index(n).perms
    return [(perms[a], perms[b]) for a, b in zip(*perm.adjacent_1324_ranks(n))]


@pytest.mark.parametrize("n", range(1, 7))
def test_adjacent_pairs_match_predicate(n):
    """Each listed pair is adjacent and listed once, and every adjacent
    pair of the rebuild from the definition is listed."""
    listed = set()
    for w, w2 in adjacent_pairs(n):
        assert is_1324_adjacent(w, w2)
        listed.add(frozenset((w, w2)))
    assert len(listed) == len(adjacent_pairs(n))
    assert listed == set(map(frozenset, adjacent_pairs_by_definition(n)))


@pytest.mark.parametrize("n", range(0, 8))
def test_adjacent_pairs_order_matches_definition(n):
    """The rank arrays hold the ranks of the two sides of the pairs of a
    rebuild from the definition, in its order, the first array increasing."""
    left, _ = perm.adjacent_1324_ranks(n)
    assert adjacent_pairs(n) == list(adjacent_pairs_by_definition(n))
    assert list(left) == sorted(left)


def test_perm_index_order():
    for n in range(9):
        perms, rank = perm.perm_index(n)
        assert perms == tuple(perm.all_perms(n))
        assert [rank[u] for u in perms] == list(range(len(perms)))
