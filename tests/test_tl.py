import ast
import inspect
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlimm import perm, tl, verify
from tlimm.errors import LimitError, PreconditionError, VerificationError

from oracles import (
    beta_lookup,
    bruhat_leq,
    brute_all_matchings,
    brute_is_noncrossing,
    compose_word,
    glue,
    inversions,
    matchings_in_fill_order,
    tl_product,
)


def test_generator_diagrams():
    assert tl.format_matching(tl.generator(2, 1)) == "1-2 1'-2'"
    assert tl.format_matching(tl.generator(3, 2)) == "1-1' 2-3 2'-3'"
    assert tl.format_matching(tl.generator(4, 1)) == "1-2 3-3' 4-4' 1'-2'"
    with pytest.raises(PreconditionError):
        tl.generator(3, 3)


def test_matching_text_roundtrip():
    text = "1-3' 2-4' 3-4 1'-2'"
    m = tl.parse_matching(text)
    assert tl.format_matching(m) == text
    # any pair order parses to the same matching
    assert tl.parse_matching("3-4 1'-2' 2-4' 1-3'") == m
    with pytest.raises(ValueError):
        tl.parse_matching("1-2")  # n inferred as 1, label 2 out of range


def test_matching_validation():
    with pytest.raises(ValueError):
        tl.NonCrossingMatching(2, (2, 3, 0, 1))  # crossing


def _involutions(free):
    """Every fixed-point-free involution of the positions in free, as a
    dict from each position to its partner."""
    if not free:
        yield {}
        return
    for q in free[1:]:
        for rest in _involutions([x for x in free[1:] if x != q]):
            yield {free[0]: q, q: free[0], **rest}


@pytest.mark.parametrize("n", range(6))
def test_noncrossing_chords_span_odd_gaps(n):
    """The constructor checks only is_noncrossing: the positions inside a
    non-crossing chord are paired among themselves, so every chord joins
    positions of opposite parity."""
    found = 0
    for partner in _involutions(list(range(2 * n))):
        pairing = tuple(partner[p] for p in range(2 * n))
        if tl.is_noncrossing(pairing):
            found += 1
            assert all((p - q) % 2 == 1 for p, q in enumerate(pairing)), pairing
            tl.NonCrossingMatching(n, pairing)
    assert found == tl.catalan(n)


@pytest.mark.parametrize("size", range(7))
def test_is_noncrossing_against_definition(size):
    """The one stack pass against the definition on every tuple of
    entries in -1..size for size <= 5, and over 0..5 at size 6: out of
    range, fixed points, non-involutions and odd lengths included.  The
    constructor refuses every tuple the definition rejects."""
    values = range(-1, size + 1) if size <= 5 else range(6)
    accepted = 0
    for pairing in itertools.product(values, repeat=size):
        expected = brute_is_noncrossing(pairing)
        assert tl.is_noncrossing(pairing) == expected, pairing
        if expected:
            accepted += 1
            tl.NonCrossingMatching(size // 2, pairing)
        else:
            with pytest.raises(ValueError):
                tl.NonCrossingMatching(size // 2, pairing)
    assert accepted == (tl.catalan(size // 2) if size % 2 == 0 else 0)


def test_equal_matchings_hash_equal():
    """A matching hashes and compares as the tuple (n, pairing); repr and
    the interning of _matching are as before."""
    m = tl.parse_matching("1-3' 2-4' 3-4 1'-2'")
    twin = tl.NonCrossingMatching(m.n, m.pairing)
    assert twin == m and twin is not m and hash(twin) == hash(m) == hash((m.n, m.pairing))
    assert repr(twin) == "NonCrossingMatching(4, \"1-3' 2-4' 3-4 1'-2'\")"
    assert twin != tl.identity_matching(4)
    interned = tl._matching(m.n, m.pairing)
    assert interned is tl._matching(4, tuple(list(m.pairing))) is tl.beta((2, 3, 4, 1))
    assert interned == m and interned is not m
    assert len({twin: 1, m: 2, tl.identity_matching(4): 3}) == 2


def test_matchings_stay_interned_at_n10(monkeypatch):
    """The interning cache holds every matching up to n = 10, so beta(w)
    of each 321-avoiding w of S_10 is one of the objects of
    all_matchings(10); the n = 10 tables are dropped afterwards."""
    monkeypatch.setenv("TLIMM_MAX_N", "10")
    try:
        interned = set(map(id, tl.all_matchings(10)))
        assert all(id(tl.beta(w)) in interned for w in perm.avoiding_321(10))
    finally:
        tl.all_matchings.cache_clear()
        perm.avoiding_321.cache_clear()


def test_validation_survives_python_O():
    """Input checks and the validation of results raise, so they still run
    when -O strips asserts; decompose is given a wrong second shape.  A
    Case 1 outside _second_shape's table has no second shape, -O or not."""
    script = """
from tlimm import classify, coloring, immanant, tl
from tlimm.errors import VerificationError
if classify._second_shape(classify.Case1(1, 2, 0, 1, 2)) is not None:
    raise SystemExit("a second shape for b = d = 2")
classify._second_shape = lambda params: immanant.skew_shape(params.n, (params.n,) * params.n)
for build, args, error in ((tl.NonCrossingMatching, (2, (2, 3, 0, 1)), ValueError),
                           (coloring.Coloring, (2, [5], [1]), ValueError),
                           (classify.decompose, ((2, 1, 4, 3), True), VerificationError)):
    try:
        build(*args)
    except error:
        continue
    raise SystemExit(f"accepted {build.__name__}{args}")
"""
    env = {**os.environ, "PYTHONPATH": str(Path(tl.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_library_has_no_assert():
    """Validation must raise: ``python -O`` strips every assert."""
    source = Path(tl.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(source.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_relations():
    """The Temperley-Lieb relations, in the product of the oracle."""
    g1, g2, g3 = (tl.generator(4, i) for i in (1, 2, 3))
    t1, t2, t3 = {g1: 1}, {g2: 1}, {g3: 1}
    assert tl_product(t1, t1) == {g1: 2}
    assert tl_product(t1, t3) == tl_product(t3, t1)
    assert tl_product(tl_product(t1, t2), t1) == t1
    assert tl_product(tl_product(t2, t1), t2) == t2


def test_beta_anchor():
    assert tl.format_matching(tl.beta((2, 3, 4, 1))) == "1-3' 2-4' 3-4 1'-2'"
    assert tl.beta((2, 1)) == tl.generator(2, 1)
    assert tl.beta(perm.identity(4)) == tl.identity_matching(4)
    with pytest.raises(PreconditionError):
        tl.beta((3, 2, 1))


def test_beta_rejects_a_closed_loop(monkeypatch):
    """With the word (1, 1), the second t_1 meets the cup the first one
    made and closes a loop."""
    monkeypatch.setattr(tl, "reduced_word", lambda w: (1, 1))
    with pytest.raises(VerificationError, match="t_1 closes a loop"):
        tl.beta((2, 1))


def _word_by_last_descent(w):
    """A reduced word of w, built by peeling off its last descent: if
    w(i) > w(i+1) is the last one, v = w s_i is one shorter and w = v s_i,
    so a reduced word of v followed by i is one of w."""
    word, w = [], list(w)
    while descents := [i for i in range(1, len(w)) if w[i - 1] > w[i]]:
        i = descents[-1]
        w[i - 1], w[i] = w[i], w[i - 1]
        word.append(i)
    return tuple(reversed(word))


def _glued_product(n, word):
    """The product of the generator diagrams along word, by the gluing
    oracle, and the loops it closed."""
    m, loops = tl.identity_matching(n), 0
    for i in word:
        m, closed = glue(m, tl.generator(n, i))
        loops += closed
    return m, loops


@pytest.mark.parametrize("n", range(7))
def test_beta_is_the_glued_product_of_any_reduced_word(n):
    """beta(w) against the gluing oracle, which shares no code with the
    in-place surgery, along reduced_word(w) and along a second reduced
    word peeled from the last descent; neither product closes a loop.
    From n = 4 on, where s_1 and s_3 commute, the two words differ for
    some w."""
    differ = 0
    for w in perm.avoiding_321(n):
        word, other = perm.reduced_word(w), _word_by_last_descent(w)
        assert len(other) == perm.length(w)
        assert compose_word(n, other) == w
        differ += word != other
        for product in (word, other):
            assert _glued_product(n, product) == (tl.beta(w), 0), (w, product)
    assert differ > 0 or n < 4


def test_theta_anchors():
    assert tl.theta(perm.identity(3)) == {tl.identity_matching(3): 1}
    assert tl.theta(()) == {tl.identity_matching(0): 1}
    assert tl.theta((2, 1)) == {tl.generator(2, 1): 1, tl.identity_matching(2): -1}
    # theta(s1 s2 s1) = t1 + t2 - t1 t2 - t2 t1 - 1
    t1, t2 = tl.generator(3, 1), tl.generator(3, 2)
    (t12, _), (t21, _) = glue(t1, t2), glue(t2, t1)
    assert tl.theta((3, 2, 1)) == {
        t1: 1, t2: 1, t12: -1, t21: -1, tl.identity_matching(3): -1,
    }


@pytest.mark.parametrize("n", range(0, 6))
def test_theta_matches_glued_product(n):
    """theta(u), and f_coeff(w, u) for every w, against the product of the
    factors t_i - 1 over a reduced word of u, taken by the gluing oracle,
    which shares no code with the step table."""
    one = tl.identity_matching(n)
    for u in perm.all_perms(n):
        expected = {one: 1}
        for i in perm.reduced_word(u):
            expected = tl_product(expected, {tl.generator(n, i): 1, one: -1})
        assert tl.theta(u) == expected, u
        for w in perm.avoiding_321(n):
            assert tl.f_coeff(w, u) == expected.get(tl.beta(w), 0), (w, u)


def _sampled_pairs(n: int, count: int, rng: random.Random) -> list:
    """Seeded (w, u) pairs of S_n, led by u = e, u = w0 and w = e: with
    u = e neither side takes a step, and with u = s_1 only the row does."""
    e, w0, s1 = perm.identity(n), tuple(range(n, 0, -1)), (2, 1) + tuple(range(3, n + 1))
    matchings = tl.all_matchings(n)
    pairs = [(e, e), (e, w0), (s1, s1), (e, s1), (tl.beta_inv(matchings[0]), w0)]
    while len(pairs) < count:
        w = tl.beta_inv(rng.choice(matchings))
        pairs.append((w, tuple(rng.sample(range(1, n + 1), n))))
    return pairs


def test_f_coeff_matches_theta_row_n8():
    """f_coeff, from the store of n = 7 and a dual row over the coset
    part of u, against the whole row of theta(u), for 500 seeded pairs at
    n = 8."""
    for w, u in _sampled_pairs(8, 500, random.Random(8)):
        assert tl.f_coeff(w, u) == tl.theta(u).get(tl.beta(w), 0), (w, u)


@pytest.mark.parametrize("n", range(8))
def test_coset_split_of_every_u(n):
    """f_coeff's split u = tau . sigma for every u of S_n: tau fixes
    m+1..n, and the lengths add, so sigma is the shortest element of
    S_m . u; at n <= 5 for every m <= n as well."""
    for m in {tl._store_keys(n)[0], *(range(n + 1) if n <= 5 else ())}:
        fixed = tuple(range(m + 1, n + 1))
        for u in perm.all_perms(n):
            tau, sigma = tl._coset_split(u, m)
            assert tau[m:] == fixed and perm.compose(tau, sigma) == u, (m, u)
            assert inversions(u) == inversions(tau) + inversions(sigma), (m, u)


def test_f_coeff_reads_the_store_of_n7_once():
    """In a fresh interpreter with no cap override: f_coeff at n = 9 is a
    LimitError that builds no store and no key map.  The first f_coeff at
    n = 8 builds the store of n = 7 and the key map of n = 8 once, and
    later calls build nothing; after the store's cache is cleared, the next
    call builds it again and gives the same value."""
    script = """
import random
from tlimm import tl
from tlimm.errors import LimitError
built = lambda: (tl.all_tl_immanants.cache_info().misses, tl._store_keys.cache_info().misses,
                 tl._steps.cache_info().misses)
try:
    tl.f_coeff((2, 1, 3, 4, 5, 6, 7, 8, 9), (9, 8, 7, 6, 5, 4, 3, 2, 1))
except LimitError:
    print(*built())
w, u = (2, 1, 4, 3, 6, 5, 8, 7), (8, 7, 6, 5, 4, 3, 2, 1)
first = tl.f_coeff(w, u)
print(*built())
rng = random.Random(87)
for v in [tuple(rng.sample(range(1, 9), 8)) for _ in range(20)]:
    tl.f_coeff(w, v)
print(*built())
tl.all_tl_immanants.cache_clear()
print(tl.f_coeff(w, u) == first, *built())
"""
    env = {key: value for key, value in os.environ.items() if key != "TLIMM_MAX_N"}
    env["PYTHONPATH"] = str(Path(tl.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # Store, key map and step tables: the n = 8 steps and those the n = 7
    # store is built from.
    assert done.stdout.splitlines() == ["0 0 0", "1 1 2", "1 1 2", "True 1 1 2"]


def test_f_coeff_matches_theta_row_n9(monkeypatch):
    """The same for 50 seeded pairs at n = 9, above the default cap; the
    n = 9 step table is dropped afterwards (the matchings and their index
    stay cached)."""
    monkeypatch.setenv("TLIMM_MAX_N", "9")
    try:
        for w, u in _sampled_pairs(9, 50, random.Random(9)):
            assert tl.f_coeff(w, u) == tl.theta(u).get(tl.beta(w), 0), (w, u)
    finally:
        tl._steps.cache_clear()


def test_f_coeff_matches_theta_row_n10(monkeypatch):
    """The same for 20 seeded pairs at n = 10, where sigma moves the three
    values 8, 9 and 10; the n = 10 step table is dropped afterwards."""
    monkeypatch.setenv("TLIMM_MAX_N", "10")
    try:
        for w, u in _sampled_pairs(10, 20, random.Random(10)):
            assert tl.f_coeff(w, u) == tl.theta(u).get(tl.beta(w), 0), (w, u)
    finally:
        tl._steps.cache_clear()


def test_f_coeff_does_not_walk_the_whole_row(monkeypatch):
    """f_coeff never falls back to the row of theta(u), which theta still
    takes."""
    w, u = _sampled_pairs(8, 6, random.Random(80))[-1]
    value = tl.theta(u).get(tl.beta(w), 0)

    def walk(u):
        raise AssertionError("the whole row of theta(u) was walked")

    monkeypatch.setattr(tl, "_theta_row", walk)
    assert tl.f_coeff((2, 1, 4, 3), (4, 3, 2, 1)) == 2
    assert abs(tl.f_coeff((2, 3, 1, 5, 6, 4), (6, 5, 4, 3, 2, 1))) == 3
    assert tl.f_coeff(w, u) == value
    with pytest.raises(AssertionError, match="whole row"):
        tl.theta(u)


@pytest.mark.parametrize("n", range(0, 7))
def test_step_preimages_list_every_moved_matching(n):
    """The entry of t_d in the one step table: its moves are m_k . t_d, and
    preimages[j] lists, in increasing order, exactly the k that t_d moves
    to j != k."""
    steps = tl._steps(n)
    matchings = tl.all_matchings(n)
    assert len(steps) == max(n - 1, 0)
    for d, (moves, preimages) in enumerate(steps, start=1):
        assert len(moves) == len(preimages) == tl.catalan(n)
        t_d = tl.generator(n, d)
        assert [glue(m, t_d) for m in matchings] == [
            (matchings[g], loops) for g, loops in moves]
        for j in range(len(moves)):
            moved = tuple(k for k, (g, _) in enumerate(moves) if g == j != k)
            assert preimages[j] == moved, (d, j)


def dual_step_by_transpose(moves, dual):
    """The dual row of (t_d - 1) Y from that of Y by its definition, the
    dense transpose of t_d's moves: entry k is (dual[g_k] << loops_k) -
    dual[k] for every matching k, zeros dropped."""
    entries = ((k, (dual.get(g, 0) << loops) - dual.get(k, 0))
               for k, (g, loops) in enumerate(moves))
    return {k: c for k, c in entries if c}


@pytest.mark.parametrize("n", range(0, 7))
def test_dual_step_is_the_transpose_of_the_moves(n):
    """For every generator t_d and every matching j, the dual step from
    {j: 1} equals the dense transpose read from moves alone.  So do seeded
    duals of several terms that hold an entry j together with its target
    and one of its preimages, where an entry's own term and a preimage's
    term meet."""
    steps = tl._steps(n)
    size = tl.catalan(n)
    rng = random.Random(700 + n)
    for d, (moves, preimages) in enumerate(steps, start=1):
        duals = [{j: 1} for j in range(size)]
        for j in rng.sample(range(size), min(size, 20)):
            keys = {j, moves[j][0], *rng.sample(range(size), min(size, 3))}
            if preimages[j]:
                keys.add(rng.choice(preimages[j]))
            duals.append({k: rng.choice((-3, -2, -1, 1, 2, 3)) for k in sorted(keys)})
        for dual in duals:
            expected = dual_step_by_transpose(moves, dual)
            assert tl._dual_times_theta_gen(steps, dict(dual), d) == expected, (d, dual)


@pytest.mark.parametrize("n", range(0, 6))
def test_f_coeff_matches_the_store_everywhere(n):
    """f_coeff, which reads the store of n - 1 from n = 1 on, equals the
    store's f_w(u) at every (w, u) of S_n."""
    perms = perm.perm_index(n).perms
    for w, column in tl.all_tl_immanants(n).items():
        assert [tl.f_coeff(w, u) for u in perms] == column.tolist(), w


def test_one_step_table_serves_every_reader():
    """The store, theta(u) and f_coeff's dual row read the one step table
    of n: after the stores of n = 6 and of n = 5, which f_coeff at n = 6
    reads, are built, theta and f_coeff at n = 6 build no other table or
    store."""
    for table in (tl.all_tl_immanants, tl._steps, tl._matching_index, tl.all_matchings):
        table.cache_clear()
    tl.all_tl_immanants(6)
    tl.all_tl_immanants(5)
    u, w = (6, 5, 4, 3, 2, 1), (2, 3, 1, 5, 6, 4)
    assert tl.theta(u)
    assert tl.f_coeff(w, u) == -3
    assert tl._steps.cache_info().misses == 2
    assert tl.all_tl_immanants.cache_info().misses == 2
    assert not hasattr(tl, "_step_preimages")


def test_store_steps_its_blocks_through_the_row_kernel(monkeypatch):
    """The coset chain has no product of its own: at level a, blocks
    a+1..n of each column come from _row_times_theta_gen, n(n-1)/2 calls
    in all, and the build equals the cached store.  The kernel leaves the
    row it reads empty, which bounds the n = 8 peak."""
    kernel = tl._row_times_theta_gen
    calls = []

    def counted(steps, row, d):
        calls.append(d)
        return kernel(steps, row, d)

    monkeypatch.setattr(tl, "_row_times_theta_gen", counted)
    for n in range(8):
        calls.clear()
        built = tl.all_tl_immanants.__wrapped__(n)
        assert len(calls) == n * (n - 1) // 2, n
        assert list(built.items()) == list(tl.all_tl_immanants(n).items()), n
    row = tl._theta_row((3, 2, 1, 4))
    assert len(row) == 5
    assert kernel(tl._steps(4), row, 3) == tl._theta_row((3, 2, 4, 1))
    assert row == {}


def test_theta_and_f_coeff_limit(monkeypatch):
    """theta walks the step table of all Catalan(n) matchings, so it is
    held to the whole-S_n cap."""
    u = (2, 1, 3, 4, 5, 6, 7, 8, 9)
    monkeypatch.delenv("TLIMM_MAX_N", raising=False)
    with pytest.raises(LimitError):
        tl.theta(u)
    with pytest.raises(LimitError):
        tl.f_coeff(u, u)
    monkeypatch.setenv("TLIMM_MAX_N", "9")
    assert tl.theta(u) == {tl.generator(9, 1): 1, tl.identity_matching(9): -1}
    assert tl.f_coeff(u, u) == 1
    # The n = 9 step table is dropped; the matchings and their index stay.
    tl._steps.cache_clear()


@pytest.mark.parametrize("n", range(1, 5))
def test_theta_homomorphism_exhaustive(n):
    table = tl.theta_table(n)
    for u in perm.all_perms(n):
        for v in perm.all_perms(n):
            assert tl_product(table[u].terms, table[v].terms) == table[perm.compose(u, v)].terms


@pytest.mark.parametrize("n", (5, 6))
def test_theta_homomorphism_sampled(n):
    rng = random.Random(n)
    table = tl.theta_table(n)
    everyone = list(perm.all_perms(n))
    for _ in range(40):
        u, v = rng.choice(everyone), rng.choice(everyone)
        assert tl_product(table[u].terms, table[v].terms) == table[perm.compose(u, v)].terms


def test_theta_table_agrees_with_single_shot():
    for n in range(6):
        table = tl.theta_table(n)
        assert list(table) == list(perm.perm_index(n).perms)
        for u in perm.all_perms(n):
            assert table[u].terms == tl.theta(u)
    assert {u: e.terms for u, e in tl.theta_table(2).items()} == {
        (1, 2): {tl.identity_matching(2): 1},
        (2, 1): {tl.generator(2, 1): 1, tl.identity_matching(2): -1},
    }


def test_theta_rows_match_the_store_sampled():
    """theta(u) for 200 seeded u of S_7 against the store columns; the
    single-shot row and the coset chain share only _steps and the row
    step, not the lanes, the order of S_n or the relabel."""
    n = 7
    store = tl.all_tl_immanants(n)
    index = perm.perm_index(n)
    for u in random.Random(7).sample(index.perms, 200):
        r = index.rank[u]
        assert tl.theta(u) == {tl.beta(w): col[r] for w, col in store.items() if col[r]}, u


def test_theta_rows_match_the_store_n8(monkeypatch):
    """The n = 8 store, built above the default table cap, against 20
    seeded single-shot theta(u); the 58 MB table is dropped afterwards."""
    n = 8
    monkeypatch.setenv("TLIMM_MAX_N", "8")
    try:
        store = tl.all_tl_immanants(n)
        index = perm.perm_index(n)
        for u in random.Random(n).sample(index.perms, 20):
            r = index.rank[u]
            assert tl.theta(u) == {tl.beta(w): col[r] for w, col in store.items() if col[r]}, u
    finally:
        tl.all_tl_immanants.cache_clear()


# The first f_w(u) found outside a signed byte: at n = 9.
CEILING_WITNESS = ((2, 1, 4, 3, 6, 5, 8, 7, 9), (8, 6, 9, 4, 7, 2, 5, 1, 3))


def test_store_refuses_n_above_its_ceiling(monkeypatch):
    """Above n = 8 the store is a LimitError whatever the cap: under
    ``TLIMM_MAX_N=9`` (and 10) it raises before the matching index, and so
    before any column, is built, naming n, the byte lanes and the witness,
    and without pointing at the override, which cannot help."""
    before = tl._matching_index.cache_info().misses
    for cap, n in (("9", 9), ("10", 9), ("10", 10)):
        monkeypatch.setenv("TLIMM_MAX_N", cap)
        with pytest.raises(LimitError) as caught:
            tl.all_tl_immanants(n)
        message = str(caught.value)
        assert f"n={n}" in message and "signed-byte lanes" in message
        assert "w = 214365879, u = 869472513" in message and "155" in message
        assert "TLIMM_MAX_N" not in message
    assert tl._matching_index.cache_info().misses == before
    assert tl.STORE_MAX_N == 8


def test_ceiling_witness_leaves_a_signed_byte(monkeypatch):
    """The witness the store's ceiling names, by f_coeff, which builds no
    store of n = 9: 155 is outside [-128, 127]."""
    monkeypatch.setenv("TLIMM_MAX_N", "9")
    w, u = CEILING_WITNESS
    assert perm.is_321_avoiding(w)
    assert tl.f_coeff(w, u) == 155


def test_theta_table_limit(monkeypatch):
    with pytest.raises(LimitError):
        tl.theta_table(8)
    monkeypatch.setenv("TLIMM_MAX_N", "4")
    with pytest.raises(LimitError):
        tl.theta_table(5)


@pytest.mark.parametrize("n", range(1, 7))
def test_matchings_enumeration_and_bijection(n):
    """The enumerator and beta_inv against the brute-force oracles; suite
    A6 checks the Catalan counts, that beta is a bijection and the round
    trip."""
    if n <= 5:
        assert {m.pairing for m in tl.all_matchings(n)} == brute_all_matchings(n)
    assert {m: tl.beta_inv(m) for m in tl.all_matchings(n)} == beta_lookup(n)


@pytest.mark.parametrize("n", range(9))
def test_matching_order_matches_the_fill_oracle(n):
    """all_matchings(n) and the keys of _matching_index(n) come in the
    order of the recursive fill, and each key maps to its place."""
    order = matchings_in_fill_order(n)
    assert len(order) == tl.catalan(n)
    assert [m.pairing for m in tl.all_matchings(n)] == order
    index = tl._matching_index(n)
    assert list(index) == order
    assert list(index.values()) == list(range(len(order)))


@pytest.mark.parametrize("shift, wrong", [
    ("(2 * i + 2).__add__", "(2 * i + 1).__add__"),
    ("(1).__add__", "(2).__add__"),
])
def test_a_wrong_shift_in_the_pairings_raises(monkeypatch, shift, wrong):
    """_pairings with either of its two shifts off by one: the index names
    a bad key in a VerificationError, and all_matchings, which reads the
    index, raises the same.  A raise caches nothing, so no cache keeps a
    wrong table."""
    source = inspect.getsource(tl._pairings)
    assert source.count(shift) == 1
    namespace = dict(vars(tl))
    exec(source.replace(shift, wrong), namespace)
    monkeypatch.setattr(tl, "_pairings", namespace["_pairings"])
    tl._matching_index.cache_clear()
    for build in (tl._matching_index.__wrapped__, tl.all_matchings.__wrapped__):
        with pytest.raises(VerificationError, match="is not a non-crossing matching of 6 vertices"):
            build(3)


def test_point_queries_build_no_matching_object():
    """In a fresh interpreter, f_coeff at n = 8, the store at n = 6 and
    suite A8 at n = 7 read pairing tuples only: the interning constructor
    is never called."""
    script = """
from tlimm import tl, verify
tl.f_coeff((2, 1, 4, 3, 6, 5, 8, 7), (8, 7, 6, 5, 4, 3, 2, 1))
tl.all_tl_immanants(6)
if not verify.suite_a8(7).ok:
    raise SystemExit("A8 failed")
print(tl._matching.cache_info().misses)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(tl.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


def test_f_coeff_anchors():
    # n = 0 and 1 have one matching and an empty word on both sides.
    assert tl.f_coeff((), ()) == 1
    assert tl.f_coeff((1,), (1,)) == 1
    for n in range(1, 6):
        for w in perm.avoiding_321(n):
            assert tl.f_coeff(w, w) == 1
    assert tl.f_coeff((2, 1, 4, 3), (4, 3, 2, 1)) == 2
    with pytest.raises(PreconditionError):
        tl.f_coeff((3, 2, 1), (3, 2, 1))


@pytest.mark.parametrize("n", range(1, 6))
def test_f_coeff_vanishes_off_bruhat_interval(n):
    table = tl.theta_table(n)
    for w in perm.avoiding_321(n):
        target = tl.beta(w)
        for u in perm.all_perms(n):
            if not bruhat_leq(w, u):
                assert target not in table[u].terms


def test_symmetry_all_pairs_n6():
    """Suite A5 (n = 2..5 in the gate) at n = 6, on every (w, u) pair."""
    report = verify.run_suite("A5", 6)
    assert report.ok and report.checks == 2 * tl.catalan(6) * 720


matching_for = lambda n: st.sampled_from(tl.all_matchings(n))


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(matching_for(n), matching_for(n), matching_for(n))
    )
)
def test_multiplication_associative(triple):
    x, y, z = ({m: 1} for m in triple)
    assert tl_product(tl_product(x, y), z) == tl_product(x, tl_product(y, z))


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(matching_for(n), matching_for(n))
    )
)
def test_product_parity_invariant(pair):
    # Every diagram produced by gluing is a valid matching whose chords
    # each join positions of opposite parity.
    glued, loops = glue(*pair)
    assert loops >= 0
    assert all((p - q) % 2 == 1 for p, q in enumerate(glued.pairing))
