"""The suite registry, and the text of a failing check's witness and values."""

import ast
import functools
import hashlib
import math
import random
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from tlimm import classify, coloring, immanant, perm, verify
from tlimm.errors import LimitError, PreconditionError, VerificationError

from oracles import brute_percent_immanant, determinant, zone_solutions


def zero_store(n):
    """A store of f_w(u) that holds 0 for every w and u."""
    size = len(perm.perm_index(n).perms)
    return {w: array("b", bytes(size)) for w in perm.avoiding_321(n)}


def test_suites_are_declared_once():
    names = [f"A{k}" for k in range(1, 11)]
    assert list(verify.SUITES) == names
    assert list(verify.DEFAULT_SIZES) == names
    for name in names:
        assert verify.SUITES[name] is getattr(verify, "suite_" + name.lower())


def test_dict_witness_text(monkeypatch):
    monkeypatch.setattr(classify, "closed_form_column", lambda w: [99] * 6)
    first = verify.suite_a3(3).failures[0]
    assert (first.claim, first.witness, first.expected, first.actual) == (
        "closed form equals expansion coefficient", "w=123 u=123", "1", "99")


def test_permutation_witness_text(monkeypatch):
    monkeypatch.setattr(classify, "all_tl_immanants", zero_store)
    assert [f.witness for f in verify.suite_a1(0).failures] == [""]
    assert [f.witness for f in verify.suite_a1(3).failures] == [
        "123", "132", "213", "231", "312"]
    assert verify.suite_a1(3).failures[0].claim == "one-percent iff avoids 1324 and 2143"


def test_packed_values_render_as_sparse_terms(monkeypatch):
    tl_2143 = repr(immanant.tl_immanant((2, 1, 4, 3)))
    monkeypatch.setattr(immanant, "all_tl_immanants", zero_store)
    monkeypatch.setattr(classify, "all_tl_immanants", zero_store)
    zero = [repr(immanant.zero_immanant(n)) for n in range(5)]
    # A2 shows the byte pair it compares: the store column, and the
    # determinant's signs by rank.
    a2 = next(f for f in verify.suite_a2(3).failures if f.claim.startswith("shape sum"))
    assert (a2.witness, a2.expected, a2.actual) == ("123", repr(array("b", bytes(6))), repr(
        array("b", [perm.sign(u) for u in perm.perm_index(3).perms])))
    a4 = verify.suite_a4(2).failures[0]
    assert (a4.witness, a4.expected, a4.actual) == (
        "I={} J={}", repr(immanant.Immanant(2, determinant(2))), zero[2])
    a10 = verify.suite_a10(4).failures[0]
    assert (a10.witness, a10.expected, a10.actual) == ("2143", zero[4], tl_2143)


def test_packed_columns_serve_only_a4_and_a10():
    """The 32-bit packed format holds sums that can leave a signed byte: in
    verify only suites A4 and A10 read any of its names."""
    packed = {"pack_column", "sum_columns", "Column", "MAX_TERMS"}
    readers = set()
    for stmt in ast.parse(Path(verify.__file__).read_text()).body:
        owner = stmt.name if isinstance(stmt, ast.FunctionDef) else "<module>"
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if names & packed:
                readers.add(owner)
    assert readers == {"suite_a4", "suite_a10"}


def test_string_witness_text(monkeypatch):
    monkeypatch.setattr(verify, "_zone_solutions", lambda n, zones: [])
    first = verify.suite_a7(2).failures[0]
    assert (first.claim, first.witness, first.actual) == (
        "general zone instance has the one constructed solution", "(a,b,c,d,e)=(0,0,0,0,2)", "[]")


def test_a_raised_verification_error_is_one_failed_check(monkeypatch):
    """A VerificationError ends the stream as one more check, shown as
    after the last witness yielded; before the first, the witness is n.
    The error is planted in the case parameters of 312645, which A2 meets
    at n = 6 through decompose."""
    real = classify._case_params

    def planted(w):
        if w == (3, 1, 2, 6, 4, 5):
            raise VerificationError("312645: planted")
        return real(w)

    monkeypatch.setattr(classify, "_case_params", planted)
    report = verify.suite_a2(6)
    passing = [w for w in perm.avoiding_321(6) if w < (3, 1, 2, 6, 4, 5)]
    assert report.checks == sum(2 + classify.avoids_main_patterns(w) for w in passing) + 1
    assert [tuple(f) for f in report.failures] == [(
        "suite raised", f"after {perm.format_perm(passing[-1])}", "no error",
        "312645: planted")]

    def broken(w, validate=None):
        raise VerificationError("broken")

    monkeypatch.setattr(classify, "decompose", broken)
    report = verify.suite_a2(3)
    assert report.checks == 1
    assert [tuple(f) for f in report.failures] == [
        ("suite raised", "n=3", "no error", "broken")]


def test_a2_fails_a_wrong_forbidden_list(monkeypatch):
    """A2's first two claims hold decompose and the store to the forbidden
    list, so a wrong list fails both at the w it gets wrong, and every
    check still runs: 312645 dropped from the list at n = 6 is said to
    avoid it but is neither decomposable nor alternating, and 2143 added to
    it at n = 4 is said to contain it but is both."""
    listed = classify.FORBIDDEN_PATTERNS
    for n, w, patterns, avoids_list, holds in (
            (6, "312645", tuple(p for p in listed if p != (3, 1, 2, 6, 4, 5)), "True", "False"),
            (4, "2143", listed + (classify.PATTERN_2143,), "False", "True")):
        checks = verify.suite_a2(n).checks
        with monkeypatch.context() as m:
            m.setattr(classify, "FORBIDDEN_PATTERNS", patterns)
            report = verify.suite_a2(n)
        assert report.checks == checks
        assert [tuple(f) for f in report.failures] == [
            ("decomposable iff avoids forbidden patterns", w, avoids_list, holds),
            ("decomposable iff sign-alternating", w, avoids_list, holds)]


def test_only_a_limit_error_propagates(monkeypatch):
    """A PreconditionError or any other exception raised inside a suite,
    which makes its own inputs, is one failed check that names the
    exception's type; a LimitError, a size the caps refuse, propagates."""
    def refused(w, validate=None):
        raise PreconditionError("refused")

    monkeypatch.setattr(classify, "decompose", refused)
    report = verify.suite_a2(3)
    assert report.checks == 1 and [tuple(f) for f in report.failures] == [
        ("suite raised", "n=3", "no error", "PreconditionError: refused")]
    monkeypatch.setattr(classify, "decompose", lambda w, validate=None: 1 // 0)
    assert [tuple(f) for f in verify.suite_a2(3).failures] == [
        ("suite raised", "n=3", "no error",
         "ZeroDivisionError: integer division or modulo by zero")]

    def capped(w, validate=None):
        raise LimitError("capped")

    monkeypatch.setattr(classify, "decompose", capped)
    with pytest.raises(LimitError, match="capped"):
        verify.suite_a2(3)


@pytest.mark.parametrize("n", range(0, 7))
def test_zone_solutions_against_scan(n):
    """A7's lookup of proper colorings by black mask finds what the scan of
    every coloring against every matching finds, in the same order, on
    every instance of the suite and on the same zones with no seal."""
    index = coloring._compatibility_table(n)
    for _, _, witness, zones, _, _ in verify._a7_instances(n):
        assert verify._zone_solutions(index, zones) == zone_solutions(n, zones), witness
        unsealed = [(positions, k, w, False) for positions, k, w, _ in zones]
        assert verify._zone_solutions(index, unsealed) == zone_solutions(n, unsealed), witness


def test_zone_solutions_refuses_what_the_scan_refuses():
    index = coloring._compatibility_table(2)
    for zones in ([(range(3), 1, 2, False)],                          # misses position 3
                  [(range(2), 1, 1, False), (range(2, 4), 1, 0, True)]):  # 1 + 0 != 2
        for search in (functools.partial(verify._zone_solutions, index),
                       functools.partial(zone_solutions, 2)):
            with pytest.raises(ValueError):
                search(zones)


def test_record_witness_renders_as_its_repr():
    """Only a plain tuple is read as a permutation: a record, itself a
    tuple, renders as its repr, alone or as a labelled part."""
    params = classify.Case1(1, 2, 0, 1, 2)
    assert verify._render(params) == "Case1(a=1, b=2, e=0, c=1, d=2)"
    assert verify._render({"w": (3, 1, 2), "p": params}) == (
        "w=312 p=Case1(a=1, b=2, e=0, c=1, d=2)")


def test_passing_checks_render_no_witness(monkeypatch):
    """Passing checks render no witness, whether they come one by one (A2,
    A6), in a passing block (A5, A3) or in a failing block that is
    expanded; and passing A3 at n = 7, settled by its whole columns, draws
    no sample."""
    def render(witness):
        raise AssertionError(f"rendered {witness!r}")

    def sampler(*args):
        raise AssertionError("drew a sample")

    with monkeypatch.context() as m:
        m.setattr(verify, "_render", render)
        m.setattr(random, "Random", sampler)
        for suite, n, checks in (("A2", 4, 41), ("A6", 5, 46), ("A5", 4, 672),
                                 ("A5", 6, 190_080), ("A3", 7, 100_000)):
            report = verify.SUITES[suite](n)
            assert report.ok and report.checks == checks
    # With one store entry one off, the blocks that read it are expanded and
    # only their failing checks are rendered, once each, in stream order.
    rendered = []
    monkeypatch.setattr(verify, "_render", lambda witness: rendered.append(witness) or "seen")
    rng = random.Random("render")
    for suite, n, ws in (("A5", 4, perm.avoiding_321(4)), ("A3", 5, a3_ws(5))):
        with monkeypatch.context() as m:
            perturb_store(m, n, rng.choice(ws), non_involution_rank(n, rng))
            failing = [witness for _, witness, expected, actual in expanded(suite, n)
                       if expected != actual]
            rendered.clear()
            report = verify.SUITES[suite](n)
        assert failing and rendered == failing
        assert [f.witness for f in report.failures] == ["seen"] * len(failing)


def expanded(suite, n, **kwargs):
    """Every check of a suite at n, one by one: each block is expanded
    whatever its verdict, and must expand to exactly its count."""
    for item in verify.SUITES[suite].__wrapped__(n, **kwargs):
        if isinstance(item, verify._Block):
            count = 0
            for check in item.expand():
                count += 1
                yield check
            assert count == item.count
        else:
            yield item


def stream_digest(suite, n):
    """The check count and sha256 of a suite's whole check stream at n, one
    line per check: claim, rendered witness and the repr of both values."""
    digest, count = hashlib.sha256(), 0
    for claim, witness, expected, actual in expanded(suite, n):
        digest.update(f"{claim}\t{verify._render(witness)}\t{expected!r}\t{actual!r}\n".encode())
        count += 1
    return count, digest.hexdigest()


@pytest.mark.parametrize("suite, n, checks, digest", [
    ("A3", 7, 100_000, "7cd96462e06a7174645a0d791c854d7f397a0afd01044a3188b629e7eeb43b35"),
    ("A2", 6, 323, "9196a96716e3967fdbefb0c4c4dcf4c60b167fb6352fb9f33c21fbccbece3751"),
    ("A2", 7, 960, "9b64ba3dfd0b7fc938dc2700407d618792d54be5b87dd118e3a2fef2e3340676"),
    ("A5", 5, 10_080, "a3e7f3b1fbb01ff102712b6b5cdbcc171dd23b4f5ce0702f246d3411d86338ee"),
    ("A3", 6, 51_840, "64a2a0d0d1ca4041d377f660e693777a6392255a472d329423d3fe3fb19da9c8"),
    ("A1", 6, 132, "9af6220cb338e362b58c907ef7b38c52b48b7d3f5698c062a2406612ef66110c"),
    ("A4", 5, 252, "afc993becf57941dcc07b8ebdbf8e31bbffa22a211253d57242a80849f30f652"),
    ("A10", 6, 104, "1f483fee67907cd288f951563539d13d25c9cc2b48b9058967cae943e83dab0e"),
    ("A10", 7, 255, "60b421de2dbce7548bbcdc13c0c3fd2fa1126fa60ad38022f2e0327ce6881e91"),
    ("A4", 6, 924, "f032df765acaa896f81dfa23798238496ee17fbfe561da2ec1c4c546b393d448"),
    ("A7", 5, 140, "21d927564dd7c69efb0bc9aebca09b83ecdf39acaa84276973df847799dcb0e7"),
    ("A7", 6, 262, "7cc47d080350f99e99139cf892e08967aad8cebdbe80327aac532cea01ead2c8"),
    ("A6", 8, 1_434, "5db62804ba6ff324941628a22807e54a4ea2336bb031594098c1357dc343af96"),
    ("A8", 7, 71, "1b68cfc4704bb21fa9912a3594023aadc1e6cfdf80f191e42c3e742438089cc9"),
], ids=["A3-7", "A2-6", "A2-7", "A5-5", "A3-6", "A1-6", "A4-5", "A10-6", "A10-7", "A4-6", "A7-5",
        "A7-6", "A6-8", "A8-7"])
def test_check_streams_are_pinned(suite, n, checks, digest):
    """A3's sampled stream at its default seed, A3's exhaustive stream, and
    the streams of A1, A2, A4, A5, A6, A7, A8 and A10 are pinned check by
    check, with every block expanded, so a kernel that changes a claim, a
    witness, a value or the order, not only the count, fails here."""
    assert stream_digest(suite, n) == (checks, digest)


# The suites of the default plan that read the store.  All but A5 read the
# column basis too, at every size; A4 covers the sizes of A5.
STORE_SUITES = ("A1", "A2", "A3", "A4", "A5", "A10")


def test_basis_is_built_once_per_size():
    """Through the default plan's store-reading suites, in plan order, the
    column basis is built once per distinct size: no size is evicted and
    built again."""
    immanant._basis.cache_clear()
    sizes = set()
    for suite in STORE_SUITES:
        for n in verify.DEFAULT_SIZES[suite]:
            assert verify.run_suite(suite, n).ok, (suite, n)
            sizes.add(n)
    assert immanant._basis.cache_info().misses == len(sizes) == 6


# ---------------------------------------------------------------------------
# Block verdicts are sound: a report taken with them is the report of the
# same suite with every block expanded, passing or failing.


def assert_report_is_expanded(suite, n):
    """Run the suite at n and check its count and failures against the
    expanded stream; return the report."""
    checks, failures = 0, []
    for claim, witness, expected, actual in expanded(suite, n):
        checks += 1
        if expected != actual:
            failures.append(
                verify.Failure(claim, verify._render(witness), repr(expected), repr(actual)))
    report = verify.SUITES[suite](n)
    assert (report.checks, report.failures) == (checks, failures)
    return report


def one_off(column, r):
    """A copy of a byte column with entry r one off."""
    column = array("b", column)
    column[r] += 1 if column[r] < 127 else -1
    return column


def perturb_store(monkeypatch, n, w, r):
    store = dict(immanant.all_tl_immanants(n))
    store[w] = one_off(store[w], r)
    real = immanant.all_tl_immanants
    monkeypatch.setattr(immanant, "all_tl_immanants", lambda m: store if m == n else real(m))


def perturb_closed(monkeypatch, n, w, r):
    real = classify.closed_form_column
    monkeypatch.setattr(classify, "closed_form_column",
                        lambda v: one_off(real(v), r) if v == w else real(v))


def a3_ws(n):
    return [w for w in perm.avoiding_321(n) if perm.avoids(w, classify.PATTERN_1324)]


def non_involution_rank(n, rng):
    """The rank of a seeded u with u^-1 != u: an entry of any column there
    meets a different entry under the inverse symmetry, so A5 sees it."""
    perms, rank = perm.perm_index(n)
    return rank[rng.choice([u for u in perms if perm.inverse(u) != u])]


@pytest.mark.parametrize("suite, n", [("A3", n) for n in range(3, 8)]
                         + [("A5", n) for n in range(2, 7)])
def test_block_verdicts_match_the_expanded_stream(monkeypatch, suite, n):
    """On the real store, a store with one seeded entry one off and (A3) a
    closed column with one seeded entry one off, the report is the
    expanded stream's, and the one-off entry fails it.  At the sampled
    n = 7 only the real store runs here; the next test places the entry
    inside and outside the sample."""
    assert assert_report_is_expanded(suite, n).ok
    if n > 6:
        return
    rng = random.Random(f"{suite}-{n}")
    ws = a3_ws(n) if suite == "A3" else perm.avoiding_321(n)
    w = rng.choice(ws)
    r = non_involution_rank(n, rng) if n > 2 else 0
    perturbations = [perturb_store] + ([perturb_closed] if suite == "A3" else [])
    for perturb in perturbations:
        with monkeypatch.context() as m:
            perturb(m, n, w, r)
            report = assert_report_is_expanded(suite, n)
        # S_2 has no u with u^-1 != u, so no entry of A5 there meets another.
        assert report.ok == (n == 2)


@pytest.fixture(scope="module")
def a3_sample():
    """The (w, u) pairs that A3 draws at n = 7, in order."""
    return [(c[1]["w"], c[1]["u"]) for c in expanded("A3", 7)]


@pytest.mark.parametrize("perturb", [perturb_store, perturb_closed])
def test_sampled_a3_fails_wherever_a_column_differs(monkeypatch, a3_sample, perturb):
    """At n = 7 a one-off entry fails A3, inside the sample or outside it:
    after the 100 000 sampled checks, the one w whose columns differ adds
    one check at its first differing u, which names that w and u.  A
    sampled entry also fails each sampled check that draws it, as the
    expanded stream does."""
    perms, rank = perm.perm_index(7)
    rng = random.Random(7)
    hit = rng.choice(a3_sample)
    drawn, ws = set(a3_sample), a3_ws(7)
    miss = next(p for p in iter(lambda: (rng.choice(ws), rng.choice(perms)), None)
                if p not in drawn)
    for w, u in (hit, miss):
        with monkeypatch.context() as m:
            perturb(m, 7, w, rank[u])
            report = assert_report_is_expanded("A3", 7)
        assert report.checks == 100_001
        *sampled, column = report.failures
        assert len(sampled) == a3_sample.count((w, u))
        assert all(f.claim.endswith("(sampled)") for f in sampled)
        assert column.claim.endswith("(first differing u)")
        assert column.witness == verify._render({"w": w, "u": u})


@pytest.mark.parametrize("suite", ["A3", "A5"])
def test_every_block_verdict_sees_its_own_column(monkeypatch, suite):
    """At n = 5, each w's column in turn is one off at a seeded non-involution
    u, and each report is the expanded stream's, so no w's verdict can
    pass over its own column."""
    n, rng = 5, random.Random(suite)
    for w in (a3_ws(n) if suite == "A3" else perm.avoiding_321(n)):
        with monkeypatch.context() as m:
            perturb_store(m, n, w, non_involution_rank(n, rng))
            assert not assert_report_is_expanded(suite, n).ok


def test_failing_a3_builds_each_closed_column_once(monkeypatch):
    """With one store entry one off at n = 5, A3 fails and expands its
    block, reading the closed columns it compared: closed_form_column runs
    once per applicable w, in order, and not again for the pairs."""
    n, rng = 5, random.Random("once")
    ws = a3_ws(n)
    perturb_store(monkeypatch, n, rng.choice(ws), non_involution_rank(n, rng))
    built = []
    closed = classify.closed_form_column
    monkeypatch.setattr(classify, "closed_form_column", lambda w: built.append(w) or closed(w))
    assert not verify.suite_a3(n).ok
    assert built == ws


@pytest.mark.parametrize("index", [0, 63, 64, 131])
def test_a5_chunks_keep_each_block_its_own_verdict(monkeypatch, index):
    """At n = 6 the 132 avoiders fill three chunks of A5's gathered
    layout; one entry one off in the column of the avoider at the first or
    last place of a chunk fails A5, and the report is the expanded
    stream's."""
    n = 6
    w = perm.avoiding_321(n)[index]
    perturb_store(monkeypatch, n, w, non_involution_rank(n, random.Random(index)))
    report = assert_report_is_expanded("A5", n)
    assert not report.ok
    assert verify._render({"w": w}) in {f.witness.split()[0] for f in report.failures}


def test_passing_a5_expands_no_block(monkeypatch):
    """A passing A5 at n = 6 settles all 132 blocks by their whole-layout
    verdicts and expands none; with one entry off it expands some."""
    expanded_counts = []

    class Spied(verify._Block):
        def __new__(cls, count, passes, expand):
            def spy():
                expanded_counts.append(count)
                return expand()
            return super().__new__(cls, count, passes, spy)

    monkeypatch.setattr(verify, "_Block", Spied)
    assert verify.suite_a5(6).ok and expanded_counts == []
    perturb_store(monkeypatch, 6, perm.avoiding_321(6)[64], non_involution_rank(6, random.Random(6)))
    assert not verify.suite_a5(6).ok and expanded_counts


def test_a2_makes_one_alternation_call_per_n(monkeypatch):
    """A2 tests sign alternation for every 321-avoiding w of an n in one
    kernel call over their store columns, in avoider order."""
    calls = []
    kernel = immanant.alternation_violations

    def counted(n, columns):
        store = immanant.all_tl_immanants(n)
        assert all(column is store[w]
                   for column, w in zip(columns, perm.avoiding_321(n), strict=True))
        calls.append(n)
        return kernel(n, columns)

    monkeypatch.setattr(immanant, "alternation_violations", counted)
    sizes = verify.DEFAULT_SIZES["A2"]
    assert all(verify.SUITES["A2"](n).ok for n in sizes)
    assert calls == list(sizes)


@pytest.mark.parametrize("n", range(3, 7))
def test_a9_compares_the_partitions_in_their_order(monkeypatch, n):
    """A9 compares the hull fibers with related_classes as ordered tuples,
    not as sets: the classes listed in reverse fail it."""
    real = immanant.related_classes
    monkeypatch.setattr(immanant, "related_classes", lambda m: real(m)[::-1])
    assert [f.claim for f in verify.suite_a9(n).failures] == ["classes equal hull fibers"]


@pytest.mark.parametrize("n", range(4, 8))
def test_a10_evaluates_no_more_terms_than_its_witness_needs(monkeypatch, n):
    """A10 evaluates nothing and calls no Immanant constructor: each
    witness value is its column, the store's or the hull percent
    immanant's values, summed over the ranks of the row_mask of the
    witness matrix's ones, 1 to 6 ranks, each a u whose row product on the
    matrix is 1."""
    masks = {}
    real = immanant.row_mask

    def recorded(m, rows):
        mask = real(m, rows)
        masks[tuple(map(tuple, rows))] = mask
        return mask

    def refused(*args):
        raise AssertionError("constructed an Immanant or evaluated one")

    monkeypatch.setattr(immanant, "row_mask", recorded)
    monkeypatch.setattr(immanant, "evaluate", refused)
    monkeypatch.setattr(immanant.Immanant, "__init__", refused)
    checks = [check for check in expanded("A10", n) if check[0].startswith("witness matrix")]
    applicable = verify._applicable_two_case(n)
    assert [w for _, w, _, _ in checks] == [w for w in applicable for _ in (0, 1)]
    perms, store = perm.perm_index(n).perms, immanant.all_tl_immanants(n)
    for (_, w, _, percent), (_, _, _, tl_w) in zip(checks[::2], checks[1::2]):
        X = immanant.witness_matrix(w)
        mask = masks[tuple(tuple(j for j, x in enumerate(row, 1) if x) for row in X)]
        support = [r for r, held in enumerate(mask.to_bytes(len(perms), "little")) if held]
        assert 0 < len(support) <= 6, w
        assert all(math.prod(X[i][x - 1] for i, x in enumerate(perms[r])) == 1
                   for r in support), w
        brute = brute_percent_immanant(immanant.hull(w))
        assert percent == abs(Fraction(sum(brute.get(perms[r], 0) for r in support))), w
        assert tl_w == Fraction(sum(store[w][r] for r in support)), w
