import ast
import collections
import math
from pathlib import Path

import pytest

from tlimm import classify, cli, coloring, immanant, perm, tl, verify
from tlimm.errors import PreconditionError, VerificationError

from oracles import block_structure, cells


def test_corner_params():
    assert classify.corner_params((2, 1, 4, 3)) == (1, 1, 1, 1)
    assert classify.corner_params(perm.identity(4)) == (0, 0, 0, 0)
    assert classify.corner_params((3, 1, 5, 2, 4)) == (1, 2, 1, 2)


def test_avoids_main_patterns():
    assert classify.avoids_main_patterns((2, 1, 4, 3))
    assert not classify.avoids_main_patterns((2, 4, 1, 5, 3))
    assert not classify.avoids_main_patterns((2, 3, 1, 5, 6, 4))
    assert not classify.avoids_main_patterns((3, 2, 1))


def test_build_anchors():
    assert classify.build_case1(1, 1, 0, 1, 1) == (2, 1, 4, 3)
    assert classify.build_case2(1, 1, 1, 1, 0, 1) == (2, 4, 1, 5, 3)
    assert classify.build_case2(1, 0, 1, 1, 1, 1) == (3, 1, 5, 2, 4)
    assert classify.build_case1(2, 1, 0, 2, 1) == (2, 3, 1, 5, 6, 4)
    assert classify.build_case1(1, 2, 0, 1, 2) == (3, 1, 2, 6, 4, 5)
    with pytest.raises(PreconditionError):
        classify.build_case1(0, 1, 0, 1, 1)
    with pytest.raises(PreconditionError):
        classify.build_case2(1, 0, 1, 1, 0, 1)


def test_classify_anchors():
    assert classify.classify_2143((2, 1, 4, 3)) == classify.Case1(1, 1, 0, 1, 1)
    assert classify.classify_2143((2, 4, 1, 5, 3)) == classify.Case2(1, 1, 1, 1, 0, 1)
    assert classify.classify_2143((2, 3, 1, 5, 6, 4)) == classify.Case1(2, 1, 0, 2, 1)
    with pytest.raises(PreconditionError):
        classify.classify_2143((3, 2, 1))
    with pytest.raises(PreconditionError):
        classify.classify_2143((1, 2, 3, 4))  # avoids 2143
    with pytest.raises(PreconditionError):
        classify.classify_2143((2, 1, 5, 3, 6, 4, 8, 7))  # contains 1324


def _case1_tuples(n):
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                for d in range(1, n + 1):
                    e = n - a - b - c - d
                    if e >= 0:
                        yield a, b, e, c, d


def _case2_tuples(n):
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                for d in range(1, n + 1):
                    for e in range(0, n + 1):
                        f = n - a - b - c - d - e
                        if f >= 0 and max(e, f) >= 1:
                            yield a, e, b, c, f, d


@pytest.mark.parametrize("n", range(4, 9))
def test_classify_round_trip(n):
    for a, b, e, c, d in _case1_tuples(n):
        params = classify.Case1(a, b, e, c, d)
        w = classify.build_case1(a, b, e, c, d)
        assert classify.classify_2143(w) == params
        if e:
            assert block_structure(w) == (
                (2, a), (1, b), (3, e), (5, c), (4, d),
            )
        else:
            assert block_structure(w) == ((2, a), (1, b), (4, c), (3, d))
    for a, e, b, c, f, d in _case2_tuples(n):
        params = classify.Case2(a, e, b, c, f, d)
        assert classify.classify_2143(classify.build_case2(*dataclass_args(params))) == params


def dataclass_args(p):
    if isinstance(p, classify.Case1):
        return p.a, p.b, p.e, p.c, p.d
    return p.a, p.e, p.b, p.c, p.f, p.d


@pytest.mark.parametrize("n", range(4, 8))
def test_every_applicable_w_classifies(n):
    """Every 321-, 1324-avoiding, 2143-containing permutation classifies and
    rebuilds; in case 2 it contains 24153 (e >= 1) or 31524 (f >= 1).
    The corner inequalities hold for every 321-avoiding 2143-containing w,
    and the endpoint exclusions additionally need 1324-avoidance."""
    for w in perm.avoiding_321(n):
        if not perm.contains_pattern(w, (2, 1, 4, 3)):
            continue
        winv = perm.inverse(w)
        assert w[0] < w[-1] and winv[0] < winv[-1]
        assert winv[0] + w[0] <= n + 1
        assert (n + 1 - winv[-1]) + (n + 1 - w[-1]) <= n + 1
        if perm.contains_pattern(w, (1, 3, 2, 4)):
            continue
        assert w[0] != 1 and w[-1] != n
        params = classify.classify_2143(w)
        if isinstance(params, classify.Case1):
            assert classify.build_case1(*dataclass_args(params)) == w
        else:
            assert classify.build_case2(*dataclass_args(params)) == w
            if params.e >= 1:
                assert perm.contains_pattern(w, (2, 4, 1, 5, 3))
            if params.f >= 1:
                assert perm.contains_pattern(w, (3, 1, 5, 2, 4))


def test_closed_form_anchors():
    assert classify.closed_form_coeff((2, 1, 4, 3), (2, 1, 4, 3)) == 1
    assert classify.closed_form_coeff((2, 1, 4, 3), (2, 1, 3, 4)) == 0
    assert classify.closed_form_coeff((2, 1, 4, 3), (4, 3, 2, 1)) == 2
    # Case 2 and the single-percent regime; the values are tl.f_coeff's.
    anchors = {
        ((2, 4, 1, 5, 3), (5, 4, 3, 2, 1)): 2,
        ((2, 4, 1, 5, 3), (5, 4, 2, 3, 1)): -2,
        ((2, 4, 1, 5, 3), (2, 4, 1, 5, 3)): 1,
        ((2, 4, 1, 5, 3), (2, 3, 4, 5, 1)): 0,
        ((2, 4, 1, 5, 3), (1, 2, 3, 4, 5)): 0,
        ((2, 4, 1, 3), (2, 4, 1, 3)): 1,
        ((2, 4, 1, 3), (4, 3, 2, 1)): -1,
        ((2, 4, 1, 3), (2, 1, 4, 3)): 0,
    }
    for (w, u), value in anchors.items():
        assert classify.closed_form_coeff(w, u) == value == tl.f_coeff(w, u), (w, u)
    with pytest.raises(PreconditionError):
        classify.closed_form_coeff((3, 2, 1), (1, 2, 3))


def test_hull_is_the_case_block_bounds():
    """hull(w), the rows the closed form reads, is the block bounds of w's
    case for every w at n <= 8 that avoids 321 and 1324 and contains 2143;
    x^k is k copies of x.  Case 1: lam = n^(n-d) (n-c)^d, mu = b^a 0^(n-a).
    Case 2: lam = n^(a+e+b+c) (b+f+a+d)^(f+d), mu = (b+f)^(a+e) 0^(n-a-e)."""
    count = 0
    for n in range(1, 9):
        for w in perm.avoiding_321(n):
            if not perm.avoids(w, (1, 3, 2, 4)) or perm.avoids(w, (2, 1, 4, 3)):
                continue
            p = classify.classify_2143(w)
            if isinstance(p, classify.Case1):
                lam = (n,) * (n - p.d) + (n - p.c,) * p.d
                mu = (p.b,) * p.a + (0,) * (n - p.a)
            else:
                lam = (n,) * (n - p.f - p.d) + (p.b + p.f + p.a + p.d,) * (p.f + p.d)
                mu = (p.b + p.f,) * (p.a + p.e) + (0,) * (n - p.a - p.e)
            assert immanant.hull(w) == immanant.SkewShape(n, lam, mu), w
            count += 1
    assert count == 266


def test_closed_form_preconditions():
    for w in [(3, 2, 1), (1, 3, 2, 4), (2, 1, 5, 4, 3)]:
        with pytest.raises(PreconditionError):
            classify.closed_form(w)
        with pytest.raises(PreconditionError):
            classify.closed_form_column(w)
    # Two weight tallies share a lane byte only while each stays below 16.
    with pytest.raises(PreconditionError, match="n < 16"):
        classify.closed_form_column(perm.identity(16))
    for w in [(1, 2, 3), (2, 1, 4, 3), (2, 4, 1, 5, 3)]:
        f = classify.closed_form(w)
        for u in [(), perm.identity(len(w) - 1), perm.identity(len(w) + 1)]:
            with pytest.raises(PreconditionError, match="size mismatch"):
                f(u)


def closed_form_ws(n):
    """The w of S_n that closed forms cover: avoiding 321 and 1324."""
    return [w for w in perm.avoiding_321(n) if perm.avoids(w, classify.PATTERN_1324)]


@pytest.mark.parametrize("n", range(0, 7))
def test_closed_form_column_is_the_per_u_reader(n):
    """Every entry of the byte-lane column is closed_form(w)(u), for every
    applicable (w, u) at n <= 6."""
    perms, rank = perm.perm_index(n)
    for w in closed_form_ws(n):
        column, f = classify.closed_form_column(w), classify.closed_form(w)
        assert column.typecode == "b" and len(column) == len(perms)
        assert all(column[rank[u]] == f(u) for u in perms), w


def test_a3_catches_an_off_by_one_binomial(monkeypatch):
    """A weight table one off fails A3 at n = 6, and only at the w whose
    weight is a binomial: those that contain 2143.  The table's rows are
    sliced from _pascal, so each row read one entry on gives binomial(a + 1,
    b) in place of binomial(a, b)."""
    pascal = classify._pascal()
    monkeypatch.setattr(classify, "_pascal", lambda: tuple(row[1:] + b"\x80" for row in pascal))
    report = verify.suite_a3(6)
    failed = {f.witness.split()[0] for f in report.failures}
    assert failed and all(
        not perm.avoids(perm.parse_perm(w[2:]), classify.PATTERN_2143) for w in failed)


def test_closed_form_column_refuses_a_weight_outside_a_byte(monkeypatch):
    # The weight table reads _pascal, and the error names the exact weight.
    monkeypatch.setattr(classify, "_pascal", lambda: (b"\x80" * 16,) * 16)
    monkeypatch.setattr(classify, "_binomial", lambda a, b: 128)
    with pytest.raises(VerificationError, match="weight 128 at n=4, w=2143"):
        classify.closed_form_column((2, 1, 4, 3))
    # A w that avoids 2143 has weight 1 and reads no binomial.
    assert classify.closed_form_column((2, 1, 3)).tolist() == [0, 0, 1, -1, -1, 1]


def test_antidiag_anchors():
    assert classify.antidiag_coeff((2, 1, 4, 3)) == 2
    assert classify.antidiag_coeff((2, 3, 1, 5, 6, 4)) == 3


def test_cm_expansion_anchor_2143():
    terms = {
        (s, tuple(sorted(I)), tuple(sorted(J)))
        for s, I, J in classify.cm_expansion((2, 1, 4, 3))
    }
    assert terms == {
        (1, (), ()),
        (-1, (1,), (1,)),
        (-1, (4,), (4,)),
        (1, (1, 4), (1, 4)),
    }
    total = sum(
        s * immanant.cm_immanant(4, I, J).coeff((4, 3, 2, 1))
        for s, I, J in classify.cm_expansion((2, 1, 4, 3))
    )
    assert total == 2  # 1 - 0 - 0 + 1


def test_cm_expansion_anchor_24153():
    terms = classify.cm_expansion((2, 4, 1, 5, 3))
    assert all(s == 1 for s, _, _ in terms)
    pairs = {(tuple(sorted(I)), tuple(sorted(J))) for _, I, J in terms}
    assert pairs == {
        ((1, 2, 3), (2, 4, 5)),
        ((1, 2, 3), (3, 4, 5)),
        ((1, 2, 4), (2, 4, 5)),
        ((1, 2, 4), (3, 4, 5)),
    }
    # exactly one term carries x_w, the one with w(I) = J
    w = (2, 4, 1, 5, 3)
    carrying = [
        (I, J)
        for _, I, J in terms
        if {w[i - 1] for i in I} == J
    ]
    assert carrying == [(frozenset({1, 2, 4}), frozenset({2, 4, 5}))]


def test_rect_cm_expansion_anchors():
    got = [(sorted(I), sorted(J)) for I, J in classify.rect_cm_expansion((3, 1, 4, 2))]
    assert got == [([2, 4], [1, 2]), ([3, 4], [1, 2])]
    got = classify.rect_cm_expansion(perm.identity(4))
    assert len(got) == 1 and sorted(got[0][0]) == [1, 2, 3, 4]
    with pytest.raises(PreconditionError):
        classify.rect_cm_expansion((2, 1, 4, 3))  # contains 2143
    with pytest.raises(PreconditionError):
        classify.rect_cm_expansion((2, 3, 1, 4))  # not in normal form


@pytest.mark.parametrize("n", range(1, 4))
def test_rect_cm_expansion_contract(n):
    """The rectangle expansion reproduces the hull percent immanant, hence
    sign(w) times the Temperley-Lieb immanant; suites A10 and A1 check the
    same at n = 4..6."""
    for w in perm.avoiding_321(n):
        if not perm.avoids(w, (1, 3, 2, 4), (2, 1, 4, 3)):
            continue
        if w[0] != 1 and w[0] != w[-1] + 1:
            continue
        total = immanant.zero_immanant(n)
        for I, J in classify.rect_cm_expansion(w):
            total = total + immanant.cm_immanant(n, I, J)
        assert total == immanant.percent_immanant(immanant.hull(w))
        assert total == immanant.tl_immanant(w).scaled(perm.sign(w))


def test_decompose_anchors():
    d = classify.decompose(perm.identity(4))
    assert d.kind == "one" and d.shapes == (immanant.skew_shape(4, (4,) * 4),)
    d = classify.decompose((2, 1, 4, 3))
    assert d.kind == "two" and d.sign == 1
    assert d.shapes[0] == immanant.skew_shape(4, (4, 4, 4, 3), (1, 0, 0, 0))
    assert d.shapes[1] == immanant.skew_shape(4, (4, 4, 4, 3), (3, 1, 1, 0))
    # One w per row of _second_shape's table after 2143 (a = b = 1): a = 1
    # with d = 1, then c = 1 with d = 1, then c = 1 with b = 1.
    for w, lam, mu in (
        ((3, 1, 2, 5, 4), (5, 5, 5, 5, 2), (4, 0, 0, 0, 0)),
        ((2, 3, 1, 5, 4), (5, 5, 4, 4, 1), (1, 1, 0, 0, 0)),
        ((2, 3, 1, 6, 4, 5), (6, 6, 5, 5, 5, 5), (1, 1, 1, 1, 0, 0)),
    ):
        assert classify.decompose(w).shapes[1] == immanant.SkewShape(len(w), lam, mu)
    assert classify.decompose((2, 4, 1, 5, 3)).kind == "none"
    with pytest.raises(PreconditionError):
        classify.decompose((3, 2, 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_decompose_full(n):
    """The first shape of a decomposition is hull(w), the only one for kind
    "one".  The trichotomy and the validated shape sums are asserted here
    only below the sizes at which suite A2 checks them."""
    below_a2 = n < min(verify.DEFAULT_SIZES["A2"])
    for w in perm.avoiding_321(n):
        d = classify.decompose(w, validate=below_a2)
        if below_a2:
            assert (d.kind != "none") == classify.avoids_main_patterns(w)
            column = immanant.all_tl_immanants(n)[w]
            assert (d.kind != "none") == (immanant.alternation_violations(n, [column]) == [None])
        if d.kind == "one":
            assert d.shapes == (immanant.hull(w),)
        if d.kind == "two":
            assert len(d.shapes) == 2 and d.shapes[0] == immanant.hull(w)


def test_c1_shapes_are_anti_transposed_a1_shapes():
    """For c = 1 and a != 1, the shapes of w are those of its mirror
    w0 . w^-1 . w0 reflected across the anti-diagonal; when a = c = 1 the
    table keeps the a = 1 shape and the symmetry does not hold."""
    def anti_transposed(shape):
        n = shape.n
        return {(n + 1 - j, n + 1 - i) for i, j in cells(shape)}

    seen = 0
    for n in range(4, 8):
        for w in perm.avoiding_321(n):
            if not classify.avoids_main_patterns(w) or perm.avoids(w, classify.PATTERN_2143):
                continue
            params = classify.classify_2143(w)
            if params.c != 1 or params.a == 1:
                continue
            mirror = perm.conjugate_by_longest(perm.inverse(w))
            shapes = classify.decompose(w, validate=False).shapes
            mirror_shapes = classify.decompose(mirror, validate=False).shapes
            assert [cells(s) for s in shapes] == [anti_transposed(s) for s in mirror_shapes]
            seen += 1
    assert seen


def test_failed_validation_raises(monkeypatch):
    monkeypatch.setattr(
        classify, "_second_shape",
        lambda params: immanant.skew_shape(params.n, (params.n,) * params.n),
    )
    with pytest.raises(VerificationError):
        classify.decompose((2, 1, 4, 3), validate=True)
    assert cli.main(["decompose", "2143"]) == cli.EXIT_MISMATCH


def test_one_shape_sum_check_has_two_readers(monkeypatch):
    # decompose's validation and suite A2 compare the same
    # shape_sum_columns, and suites A1 and A2 both read every shape
    # through classify.shape_mask.
    monkeypatch.setattr(classify, "shape_mask", lambda shape: 0)
    with pytest.raises(VerificationError):
        classify.decompose((2, 1, 4, 3))
    failures = verify.suite_a2(4).failures
    assert failures
    assert {f.claim for f in failures} == {"shape sum equals signed immanant"}
    assert not verify.suite_a1(4).ok


def _packed_shape_sums(w, d):
    """The packed pair that shape sums were compared as before they became
    byte columns: d.sign times the packed store column of w, and the sum of
    the packed values of the percent immanants of d's shapes."""
    n = len(w)
    return (immanant.Column(n, d.sign * immanant.pack_column(n, tl.all_tl_immanants(n)[w])),
            immanant.Column(n, immanant.sum_columns(
                [immanant.pack_column(n, immanant.percent_immanant(s).values)
                 for s in d.shapes])))


@pytest.mark.parametrize("n", range(0, 8))
def test_shape_sum_columns_are_the_packed_pair_in_bytes(n):
    """The byte pair that A1, A2 and decompose compare, packed and signed,
    equals the packed pair, and compares equal exactly when it does: for
    A1's one-shape decomposition of every 321-avoiding w at n <= 6, and
    decompose's for every decomposable w at n <= 7."""
    for w in perm.avoiding_321(n):
        ds = [classify.decompose(w, validate=False)]
        if n <= 6:
            ds.append(classify.Decomposition("one", perm.sign(w), (immanant.hull(w),)))
        for d in ds:
            if d.kind == "none":
                continue
            pair = classify.shape_sum_columns(w, d)
            assert all(c.typecode == "b" for c in pair)
            packed = tuple(immanant.Column(n, d.sign * immanant.pack_column(n, c)) for c in pair)
            assert packed == _packed_shape_sums(w, d), w
            assert (pair[0] == pair[1]) == (packed[0] == packed[1])


def test_shape_sums_are_compared_without_packing(monkeypatch):
    calls = []
    pack = immanant.pack_column
    # Counted wherever the name is bound, so an import of it is seen too.
    for module in (immanant, classify, verify):
        if hasattr(module, "pack_column"):
            monkeypatch.setattr(module, "pack_column",
                                lambda *args: calls.append(args) or pack(*args))
    assert verify.suite_a1(5).ok
    for w in perm.avoiding_321(5):
        classify.decompose(w, validate=True)
    assert calls == []
    assert verify.suite_a2(4).ok and not calls


def test_a_u_that_is_not_a_permutation_is_a_precondition_error():
    """A repeated value in u is refused, where it once gave a coefficient
    (-1 from the closed form) or a bare ValueError from reduced_word."""
    for call in (lambda: classify.closed_form((2, 1))((2, 2)),
                 lambda: tl.f_coeff((2, 1), (1, 1)),
                 lambda: tl.theta((1, 1))):
        with pytest.raises(PreconditionError, match="not a permutation of 1..2"):
            call()


@pytest.mark.parametrize("call, w", [
    (immanant.tl_immanant, (2, 2)),
    (classify.decompose, (2, 2)),
    (lambda w: classify.decompose(w, validate=False), (2, 2)),
    (classify.closed_form, (2, 2)),
    (classify.closed_form_column, (2, 2)),
    (classify.classify_2143, (2, 2)),
    (coloring.canonical_coloring, (2, 2)),
    (classify.rect_cm_expansion, (1, 1)),
], ids=["tl_immanant", "decompose", "decompose-unvalidated", "closed_form",
        "closed_form_column", "classify_2143", "canonical_coloring", "rect_cm_expansion"])
def test_a_w_that_is_not_a_permutation_is_a_precondition_error(call, w):
    """A repeated value in w is refused, where it once raised a bare
    KeyError, gave kind "one", a coefficient, a coloring, a case verdict
    or a ValueError about a negative binomial argument."""
    with pytest.raises(PreconditionError, match=f"not a permutation of 1..{len(w)}"):
        call(w)


@pytest.mark.parametrize("call, args, reason", [
    (tl.beta, ((0, 1),), "not a permutation of 1..2"),
    (tl.f_coeff, ((0, 1), (1, 2)), "not a permutation of 1..2"),
    (immanant.tl_immanant, ((0, 1),), "not a permutation of 1..2"),
    (immanant.tl_immanant, ((1, 1, 0),), "not a permutation of 1..3"),
    (classify.rect_cm_expansion, ((1, 3, 2, 4),), "contains the pattern 1324"),
    (classify.rect_cm_expansion, ((2, 1, 4, 3),), "contains the pattern 2143"),
], ids=["beta", "f_coeff", "tl_immanant-01", "tl_immanant-110",
        "rect_cm_expansion-1324", "rect_cm_expansion-2143"])
def test_a_check_names_the_first_fault_it_finds(call, args, reason):
    """w is checked in the paper's order, a permutation, then 321, 1324 and
    2143, so the error names the first check w fails: a value below 1 was
    once reported as a 321, and rect_cm_expansion named all three
    patterns at once."""
    with pytest.raises(PreconditionError, match=reason):
        call(*args)


def test_classify_knows_no_packed_columns():
    """The 32-bit packed format stays in immanant and verify: classify
    neither imports nor reads any of its names."""
    packed = {"pack_column", "sum_columns", "Column", "MAX_TERMS"}
    tree = ast.parse(Path(classify.__file__).read_text())
    used = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}
    used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not used & packed


def test_decompose_rejects_impossible_case_parameters(monkeypatch):
    """2143 avoids the forbidden patterns, so Case 2 parameters, or a Case 1
    with neither a nor c equal to 1, cannot be right: decompose reads them
    as "none", and A2's first claim fails at 2143."""
    for params in (classify.Case2(1, 1, 1, 1, 0, 1), classify.Case1(2, 1, 0, 2, 1)):
        monkeypatch.setattr(classify, "_case_params", lambda w: params)
        assert classify.decompose((2, 1, 4, 3), validate=False).kind == "none"
        report = verify.suite_a2(4)
        assert [(f.claim, f.witness) for f in report.failures] == [
            ("decomposable iff avoids forbidden patterns", "2143")]


def test_decompose_names_w_when_312645_is_not_forbidden(monkeypatch):
    """312645 is a Case 1 w with b = d = 2, which has no second shape:
    decompose reads it as "none" whatever the forbidden list holds."""
    listed = classify.FORBIDDEN_PATTERNS
    for patterns in (listed, tuple(p for p in listed if p != (3, 1, 2, 6, 4, 5)),
                     listed + (classify.PATTERN_2143,)):
        monkeypatch.setattr(classify, "FORBIDDEN_PATTERNS", patterns)
        assert classify.decompose((3, 1, 2, 6, 4, 5)).kind == "none"


def test_decompose_tests_only_1324_and_2143(monkeypatch):
    """decompose decides from the case parameters: over every 321-avoider
    at n <= 7 the only patterns it looks for are 1324 and 2143, each at
    most once per w; the same holds for closed_form."""
    calls = collections.Counter()
    contains = perm.contains_pattern

    def spy(w, v):
        calls[w, v] += 1
        return contains(w, v)

    monkeypatch.setattr(perm, "contains_pattern", spy)
    for n in range(8):
        for w in perm.avoiding_321(n):
            classify.decompose(w, validate=False)
    assert {v for _, v in calls} == {classify.PATTERN_1324, classify.PATTERN_2143}
    assert max(calls.values()) == 1
    for w in perm.avoiding_321(7):
        if perm.avoids(w, classify.PATTERN_1324):
            calls.clear()
            classify.closed_form(w)
            assert max(calls.values()) == 1, w


def test_second_shape_exists_exactly_on_its_table_rows():
    """For every Case 1 at n <= 9, _second_shape gives a shape exactly
    when (a = 1 or c = 1) and (b = 1 or d = 1), and None otherwise."""
    seen = 0
    for n in range(4, 10):
        for a, b, e, c, d in verify._compositions(n, 5, (1, 1, 0, 1, 1)):
            shape = classify._second_shape(classify.Case1(a, b, e, c, d))
            if 1 in (a, c) and 1 in (b, d):
                assert isinstance(shape, immanant.SkewShape) and shape.n == n
            else:
                assert shape is None
            seen += 1
    assert seen == sum(math.comb(n, 4) for n in range(4, 10))


def test_json_readers_roundtrip():
    """The skew shape and immanant readers against their emitters, for every
    321-avoiding w with n <= 5."""
    for n in range(6):
        for w in perm.avoiding_321(n):
            shape = immanant.hull(w)
            assert immanant.SkewShape.from_json(shape.to_json()) == shape
            f = immanant.tl_immanant(w)
            assert immanant.Immanant.from_json(f.to_json()) == f


def test_decompose_json():
    assert classify.decompose((2, 4, 1, 5, 3)).to_json() == {"kind": "none"}
    data = classify.decompose((2, 1, 4, 3)).to_json()
    assert data["kind"] == "two" and data["sign"] == 1
    assert data["shapes"][0] == {"n": 4, "lambda": [4, 4, 4, 3], "mu": [1, 0, 0, 0]}
    assert classify.classify_2143((2, 4, 1, 5, 3)).to_json() == {
        "variant": "case2", "a": 1, "e": 1, "b": 1, "c": 1, "f": 0, "d": 1,
    }
