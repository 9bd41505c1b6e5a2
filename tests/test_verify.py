"""The suite registry, and the text of a failing check's witness and values."""

import hashlib
from array import array

import pytest

from tlimm import classify, immanant, perm, verify

from oracles import determinant


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
    a2 = next(f for f in verify.suite_a2(3).failures if f.claim.startswith("shape sum"))
    assert (a2.witness, a2.expected, a2.actual) == ("123", zero[3], repr(
        immanant.Immanant(3, determinant(3))))
    a4 = verify.suite_a4(2).failures[0]
    assert (a4.witness, a4.expected, a4.actual) == (
        "I={} J={}", repr(immanant.Immanant(2, determinant(2))), zero[2])
    a10 = verify.suite_a10(4).failures[0]
    assert (a10.witness, a10.expected, a10.actual) == ("2143", zero[4], tl_2143)


def test_string_witness_text(monkeypatch):
    monkeypatch.setattr(verify, "_zone_solutions", lambda n, zones: [])
    first = verify.suite_a7(2).failures[0]
    assert (first.claim, first.witness, first.actual) == (
        "general zone instance has the one constructed solution", "(a,b,c,d,e)=(0,0,0,0,2)", "[]")


def test_passing_checks_render_no_witness(monkeypatch):
    def render(witness):
        raise AssertionError(f"rendered {witness!r}")

    monkeypatch.setattr(verify, "_render", render)
    report = verify.suite_a5(4)
    assert report.ok and report.checks == 672


def stream_digest(suite, n):
    """The check count and sha256 of a suite's whole check stream at n, one
    line per check: claim, rendered witness and the repr of both values."""
    digest, count = hashlib.sha256(), 0
    for claim, witness, expected, actual in verify.SUITES[suite].__wrapped__(n):
        digest.update(f"{claim}\t{verify._render(witness)}\t{expected!r}\t{actual!r}\n".encode())
        count += 1
    return count, digest.hexdigest()


@pytest.mark.parametrize("suite, n, checks, digest", [
    ("A3", 7, 100_000, "7cd96462e06a7174645a0d791c854d7f397a0afd01044a3188b629e7eeb43b35"),
    ("A2", 6, 323, "742a68450832f3c595299db86eb8dda06286686f763e4e6d616ae9611fadc6e7"),
], ids=["A3-7", "A2-6"])
def test_check_streams_are_pinned(suite, n, checks, digest):
    """A3's sampled stream at its default seed and A2's stream are pinned
    check by check, so a kernel that changes a claim, a witness, a value
    or the order, not only the count, fails here."""
    assert stream_digest(suite, n) == (checks, digest)
