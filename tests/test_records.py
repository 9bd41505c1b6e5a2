"""The library's record types: each hashes as the tuple of its fields, refuses
assignment and survives pickling (``tlimm verify --jobs`` pickles reports);
the validated ones reject bad input, and an Immanant compares by value but
is unhashable."""

import pickle

import pytest

from tlimm import classify, coloring, immanant, tl, verify


def _records():
    """Each record type by name: one value and its fields in order."""
    m = tl.parse_matching("1-2 1'-2'")
    shape = immanant.hull((2, 1))
    failure = verify.Failure("claim", "w=21", "1", "2")
    return {
        "Case1": (classify.Case1(1, 2, 0, 1, 2), dict(a=1, b=2, e=0, c=1, d=2)),
        "Case2": (classify.Case2(1, 1, 1, 1, 0, 1), dict(a=1, e=1, b=1, c=1, f=0, d=1)),
        "Decomposition": (classify.Decomposition("one", -1, (shape,)),
                          dict(kind="one", sign=-1, shapes=(shape,))),
        "SkewShape": (shape, dict(n=2, lam=(2, 1), mu=(1, 0))),
        "Coloring": (coloring.Coloring(2, {1}, [2]),
                     dict(n=2, blacks=frozenset({1}), primed_whites=frozenset({2}))),
        "NonCrossingMatching": (m, dict(n=2, pairing=(1, 0, 3, 2))),
        "TLElement": (tl.TLElement(2, {m: 1}), dict(n=2, terms={m: 1})),
        "Failure": (failure, dict(claim="claim", witness="w=21", expected="1", actual="2")),
        "VerificationReport": (verify.VerificationReport("A1", 2, 5, [failure], 0.25),
                               dict(suite="A1", n=2, checks=5, failures=[failure],
                                    elapsed=0.25)),
        "_Block": (verify._Block(3, True, list), dict(count=3, passes=True, expand=list)),
        "Immanant": (immanant.Immanant(2, {(1, 2): 1, (2, 1): -1}),
                     dict(n=2, coeffs={(1, 2): 1, (2, 1): -1})),
    }


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("name", list(_records()))
def test_record_semantics(name):
    record, fields = _records()[name]
    values = tuple(fields.values())
    copy = pickle.loads(pickle.dumps(record))
    for value in record, copy:
        assert tuple(getattr(value, field) for field in fields) == values
    assert type(copy) is type(record) and copy == record
    if isinstance(record, immanant.Immanant):
        with pytest.raises(TypeError):
            hash(record)
        return
    # The hash of the field tuple keeps set and dict orders as they were;
    # a record holding a list or dict is unhashable, as that tuple is.
    assert _hash_or_error(record) == _hash_or_error(values)
    field = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, field, values[0])
    assert getattr(record, field) == values[0]


def test_records_keep_their_reprs():
    records = {name: record for name, (record, _) in _records().items()}
    assert repr(records["Case1"]) == "Case1(a=1, b=2, e=0, c=1, d=2)"
    assert repr(records["SkewShape"]) == "SkewShape(n=2, lam=(2, 1), mu=(1, 0))"
    assert repr(records["Coloring"]) == (
        "Coloring(n=2, blacks=frozenset({1}), primed_whites=frozenset({2}))")
    assert repr(records["NonCrossingMatching"]) == "NonCrossingMatching(2, \"1-2 1'-2'\")"
    assert repr(records["Immanant"]) == "Immanant(n=2, coeffs={(1, 2): 1, (2, 1): -1})"


@pytest.mark.parametrize("build, message", [
    (lambda: immanant.SkewShape(2, (2,), (0, 0)), "lam and mu must each list one bound per row"),
    (lambda: immanant.SkewShape(2, (3, 2), (0, 0)), "row bounds must lie in [0, 2]"),
    (lambda: immanant.SkewShape(2, (1, 2), (0, 0)), "lam and mu must be non-increasing"),
    (lambda: immanant.SkewShape(2, (1, 1), (2, 0)), "mu must be contained in lam"),
    (lambda: coloring.Coloring(2, {3}, ()), "black labels [3] exceed n=2"),
    (lambda: coloring.Coloring(2, (), {0, 1}), "labels [0, 1]' exceed n=2"),
    (lambda: tl.NonCrossingMatching(2, (1, 0)), "2 partners for 4 vertices"),
    (lambda: tl.NonCrossingMatching(2, (2, 3, 0, 1)),
     "pairing (2, 3, 0, 1) is not non-crossing and perfect"),
])
def test_validated_records_reject_bad_input(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_validated_records_coerce_their_fields():
    shape = immanant.SkewShape(2, [2, 1], [1, 0])
    assert (shape.lam, shape.mu) == ((2, 1), (1, 0)) and type(shape.lam) is tuple
    colored = coloring.Coloring(2, [1], {2})
    assert type(colored.blacks) is frozenset is type(colored.primed_whites)
    assert tl.NonCrossingMatching(1, [1, 0]).pairing == (1, 0)


def test_immanant_equals_exactly_on_n_and_coeffs():
    f = immanant.Immanant(2, {(1, 2): 1, (2, 1): -1})
    assert f == immanant.Immanant(2, {(2, 1): -1, (1, 2): 1})
    assert f != immanant.Immanant(2, {(1, 2): 1, (2, 1): 1})
    assert immanant.Immanant(2, {}) != immanant.Immanant(3, {})
    assert f != (f.n, f.coeffs) and f.__eq__((f.n, f.coeffs)) is NotImplemented


def test_report_json_keeps_failure_key_order():
    report, _ = _records()["VerificationReport"]
    assert list(report.to_json()) == ["suite", "n", "checks", "failures", "elapsed"]
    assert [list(f) for f in report.to_json()["failures"]] == [
        ["claim", "witness", "expected", "actual"]]
    assert report.to_json()["failures"] == [
        {"claim": "claim", "witness": "w=21", "expected": "1", "actual": "2"}]
