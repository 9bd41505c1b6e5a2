"""The suite registry, and the text of a failing check's witness."""

from tlimm import classify, immanant, verify


def test_suites_are_declared_once():
    names = [f"A{k}" for k in range(1, 11)]
    assert list(verify.SUITES) == names
    assert list(verify.DEFAULT_SIZES) == names
    for name in names:
        assert verify.SUITES[name] is getattr(verify, "suite_" + name.lower())


def test_dict_witness_text(monkeypatch):
    monkeypatch.setattr(classify, "closed_form", lambda w: lambda u: 99)
    first = verify.suite_a3(3).failures[0]
    assert (first.claim, first.witness, first.expected, first.actual) == (
        "closed form equals expansion coefficient", "w=123 u=123", "1", "99")


def test_permutation_witness_text(monkeypatch):
    monkeypatch.setattr(immanant, "tl_immanant", lambda w: immanant.zero_immanant(len(w)))
    assert [f.witness for f in verify.suite_a1(0).failures] == [""]
    assert [f.witness for f in verify.suite_a1(3).failures] == [
        "123", "132", "213", "231", "312"]
    assert verify.suite_a1(3).failures[0].claim == "one-percent iff avoids 1324 and 2143"


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
