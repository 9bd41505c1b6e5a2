import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlimm import classify, cli, immanant, perm, render, tl, verify
from tlimm.errors import VerificationError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_coeff(capsys):
    code, out = run(capsys, "coeff", "2143", "4321", "--method", "both")
    assert code == 0 and out.strip() == "2 2 OK"
    code, out = run(capsys, "coeff", "2143", "2143")
    assert code == 0 and out.strip() == "1"
    code, out = run(capsys, "coeff", "2143", "2134", "--method", "formula")
    assert code == 0 and out.strip() == "0"


def test_coeff_error_codes(capsys):
    assert cli.main(["coeff", "21x3", "4321"]) == cli.EXIT_PARSE
    assert cli.main(["coeff", "321", "123"]) == cli.EXIT_PRECONDITION
    assert cli.main(["coeff", "2143", "123"]) == cli.EXIT_PRECONDITION


def test_ncm_and_hull(capsys):
    code, out = run(capsys, "ncm", "2341")
    assert code == 0 and out.strip() == "1-3' 2-4' 3-4 1'-2'"
    code, out = run(capsys, "hull", "2143")
    assert code == 0
    assert json.loads(out) == {"n": 4, "lambda": [4, 4, 4, 3], "mu": [1, 0, 0, 0]}


def test_decompose_and_classify(capsys):
    code, out = run(capsys, "decompose", "24153")
    assert code == 0 and json.loads(out) == {"kind": "none"}
    code, out = run(capsys, "classify", "24153")
    assert json.loads(out)["variant"] == "case2"
    code, out = run(capsys, "decompose", "2143")
    data = json.loads(out)
    assert data["kind"] == "two"
    shapes = [immanant.SkewShape.from_json(s) for s in data["shapes"]]
    assert shapes[0] == immanant.hull((2, 1, 4, 3))


def test_immanant_json_roundtrip(capsys):
    code, out = run(capsys, "immanant", "2143")
    assert code == 0
    assert immanant.Immanant.from_json(json.loads(out)) == immanant.tl_immanant(
        (2, 1, 4, 3)
    )
    code, table_out = run(capsys, "immanant", "2143", "--format", "table")
    assert "4321\t2" in table_out


def test_expand(capsys):
    code, out = run(capsys, "expand", "2143")
    data = json.loads(out)
    assert data["kind"] == "signed" and len(data["terms"]) == 4
    code, out = run(capsys, "expand", "3142")
    data = json.loads(out)
    assert data["kind"] == "rectangle"
    assert data["terms"] == [
        {"sign": 1, "I": [2, 4], "J": [1, 2]},
        {"sign": 1, "I": [3, 4], "J": [1, 2]},
    ]


def test_classes(capsys):
    code, out = run(capsys, "classes", "3")
    data = json.loads(out)
    assert data["n"] == 3 and len(data["classes"]) == 6
    # Listed by minimum, also at n = 7, where a union-find root need not be
    # the least member of its class.
    code, out = run(capsys, "classes", "7")
    minima = [perm.parse_perm(c[0]) for c in json.loads(out)["classes"]]
    assert code == 0 and all(a < b for a, b in zip(minima, minima[1:]))


def test_eval(tmp_path, capsys):
    f = immanant.cm_immanant(2, (), ())
    imm_file = tmp_path / "imm.json"
    imm_file.write_text(json.dumps(f.to_json()))
    mat_file = tmp_path / "mat.json"
    mat_file.write_text('[["1/2", "1"], ["1", "2"]]')
    code, out = run(capsys, "eval", str(imm_file), str(mat_file))
    assert code == 0 and out.strip() == "0"
    mat_file.write_text('[["1/2", "1"], ["1", "3"]]')
    code, out = run(capsys, "eval", str(imm_file), str(mat_file))
    assert out.strip() == "1/2"


def test_verify_cli(capsys):
    code, out = run(capsys, "verify", "--suite", "A6", "--n", "5")
    assert code == 0
    assert "A6 n=5" in out and "0 failures" in out
    code, out = run(capsys, "verify", "--suite", "A10", "--n", "0")
    assert code == 0 and "A10 n=0: 0 checks, ok" in out
    code, out = run(capsys, "verify", "--suite", "A8", "--n", "0")
    assert code == 0 and "A8 n=0: 0 checks, ok" in out
    code, out = run(capsys, "verify", "--suite", "all", "--n", "0")
    assert code == 0 and out.count(" n=0: ") == len(verify.SUITES)


def test_verify_jobs(capsys):
    code, out = run(capsys, "verify", "--suite", "A1", "--n", "4", "--jobs", "2")
    assert code == 0 and "A1 n=4" in out


def test_verify_failure_prints_rerun_command(capsys, monkeypatch):
    failure = verify.Failure("claim", "w", "1", "2")
    monkeypatch.setitem(
        verify.SUITES, "A7", lambda n: verify.VerificationReport("A7", n, 3, [failure], 0.0)
    )
    code, out = run(capsys, "verify", "--suite", "A7", "--n", "6")
    assert code == cli.EXIT_MISMATCH
    assert out.splitlines().count("  rerun: tlimm verify --suite A7 --n 6") == 1


def test_verify_all_reports_a_suite_that_raises(capsys, monkeypatch):
    """With _second_shape made to raise for the parameters of 312645, which
    only decompose reads, decompose raises in A2 at n = 6: the run prints
    that as an A2 FAIL line naming 312645 with its rerun line, and still
    reports every other (suite, n)."""
    real = classify._second_shape

    def planted(params):
        if params == classify.classify_2143((3, 1, 2, 6, 4, 5)):
            raise VerificationError("312645: planted")
        return real(params)

    monkeypatch.setattr(classify, "_second_shape", planted)
    code, out = run(capsys, "verify", "--suite", "all")
    assert code == cli.EXIT_MISMATCH
    lines = out.splitlines()
    failed = lines.index(next(line for line in lines if line.startswith("A2 n=6: ")))
    assert ", 1 FAILED, " in lines[failed]
    assert lines[failed + 1].startswith("  FAIL suite raised [after 312564]: expected no error")
    assert lines[failed + 1].endswith("got 312645: planted")
    assert lines[failed + 2] == "  rerun: tlimm verify --suite A2 --n 6"
    summaries = [line.split(":")[0] for line in lines if not line.startswith((" ", "total"))]
    assert summaries == [f"{name} n={n}" for name, sizes in verify.DEFAULT_SIZES.items()
                         for n in sizes]
    assert sum(" ok, " in line for line in lines) == len(summaries) - 1
    assert lines[-1].endswith(" checks, 1 failures")


@pytest.mark.parametrize("argv, message", [
    (["--suite", "A1", "--n", "-1"], "error: n must be non-negative, got -1"),
    (["--suite", "A1", "--n", "3", "--jobs", "0"], "error: --jobs must be at least 1, got 0"),
    (["--jobs", "-5"], "error: --jobs must be at least 1, got -5"),
], ids=["n-negative", "jobs-zero", "jobs-negative"])
def test_verify_bad_size_or_jobs(argv, message, capsys):
    assert cli.main(["verify", *argv]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err.strip() == message and captured.out == ""


def test_store_cap_names_the_store(capsys, monkeypatch):
    monkeypatch.delenv("TLIMM_MAX_N", raising=False)
    assert cli.main(["immanant", "21436587"]) == cli.EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.strip() == (
        "error: Temperley-Lieb immanant store requested for n=8, above the configured "
        "cap 7 (set TLIMM_MAX_N to override)")


def test_store_ceiling_comes_before_the_cap(capsys, monkeypatch):
    """At n = 9 the store's ceiling answers first, whatever the caps: one
    line naming the witness, with no TLIMM_MAX_N advice, which could not
    help.  At n = 8 under the default caps the cap answers, with it."""
    monkeypatch.delenv("TLIMM_MAX_N", raising=False)
    for cap in (None, "4", "9"):
        if cap is not None:
            monkeypatch.setenv("TLIMM_MAX_N", cap)
        assert cli.main(["immanant", "214365879"]) == cli.EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.strip() == (
            "error: Temperley-Lieb immanant store requested for n=9: its columns hold "
            "f_w(u) in signed-byte lanes, which hold n <= 8 only; at n = 9, "
            "f_w(u) = 155 for w = 214365879, u = 869472513"), cap
    monkeypatch.delenv("TLIMM_MAX_N")
    assert cli.main(["immanant", "21436587"]) == cli.EXIT_PRECONDITION
    assert capsys.readouterr().err.strip().endswith("cap 7 (set TLIMM_MAX_N to override)")


def test_verify_above_the_store_ceiling_exits_3(tmp_path, capsys, monkeypatch):
    """``TLIMM_MAX_N=9 tlimm verify --suite A1 --n 9`` exits 3 with one line
    and no traceback: A1 reads the store before any shape mask, and the
    store refuses n = 9 whatever the cap, so no table of S_9 is built."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           "TLIMM_MAX_N": "9"}
    done = subprocess.run(
        [sys.executable, "-m", "tlimm.cli", "verify", "--suite", "A1", "--n", "9"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == cli.EXIT_PRECONDITION, done.stderr
    assert done.stdout == "" and "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1 and "signed-byte lanes" in done.stderr
    monkeypatch.setenv("TLIMM_MAX_N", "9")
    built = perm.perm_index.cache_info().misses, immanant._basis.cache_info().misses
    assert cli.main(["verify", "--suite", "A1", "--n", "9"]) == cli.EXIT_PRECONDITION
    assert (perm.perm_index.cache_info().misses, immanant._basis.cache_info().misses) == built


def test_render_paths(capsys):
    code, out = run(capsys, "render", "ncm", "2341")
    assert code == 0 and "1'" in out
    code, svg = run(capsys, "render", "ncm", "1-2 1'-2'", "--format", "svg")
    assert svg.startswith("<svg") and "</svg>" in svg
    code, out = run(capsys, "render", "hull", "2143")
    assert out.splitlines()[0] == ". # # #"
    code, out = run(
        capsys, "render", "shape",
        json.dumps({"n": 2, "lambda": [2, 1], "mu": [1]}),
    )
    assert out == ". #\n# .\n"
    code, svg = run(capsys, "render", "hull", "2143", "--format", "svg")
    assert svg.count("<rect") == 16


def test_render_crossing_matching_is_parse_error():
    assert cli.main(["render", "ncm", "1-3 2-4 1'-2' 3'-4'"]) == cli.EXIT_PARSE


@pytest.mark.parametrize("argv, files, code", [
    (["render", "shape", "5"], {}, cli.EXIT_PARSE),
    (["render", "shape", "null"], {}, cli.EXIT_PARSE),
    (["render", "shape", '{"n": 2, "lambda": 5}'], {}, cli.EXIT_PARSE),
    (["eval", "f", "x"], {"f": "[1]", "x": "[[1]]"}, cli.EXIT_PARSE),
    (["eval", "f", "x"], {"f": '{"n": 2, "terms": 5}', "x": "[[1]]"}, cli.EXIT_PARSE),
    (["eval", "f", "x"], {"f": '{"n": 1, "terms": []}', "x": "5"}, cli.EXIT_PARSE),
    (["classes", "-1"], {}, cli.EXIT_PARSE),
    (["verify", "--suite", "A6", "--n", "9"], {}, cli.EXIT_PRECONDITION),
    (["immanant", "12345678"], {}, cli.EXIT_PRECONDITION),
    (["eval", "f", "x"], {"f": '{"n": 1, "terms": [{"perm": "1", "coeff": "1/0"}]}',
                          "x": "[[1]]"}, cli.EXIT_PARSE),
    (["eval", "f", "x"], {"f": '{"n": 1, "terms": []}', "x": '[["1/0"]]'}, cli.EXIT_PARSE),
    (["render", "shape", '{"n": 1e400, "lambda": []}'], {}, cli.EXIT_PARSE),
    (["eval", "f", "x"], {"f": '{"n": 1e400, "terms": []}', "x": "[[1]]"}, cli.EXIT_PARSE),
    (["render", "shape", '{"n": 2, "lambda": [1.5]}'], {}, cli.EXIT_PARSE),
    (["eval", "f", "x"], {"f": '{"n": 1, "terms": [{"perm": "1", "coeff": "1e999999999"}]}',
                          "x": "[[1]]"}, cli.EXIT_PARSE),
    (["eval", "f", "x"], {"f": '{"n": 1, "terms": []}', "x": '[["1e999999999"]]'},
     cli.EXIT_PARSE),
    (["eval", "f", "x"], {"f": '{"n": 1, "terms": [{"perm": "", "coeff": "1"}]}',
                          "x": "[[1]]"}, cli.EXIT_PARSE),
    (["render", "shape", '{"n": 100000000000000000000, "lambda": []}'], {},
     cli.EXIT_PRECONDITION),
    (["eval", "f", "x"], {"f": "[" * 100_000 + "]" * 100_000, "x": "[[1]]"}, cli.EXIT_PARSE),
    (["eval", "f", "x"], {"f": '{"n": 1, "terms": []}', "x": "[" * 100_000}, cli.EXIT_PARSE),
    (["eval", "f", "x"], {"f": '{"n": 2, "terms": [{"perm": "12", "coeff": "1"}, '
                               '{"perm": "12", "coeff": "5"}, {"perm": "21", "coeff": "-1"}]}',
                          "x": "[[1, 0], [0, 1]]"}, cli.EXIT_PARSE),
    (["eval", "f", "x"], {"f": '{"n": 2, "terms": [{"perm": "1", "coeff": "1"}]}',
                          "x": "[[1, 0], [0, 1]]"}, cli.EXIT_PARSE),
    (["eval", "f", "x"], {"f": '{"n": -1, "terms": []}', "x": "[]"}, cli.EXIT_PARSE),
    (["coeff", "213456789", "213456789"], {}, cli.EXIT_PRECONDITION),
    (["verify", "--suite", "A7", "--n", "9"], {}, cli.EXIT_PRECONDITION),
    (["render", "shape", '{"n": true, "lambda": [true]}'], {}, cli.EXIT_PARSE),
    (["render", "shape", '{"n": 2, "lambda": [2, 2], "mu": [false]}'], {}, cli.EXIT_PARSE),
    (["eval", "f", "x"], {"f": '{"n": true, "terms": []}', "x": "[[1]]"}, cli.EXIT_PARSE),
    (["render", "shape", '{"n": -1, "lambda": []}'], {}, cli.EXIT_PARSE),
    (["eval", "f", "x"], {"f": '{"n": 9, "terms": []}', "x": json.dumps([[1] * 9] * 9)},
     cli.EXIT_PRECONDITION),
    (["eval", "f", "x"], {"f": '{"n": 100000000000000000000, "terms": []}', "x": "[]"},
     cli.EXIT_PRECONDITION),
])
def test_bad_input_exit_code_without_traceback(argv, files, code, tmp_path):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "tlimm.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1


def test_render_shape_from_file(tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(immanant.hull((2, 1, 4, 3)).to_json()))
    code, out = run(capsys, "render", "shape", f"@{path}")
    assert code == 0 and out.splitlines()[0] == ". # # #"


def test_render_matching_shows_all_pairs():
    for w in perm.avoiding_321(5):
        art = render.matching_ascii(tl.beta(w))
        assert len(art.splitlines()) == 5
        assert "5'" in art


def test_output_determinism(capsys):
    _, first = run(capsys, "expand", "24153")
    _, second = run(capsys, "expand", "24153")
    assert first == second
    _, a = run(capsys, "immanant", "214365")
    _, b = run(capsys, "immanant", "214365")
    assert a == b


# ---------------------------------------------------------------------------
# Fuzz: every subcommand on arbitrary text and JSON arguments, in process.


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


junk = st.text(max_size=12)
# Integers come from small ranges so that no fuzzed call runs a large
# computation; other text given where an integer goes must not read as one.
non_int = junk.filter(lambda t: not _is_int(t))
perm_text = st.integers(1, 6).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(perm.format_perm) | junk
vertex = st.tuples(st.integers(0, 5), st.booleans()).map(
    lambda v: f"{v[0]}'" if v[1] else str(v[0])
)
matching_text = st.lists(st.tuples(vertex, vertex), max_size=4).map(
    lambda pairs: " ".join(f"{a}-{b}" for a, b in pairs)
)
json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4) | st.sampled_from(["1/2", "1/0", "-3", "2143"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "lambda", "mu", "terms", "perm", "coeff"]),
                      inner, max_size=4),
    max_leaves=12,
)
shape_doc = st.fixed_dictionaries(
    {"n": st.integers(-1, 8) | json_value,
     "lambda": st.lists(st.integers(-1, 9), max_size=9) | json_value},
    optional={"mu": st.lists(st.integers(-1, 9), max_size=9) | json_value},
)
term = st.fixed_dictionaries({"perm": perm_text | json_value,
                              "coeff": st.integers(-5, 5) | json_value})
immanant_doc = st.fixed_dictionaries(
    {"n": st.integers(0, 6) | json_value, "terms": st.lists(term, max_size=4) | json_value}
)
matrix_doc = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3) | json_value, min_size=n, max_size=n),
                       min_size=n, max_size=n)
) | json_value
# render reads the file named after a leading "@"; only eval gets files.
shape_text = st.one_of(shape_doc.map(json.dumps), json_value.map(json.dumps), junk).filter(
    lambda t: not t.startswith("@")
)


def _option(name: str, values) -> st.SearchStrategy:
    return st.lists(st.tuples(st.just(name), values), max_size=1).map(
        lambda found: [x for pair in found for x in pair]
    )


def _argv(*parts) -> st.SearchStrategy:
    return st.tuples(*parts).map(
        lambda drawn: [x for part in drawn for x in (part if isinstance(part, list) else [part])]
    )


COMMANDS = {
    "coeff": _argv(perm_text, perm_text,
                   _option("--method", st.sampled_from(["oracle", "formula", "both"]) | junk)),
    "immanant": _argv(perm_text, _option("--format", st.sampled_from(["json", "table"]) | junk)),
    "hull": _argv(perm_text),
    "ncm": _argv(perm_text),
    "classify": _argv(perm_text),
    "decompose": _argv(perm_text),
    "expand": _argv(perm_text),
    "classes": _argv(st.integers(-3, 5).map(str) | non_int),
    "eval": _argv(st.one_of(immanant_doc.map(json.dumps), json_value.map(json.dumps), junk),
                  st.one_of(matrix_doc.map(json.dumps), junk)),
    "render": st.one_of(
        _argv(st.just("ncm"), matching_text | perm_text),
        _argv(st.just("hull"), perm_text),
        _argv(st.just("shape"), shape_text),
        _argv(junk, junk),
    ).flatmap(lambda argv: _argv(st.just(argv),
                                 _option("--format", st.sampled_from(["ascii", "svg"]) | junk))),
    # --n is always given, so no call runs the suites at their default sizes.
    "verify": _argv(_option("--suite", st.sampled_from(["all", *verify.SUITES]) | junk),
                    st.just("--n"), st.integers(-2, 3).map(str) | non_int,
                    _option("--jobs", st.sampled_from(["1", "0", "-1"]) | non_int)),
}


def _run_in_process(argv: list[str]) -> tuple[object, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("command", list(COMMANDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cli_fuzz(command, data):
    argv = [command, *data.draw(COMMANDS[command])]
    with tempfile.TemporaryDirectory() as tmp:
        if command == "eval":
            for i, text in enumerate(argv[1:3], start=1):
                path = Path(tmp, f"arg{i}.json")
                path.write_text(text, encoding="utf-8", errors="surrogatepass")
                argv[i] = str(path)
        code, err = _run_in_process(argv)
    assert code in (0, cli.EXIT_PARSE, cli.EXIT_PRECONDITION, cli.EXIT_MISMATCH), (argv, err)
    assert "Traceback" not in err
    assert len(err.splitlines()) == (0 if code == 0 else 1), (argv, err)
