"""
Command-line front end.

Exit codes: 0 success, 2 parse failure, 3 precondition or size-limit
violation, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import classify, immanant, perm, render, tl, verify
from .errors import PreconditionError, VerificationError

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_MISMATCH = 4


def _one_line(message) -> str:
    return " ".join(str(message).splitlines())


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error on one line, as every
    other error is reported."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {_one_line(message)}\n")


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {_one_line(exc)}", file=sys.stderr)
    return code


def _emit(data) -> None:
    print(json.dumps(data, indent=None, separators=(", ", ": ")))


def cmd_coeff(args) -> int:
    w = perm.parse_perm(args.w)
    u = perm.parse_perm(args.u)
    if args.method in ("oracle", "both"):
        oracle = tl.f_coeff(w, u)
    if args.method in ("formula", "both"):
        formula = classify.closed_form(w)(u)
    if args.method == "oracle":
        print(oracle)
    elif args.method == "formula":
        print(formula)
    else:
        ok = oracle == formula
        print(f"{oracle} {formula} {'OK' if ok else 'MISMATCH'}")
        if not ok:
            return EXIT_MISMATCH
    return 0


def cmd_immanant(args) -> int:
    f = immanant.tl_immanant(perm.parse_perm(args.w))
    if args.format == "json":
        _emit(f.to_json())
    else:
        for u, c in f.coeffs.items():
            print(f"{perm.format_perm(u)}\t{c}")
    return 0


def cmd_hull(args) -> int:
    _emit(immanant.hull(perm.parse_perm(args.w)).to_json())
    return 0


def cmd_ncm(args) -> int:
    print(tl.format_matching(tl.beta(perm.parse_perm(args.w))))
    return 0


def cmd_classify(args) -> int:
    _emit(classify.classify_2143(perm.parse_perm(args.w)).to_json())
    return 0


def cmd_decompose(args) -> int:
    _emit(classify.decompose(perm.parse_perm(args.w)).to_json())
    return 0


def cmd_expand(args) -> int:
    w = perm.parse_perm(args.w)
    if not perm.avoids(w, classify.PATTERN_2143):
        terms = [
            {"sign": s, "I": sorted(I), "J": sorted(J)}
            for s, I, J in classify.cm_expansion(w)
        ]
        _emit({"w": perm.format_perm(w), "kind": "signed", "terms": terms})
    else:
        terms = [
            {"sign": 1, "I": sorted(I), "J": sorted(J)}
            for I, J in classify.rect_cm_expansion(w)
        ]
        _emit({"w": perm.format_perm(w), "kind": "rectangle", "terms": terms})
    return 0


def cmd_classes(args) -> int:
    if args.n < 0:
        raise ValueError(f"n must be non-negative, got {args.n}")
    classes = immanant.related_classes(args.n)
    _emit({
        "n": args.n,
        "classes": [[perm.format_perm(w) for w in cl] for cl in classes],
    })
    return 0


def cmd_eval(args) -> int:
    f = immanant.Immanant.from_json(immanant._load_json(Path(args.immanant).read_text()))
    X = immanant.parse_matrix(Path(args.matrix).read_text())
    print(immanant.evaluate(f, X))
    return 0


def _load_shape(spec: str) -> immanant.SkewShape:
    if spec.startswith("@"):
        spec = Path(spec[1:]).read_text()
    return immanant.SkewShape.from_json(immanant._load_json(spec))


def cmd_render(args) -> int:
    if args.object == "ncm":
        m = (
            tl.parse_matching(args.value)
            if "-" in args.value
            else tl.beta(perm.parse_perm(args.value))
        )
        out = render.matching_svg(m) if args.format == "svg" else render.matching_ascii(m)
    elif args.object == "hull":
        shape = immanant.hull(perm.parse_perm(args.value))
        out = render.shape_svg(shape) if args.format == "svg" else render.shape_ascii(shape)
    else:
        shape = _load_shape(args.value)
        out = render.shape_svg(shape) if args.format == "svg" else render.shape_ascii(shape)
    print(out)
    return 0


def _verify_jobs(items, jobs: int):
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return [verify.run_suite(name, n) for name, n in items]
    import multiprocessing

    with multiprocessing.Pool(jobs) as pool:
        return pool.starmap(verify.run_suite, items)


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    items = []
    for name in names:
        sizes = (args.n,) if args.n is not None else verify.DEFAULT_SIZES[name]
        items.extend((name, n) for n in sizes)
    reports = _verify_jobs(items, args.jobs)
    failed = 0
    for report in reports:
        print(report.summary())
        for failure in report.failures:
            failed += 1
            print(
                f"  FAIL {failure.claim} [{failure.witness}]: "
                f"expected {failure.expected}, got {failure.actual}"
            )
        if report.failures:
            print(f"  rerun: tlimm verify --suite {report.suite} --n {report.n}")
    total = sum(r.checks for r in reports)
    print(f"total: {total} checks, {failed} failures")
    return 0 if failed == 0 else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tlimm",
        description="Temperley-Lieb immanants, percent immanants and their "
        "classification, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="coefficient of x_u in the immanant of w")
    p.add_argument("w")
    p.add_argument("u")
    p.add_argument("--method", choices=("oracle", "formula", "both"), default="oracle")
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("immanant", help="full Temperley-Lieb immanant of w")
    p.add_argument("w")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=cmd_immanant)

    p = sub.add_parser("hull", help="minimal skew shape through the points of w")
    p.add_argument("w")
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("ncm", help="non-crossing matching of a 321-avoiding w")
    p.add_argument("w")
    p.set_defaults(func=cmd_ncm)

    p = sub.add_parser("classify", help="case parameters of a 2143-containing w")
    p.add_argument("w")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decompose", help="percent-immanant decomposition of w")
    p.add_argument("w")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("expand", help="complementary-minor expansion of w")
    p.add_argument("w")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("classes", help="1324-relatedness classes of S_n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("eval", help="evaluate an immanant file on a matrix file")
    p.add_argument("immanant")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="draw a matching or skew shape")
    p.add_argument("object", choices=("ncm", "hull", "shape"))
    p.add_argument("value", help="permutation, matching text, or shape JSON (@file)")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", default="all",
                   choices=("all", *verify.SUITES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at least 1 and at most one per (suite, n) run")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        return _fail(exc, EXIT_PRECONDITION)
    except VerificationError as exc:
        return _fail(exc, EXIT_MISMATCH)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        return _fail(exc, EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
