"""The benchmark workloads.  child.py runs one pass of one workload in a
fresh interpreter; importing this module imports tlimm.

Each workload has four steps:

- ``setup()``, timed into setup_s together with the import;
- ``prepare()``, untimed: makes the seeded inputs;
- ``run()``, which answers every operation and returns the answers and the
  ``perf_counter`` intervals that make up wall_s;
- ``check(answers)``, run after the clock, the counters and the tracer have
  stopped, which returns an :class:`Outcome`.
"""

from __future__ import annotations

import math
import random
import traceback
from typing import NamedTuple
from fractions import Fraction
from time import perf_counter

from tlimm import classify, immanant, perm, tl, verify

PATTERN_1324 = (1, 3, 2, 4)
PATTERN_2143 = (2, 1, 4, 3)
THETA_TERMS_7 = 943_584  # stored terms of theta_table(7)
MAX_FAILURES_KEPT = 20


class Outcome:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks_by_suite: dict[str, int] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(message)


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception(exc))


def theta_terms(sizes) -> dict[int, int]:
    """Stored terms of each theta table; call only after timing stops."""
    return {n: sum(len(e.terms) for e in tl.theta_table(n).values()) for n in sizes}


class SuiteWorkload:
    """Verification suites run one after another in one process.  Every
    report must be ok and the check total must equal the pinned count."""

    name: str
    plan: tuple[tuple[str, int], ...]
    expected_checks: int
    table_sizes: tuple[int, ...]

    def __init__(self, seed: int, index: int):
        # The seed picks the sampled pairs of A3 at n = 7 and the random
        # shapes of A9; the check counts do not depend on it.
        rng = random.Random(f"{self.name}:{seed}")
        self.suite_seeds = {"A3": rng.randrange(1 << 30), "A9": rng.randrange(1 << 30)}

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def run(self):
        results = []
        start = perf_counter()
        for suite, n in self.plan:
            fn = getattr(verify, f"suite_{suite.lower()}")
            kwargs = {"seed": self.suite_seeds[suite]} if suite in self.suite_seeds else {}
            try:
                results.append((suite, n, fn(n, **kwargs)))
            except Exception as exc:
                results.append((suite, n, exc))
        return results, [(start, perf_counter())]

    def check(self, results) -> Outcome:
        out = Outcome()
        total = 0
        for suite, n, report in results:
            if isinstance(report, Exception):
                out.attempted += 1
                out.fail(f"{suite} n={n} raised:\n{_describe(report)}")
                continue
            out.attempted += report.checks
            total += report.checks
            out.checks_by_suite[suite] = out.checks_by_suite.get(suite, 0) + report.checks
            for f in report.failures:
                out.fail(f"{suite} n={n}: {f.claim} at {f.witness}: "
                         f"expected {f.expected}, got {f.actual}")
        if total != self.expected_checks:
            out.fail(f"{total} checks run, expected {self.expected_checks}")
        return out


class Gate(SuiteWorkload):
    """The ten suites at their default sizes, in `tlimm verify --suite all`
    order, from a cold start: the acceptance gate."""

    name = "gate"
    plan = tuple((s, n) for s in verify.SUITES for n in verify.DEFAULT_SIZES[s])
    expected_checks = 170_850
    table_sizes = (2, 3, 4, 5, 6, 7)


class Tables7(SuiteWorkload):
    """Table-bound suites at the largest table size, with the tables built
    during set-up: A2, A3 and A8 at n = 7 and A5 at n = 6."""

    name = "tables7"
    plan = (("A2", 7), ("A3", 7), ("A8", 7), ("A5", 6))
    expected_checks = 291_111
    table_sizes = (6, 7)

    def setup(self) -> None:
        immanant.all_tl_immanants(7)
        tl.theta_table(6)


# ---------------------------------------------------------------------------
# The session workload: seeded library point queries from one client.


def _avoids_321(w) -> bool:
    # 321-avoiding iff the entries that are not left-to-right maxima increase.
    top = low = 0
    for x in w:
        if x > top:
            top = x
        elif x > low:
            low = x
        else:
            return False
    return True


def _random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(1, n + 1), n))


def _random_avoider(rng: random.Random, n: int) -> tuple[int, ...]:
    # Rejection sampling: uniform over the 321-avoiding permutations.
    while True:
        w = _random_perm(rng, n)
        if _avoids_321(w):
            return w


def _random_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)]


def _hull_rows(w) -> list[tuple[int, int]]:
    """Row i of hull(w) spans the columns from the running minimum of w on
    [1, i] to its maximum on [i, n], as (first, last) column."""
    n = len(w)
    return [(min(w[: i + 1]), max(w[i:])) for i in range(n)]


def _determinant(rows: list[list[Fraction]]) -> Fraction:
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            factor = a[r][c] / a[c][c]
            if factor:
                for k in range(c, n):
                    a[r][k] -= factor * a[c][k]
    return det


def _evaluate_by_integers(f: immanant.Immanant, X) -> Fraction:
    """sum_u f(u) prod_i X[i][u(i)], computed over integers after clearing
    denominators: a second arithmetic path for evaluate."""
    n = len(X)
    d = math.lcm(*(x.denominator for row in X for x in row))
    Y = [[int(x * d) for x in row] for row in X]
    total = 0
    for u, c in f.coeffs.items():
        prod = c
        for i, x in enumerate(u):
            prod *= Y[i][x - 1]
        total += prod
    return Fraction(total, d ** n)


def _check(problems: list[str], what: str, expected, actual) -> None:
    if expected != actual:
        problems.append(f"{what}: expected {expected!r}, got {actual!r}")


# Each query kind: make(rng) -> inputs; ask(inputs) -> answer, the timed
# call; keep(inputs, answer) -> the part of the answer that check needs,
# taken outside the timed interval so the pass need not hold every answer;
# check(inputs, kept, problems) appends what is wrong, after the clock stops.


def _keep_all(args, answer):
    return answer


def _make_coeff(rng):
    return (_random_avoider(rng, 8), _random_perm(rng, 8))


def _ask_coeff(args):
    # f_w(u) at n = 8, through theta(u) with no table.
    return tl.f_coeff(*args)


def _check_coeff(args, answer, problems):
    w, u = args
    if perm.avoids(w, PATTERN_1324):
        _check(problems, "closed form", classify.closed_form_coeff(w, u), answer)
    else:
        # No closed form: compare with the inverse symmetry of A5.
        _check(problems, "f_w(u) = f_{w^-1}(u^-1)",
               tl.f_coeff(perm.inverse(w), perm.inverse(u)), answer)


def _make_immanant(rng):
    return (_random_avoider(rng, 7), _random_perm(rng, 7), rng.random())


def _ask_immanant(args):
    # Imm_w at n = 7, read from the theta table.
    return immanant.tl_immanant(args[0])


def _keep_immanant(args, answer):
    # The coefficient at the seeded u and at a seeded point of the support.
    _, u, pick = args
    support = list(answer.coeffs)
    points = [u] + ([support[int(pick * len(support))]] if support else [])
    return {v: answer.coeff(v) for v in points}


def _check_immanant(args, kept, problems):
    w = args[0]
    for v, c in kept.items():
        _check(problems, f"coefficient at {v} against f_coeff", tl.f_coeff(w, v), c)


def _make_decompose(n):
    return lambda rng: (_random_avoider(rng, n), _random_perm(rng, n))


def _ask_decompose(args):
    # Validated by default at n <= 6.
    return classify.decompose(args[0])


def _check_decompose(args, answer, problems):
    w, u = args
    if not classify.avoids_main_patterns(w):
        expected = "none"
    else:
        expected = "one" if perm.avoids(w, PATTERN_2143) else "two"
    _check(problems, "kind", expected, answer.kind)
    _check(problems, "shape count", {"none": 0, "one": 1, "two": 2}[expected], len(answer.shapes))
    if expected == "none" or problems:
        return
    if len(w) <= 6:
        total = immanant.zero_immanant(len(w))
        for s in answer.shapes:
            total = total + immanant.percent_immanant(s)
        _check(problems, "shape sum", immanant.tl_immanant(w).scaled(answer.sign), total)
        return
    # At n = 7 the full sum is costly: compare it at u and at w.
    for v in (u, w):
        inside = sum(immanant.lies_in(v, s) for s in answer.shapes)
        _check(problems, f"shape sum at {v}",
               answer.sign * tl.f_coeff(w, v), perm.sign(v) * inside)


def _make_evaluate(rng):
    return (_random_avoider(rng, 7), _random_perm(rng, 7), _random_matrix(rng, 7))


def _ask_evaluate_tl(args):
    return immanant.evaluate(immanant.tl_immanant(args[0]), args[2])


def _check_evaluate_tl(args, value, problems):
    # The immanant is built again here, after the clock; its coefficient at
    # u is checked against the theta path before the value is recomputed.
    w, u, X = args
    f = immanant.tl_immanant(w)
    _check(problems, f"coefficient at {u} against f_coeff", tl.f_coeff(w, u), f.coeff(u))
    _check(problems, "value over integers", _evaluate_by_integers(f, X), value)


def _ask_evaluate_percent(args):
    return immanant.evaluate(immanant.percent_immanant(immanant.hull(args[0])), args[2])


def _check_evaluate_percent(args, value, problems):
    # The percent immanant of a shape is the determinant of the matrix with
    # the entries outside the shape set to zero.
    w, _, X = args
    masked = [
        [x if first <= j <= last else Fraction(0) for j, x in enumerate(row, start=1)]
        for row, (first, last) in zip(X, _hull_rows(w))
    ]
    _check(problems, "value against masked determinant", _determinant(masked), value)


class Query(NamedTuple):
    count: int  # queries of this kind per pass
    make: object
    ask: object
    keep: object
    check: object


# The mix is assumed, not measured: no record of real queries exists.
QUERIES = {
    "coeff": Query(160, _make_coeff, _ask_coeff, _keep_all, _check_coeff),
    "immanant": Query(120, _make_immanant, _ask_immanant, _keep_immanant, _check_immanant),
    "decompose6": Query(40, _make_decompose(6), _ask_decompose, _keep_all, _check_decompose),
    "decompose7": Query(40, _make_decompose(7), _ask_decompose, _keep_all, _check_decompose),
    "evaluate_tl": Query(20, _make_evaluate, _ask_evaluate_tl, _keep_all, _check_evaluate_tl),
    "evaluate_percent": Query(20, _make_evaluate, _ask_evaluate_percent, _keep_all,
                              _check_evaluate_percent),
}


class Session:
    """A closed loop with one client: each query is sent when the previous
    answer is back.  The mix is fixed per pass and shuffled by the seed.
    wall_s is the sum of the queries' timed intervals."""

    name = "session"
    table_sizes = (6, 7)

    def __init__(self, seed: int, index: int):
        self.rng = random.Random(f"session:{seed}:{index}")
        self.queries: list = []

    def setup(self) -> None:
        # Warm-up, counted in setup_s and not in any query's latency: one
        # query of each kind builds theta_table(7) and theta_table(6).
        rng = random.Random("session:warm-up")
        for q in QUERIES.values():
            q.ask(q.make(rng))

    def prepare(self) -> None:
        kinds = [kind for kind, q in QUERIES.items() for _ in range(q.count)]
        self.rng.shuffle(kinds)
        self.queries = [(kind, QUERIES[kind].make(self.rng)) for kind in kinds]

    def run(self):
        kept, intervals = [], []
        for kind, args in self.queries:
            start = perf_counter()
            try:
                answer = QUERIES[kind].ask(args)
            except Exception as exc:
                answer = exc
            intervals.append((start, perf_counter()))
            if not isinstance(answer, Exception):
                answer = QUERIES[kind].keep(args, answer)
            kept.append(answer)
        return kept, intervals

    def check(self, kept) -> Outcome:
        out = Outcome()
        for (kind, args), answer in zip(self.queries, kept):
            out.attempted += 1
            if isinstance(answer, Exception):
                out.fail(f"{kind} {args[:1]} raised:\n{_describe(answer)}")
                continue
            problems: list[str] = []
            try:
                QUERIES[kind].check(args, answer, problems)
            except Exception as exc:
                problems.append(f"check raised:\n{_describe(exc)}")
            if problems:
                out.fail(f"{kind} {args[:1]}: " + "; ".join(problems))
        return out


WORKLOADS = {w.name: w for w in (Gate, Tables7, Session)}
