"""Acceptance gate: every suite in ``verify.SUITES``, each run over its
default size range.

Every suite checks an exact identity; one PASS/FAIL line, ending in the
suite's docstring, is printed per suite (run pytest with -s to see them).
"""

import pytest

from tlimm import verify


# Checks per suite over its default sizes, so a change in what a suite
# checks shows here; together they are the 170 850 of `tlimm verify
# --suite all`.
CHECKS = {"A1": 193, "A2": 493, "A3": 156_022, "A4": 348, "A5": 10_820,
          "A6": 2_087, "A7": 524, "A8": 107, "A9": 105, "A10": 151}


@pytest.mark.parametrize("criterion", list(verify.SUITES))
def test_acceptance(criterion):
    reports = [
        verify.run_suite(criterion, n) for n in verify.DEFAULT_SIZES[criterion]
    ]
    checks = sum(r.checks for r in reports)
    failures = [f for r in reports for f in r.failures]
    status = "PASS" if not failures else "FAIL"
    sizes = ",".join(str(r.n) for r in reports)
    summary = " ".join(verify.SUITES[criterion].__doc__.split())
    print(f"{criterion} (n={sizes}; {checks} checks): {status} -- {summary}")
    for failure in failures[:10]:
        print(f"  {failure.claim} [{failure.witness}]: "
              f"expected {failure.expected}, got {failure.actual}")
    assert not failures
    assert checks == CHECKS[criterion]
