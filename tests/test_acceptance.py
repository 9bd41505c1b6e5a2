"""Acceptance gate: criteria A1-A10, each run over its full size range.

Every criterion is an exact identity; one PASS/FAIL line is printed per
criterion (run pytest with -s to see them).
"""

import pytest

from tlimm import verify

CRITERIA = {
    "A1": "tl immanant equals signed hull percent immanant iff 1324- and 2143-avoiding",
    "A2": "decomposable iff forbidden-pattern-avoiding iff sign-alternating, shapes exact",
    "A3": "closed-form coefficients equal expansion coefficients",
    "A4": "signed complementary minors equal compatible immanant sums",
    "A5": "coefficient symmetry under inverse and longest-word conjugation",
    "A6": "Catalan bijection between avoiders and matchings",
    "A7": "zone-condition instances have unique brute-force solutions, as built",
    "A8": "anti-diagonal coefficient closed form",
    "A9": "1324-relatedness classes are hull fibers; span elements reconstruct",
    "A10": "CM expansions reproduce immanants; witness matrix separates",
}


@pytest.mark.parametrize("criterion", list(CRITERIA))
def test_acceptance(criterion):
    reports = [
        verify.run_suite(criterion, n) for n in verify.DEFAULT_SIZES[criterion]
    ]
    checks = sum(r.checks for r in reports)
    failures = [f for r in reports for f in r.failures]
    status = "PASS" if not failures else "FAIL"
    sizes = ",".join(str(r.n) for r in reports)
    print(f"{criterion} (n={sizes}; {checks} checks): {status} -- {CRITERIA[criterion]}")
    for failure in failures[:10]:
        print(f"  {failure.claim} [{failure.witness}]: "
              f"expected {failure.expected}, got {failure.actual}")
    assert not failures
