"""The mutation register: planted faults that the checks must catch.

Each entry changes one exact text of one file of ``src/tlimm``; the old
text occurs there exactly once.  An entry with a ``suite`` is killed when
``tlimm verify --suite <suite> --n <n>`` on the mutated source exits 4 and
prints a FAIL line: ``test_mutants.py`` plants each such entry in a copy of
``src`` and runs that command.  An entry that ``verify`` cannot see names
instead the tier-1 ``test`` that kills it, and ``reason`` says why the
suites miss it.  ``fails`` records the FAIL lines the command printed when
the entry was added; the register test asks only for at least one.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    suite: str | None = None
    n: int | None = None
    fails: int | None = None
    test: str | None = None
    reason: str = ""


MUTANTS = (
    # Killed by one verify run.
    Mutant("312645 dropped from the forbidden patterns", "classify.py",
           "    (3, 1, 2, 6, 4, 5),\n", "", suite="A2", n=6, fails=2),
    Mutant("2143 added to the forbidden patterns", "classify.py",
           "    PATTERN_1324,\n    (2, 4, 1, 5, 3),",
           "    PATTERN_1324,\n    PATTERN_2143,\n    (2, 4, 1, 5, 3),",
           suite="A2", n=4, fails=2),
    Mutant("the 1324 test of the check chain negated", "classify.py",
           "    if not avoids(w, PATTERN_1324):\n        if strict:",
           "    if avoids(w, PATTERN_1324):\n        if strict:",
           suite="A2", n=4, fails=15),
    Mutant("bound >= v -> bound > v in the 1324 pair build", "perm.py",
           "keep = [bound >= v for bound in bounds]",
           "keep = [bound > v for bound in bounds]", suite="A2", n=5, fails=6),
    Mutant("lo and hi swapped in contains_pattern", "perm.py",
           "    lo, hi = bounds[k]\n", "    hi, lo = bounds[k]\n",
           suite="A2", n=4, fails=3),
    Mutant("hull's mu one too high", "immanant.py",
           "mu.append(running - 1)", "mu.append(running)", suite="A1", n=4, fails=12),
    Mutant("below[m + 1] in shape_mask", "immanant.py",
           "mask &= below[l] - below[m]", "mask &= below[l] - below[m + 1]",
           suite="A1", n=4, fails=8),
    Mutant("below[hi - 1] in the run sum of a range row", "immanant.py",
           "yield below[hi] - below[lo] if lo < hi else 0",
           "yield below[hi - 1] - below[lo] if lo < hi else 0", suite="A3", n=4, fails=2),
    Mutant("a shifted row of the binomial table", "classify.py",
           "for a in range(16)) for b in range(16))",
           "for a in range(16)) for b in range(1, 17))", suite="A3", n=4, fails=6),
    Mutant("a dropped mask in the compatibility table", "coloring.py",
           "        for mask in masks:\n            table.setdefault",
           "        for mask in masks[1:]:\n            table.setdefault",
           suite="A7", n=4, fails=35),
    Mutant("a wrong conjugate rank map", "perm.py",
           "rank[conjugate_by_longest(u)]", "rank[conjugate_by_longest(inverse(u))]",
           suite="A5", n=3, fails=4),
    Mutant("A10's witness support with its last permutation cleared", "verify.py",
           'mask.to_bytes(size, "little")))', 'mask.to_bytes(size, "little")))[:-1]',
           suite="A10", n=4, fails=2),
    Mutant("a wrong lane cleared in the alternation pass", "immanant.py",
           "pending ^= 0xFF << 8 * j", "pending ^= 0xFF << 8 * j + 8",
           suite="A2", n=5, fails=1),
    Mutant("the 'none below' and 'none above' indices swapped in _pattern_bounds", "perm.py",
           "default=m),\n         min((j for j in range(k) if v[j] > v[k]), key=v.__getitem__, default=m + 1))",
           "default=m + 1),\n         min((j for j in range(k) if v[j] > v[k]), key=v.__getitem__, default=m))",
           suite="A2", n=4, fails=3),
    Mutant("A10's witness support taken from X's zero entries", "verify.py",
           "[[j for j, x in enumerate(row, 1) if x] for row in X]",
           "[[j for j, x in enumerate(row, 1) if not x] for row in X]",
           suite="A10", n=4, fails=1),
    Mutant("the outside shift in _pairings off by one", "tl.py",
           "(2 * i + 2).__add__", "(2 * i + 1).__add__", suite="A6", n=3, fails=1),
    Mutant("the inside shift in _pairings off by one", "tl.py",
           "(1).__add__", "(2).__add__", suite="A6", n=3, fails=1),
    # Killed by a tier-1 test.
    Mutant("beta's reduced word taken after the 321 test", "tl.py",
           "    word = reduced_word(w)\n    if not is_321_avoiding(w):\n"
           '        raise PreconditionError(f"{w} contains the pattern 321")\n',
           "    if not is_321_avoiding(w):\n"
           '        raise PreconditionError(f"{w} contains the pattern 321")\n'
           "    word = reduced_word(w)\n",
           test="tests/test_classify.py::test_a_check_names_the_first_fault_it_finds[beta]",
           reason="a permutation passes both checks in either order; only a "
                  "non-permutation's error reason tells them apart"),
    Mutant("the row-swap sign flip dropped in _bareiss", "immanant.py",
           "            sign = -sign\n", "",
           test="tests/test_immanant.py::test_percent_determinants_on_hulls[5]",
           reason="no suite evaluates an immanant at a matrix"),
    Mutant("a wrong swap in _glue", "tl.py",
           "    pairing[a], pairing[b] = b, a\n", "    pairing[a], pairing[b] = a, b\n",
           test="tests/test_tl.py::test_theta_matches_glued_product[3]",
           reason="the first crossed pairing raises a ValueError, so verify exits 2 "
                  "with no FAIL line"),
    Mutant("suffix digits reversed in evaluate's row split", "immanant.py",
           "    for lanes in digits[h:]:\n", "    for lanes in reversed(digits[h:]):\n",
           test="tests/test_immanant.py::test_row_split_matches_oracle",
           reason="no suite evaluates an immanant at a matrix"),
    Mutant("a wrong block size in evaluate's row split", "immanant.py",
           "zip(*[terms] * math.factorial(n - h))", "zip(*[terms] * math.factorial(n - h + 1))",
           test="tests/test_immanant.py::test_row_split_matches_oracle",
           reason="no suite evaluates an immanant at a matrix"),
)
