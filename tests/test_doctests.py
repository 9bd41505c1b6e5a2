import doctest
from pathlib import Path

import pytest

from tlimm import classify, coloring, immanant, limits, perm, render, tl, verify


@pytest.mark.parametrize(
    "module", [perm, tl, coloring, immanant, classify, render, limits, verify]
)
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_readme_quick_tour():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    failures, _ = doctest.testfile(str(readme), module_relative=False)
    assert failures == 0
