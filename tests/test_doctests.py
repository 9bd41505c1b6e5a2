import doctest
import re
from pathlib import Path

import pytest

from tlimm import classify, cli, coloring, immanant, limits, perm, render, tl, verify


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


def test_readme_names_resolve():
    """Every dotted name ``module.attr`` in README's inline code, for the
    modules of the package, is an attribute of that module: a name renamed
    or deleted in the code without a README edit fails here."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.sub(r"(?ms)^```.*?^```", "", text)
    modules = {m.__name__.rpartition(".")[2]: m
               for m in (tl, immanant, perm, classify, coloring, verify, limits, render, cli)}
    names = {m.group(0) for span in re.findall(r"`([^`]+)`", text)
             for m in re.finditer(r"(?<![\w.])(%s)((?:\.\w+)+)" % "|".join(modules), span)}
    assert len(names) >= 25
    for name in sorted(names):
        head, *attrs = name.split(".")
        obj = modules[head]
        for attr in attrs:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
