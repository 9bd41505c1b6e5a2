"""The benchmark wraps and reads library functions by name; a name it lists
that the library no longer has would fail only a benchmark run, so the
names are resolved here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    # spans.py imports nothing from tlimm, so it loads on its own.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("name, module, attr", spans.TRACED + spans.CACHES)
def test_benchmarked_name_resolves(name, module, attr):
    assert module == "tlimm" or module.startswith("tlimm.")
    assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("name, module, attr", spans.CACHES)
def test_benchmarked_cache_has_cache_info(name, module, attr):
    hits, misses, _, _ = getattr(importlib.import_module(module), attr).cache_info()
    assert hits >= 0 and misses >= 0, name
