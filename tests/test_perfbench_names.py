"""The benchmark wraps and reads library functions by name; a name it lists
or reads that the library no longer has would fail only a benchmark run, so
the names are resolved here."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


# workloads.py is parsed, not imported: importing it would import tlimm.
WORKLOADS_TREE = ast.parse(WORKLOADS.read_text())
WORKLOAD_MODULES = {"classify", "immanant", "perm", "tl", "verify"}


def test_workloads_import_only_these_modules():
    imported = {alias.name for node in ast.walk(WORKLOADS_TREE)
                if isinstance(node, ast.ImportFrom) and node.module == "tlimm"
                for alias in node.names}
    assert imported == WORKLOAD_MODULES


def workload_module_reads():
    """Every (module, attribute) that workloads.py reads off those modules."""
    return sorted({(node.value.id, node.attr) for node in ast.walk(WORKLOADS_TREE)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in WORKLOAD_MODULES})


@pytest.mark.parametrize("module, attr", workload_module_reads())
def test_workload_name_resolves(module, attr):
    assert hasattr(importlib.import_module(f"tlimm.{module}"), attr)


# Methods, properties and fields of library values that workloads.py uses:
# ``a + b``, ``.scaled``, ``.coeff`` and ``.coeffs`` on an Immanant,
# ``.terms`` on a theta_table entry.
VALUE_ATTRIBUTES = [
    ("immanant", "Immanant", "__add__"),
    ("immanant", "Immanant", "scaled"),
    ("immanant", "Immanant", "coeff"),
    ("immanant", "Immanant", "coeffs"),
    ("tl", "TLElement", "terms"),
]


@pytest.mark.parametrize("module, cls, attr", VALUE_ATTRIBUTES)
def test_workload_value_attribute_resolves(module, cls, attr):
    value_type = getattr(importlib.import_module(f"tlimm.{module}"), cls)
    fields = {*getattr(value_type, "_fields", ()), *getattr(value_type, "__slots__", ())}
    member = getattr(value_type, attr, None)
    assert callable(member) or isinstance(member, property) or attr in fields
    if not attr.startswith("__"):
        assert f".{attr}" in WORKLOADS.read_text(), attr
