"""The mutation census (`tools/census.py`) finds each binary `+`/`-` of a
named function in source order, skips unary signs, and swaps exactly the one
operator it is given."""

import importlib.util
from pathlib import Path

import pytest

CENSUS = Path(__file__).resolve().parents[1] / "tools" / "census.py"
SOURCE = "def f(a, b): return (-1) ** (a - 1) + b\n"


def _load_census():
    spec = importlib.util.spec_from_file_location("tools_census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sites_are_the_binary_operators_in_source_order():
    census = _load_census()
    minus, plus = SOURCE.index("a - 1") + 2, SOURCE.index(" + b") + 1
    assert census.sites("m", SOURCE, ["f"]) == {"f": [(1, minus), (1, plus)]}


def test_swapped_flips_exactly_one_character():
    census = _load_census()
    (first, second), = census.sites("m", SOURCE, ["f"]).values()
    assert census.swapped(SOURCE, *first) == SOURCE.replace("a - 1", "a + 1")
    assert census.swapped(SOURCE, *second) == SOURCE.replace(" + b", " - b")


@pytest.mark.parametrize("source", ["def f(a): return -a\n", "def g(a, b): return a + b\n"])
def test_a_named_function_without_a_site_is_an_error(source):
    with pytest.raises(SystemExit):
        _load_census().sites("m", source, ["f"])
