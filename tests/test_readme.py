"""The README's Library example runs as written, its constant table is the
library's recipe table, the package root exports exactly the names its
Library section documents, and every module name that section lists exists."""

import importlib
import re
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import frozen
import replica
from replica.algorithms import CONSTANT_RECIPES
from replica.precision import to_sig_digits

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section() -> str:
    return README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_computes_pi():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert to_sig_digits(namespace["pi"], 1000) == frozen.PI[:1001]


def test_root_exports_exactly_all():
    public = {name for name, value in vars(replica).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(replica.__all__)
    assert len(replica.__all__) == len(set(replica.__all__)) == 18


def test_every_root_name_is_documented_in_library_section():
    documented = set(re.findall(r"`([A-Za-z_]\w*)`", library_section()))
    assert [name for name in replica.__all__ if name not in documented] == []


def test_every_module_name_in_library_section_exists():
    # `replica.series.evaluate_series(...)`, and `replica.series` (`evaluate_series`, ...)
    section = library_section()
    modules = "precision|series|transforms|algorithms"
    named = re.findall(rf"`replica\.({modules})\.(\w+)", section)
    for module, listed in re.findall(rf"`replica\.({modules})`\s+\(([^)]*)\)", section):
        named += [(module, name) for name in re.findall(r"`(\w+)`", listed)]
    assert {module for module, _ in named} == set(modules.split("|"))
    missing = [f"replica.{module}.{name}" for module, name in named
               if not hasattr(importlib.import_module(f"replica.{module}"), name)]
    assert missing == []


def test_constant_table_is_the_recipe_table():
    families = {"quadratic/quartic": (2, 4), "cubic": (3,)}
    # | `name` | family | w | limit | alpha | e |
    row = r"^\| `(\w+)` +\| ([\w/]+) +\| ([-\d/]+) +\| [^|]+\| ([-\d/]+) +\| ([-\d/]+) +\|$"
    rows = re.findall(row, README.read_text(), re.M)
    table = {name: (families[family], Fraction(w), Fraction(alpha), Fraction(e))
             for name, family, w, alpha, e in rows}
    assert table == CONSTANT_RECIPES
