"""The README names only what the package defines."""

import importlib
import pkgutil
import re
from functools import reduce
from pathlib import Path

import triqes

README = Path(__file__).resolve().parent.parent / "README.md"
SUBMODULES = [m.name for m in pkgutil.iter_modules(triqes.__path__)]
# a backticked `triqes.<name>` or `<submodule>.<name>`, e.g. `heun.residual_ok`
DOTTED = re.compile(r"`((?:triqes|%s)(?:\.\w+)+)" % "|".join(SUBMODULES))


def test_readme_names_resolve():
    modules = {name: importlib.import_module(f"triqes.{name}") for name in SUBMODULES}
    modules["triqes"] = triqes
    names = sorted(set(DOTTED.findall(README.read_text())))
    assert "heun.residual_ok" in names
    missing = []
    for dotted in names:
        head, *attrs = dotted.split(".")
        try:
            reduce(getattr, attrs, modules[head])
        except AttributeError:
            missing.append(dotted)
    assert not missing, missing
