"""The README and the package's own docstrings and comments name only what
the package defines."""

import importlib
import io
import pkgutil
import re
import tokenize
from functools import reduce
from pathlib import Path

import triqes

README = Path(__file__).resolve().parent.parent / "README.md"
SUBMODULES = [m.name for m in pkgutil.iter_modules(triqes.__path__)]
# a backticked `triqes.<name>` or `<submodule>.<name>`, e.g. `heun.residual_ok`
DOTTED = re.compile(r"`((?:triqes|%s)(?:\.\w+)+)" % "|".join(SUBMODULES))


def unresolved(names):
    """The dotted names among `names` that the package does not define."""
    modules = {name: importlib.import_module(f"triqes.{name}") for name in SUBMODULES}
    modules["triqes"] = triqes
    missing = []
    for dotted in sorted(names):
        head, *attrs = dotted.split(".")
        try:
            reduce(getattr, attrs, modules[head])
        except AttributeError:
            missing.append(dotted)
    return missing


def test_readme_names_resolve():
    names = set(DOTTED.findall(README.read_text()))
    assert "heun.residual_ok" in names
    assert not unresolved(names), unresolved(names)


def test_module_docstrings_and_comments_resolve():
    # every docstring, string and comment of every module: a text that
    # names a deleted function fails here
    names = set()
    for path in Path(triqes.__file__).parent.glob("*.py"):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        for token in tokens:
            if token.type in (tokenize.COMMENT, tokenize.STRING):
                names |= set(DOTTED.findall(token.string))
    assert {"heun.rho_coefficients", "schroedinger.lambda_rung"} <= names
    assert not unresolved(names), unresolved(names)
