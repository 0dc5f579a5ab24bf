"""The term format stays inside ``equiloc.algebra``: no other module of the
package names ``Monomial`` or ``ONE_MONO``, or reads ``.terms``,
``.exps``, ``.exponent`` or ``.sparse``.  They go between a ``Polynomial``
and dense terms through a ``Slate`` instead, so a change of the storage
touches ``algebra`` alone.  The one exception is the re-export of
``Monomial`` in ``__init__``."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equiloc"
NAMES = frozenset({"Monomial", "ONE_MONO"})
ATTRIBUTES = NAMES | {"terms", "exps", "exponent", "sparse"}


def sites(source: str, module: str) -> list[str]:
    """``module:line name`` of each name of the term format and each read
    of its attributes in the source of the module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in NAMES:
            name = node.id
        elif isinstance(node, ast.alias) and NAMES & {node.name, node.asname}:
            if module == "__init__.py" and node.name == "Monomial":
                continue  # the package's public re-export
            name = node.name
        elif isinstance(node, ast.Attribute) and node.attr in ATTRIBUTES:
            name = "." + node.attr
        else:
            continue
        found.append((node.lineno, node.col_offset, name))
    return [f"{module}:{line} {name}" for line, _, name in sorted(found)]


def test_no_module_but_algebra_touches_the_term_format():
    found = [site for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "algebra.py"
             for site in sites(path.read_text(encoding="utf-8"), path.name)]
    assert not found, "term format outside algebra:\n" + "\n".join(found)


SAMPLE = """from .algebra import Monomial, ONE_MONO as one
from . import algebra
x = (p.terms, m.exps, m.exponent(v), s.sparse(t), algebra.Monomial,
     Monomial.make(()), ONE_MONO, p.variables(), s.dense(p))
"""


def test_the_walk_finds_every_kind_of_site():
    assert sites(SAMPLE, "m.py") == [
        "m.py:1 Monomial", "m.py:1 ONE_MONO", "m.py:3 .terms",
        "m.py:3 .exps", "m.py:3 .exponent", "m.py:3 .sparse",
        "m.py:3 .Monomial", "m.py:4 Monomial", "m.py:4 ONE_MONO"]


def test_only_the_init_reexport_of_monomial_is_allowed():
    assert sites(SAMPLE, "__init__.py") == [
        site.replace("m.py", "__init__.py") for site in sites(SAMPLE, "m.py")
        if site != "m.py:1 Monomial"]
