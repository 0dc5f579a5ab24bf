"""The term format stays inside ``equiloc.algebra``: no other module of the
package names ``Monomial`` or ``ONE_MONO``, or reads ``.terms``,
``.exps``, ``.exponent`` or ``.sparse``.  They go between a ``Polynomial``
and dense terms through a ``Slate`` instead, so a change of the storage
touches ``algebra`` alone.  ``__init__`` is held to the same rule: it
names its public ``Monomial`` only as a string, resolved on first
access.  Inside ``algebra`` a ``Slate`` is the only reader and builder of
a term's key: no ``.exps`` and no ``Monomial(...)`` call stands outside
``Monomial``, ``ONE_MONO``, ``Slate``, ``Polynomial.__init__`` and
``Polynomial.variables``."""

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


def test_init_is_held_to_the_same_rule():
    assert sites(SAMPLE, "__init__.py") == [
        site.replace("m.py", "__init__.py") for site in sites(SAMPLE, "m.py")]


#: Where inside ``algebra`` a term's key may be read or built: a ``Slate``
#: is the only reader and builder; the constructor checks exponents and
#: ``variables`` collects a slate's variables.  The name of a module-level
#: assignment is the scope of its value.
KEY_SCOPES = frozenset({"Monomial", "ONE_MONO", "Slate",
                        "Polynomial.__init__", "Polynomial.variables"})


def key_sites(source: str) -> list[tuple[int, int, str, str]]:
    """``(line, column, scope, what)`` of each ``.exps`` and each
    ``Monomial(...)`` call in the source; ``scope`` is the dotted path of
    the enclosing classes and functions."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = (*scope, child.name)
            elif (not scope and isinstance(child, ast.Assign)
                  and isinstance(child.targets[0], ast.Name)):
                inner = (child.targets[0].id,)
            elif isinstance(child, ast.Attribute) and child.attr == "exps":
                found.append((child.lineno, child.col_offset,
                              ".".join(scope), ".exps"))
            elif (isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Name)
                  and child.func.id == "Monomial"):
                found.append((child.lineno, child.col_offset,
                              ".".join(scope), "Monomial("))
            walk(child, inner)

    walk(ast.parse(source), ())
    return sorted(found)


def outside_key_scopes(source: str, module: str) -> list[str]:
    return [f"{module}:{line} {scope} {what}"
            for line, _, scope, what in key_sites(source)
            if not any(scope == s or scope.startswith(s + ".")
                       for s in KEY_SCOPES)]


def test_only_a_slate_reads_or_builds_a_key_in_algebra():
    source = (PACKAGE / "algebra.py").read_text(encoding="utf-8")
    found = outside_key_scopes(source, "algebra.py")
    assert not found, "term keys read or built outside a Slate:\n" + (
        "\n".join(found))


KEY_SAMPLE = """ONE_MONO = Monomial(())
ONE = Monomial(())
class Monomial:
    def __init__(self, exps):
        self.exps = exps
class Polynomial:
    def variables(self):
        return {v for m in self.terms for v, _ in m.exps}
    def degree(self):
        def inner(m):
            return m.exps
        return Monomial(inner(self))
def f(p):
    return Monomial(p.exps)
"""


def test_the_key_walk_finds_every_kind_of_site():
    assert [(line, scope, what)
            for line, _, scope, what in key_sites(KEY_SAMPLE)] == [
        (1, "ONE_MONO", "Monomial("), (2, "ONE", "Monomial("),
        (5, "Monomial.__init__", ".exps"),
        (8, "Polynomial.variables", ".exps"),
        (11, "Polynomial.degree.inner", ".exps"),
        (12, "Polynomial.degree", "Monomial("),
        (14, "f", "Monomial("), (14, "f", ".exps")]
    assert outside_key_scopes(KEY_SAMPLE, "m.py") == [
        "m.py:2 ONE Monomial(", "m.py:11 Polynomial.degree.inner .exps",
        "m.py:12 Polynomial.degree Monomial(", "m.py:14 f Monomial(",
        "m.py:14 f .exps"]
