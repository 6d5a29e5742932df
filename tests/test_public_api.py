"""The public API is what the library itself, perfbench and the README use.

Every name that ``proxikit`` exports, and every public method or property
of an exported class, must be read (as an AST ``Name`` or ``Attribute``)
somewhere in ``src/proxikit`` outside ``__init__.py`` or in ``perfbench/``,
or be named in code in README.md (a backtick span or a fenced block).  A
name that only the tests call is a test helper and lives in the tests.

The guard matches by name, not by what the name resolves to, so a method
escapes it when something unrelated of the same name is read: a method
named ``far`` would pass through the local ``far`` of ``axioms`` and
``groups``, and one named ``subsets`` through the ``subsets`` attribute of
the oracle's ``_ExplicitSets``.
"""
import ast
import inspect
import re
from functools import cached_property
from pathlib import Path

import proxikit

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "proxikit"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def referenced_names():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    refs = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def readme_code_names():
    readme = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```|`[^`\n]+`", readme, re.S)
    return {word for span in code for word in re.findall(r"\w+", span)}


def test_every_export_has_a_caller_or_a_readme_entry():
    exported = exported_names()
    assert len(exported) > 80
    used = referenced_names() | readme_code_names()
    assert [name for name in exported if name not in used] == []


def public_methods():
    """(class, name) for each public method or property defined in the
    body of an exported class."""
    kinds = (property, cached_property, classmethod, staticmethod)
    return [
        (name, attr)
        for name in exported_names()
        if inspect.isclass(cls := getattr(proxikit, name))
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))
    ]


def test_every_public_method_has_a_caller_or_a_readme_entry():
    methods = public_methods()
    assert ("ProximityRelation", "near") in methods and len(methods) > 20
    used = referenced_names() | readme_code_names()
    assert [f"{cls}.{attr}" for cls, attr in methods if attr not in used] == []
