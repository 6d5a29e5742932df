"""The public API is what the library itself, perfbench and the README use.

Every name that ``proxikit`` exports must be read (as an AST ``Name`` or
``Attribute``) somewhere in ``src/proxikit`` outside ``__init__.py`` or in
``perfbench/``, or be named in code in README.md (a backtick span or a
fenced block).  A name that only the tests call is a test helper and lives
in the tests.
"""
import ast
import re
from pathlib import Path

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
