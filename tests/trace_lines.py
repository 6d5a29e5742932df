"""List the function-body lines of ``src/proxikit`` that no test runs.

An opt-in check, not a tier-1 gate: pytest does not collect this file, and
it needs no coverage package.  It runs the tier-1 suite in this process
under the stdlib tracer (``sys.settrace``), records every line event in a
frame of a ``src/proxikit`` module, and compares them with the lines of
every function body.

A function body's lines are the line numbers that the instructions of each
function, method, lambda, comprehension and generator expression carry
(``co_lines``), less the code object's first line, where its call event
fires: the ``def`` line, or its first decorator.  A nested ``def`` line is
a body line of the function around it.  Module and class bodies run at
import and are not counted.  Docstrings compile to no instruction.  Each
child python that a test starts (the CLI tests start ``python -m
proxikit``) runs under the same tracer: a ``sitecustomize.py`` in a
temporary directory on the child's ``PYTHONPATH`` starts it, and the child
writes its lines to that directory at exit, where they join this
process's.  Hypothesis tests run without a deadline, since tracing slows
every call.

Run from the repository root; extra arguments go to pytest::

    python tests/trace_lines.py
    python tests/trace_lines.py tests/test_harnesses.py

It prints each missed line as ``path:line: source`` and ends with
``missed M of N function-body lines``, then exits with pytest's status.
The whole suite takes a few times its untraced time.
"""
from __future__ import annotations

import atexit
import inspect
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "proxikit"


def body_lines(module: types.CodeType) -> set[int]:
    """The function-body lines of a compiled module."""
    lines: set[int] = set()
    stack = [module]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(
                line for _, _, line in code.co_lines()
                if line is not None and line != code.co_firstlineno
            )
    return lines


# The sitecustomize.py of each child python: import this file and trace.
SITECUSTOMIZE = """\
import sys
sys.path.insert(0, {tests!r})
import trace_lines
del sys.path[0]
trace_lines.trace_child({out!r})
"""


def start_tracing(hits: set[tuple[str, int]]) -> None:
    """Add each (file, line) that runs in the package, in this thread and
    in threads started from now on, to ``hits``."""
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)


def trace_child(out: str) -> None:
    """Trace this child python, and write its lines to ``out`` at exit."""
    hits: set[tuple[str, int]] = set()
    start_tracing(hits)

    def save() -> None:
        sys.settrace(None)
        lines = "".join(f"{line}\t{name}\n" for name, line in hits)
        Path(out, f"{os.getpid()}.hits").write_text(lines)

    atexit.register(save)


def child_hits(out: Path) -> set[tuple[str, int]]:
    """The (file, line) pairs that the children wrote to ``out``."""
    hits = set()
    for path in out.glob("*.hits"):
        for entry in path.read_text().splitlines():
            line, name = entry.split("\t", 1)
            hits.add((name, int(line)))
    return hits


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest in this process; its exit status and the (file, line)
    pairs that ran in the package, here and in the children it started."""
    import pytest
    from hypothesis import settings

    settings.register_profile("trace-lines", deadline=None)
    settings.load_profile("trace-lines")
    hits: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as out:
        site = SITECUSTOMIZE.format(tests=str(ROOT / "tests"), out=out)
        Path(out, "sitecustomize.py").write_text(site)
        os.environ["PYTHONPATH"] = os.pathsep.join((out, os.environ["PYTHONPATH"]))
        start_tracing(hits)
        try:
            # hypothesis is imported before pytest loads it as a plugin
            status = pytest.main([
                "-q", "-p", "no:cacheprovider",
                "-W", "ignore::pytest.PytestAssertRewriteWarning", *pytest_args,
            ])
        finally:
            sys.settrace(None)
            threading.settrace(None)  # type: ignore[arg-type]
        return int(status), hits | child_hits(Path(out))


def main(argv: list[str]) -> int:
    # as the tier-1 command runs: the CLI tests start python -m proxikit
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, src)
    import proxikit

    if Path(proxikit.__file__).resolve().parent != PACKAGE:
        print(f"proxikit was imported from {proxikit.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    status, hits = run_traced(argv or [str(ROOT / "tests")])
    ran: dict[Path, set[int]] = {}
    for name, line in hits:
        ran.setdefault(Path(name).resolve(), set()).add(line)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = body_lines(compile(source, str(path), "exec"))
        unrun = sorted(lines - ran.get(path, set()))
        text = source.splitlines()
        for line in unrun:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        total += len(lines)
        missed += len(unrun)
    print(f"missed {missed} of {total} function-body lines")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
