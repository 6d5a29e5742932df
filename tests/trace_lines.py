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
import and are not counted.  Docstrings compile to no instruction.  Lines
that run only in a subprocess (the CLI tests that start ``python -m
proxikit``) count as missed.  Hypothesis tests run without a deadline,
since tracing slows every call.

Run from the repository root; extra arguments go to pytest::

    python tests/trace_lines.py
    python tests/trace_lines.py tests/test_harnesses.py

It prints each missed line as ``path:line: source`` and ends with
``missed M of N function-body lines``, then exits with pytest's status.
The whole suite takes a few times its untraced time.
"""
from __future__ import annotations

import inspect
import os
import sys
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


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest in this process; its exit status and the (file, line)
    pairs that ran in the package."""
    import pytest
    from hypothesis import settings

    prefix = str(PACKAGE)
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    settings.register_profile("trace-lines", deadline=None)
    settings.load_profile("trace-lines")
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        # hypothesis is imported before pytest loads it as a plugin
        status = pytest.main([
            "-q", "-p", "no:cacheprovider",
            "-W", "ignore::pytest.PytestAssertRewriteWarning", *pytest_args,
        ])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    return int(status), hits


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
