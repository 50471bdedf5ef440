"""Pytest plugin: list the statements of ``src/radialma`` that no test runs.

Load it with ``-p tools.linemap`` from the repository root::

    PYTHONPATH=src python -m pytest -p tools.linemap

Every line run in-process while the session lasts is recorded with
``sys.settrace`` (and ``threading.settrace``), for the package's files
only.  A statement is one ``ast`` statement; a compound one (``if``,
``for``, ``def``, ...) is its header alone, decorators included, and its
body holds statements of its own.  It counts as run when any of its
lines runs, and it is listed when none does although one of them holds
bytecode (a function's docstring holds none).  Code run in a subprocess
is not seen.  The session fails when any statement is listed.  Only the
standard library is used.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1] / "src" / "radialma"


def _bytecode_lines(code) -> set[int]:
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _bytecode_lines(const)
    return lines


def _statements(tree) -> list[tuple[ast.stmt, range]]:
    """Each statement with the lines it owns: all of a simple one, the
    header of a compound one."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        out.append((node, range(first, max(first, last) + 1)))
    return out


def unrun_statements(path: Path, run: set[int]) -> list[tuple[int, str]]:
    """(line, first source line) of each statement in ``path`` that holds
    bytecode and none of whose lines is in ``run``."""
    source = path.read_text()
    executable = _bytecode_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    gaps = []
    for node, lines in _statements(ast.parse(source)):
        if executable.isdisjoint(lines) or not run.isdisjoint(lines):
            continue
        gaps.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(gaps)


class LineMap:
    def __init__(self, root: Path):
        self.root = root
        self.run: dict[str, set[int]] = {str(p): set() for p in sorted(root.rglob("*.py"))}
        self.gaps: dict[Path, list[tuple[int, str]]] = {}
        # co_filename -> the line set of its mapped file, or None
        self._lines: dict[str, set[int] | None] = {}

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        try:
            lines = self._lines[name]
        except KeyError:
            lines = self._lines[name] = self.run.get(os.path.realpath(name))
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)
        for name, lines in self.run.items():
            gaps = unrun_statements(Path(name), lines)
            if gaps:
                self.gaps[Path(name)] = gaps


_KEY = pytest.StashKey[LineMap]()


def pytest_load_initial_conftests(early_config, parser, args):
    # before the conftests import the package, so its module code is seen
    linemap = LineMap(ROOT)
    early_config.stash[_KEY] = linemap
    linemap.start()


def pytest_sessionfinish(session, exitstatus):
    linemap = session.config.stash.get(_KEY, None)
    if linemap is None:
        return
    linemap.stop()
    if linemap.gaps and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    linemap = config.stash.get(_KEY, None)
    if linemap is None:
        return
    terminalreporter.section("statements no test runs")
    for path, gaps in linemap.gaps.items():
        rel = path.relative_to(linemap.root)
        for line, text in gaps:
            terminalreporter.write_line(f"{rel}:{line}: {text}")
    if not linemap.gaps:
        terminalreporter.write_line(f"every statement under {linemap.root} runs")
