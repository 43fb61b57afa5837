"""Lex-once guard: :func:`~repro.fortran.lexer.classify_line` calls per line.

Every pass of a lint reads the file's memoized
:func:`~repro.fortran.lexer.line_kinds`, so a cold lint classifies each
source line once. This module counts the calls: it rebinds
``classify_line`` in every loaded ``repro`` module that binds it (the
way an outside-in tracer must, since importers hold their own name),
runs a cold ``analyze_codebase(jobs=1)`` and divides by the line count.
The lex-once tests hold every generated code version and the external
corpus to :data:`LIMIT`; a count, not a time, so the gate cannot flake.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from contextlib import contextmanager
from types import ModuleType

from repro.analysis.fortran_lint import analyze_codebase
from repro.analysis.interproc import clear_summary_cache
from repro.fortran import lexer
from repro.fortran.source import Codebase

#: Most ``classify_line`` calls per source line a cold lint may make.
LIMIT = 1.01


@contextmanager
def counting_classify_line() -> Iterator[list[int]]:
    """Count ``classify_line`` calls made inside the block.

    Yields a one-element list holding the running count. Every module
    attribute bound to the original function is rebound to a counting
    wrapper and restored on exit.
    """
    orig = lexer.classify_line
    count = [0]

    def counted(line: str) -> lexer.LineKind:
        count[0] += 1
        return orig(line)

    sites: list[tuple[ModuleType, str]] = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, counted)
                sites.append((mod, attr))
    try:
        yield count
    finally:
        for mod, attr in sites:
            setattr(mod, attr, orig)


def cold_lint_calls_per_line(cb: Codebase) -> float:
    """``classify_line`` calls per line of one cold serial lint of ``cb``.

    Cold as a fresh ``repro lint`` process is: the tree is copied (no lex
    memo) and the interprocedural summary cache is cleared.
    """
    work = cb.copy()
    clear_summary_cache()
    with counting_classify_line() as count:
        analyze_codebase(work, jobs=1)
    return count[0] / max(1, work.total_lines)

