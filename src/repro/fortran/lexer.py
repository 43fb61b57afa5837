"""Line-level classification of the Fortran subset the transforms touch.

Each file is classified once: :func:`line_kinds` memoizes the kinds of a
:class:`~repro.fortran.source.SourceFile` against a snapshot of its lines,
and every pass reads that tuple instead of re-lexing.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.fortran.directives import is_directive_line

if TYPE_CHECKING:
    from repro.fortran.source import SourceFile


class LineKind(enum.Enum):
    """What a source line structurally is."""

    BLANK = "blank"
    COMMENT = "comment"
    DIRECTIVE = "directive"
    DO = "do"
    DO_CONCURRENT = "do_concurrent"
    ENDDO = "enddo"
    SUBROUTINE_START = "subroutine_start"
    SUBROUTINE_END = "subroutine_end"
    FUNCTION_START = "function_start"
    FUNCTION_END = "function_end"
    MODULE_START = "module_start"
    MODULE_END = "module_end"
    CONTAINS = "contains"
    CALL = "call"
    STATEMENT = "statement"


_DO_CONCURRENT = re.compile(r"^\s*do\s+concurrent\b", re.I)
_DO = re.compile(r"^\s*do\s+\w+\s*=", re.I)
#: ``do while (...)`` and the bare ``do`` infinite loop: not parallelizable
#: nests, but they end in ``enddo`` so the loop matcher
#: (:func:`repro.fortran.parser.match_enddo`) must count them.
#: (Labeled ``do 100 i=...`` loops terminate on their label, not ``enddo``,
#: and stay invisible -- both the header and the terminator.)
_DO_OTHER = re.compile(r"^\s*do\s*(while\b[^!]*)?(!.*)?$", re.I)
_ENDDO = re.compile(r"^\s*end\s*do\b", re.I)
#: Procedure prefixes: any combination of purity/recursion attributes
#: (``pure elemental subroutine``, ``impure elemental function`` ...).
_PREFIXES = r"(?:(?:pure|impure|elemental|recursive)\s+)*"
_SUB_START = re.compile(rf"^\s*({_PREFIXES})subroutine\s+(\w+)", re.I)
_SUB_END = re.compile(r"^\s*end\s+subroutine\b", re.I)
_FUN_START = re.compile(
    rf"^\s*({_PREFIXES})"
    r"(real|integer|logical|complex|double\s+precision|character|type)?"
    r"\s*(\([^)]*\))?\s*function\s+(\w+)",
    re.I,
)
_FUN_END = re.compile(r"^\s*end\s+function\b", re.I)
_MOD_START = re.compile(r"^\s*module\s+(\w+)", re.I)
_MOD_END = re.compile(r"^\s*end\s+module\b", re.I)
_CONTAINS = re.compile(r"^\s*contains\s*$", re.I)
_CALL = re.compile(r"^\s*call\s+(\w+)", re.I)


#: Every leading word (``[A-Za-z]*`` run, lowercased) a line matching one
#: of the regexes above can start with. The compounds are the spellings the
#: optional whitespace admits: ``dowhile``, ``enddo`` and a type word glued
#: to ``function`` (``realfunction f``).
_TYPE_WORDS = ("real", "integer", "logical", "complex", "character", "type")
_KEYWORDS = frozenset({
    "do", "dowhile", "end", "enddo", "subroutine", "function", "module",
    "contains", "call", "pure", "impure", "elemental", "recursive", "double",
    *_TYPE_WORDS, *(f"{w}function" for w in _TYPE_WORDS),
})
_LEADING_WORD = re.compile(r"[A-Za-z]*")


def classify_line(line: str) -> LineKind:
    """Classify one line of the Fortran subset.

    A first-keyword gate answers most lines without the regex chain: an
    ASCII line whose leading word is none of :data:`_KEYWORDS` matches no
    regex, so it is a plain statement. Non-ASCII lines always take the
    chain, because ``re.I`` folds ``ſ`` to ``s`` and the Kelvin sign to
    ``k`` (``recurſive subroutine s`` is a subroutine start).
    """
    code = line.lstrip()
    if not code:
        return LineKind.BLANK
    if code[0] == "!":
        return LineKind.DIRECTIVE if is_directive_line(line) else LineKind.COMMENT
    if code.isascii():
        word = _LEADING_WORD.match(code).group()  # type: ignore[union-attr]
        if word and word.lower() not in _KEYWORDS:
            return LineKind.STATEMENT
    return _classify_code(line)


def _classify_code(line: str) -> LineKind:
    """The regex chain for a non-blank line that is not a comment."""
    if _DO_CONCURRENT.match(line):
        return LineKind.DO_CONCURRENT
    if _DO.match(line):
        return LineKind.DO
    if _DO_OTHER.match(line):
        return LineKind.DO
    if _ENDDO.match(line):
        return LineKind.ENDDO
    if _SUB_END.match(line):
        return LineKind.SUBROUTINE_END
    if _SUB_START.match(line):
        return LineKind.SUBROUTINE_START
    if _FUN_END.match(line):
        return LineKind.FUNCTION_END
    if _MOD_END.match(line):
        return LineKind.MODULE_END
    if _MOD_START.match(line):
        return LineKind.MODULE_START
    if _FUN_START.match(line) and "=" not in line.split("!")[0].split("function")[0]:
        return LineKind.FUNCTION_START
    if _CONTAINS.match(line):
        return LineKind.CONTAINS
    if _CALL.match(line):
        return LineKind.CALL
    return LineKind.STATEMENT


def subroutine_name(line: str) -> str | None:
    """Name of a subroutine-start line, else None."""
    m = _SUB_START.match(line)
    return m.group(2) if m else None


def called_name(line: str) -> str | None:
    """Callee of a ``call`` statement line, else None."""
    m = _CALL.match(line)
    return m.group(1) if m else None


@dataclass(slots=True)
class LexMemo:
    """Per-file lexing facts, valid while the file's lines equal ``lines``."""

    lines: list[str]
    kinds: tuple[LineKind, ...]
    #: :func:`repro.fortran.parser.dc_loops`, filled on first use.
    dc_loops: tuple | None = None


def lex(file: SourceFile) -> LexMemo:
    """The file's lexing memo, recomputed whenever its lines changed.

    One snapshot of the lines backs every memoized fact, so an in-place
    edit, an append or a replaced list all invalidate the kinds and the
    ``do concurrent`` index together.
    """
    memo = file.lex_memo
    if memo is not None and memo.lines == file.lines:
        return memo
    lines = list(file.lines)
    memo = LexMemo(lines, tuple(map(classify_line, lines)))
    file.lex_memo = memo
    return memo


def line_kinds(file: SourceFile) -> tuple[LineKind, ...]:
    """:class:`LineKind` of every line of ``file``, classified once."""
    return lex(file).kinds
