"""Line-level classification of the Fortran subset the transforms touch."""

from __future__ import annotations

import enum
import re

from repro.fortran.directives import is_directive_line


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


def classify_line(line: str) -> LineKind:
    """Classify one line of the Fortran subset."""
    if not line.strip():
        return LineKind.BLANK
    if is_directive_line(line):
        return LineKind.DIRECTIVE
    if line.lstrip().startswith("!"):
        return LineKind.COMMENT
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
