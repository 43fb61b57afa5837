"""Source containers: files and whole codebases."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.fortran.lexer import LexMemo


@dataclass(slots=True)
class SourceFile:
    """One Fortran source file as a list of text lines."""

    name: str
    lines: list[str] = field(default_factory=list)
    #: Memo of :func:`repro.fortran.lexer.lex`: line kinds and the
    #: ``do concurrent`` index, keyed on one snapshot of ``lines``.
    lex_memo: LexMemo | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("source file needs a name")
        for ln in self.lines:
            if "\n" in ln:
                raise ValueError("lines must not contain embedded newlines")

    @property
    def line_count(self) -> int:
        """Number of lines."""
        return len(self.lines)

    def text(self) -> str:
        """Full file content."""
        return "\n".join(self.lines) + "\n"

    def copy(self) -> "SourceFile":
        """Deep copy."""
        return SourceFile(self.name, list(self.lines))


@dataclass(slots=True)
class Codebase:
    """A whole source tree (ordered list of files)."""

    name: str
    files: list[SourceFile] = field(default_factory=list)

    @property
    def total_lines(self) -> int:
        """Total line count across files (Table I's 'Total Lines')."""
        return sum(f.line_count for f in self.files)

    def file(self, name: str) -> SourceFile:
        """Look up a file by name."""
        for f in self.files:
            if f.name == name:
                return f
        raise KeyError(f"no file {name!r} in codebase {self.name!r}")

    def copy(self, name: str | None = None) -> "Codebase":
        """Deep copy, optionally renamed."""
        return Codebase(name or self.name, [f.copy() for f in self.files])

    def iter_lines(self):
        """Yield (file, index, line) over the whole tree."""
        for f in self.files:
            for i, ln in enumerate(f.lines):
                yield f, i, ln
