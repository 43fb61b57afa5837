"""Structural parser: finds the regions the porting passes rewrite.

Works on any code in the canonical MAS-like subset: OpenACC parallel
regions wrapping do-loop nests, kernels regions, data/routine/wait
directives with their continuation lines, and subroutine blocks.

Loop structure is decided here and nowhere else: :func:`match_enddo` is
the one do/enddo matcher, :func:`dc_loops` the one per-file index of
``do concurrent`` loops (headers split once), and combined
``parallel loop``/``kernels loop`` constructs share one parser. Every
scan reads the file's memoized :func:`~repro.fortran.lexer.line_kinds`
rather than classifying lines itself.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.fortran.directives import (
    AccDirective,
    DirectiveKind,
    parse_directive,
    try_parse_directive,
)
from repro.fortran.lexer import LineKind, lex, line_kinds, subroutine_name
from repro.fortran.source import Codebase, SourceFile


class RegionKind(enum.Enum):
    """How a parallel region ports to DC (the SIV taxonomy)."""

    PLAIN = "plain"
    SCALAR_REDUCTION = "scalar_reduction"
    ARRAY_REDUCTION = "array_reduction"
    ATOMIC_OTHER = "atomic_other"
    ROUTINE_CALLER = "routine_caller"


@dataclass(slots=True)
class LoopNest:
    """A nest of ``do`` lines inside a region: [start, end] inclusive."""

    start: int
    end: int
    depth: int
    index_vars: list[str]
    bounds: list[str]

    @property
    def body_range(self) -> tuple[int, int]:
        """[first, last] line indices of the nest body."""
        return (self.start + self.depth, self.end - self.depth)


@dataclass(slots=True)
class ParallelRegion:
    """One ``!$acc parallel`` ... ``!$acc end parallel`` region."""

    file: SourceFile
    start: int  # index of the parallel directive line
    end: int    # index of the end parallel line
    kind: RegionKind
    loops: list[LoopNest] = field(default_factory=list)
    directive_lines: list[int] = field(default_factory=list)  # acc lines inside [start, end]
    atomic_lines: list[int] = field(default_factory=list)


@dataclass(slots=True)
class KernelsRegion:
    """One ``!$acc kernels`` ... ``!$acc end kernels`` region."""

    file: SourceFile
    start: int
    end: int


@dataclass(slots=True)
class DirectiveLine:
    """One standalone directive plus its continuation lines."""

    file: SourceFile
    index: int
    directive: AccDirective
    continuations: list[int] = field(default_factory=list)

    @property
    def all_lines(self) -> list[int]:
        """Directive line plus continuations."""
        return [self.index, *self.continuations]


@dataclass(slots=True)
class SubroutineBlock:
    """A subroutine from its start line to ``end subroutine``."""

    file: SourceFile
    start: int
    end: int
    name: str


_DO_RE = re.compile(r"^\s*do\s+(\w+)\s*=\s*(.+)$", re.I)
_ARRAY_ACCUM_RE = re.compile(r"^\s*\w+\(\w+\)\s*=\s*\w+\(\w+\)\s*\+")

# -- procedure headers and declarations ---------------------------------------

_HEADER_RE = re.compile(
    r"^\s*(?P<prefix>(?:(?:pure|impure|elemental|recursive)\s+)*)"
    r"(?:(?:real|integer|logical|complex|double\s+precision|character|type)"
    r"\s*(?:\([^)]*\))?\s+)?"
    r"(?P<kind>subroutine|function)\s+(?P<name>\w+)\s*"
    r"(?:\((?P<args>[^)]*)\))?"
    r"(?:\s*result\s*\(\s*(?P<result>\w+)\s*\))?",
    re.I,
)
_TYPE_DECL_RE = re.compile(
    r"^\s*(?:real|integer|logical|complex|double\s+precision|character"
    r"|type\s*\(\s*\w+\s*\))\s*(?:\([^)]*\))?\s*"
    r"(?P<attrs>(?:\s*,\s*[\w()=:,+\-* ]+?)*)\s*::\s*(?P<names>.+)$",
    re.I,
)
_INTENT_RE = re.compile(r"\bintent\s*\(\s*(in\s*out|inout|in|out)\s*\)", re.I)


@dataclass(frozen=True, slots=True)
class ProcedureHeader:
    """Parsed ``subroutine``/``function`` start line."""

    name: str
    kind: str                   # "subroutine" | "function"
    prefixes: tuple[str, ...]   # pure/impure/elemental/recursive, lowercased
    dummies: tuple[str, ...]    # dummy argument names, lowercased
    result: str = ""            # result variable of a function ("" = name)

    @property
    def declared_pure(self) -> bool:
        """Declared ``pure`` (or ``elemental``, which implies pure unless
        explicitly ``impure elemental``)."""
        if "impure" in self.prefixes:
            return False
        return "pure" in self.prefixes or "elemental" in self.prefixes


def parse_procedure_header(line: str) -> ProcedureHeader | None:
    """Parse a procedure start line into its header, else None."""
    m = _HEADER_RE.match(line)
    if m is None:
        return None
    prefixes = tuple(m.group("prefix").lower().split())
    args = m.group("args") or ""
    dummies = tuple(
        a.strip().lower() for a in args.split(",") if a.strip()
    )
    kind = m.group("kind").lower()
    result = (m.group("result") or "").lower()
    if kind == "function" and not result:
        result = m.group("name").lower()
    return ProcedureHeader(
        name=m.group("name").lower(), kind=kind,
        prefixes=prefixes, dummies=dummies,
        result=result if kind == "function" else "",
    )


def declared_entities(line: str) -> tuple[str, ...]:
    """Entity names a type-declaration line declares (lowercased).

    ``real(r_typ), dimension(n), intent(in) :: x, y(3) = 0`` yields
    ``("x", "y")``; non-declaration lines yield ``()``.
    """
    m = _TYPE_DECL_RE.match(line.split("!", 1)[0])
    if m is None:
        return ()
    names: list[str] = []
    depth = 0
    token = ""
    for ch in m.group("names") + ",":
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch == "," and depth == 0:
            head = token.split("=")[0].strip()
            ident = re.match(r"[A-Za-z_]\w*", head)
            if ident:
                names.append(ident.group(0).lower())
            token = ""
            continue
        token += ch
    return tuple(names)


def declared_intent(line: str) -> str:
    """The ``intent(...)`` a declaration line carries ("" when none)."""
    m = _INTENT_RE.search(line.split("!", 1)[0])
    if m is None:
        return ""
    return re.sub(r"\s+", "", m.group(1).lower())


def _continuations(
    lines: list[str], kinds: Sequence[LineKind], idx: int
) -> list[int]:
    """Indices of ``!$acc&`` lines directly following ``idx``."""
    out = []
    j = idx + 1
    while j < len(lines) and kinds[j] is LineKind.DIRECTIVE:
        d = try_parse_directive(lines[j])
        if d is None or d.kind is not DirectiveKind.CONTINUATION:
            break
        out.append(j)
        j += 1
    return out


def match_enddo(kinds: Sequence[LineKind], start: int) -> int | None:
    """Index of the ``enddo`` closing the loop opened at ``start``, else None.

    The one do/enddo level matcher: every structural question about where
    a loop ends is answered here. ``kinds`` are the file's
    :func:`line_kinds`, and ``kinds[start]`` must open a loop. Every loop
    form the lexer sees counts toward nesting -- counted ``do``,
    ``do concurrent``, ``do while``, bare ``do`` -- and ``end do`` closes
    like ``enddo``; labeled ``do 100`` loops stay invisible (see the lexer).
    """
    level = 1
    for i in range(start + 1, len(kinds)):
        kind = kinds[i]
        if kind is LineKind.DO or kind is LineKind.DO_CONCURRENT:
            level += 1
        elif kind is LineKind.ENDDO:
            level -= 1
            if level == 0:
                return i
    return None


def parse_loop_nest(
    lines: list[str], kinds: Sequence[LineKind], start: int
) -> LoopNest | None:
    """Parse a rectangular ``do`` nest beginning at ``start``; ``kinds``
    are the lines' kinds, as for :func:`match_enddo`."""
    idx_vars: list[str] = []
    bounds: list[str] = []
    i = start
    while i < len(lines):
        m = _DO_RE.match(lines[i])
        if m is None:
            break
        idx_vars.append(m.group(1))
        bounds.append(m.group(2).strip())
        i += 1
    if not idx_vars:
        return None
    end = match_enddo(kinds, start)
    if end is None:
        raise ValueError(f"unterminated do nest at line {start}")
    return LoopNest(
        start=start, end=end, depth=len(idx_vars), index_vars=idx_vars, bounds=bounds
    )


def split_paren_args(text: str) -> tuple[str, str]:
    """Split ``head (args) trailing`` at its first balanced parenthesis
    group into ``(args, trailing)``; ValueError when there is none."""
    start = text.index("(")
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[start + 1 : i], text[i + 1 :]
    raise ValueError(f"no balanced parenthesis group in {text!r}")


class DcHeaderError(ValueError):
    """A ``do concurrent`` header without a splittable index list."""


@dataclass(frozen=True, slots=True)
class DcLoop:
    """One ``do concurrent`` loop: header and closing ``enddo`` lines plus
    the header split once into its index list and trailing clauses."""

    header: int
    end: int
    args: str       # inside the header parentheses: ``i=1:n, j=1:m``
    trailing: str   # after them: ``reduce(+:s) local(t)``

    @property
    def specs(self) -> list[str]:
        """The index specs (``i=1:n``), stripped."""
        return [p.strip() for p in self.args.split(",") if p.strip()]

    @property
    def indices(self) -> list[str]:
        """Index variable names, lowercased."""
        names = (p.split("=")[0].strip().lower() for p in self.specs)
        return [n for n in names if n]


def dc_loops(file: SourceFile) -> tuple[DcLoop, ...]:
    """Every ``do concurrent`` loop of ``file``, nested ones included, in
    header order.

    Raises ValueError naming the culprit line for a header that cannot be
    split (:class:`DcHeaderError`) or a loop without its ``enddo``; the
    front end neutralizes both. The index is memoized on the file's lex
    memo and recomputed whenever its lines change, so the passes of one
    lint share a single lexing of each file.
    """
    memo = lex(file)
    if memo.dc_loops is not None:
        return memo.dc_loops
    lines, kinds = memo.lines, memo.kinds
    out = []
    for i, kind in enumerate(kinds):
        if kind is not LineKind.DO_CONCURRENT:
            continue
        try:
            args, trailing = split_paren_args(lines[i])
        except ValueError:
            raise DcHeaderError(
                f"unsupported do concurrent header in {file.name} at {i}"
            ) from None
        end = match_enddo(kinds, i)
        if end is None:
            raise ValueError(f"unterminated do concurrent in {file.name} at {i}")
        out.append(DcLoop(i, end, args, trailing))
    loops = memo.dc_loops = tuple(out)
    return loops


def enclosing_dc_loop(file: SourceFile, li: int) -> DcLoop | None:
    """Innermost ``do concurrent`` loop whose span contains line ``li``."""
    best = None
    for loop in dc_loops(file):
        if loop.header > li:
            break
        if loop.end >= li:
            best = loop
    return best


def _classify_region(
    lines: list[str],
    kinds: Sequence[LineKind],
    start: int,
    end: int,
    directive_lines: list[int],
    atomic_lines: list[int],
) -> RegionKind:
    for i in directive_lines:
        d = parse_directive(lines[i])
        if d.kind is DirectiveKind.PARALLEL_LOOP and d.has_clause("reduction"):
            return RegionKind.SCALAR_REDUCTION
    if atomic_lines:
        for i in atomic_lines:
            j = i + 1
            if j <= end and _ARRAY_ACCUM_RE.match(lines[j]):
                return RegionKind.ARRAY_REDUCTION
        return RegionKind.ATOMIC_OTHER
    if LineKind.CALL in kinds[start : end + 1]:
        return RegionKind.ROUTINE_CALLER
    return RegionKind.PLAIN


def _combined_construct(
    file: SourceFile, kinds: Sequence[LineKind], start: int, kind: DirectiveKind
) -> tuple[LoopNest, int]:
    """The nest a combined ``parallel loop``/``kernels loop`` construct at
    ``start`` governs, and the construct's last line.

    The construct spans the directive (plus ``!$acc&`` continuations) and
    the loop nest it governs; an explicit ``end`` directive of the same
    kind directly after the nest is absorbed when present (it is optional
    in real OpenACC). Raises ValueError when no loop nest follows -- the
    front end degrades such constructs to opaque lines.
    """
    lines = file.lines
    j = start + 1
    while j < len(lines):
        line_kind = kinds[j]
        if line_kind is LineKind.DIRECTIVE and (
            parse_directive(lines[j]).kind is DirectiveKind.CONTINUATION
        ):
            j += 1
        elif line_kind in (LineKind.BLANK, LineKind.COMMENT):
            j += 1
        else:
            break
    nest = parse_loop_nest(lines, kinds, j) if j < len(lines) else None
    if nest is None:
        raise ValueError(
            f"combined construct without a loop nest in {file.name} at {start}"
        )
    end = nest.end
    k = end + 1
    if k < len(lines) and kinds[k] is LineKind.DIRECTIVE:
        dk = parse_directive(lines[k])
        if dk.kind is kind and dk.is_region_end:
            end = k
    return nest, end


def _block_end(
    file: SourceFile, kinds: Sequence[LineKind], start: int, kind: DirectiveKind
) -> int:
    """Line of the ``end`` directive closing the block region at ``start``."""
    lines = file.lines
    for j in range(start + 1, len(lines)):
        if kinds[j] is LineKind.DIRECTIVE:
            dj = parse_directive(lines[j])
            if dj.kind is kind and dj.is_region_end:
                return j
    what = kind.name.split("_")[0].lower()  # "parallel" | "kernels"
    raise ValueError(f"unterminated {what} region in {file.name} at {start}")


def find_parallel_regions(file: SourceFile) -> list[ParallelRegion]:
    """All parallel regions in a file, classified and with their loops."""
    lines = file.lines
    kinds = line_kinds(file)
    regions: list[ParallelRegion] = []
    i = 0
    while i < len(lines):
        if kinds[i] is not LineKind.DIRECTIVE:
            i += 1
            continue
        d = parse_directive(lines[i])
        if d.kind is not DirectiveKind.PARALLEL_LOOP or not (
            d.is_combined_construct or d.is_region_start
        ):
            i += 1
            continue
        start = i
        if d.is_combined_construct:
            nest, end = _combined_construct(
                file, kinds, start, DirectiveKind.PARALLEL_LOOP
            )
            loops = [nest]
        else:
            end = _block_end(file, kinds, start, DirectiveKind.PARALLEL_LOOP)
            loops = []
            k = start + 1
            while k < end:
                if kinds[k] is LineKind.DO:
                    nest = parse_loop_nest(lines, kinds, k)
                    if nest is not None and nest.end < end:
                        loops.append(nest)
                        k = nest.end + 1
                        continue
                k += 1
        directive_lines = [
            k for k in range(start, end + 1) if kinds[k] is LineKind.DIRECTIVE
        ]
        atomic_lines = [
            k for k in directive_lines
            if parse_directive(lines[k]).kind is DirectiveKind.ATOMIC
        ]
        regions.append(
            ParallelRegion(
                file=file,
                start=start,
                end=end,
                kind=_classify_region(
                    lines, kinds, start, end, directive_lines, atomic_lines
                ),
                loops=loops,
                directive_lines=directive_lines,
                atomic_lines=atomic_lines,
            )
        )
        i = end + 1
    return regions


def find_kernels_regions(file: SourceFile) -> list[KernelsRegion]:
    """All ``!$acc kernels`` regions in a file."""
    lines = file.lines
    kinds = line_kinds(file)
    out = []
    i = 0
    while i < len(lines):
        if kinds[i] is LineKind.DIRECTIVE:
            d = parse_directive(lines[i])
            if d.kind is DirectiveKind.KERNELS and not d.is_region_end:
                if d.is_combined_construct:
                    _, end = _combined_construct(file, kinds, i, DirectiveKind.KERNELS)
                else:
                    end = _block_end(file, kinds, i, DirectiveKind.KERNELS)
                out.append(KernelsRegion(file, i, end))
                i = end
        i += 1
    return out


def find_directive_lines(
    file: SourceFile, *kinds: DirectiveKind
) -> list[DirectiveLine]:
    """Standalone directives of the given kinds, with continuations."""
    wanted = set(kinds)
    lexed = line_kinds(file)
    out = []
    for i, ln in enumerate(file.lines):
        if lexed[i] is not LineKind.DIRECTIVE:
            continue
        d = parse_directive(ln)
        if d.kind in wanted and d.kind is not DirectiveKind.CONTINUATION:
            out.append(DirectiveLine(
                file, i, d, continuations=_continuations(file.lines, lexed, i)
            ))
    return out


def find_subroutines(file: SourceFile, name_pattern: str | None = None) -> list[SubroutineBlock]:
    """Subroutine blocks, optionally filtered by a name regex."""
    pat = re.compile(name_pattern) if name_pattern else None
    out = []
    start = None
    name = None
    for i, (ln, kind) in enumerate(zip(file.lines, line_kinds(file))):
        if kind is LineKind.SUBROUTINE_START and start is None:
            start = i
            name = subroutine_name(ln)
        elif kind is LineKind.SUBROUTINE_END and start is not None:
            assert name is not None
            if pat is None or pat.search(name):
                out.append(SubroutineBlock(file, start, i, name))
            start, name = None, None
    return out


def apply_edits(
    file: SourceFile, edits: list[tuple[int, int, list[str]]]
) -> None:
    """Apply (start, end_inclusive, replacement) edits to a file in place.

    Edits must not overlap; they are applied bottom-up so indices stay
    valid.
    """
    edits = sorted(edits, key=lambda e: e[0], reverse=True)
    last_start = None
    for start, end, replacement in edits:
        if end < start:
            raise ValueError("edit end before start")
        if last_start is not None and end >= last_start:
            raise ValueError("overlapping edits")
        file.lines[start : end + 1] = replacement
        last_start = start


def all_parallel_regions(cb: Codebase) -> list[ParallelRegion]:
    """Parallel regions across the whole codebase."""
    out = []
    for f in cb.files:
        out.extend(find_parallel_regions(f))
    return out
