"""Lex once: a cold lint classifies each line one time, the per-file memo
revalidates on every kind of edit, and the first-keyword gate in
``classify_line`` reproduces the regex chain's kinds exactly."""

import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.lexcount import LIMIT, cold_lint_calls_per_line, counting_classify_line
from repro.codes import CodeVersion
from repro.fortran import lexer
from repro.fortran.codebase import generate_mas_codebase
from repro.fortran.frontend import load_external_tree
from repro.fortran.lexer import LineKind, classify_line, line_kinds
from repro.fortran.parser import dc_loops
from repro.fortran.pipeline import build_version
from repro.fortran.source import SourceFile
from repro.fortran.tree_io import load_tree

EXTERNAL = Path(__file__).parent.parent / "fixtures" / "external"


@pytest.fixture(scope="module")
def versions():
    code1 = generate_mas_codebase()
    return {v.name: build_version(v, code1=code1) for v in CodeVersion}


# -- one call per line ---------------------------------------------------------


@pytest.mark.parametrize("tree", [v.name for v in CodeVersion] + ["external"])
def test_cold_lint_classifies_each_line_once(versions, tree):
    cb = load_external_tree(EXTERNAL).codebase if tree == "external" else versions[tree]
    assert cold_lint_calls_per_line(cb) <= LIMIT


def test_counter_sees_calls_through_the_lexer_global():
    f = SourceFile("a.f90", ["x = 1", "call g(x)", ""])
    with counting_classify_line() as count:
        assert line_kinds(f) == (LineKind.STATEMENT, LineKind.CALL, LineKind.BLANK)
        line_kinds(f)
        dc_loops(f)
    assert count == [3]
    assert lexer.classify_line is classify_line  # restored


# -- memo revalidation ---------------------------------------------------------


def test_in_place_edit_recomputes_kinds_and_dc_loops():
    f = SourceFile("a.f90", [
        "do concurrent (i=1:n)", "  a(i) = 0", "enddo", "do i = 1, n", "enddo",
    ])
    assert line_kinds(f)[3] is LineKind.DO
    assert [lp.header for lp in dc_loops(f)] == [0]
    f.lines[3] = "do concurrent (k=1:n)"
    assert line_kinds(f)[3] is LineKind.DO_CONCURRENT
    assert [(lp.header, lp.end) for lp in dc_loops(f)] == [(0, 2), (3, 4)]


def test_append_recomputes_kinds_and_dc_loops():
    f = SourceFile("a.f90", ["do concurrent (i=1:n)", "enddo"])
    assert len(line_kinds(f)) == 2 and len(dc_loops(f)) == 1
    f.lines.append("do concurrent (j=1:m)")
    f.lines.append("enddo")
    assert line_kinds(f)[2:] == (LineKind.DO_CONCURRENT, LineKind.ENDDO)
    assert [lp.indices for lp in dc_loops(f)] == [["i"], ["j"]]


def test_one_snapshot_backs_kinds_and_dc_loops():
    f = SourceFile("a.f90", ["do concurrent (i=1:n)", "enddo"])
    kinds, loops = line_kinds(f), dc_loops(f)
    memo = f.lex_memo
    assert memo is not None
    assert memo.kinds is kinds and memo.dc_loops is loops
    assert memo.lines == f.lines and memo.lines is not f.lines


def test_copy_starts_with_an_empty_memo():
    f = SourceFile("a.f90", ["do concurrent (i=1:n)", "enddo"])
    dc_loops(f)
    g = f.copy()
    assert f.lex_memo is not None and g.lex_memo is None
    assert line_kinds(g) == line_kinds(f)


# -- the keyword gate is exact ---------------------------------------------------

#: SHA-256 of each tree's LineKind sequence (file name, then one kind value
#: per line), recorded with the ungated regex-chain lexer.
KIND_DIGESTS = {
    "CPU": "d01ced49c26ecb733e969ccfc2e04d101b41fdb9acaeb101c7c97e723d1bf1c3",
    "A": "d0ffeb81f7add8708d2ffc59528273733e176229de71e4a52f3544db622dc396",
    "AD": "da585a99a56819f056bbd93fd0dfd7243ed89bca17ab0697948fdddfe496b802",
    "ADU": "7d4e1199bd13477385cef5d543c58c3db8e79f0c6874c3a3a271f81ab793bdfa",
    "AD2XU": "3a48d3a3ff17b80dcbc95a5f954661d63b6db3f192a6d1ffefa7dccef824e86e",
    "D2XU": "46c52c43bcf491c962099c0f661b58cdf14c16231b0d2c7348e2dbcb77b5ae95",
    "D2XAD": "07f5a2297bc0b6debf89b2d935cf3bab471089ec8cdcdaaa9fddacdc02b688fc",
    "external_raw": "3ba696077298e1a148bb9aebf6e26f073e828a062d78644208bae7905802cef2",
    "external_lowered": "e302123d9f674261f14536c2e8ed67ab8871681768cd2b5921b5475442d8a9a8",
}


def _kinds_digest(cb) -> str:
    h = hashlib.sha256()
    for f in cb.files:
        h.update(f.name.encode() + b"\n")
        for kind in line_kinds(f):
            h.update(kind.value.encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("version", [v.name for v in CodeVersion])
def test_generated_version_kinds_match_recorded_digest(versions, version):
    assert _kinds_digest(versions[version]) == KIND_DIGESTS[version]


def test_external_tree_kinds_match_recorded_digests():
    raw = load_tree(EXTERNAL, recursive=True)
    assert _kinds_digest(raw) == KIND_DIGESTS["external_raw"]
    lowered = load_external_tree(EXTERNAL).codebase
    assert _kinds_digest(lowered) == KIND_DIGESTS["external_lowered"]


@pytest.mark.parametrize(
    "line,kind",
    [
        ("      EndDo", LineKind.ENDDO),
        ("      end do ! c", LineKind.ENDDO),
        ("      do ! forever", LineKind.DO),
        ("dowhile (x > 0)", LineKind.DO),
        ("      do100 = 1", LineKind.STATEMENT),  # leading word "do": regex chain
        ("do_x = 1", LineKind.STATEMENT),
        ("double precision function f(x)", LineKind.FUNCTION_START),
        ("type(t) function f(x)", LineKind.FUNCTION_START),
        ("realfunction f(x)", LineKind.FUNCTION_START),
        ("elemental real function f(x)", LineKind.FUNCTION_START),
        ("(8) function f(x)", LineKind.FUNCTION_START),
        ("(kind=8) function f(x)", LineKind.STATEMENT),  # "=" before function
        ("character(len=*) function name(x)", LineKind.STATEMENT),
        ("module procedure p", LineKind.MODULE_START),
        ("recurſive subroutine s", LineKind.SUBROUTINE_START),  # re.I folds ſ
        ("ſubroutine s(x)", LineKind.SUBROUTINE_START),
        ("endsubroutine s", LineKind.STATEMENT),
        ("end interface", LineKind.STATEMENT),
        ("real :: x", LineKind.STATEMENT),
        ("100 continue", LineKind.STATEMENT),
        ("CALL foo(x)", LineKind.CALL),
        ("  contains  ", LineKind.CONTAINS),
        ("x = f(function)", LineKind.STATEMENT),
        ("!$ACC parallel", LineKind.DIRECTIVE),
        ("\t", LineKind.BLANK),
    ],
)
def test_gate_edge_cases(line, kind):
    assert classify_line(line) is kind


_FRAGMENTS = st.sampled_from([
    "do", "DO", "end", "enddo", "while", "concurrent", "subroutine", "function",
    "module", "procedure", "contains", "call", "pure", "impure", "elemental",
    "recursive", "real", "integer", "logical", "complex", "double", "precision",
    "character", "type", "x", "i", "100", "_", " ", "  ", "\t", "(", ")", "=",
    ",", "!", "*", ":", "\u017f", "\u212a", "\u0131", "\u00e9", "\u3000",
])


@settings(max_examples=400, deadline=None)
@given(st.lists(_FRAGMENTS, min_size=1, max_size=8).map("".join))
def test_gate_agrees_with_the_regex_chain(line):
    code = line.lstrip()
    if code and code[0] != "!":
        assert classify_line(line) is lexer._classify_code(line)
