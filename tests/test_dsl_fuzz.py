"""A boundary fuzzer for the DSL, seeded and small.

Each example is a golden .jf document with a few edits: pieces of the
grammar (and some characters outside it) inserted or substituted, short
spans deleted, whole lines copied.  Whatever the edits, every document
subcommand exits 0 or 2, never with a traceback, and a rejected document
is reported as a located parse error.  A document that parses loses no
declaration in its canonical print, which reprints to itself after one
more parse."""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from jetforge.cli import main  # noqa: E402
from jetforge.dsl import _KIND_OF, _TOKEN, _tokenize, parse_document, print_document  # noqa: E402
from jetforge.errors import ParseError  # noqa: E402

DOCUMENTS = [p.read_text() for p in sorted((Path(__file__).parent / "golden").glob("*.jf"))]
PIECES = ["ring", "grade", "ideal", "module", "rank", "relation", "morphism", "Q", "F2", "F4",
          "x", "y", "u", "e1", "e3", "0", "1", "12", "[", "]", ",", ":", "=", "->", "+", "-",
          "*", "/", "^", "(", ")", " ", "\t", "\n", "#", "_", "$", ""]
# every subcommand that reads a document, at levels at most 1
COMMANDS = [["jet", "--n", "1"], ["jet2", "--n", "1", "--m", "1"], ["module", "--n", "1"],
            ["omega"], ["omega", "--n", "1"], ["sym"], ["morphism", "--n", "1"]]
_KEYWORD = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*)")


def _declarations(text, keyword):
    """The number of lines of text that declare keyword."""
    heads = (_KEYWORD.match(line.split("#", 1)[0]) for line in text.splitlines())
    return sum(1 for m in heads if m and m.group(1) == keyword)


@st.composite
def mutated_documents(draw):
    text = draw(st.sampled_from(DOCUMENTS))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 3)))
            text = text[:i] + draw(st.sampled_from(PIECES)) + text[j:]
        else:
            lines = text.splitlines(keepends=True) or [""]
            line = draw(st.sampled_from(lines))
            lines.insert(draw(st.integers(0, len(lines))), line)
            text = "".join(lines)
    return text


def _run(argv, text):
    err = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["-"])
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


@seed(20261018)
@settings(max_examples=100, deadline=None, database=None)
@given(mutated_documents())
def test_mutated_documents_exit_0_or_2(text):
    try:
        printed = print_document(parse_document(text))
    except ParseError:
        printed = None
    else:
        assert print_document(parse_document(printed)) == printed
        for keyword in ("ring", "ideal", "module", "relation", "morphism"):
            assert _declarations(printed, keyword) == _declarations(text, keyword), keyword
        # the printer states a degree for every variable once one is graded
        assert _declarations(printed, "grade") >= _declarations(text, "grade")
    for argv in COMMANDS:
        code, err = _run(argv, text)
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err
        if printed is None:
            assert err.startswith("parse error: line "), (argv, err)


def _assert_token_texts_agree(text):
    """parse_document reads each line as the texts findall gives, and looks
    for an unexpected character only at the first character of the last
    one; _tokenize, which locates errors, must find the same tokens."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        texts = _TOKEN.findall(line)
        try:
            located = _tokenize(line, 1)
        except ParseError:
            assert texts[-1][0] not in _KIND_OF, line
        else:
            assert texts == [tok[1] for tok in located[:-1]], line
            assert not texts or texts[-1][0] in _KIND_OF, line


def test_golden_token_texts_match_tokenize():
    for text in DOCUMENTS:
        _assert_token_texts_agree(text)


@seed(20261018)
@settings(max_examples=100, deadline=None, database=None)
@given(mutated_documents())
def test_mutated_token_texts_match_tokenize(text):
    _assert_token_texts_agree(text)
