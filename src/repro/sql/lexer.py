"""Hand-written SQL lexer.

Produces a flat token stream with character offsets, which the parser and
binder thread through to :class:`~repro.errors.SqlError` for caret-position
diagnostics.  The lexer understands:

* identifiers (``[A-Za-z_][A-Za-z0-9_]*``), with SQL keywords recognized
  case-insensitively and canonicalized to upper case;
* integer and float literals (optional fraction and exponent);
* single-quoted string literals with ``''`` as the embedded-quote escape;
* the operator/punctuation set ``( ) , . ; * = <> != < <= > >=``;
* ``-- line`` and ``/* block */`` comments (skipped), including the
  ``-- name: <query_name>`` directive surfaced to the front end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.errors import SqlError

#: Reserved words recognized case-insensitively.
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "AS", "BETWEEN", "IN",
        "LIKE", "IS", "NULL", "EXPLAIN", "ANALYZE", "COUNT", "SUM", "MIN",
        "MAX", "AVG",
    }
)

#: Aggregate-function keywords (a subset of :data:`KEYWORDS`).
AGGREGATE_KEYWORDS = frozenset({"COUNT", "SUM", "MIN", "MAX", "AVG"})

#: Token kinds.
IDENT = "ident"
KEYWORD = "keyword"
NUMBER = "number"
STRING = "string"
SYMBOL = "symbol"
EOF = "eof"

#: Multi-character symbols first so maximal munch wins.
_SYMBOLS = ("<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ".", ";", "*")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")

#: ``-- name: <query_name>`` comment directive (sets the default query name).
NAME_DIRECTIVE_RE = re.compile(r"--\s*name:\s*([A-Za-z_][A-Za-z0-9_.-]*)")


@dataclass(frozen=True)
class Token:
    """One lexed token: kind, canonical text, decoded value, source offset."""

    kind: str
    text: str
    value: Union[int, float, str, None]
    pos: int

    def is_keyword(self, *names: str) -> bool:
        """True when this token is one of the given (upper-case) keywords."""
        return self.kind == KEYWORD and self.text in names

    def is_symbol(self, *symbols: str) -> bool:
        """True when this token is one of the given punctuation symbols."""
        return self.kind == SYMBOL and self.text in symbols


def _scan_trivia(source: str, i: int) -> "tuple[int, List[tuple[int, int]]]":
    """Skip whitespace and comments starting at ``i``.

    Returns ``(next_token_index, comment_spans)`` where each span is the
    ``(start, end)`` offsets of one skipped comment.  This is the *single*
    definition of the trivia syntax — :func:`tokenize` and
    :func:`default_name` both consume it, so comment rules can never drift
    between the lexer and the directive scanner.  Raises on an unterminated
    block comment.
    """
    spans: List[tuple[int, int]] = []
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if source.startswith("--", i):
            end = source.find("\n", i)
            end = n if end == -1 else end
            spans.append((i, end))
            i = end + 1 if end < n else n
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise SqlError("unterminated block comment", source, i)
            spans.append((i, end + 2))
            i = end + 2
            continue
        break
    return i, spans


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into a token list ending with an EOF token.

    Raises :class:`~repro.errors.SqlError` (with caret position) on any
    character the grammar cannot start a token with, and on unterminated
    strings or block comments.
    """
    tokens: List[Token] = []
    i, n = 0, len(source)
    while i < n:
        i, _ = _scan_trivia(source, i)
        if i >= n:
            break
        ch = source[i]
        if ch == "'":
            start = i
            value, i = _lex_string(source, i)
            tokens.append(Token(STRING, source[start:i], value, start))
            continue
        if "0" <= ch <= "9" or (ch == "-" and "0" <= source[i + 1 : i + 2] <= "9"):
            # ASCII digits only (``str.isdigit`` accepts '²' and '٣').  A
            # leading '-' lexes as part of the literal: the grammar has no
            # arithmetic, so minus only ever introduces a negative number.
            digits_at = i + 1 if ch == "-" else i
            match = _NUMBER_RE.match(source, digits_at)
            assert match is not None
            text = source[i:digits_at] + match.group(0)
            value: Union[int, float]
            if "." in text or "e" in text or "E" in text:
                value = float(text)
            else:
                value = int(text)
            tokens.append(Token(NUMBER, text, value, i))
            i = match.end()
            continue
        match = _IDENT_RE.match(source, i)
        if match is not None:
            text = match.group(0)
            upper = text.upper()
            if upper in KEYWORDS:
                # ``value`` keeps the original spelling so contexts that
                # accept keyword-named identifiers (columns after '.') can
                # recover it.
                tokens.append(Token(KEYWORD, upper, text, i))
            else:
                tokens.append(Token(IDENT, text, text, i))
            i = match.end()
            continue
        for symbol in _SYMBOLS:
            if source.startswith(symbol, i):
                tokens.append(Token(SYMBOL, symbol, None, i))
                i += len(symbol)
                break
        else:
            raise SqlError(f"unexpected character {ch!r}", source, i)
    tokens.append(Token(EOF, "", None, n))
    return tokens


def _lex_string(source: str, start: int) -> "tuple[str, int]":
    """Lex a single-quoted string starting at ``start``; returns (value, end)."""
    i = start + 1
    parts: List[str] = []
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "'":
            if i + 1 < n and source[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise SqlError("unterminated string literal", source, start)


def default_name(source: str) -> Optional[str]:
    """Extract the query name from a leading ``-- name: <name>`` directive.

    Only comments *before the first token* are considered, so a ``-- name:``
    sequence buried in a string literal (or trailing comment) can never
    override the query name.
    """
    try:
        _, spans = _scan_trivia(source, 0)
    except SqlError:
        return None
    for start, end in spans:
        match = NAME_DIRECTIVE_RE.search(source, start, end)
        if match is not None:
            return match.group(1)
    return None
