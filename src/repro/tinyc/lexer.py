"""Lexer for the TinyC surface language.

TinyC is the C subset the paper formalises (Figure 1), grown just enough to
write realistic whole programs: functions, globals, records and arrays,
pointers, heap allocation, arithmetic/logic expressions, ``if``/``while``
control flow and an ``output`` statement standing in for externally
observable writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

KEYWORDS = frozenset(
    {
        "def",
        "global",
        "uninit",
        "var",
        "if",
        "else",
        "while",
        "break",
        "continue",
        "return",
        "output",
        "skip",
        "malloc",
        "calloc",
        "malloc_array",
        "calloc_array",
    }
)

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = (
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "~",
    "&", "|", "^", "(", ")", "{", "}", "[", "]", ",", ";",
)


class TinyCSyntaxError(Exception):
    """A lexical or syntactic error, carrying source position when it
    has one."""

    def __init__(
        self, message: str, line: Optional[int] = None, col: Optional[int] = None
    ) -> None:
        super().__init__(message if line is None else f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "ident" | "keyword" | "op" | "eof"
    text: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``, raising :class:`TinyCSyntaxError` on bad input."""
    return list(_tokens(source))


def _tokens(source: str) -> Iterator[Token]:
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise TinyCSyntaxError(
                    "unterminated block comment", start_line, start_col
                )
            advance(2)
            continue
        if ch.isdigit():
            start = i
            start_line, start_col = line, col
            while i < n and source[i].isdigit():
                advance(1)
            if i < n and (source[i].isalpha() or source[i] == "_"):
                raise TinyCSyntaxError(
                    f"bad number suffix {source[i]!r}", line, col
                )
            yield Token("number", source[start:i], start_line, start_col)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_line, start_col = line, col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                advance(1)
            text = source[start:i]
            kind = "keyword" if text in KEYWORDS else "ident"
            yield Token(kind, text, start_line, start_col)
            continue
        for op in _OPERATORS:
            if source.startswith(op, i):
                start_line, start_col = line, col
                advance(len(op))
                yield Token("op", op, start_line, start_col)
                break
        else:
            raise TinyCSyntaxError(f"unexpected character {ch!r}", line, col)
    yield Token("eof", "", line, col)
