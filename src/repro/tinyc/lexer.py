"""Lexer for the TinyC surface language.

TinyC is the C subset the paper formalises (Figure 1), grown just enough to
write realistic whole programs: functions, globals, records and arrays,
pointers, heap allocation, arithmetic/logic expressions, ``if``/``while``
control flow and an ``output`` statement standing in for externally
observable writes.

The scanner is one compiled master pattern, matched token by token with
``finditer``: every character of the input starts exactly one of its
alternatives, the last of which (a single character) is always an
error.  Positions come from counting newlines: the scanner keeps the
current line and the offset where it begins, and a token's column is its
offset from there, plus one.  Whitespace is exactly space, tab, CR and
LF; numbers are ASCII ``[0-9]+``; an identifier starts with a character
``str.isalpha()`` accepts (or ``_``) and continues with ones
``str.isalnum()`` accepts (or ``_``).
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional

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


class TinyCSyntaxError(Exception):
    """A lexical or syntactic error, carrying source position when it
    has one."""

    def __init__(
        self, message: str, line: Optional[int] = None, col: Optional[int] = None
    ) -> None:
        super().__init__(message if line is None else f"{line}:{col}: {message}")
        self.line = line
        self.col = col


#: One alternative per token class, tried in order at each offset.  The
#: operators are listed longest first, so maximal munch works.
#: ``[^\W\d]`` (a word character that is no decimal digit) admits every
#: ``isalpha()`` character and a few numeric ones (``²``, ``½``), which
#: :func:`tokenize` rejects; ``\w`` is exactly ``isalnum()`` or ``_``.
_TOKEN_RE = re.compile(
    r"""
      (?P<space>[ \t\r\n]+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<open_comment>/\*)
    | (?P<number>[0-9]+)
    | (?P<ident>[^\W\d]\w*)
    | (?P<op><<|>>|<=|>=|==|!=|&&|\|\||[-+*/%<>=!~&|^(){}\[\],;])
    | (?P<bad>.)
    """,
    re.DOTALL | re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "number" | "ident" | "keyword" | "op" | "eof"
    text: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``, raising :class:`TinyCSyntaxError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__  # skips NamedTuple's Python-level __new__
    keywords = KEYWORDS
    line = 1
    bol = 0  # offset of the current line's first character
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        if kind == "space" or kind == "comment":
            start, end = match.span()
            newlines = source.count("\n", start, end)
            if newlines:
                line += newlines
                bol = source.rindex("\n", start, end) + 1
            continue
        text = match.group()
        start = match.start()
        if kind == "ident":
            # Every ASCII match starts with a letter or "_" (all <= "z").
            if text[0] > "z" and not text[0].isalpha():
                raise TinyCSyntaxError(
                    f"unexpected character {text[0]!r}", line, start - bol + 1
                )
            if text in keywords:
                kind = "keyword"
        elif kind == "number":
            end = match.end()
            if end < len(source):
                after = source[end]
                if after.isalpha() or after == "_":
                    raise TinyCSyntaxError(
                        f"bad number suffix {after!r}", line, end - bol + 1
                    )
        elif kind == "open_comment":
            raise TinyCSyntaxError(
                "unterminated block comment", line, start - bol + 1
            )
        elif kind == "bad":
            raise TinyCSyntaxError(
                f"unexpected character {text!r}", line, start - bol + 1
            )
        append(new(Token, (kind, text, line, start - bol + 1)))
    append(Token("eof", "", line, len(source) - bol + 1))
    return tokens
