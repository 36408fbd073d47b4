"""TinyC lexer pins: the exact token stream and error text.

Three kinds of pin keep any rewrite of the scanner honest:

- a digest of the ``(kind, text, line, col)`` stream of every
  ``ALL_WORKLOADS`` program at two scales and of the two generated
  modules ``usherbench``'s static-large workload analyzes;
- the exact token lists of a few layout corner cases (CRLF, tabs, a
  ``//`` comment at end of input, the ``eof`` position) and the exact
  ``str()`` of the :class:`TinyCSyntaxError` of malformed inputs;
- an exhaustive code-point check that a character starts an identifier
  exactly when ``str.isalpha()`` (or ``_``) says so, and continues one
  exactly when ``str.isalnum()`` (or ``_``) does.

Regenerate the digests (only for a change meant to alter the tokens)::

    PYTHONPATH=src python -m tests.unit.test_lexer_pins --write
"""

from __future__ import annotations

import hashlib
import sys

import pytest

from repro.tinyc.lexer import TinyCSyntaxError, tokenize
from repro.tinyc.parser import parse
from repro.workloads import ALL_WORKLOADS, GeneratorParams, generate_program

SCALES = (0.05, 0.25)


def sources():
    """``name -> TinyC source`` of every pinned program."""
    out = {
        f"{w.name}@{scale}": w.source(scale)
        for w in ALL_WORKLOADS
        for scale in SCALES
    }
    params = GeneratorParams()
    out["gen11-heavy-f8"] = generate_program(11, params.scaled(8).pointer_heavy())
    out["gen11-plain-f16"] = generate_program(11, params.scaled(16))
    return out


def stream_digest(source: str) -> str:
    text = "\n".join(
        f"{t.kind}\t{t.text}\t{t.line}\t{t.col}" for t in tokenize(source)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


DIGESTS = {
    "164.gzip@0.05": "6551e21e1b2b2609",
    "164.gzip@0.25": "0025475f10575105",
    "175.vpr@0.05": "349dfb72f94183a5",
    "175.vpr@0.25": "45d1c7dcca9e570f",
    "176.gcc@0.05": "f12d3d05f8537a44",
    "176.gcc@0.25": "55366a561b25083f",
    "177.mesa@0.05": "dd7ad039745ea58f",
    "177.mesa@0.25": "9c040b1233d70039",
    "179.art@0.05": "931458cdd6d3f529",
    "179.art@0.25": "4a8f9b5e119a5e73",
    "181.mcf@0.05": "b8c979614057b0a1",
    "181.mcf@0.25": "df04d245d6b1d393",
    "183.equake@0.05": "04df0876dc698fcb",
    "183.equake@0.25": "6a56181920eae635",
    "186.crafty@0.05": "ceca8b0fa0a5fea3",
    "186.crafty@0.25": "afa47872e08ddf83",
    "188.ammp@0.05": "910e8769e5209fa4",
    "188.ammp@0.25": "37204ff6978cb306",
    "197.parser@0.05": "0e39e3918ed5d8e0",
    "197.parser@0.25": "39a6da2d54671da9",
    "253.perlbmk@0.05": "1276df8af1632b9d",
    "253.perlbmk@0.25": "e5751703c42e0351",
    "254.gap@0.05": "2dda56762d1c6a3a",
    "254.gap@0.25": "30023138d57dd56c",
    "255.vortex@0.05": "155049a5f7abbe17",
    "255.vortex@0.25": "3652b777e81a0d73",
    "256.bzip2@0.05": "bdfa38876a414b37",
    "256.bzip2@0.25": "bdfa38876a414b37",
    "300.twolf@0.05": "c8164eba269622a1",
    "300.twolf@0.25": "99e55fa95dfd1eba",
    "400.perlbench@0.05": "f797972d5bbf1686",
    "400.perlbench@0.25": "423624291cd294a9",
    "445.gobmk@0.05": "47bc8d60e0a791a1",
    "445.gobmk@0.25": "fae885b8e3b4d92e",
    "456.hmmer@0.05": "644878963bc529fc",
    "456.hmmer@0.25": "dda4bb2d333877f1",
    "473.astar@0.05": "7f6a522b82a07b77",
    "473.astar@0.25": "af4b60670d50b46d",
    "gen11-heavy-f8": "b50b4b95d93ef763",
    "gen11-plain-f16": "77e6578164a1625c",
}

#: source -> its exact (kind, text, line, col) tokens.
LAYOUTS = {
    "": [("eof", "", 1, 1)],
    "a\n": [("ident", "a", 1, 1), ("eof", "", 2, 1)],
    "a // no newline": [("ident", "a", 1, 1), ("eof", "", 1, 16)],
    "x\r\n\ty": [("ident", "x", 1, 1), ("ident", "y", 2, 2), ("eof", "", 2, 3)],
    "/* a\nb */ c\n": [("ident", "c", 2, 6), ("eof", "", 3, 1)],
    "a\rb": [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("eof", "", 1, 4)],
    "f(1)<<=2": [
        ("ident", "f", 1, 1), ("op", "(", 1, 2), ("number", "1", 1, 3),
        ("op", ")", 1, 4), ("op", "<<", 1, 5), ("op", "=", 1, 7),
        ("number", "2", 1, 8), ("eof", "", 1, 9),
    ],
}

#: malformed source -> str() of the TinyCSyntaxError it raises.
ERRORS = {
    "def main() {\n  var x = 1; /* never\n  closed\n  return x;\n}\n":
        "2:14: unterminated block comment",
    "a $ b": "1:3: unexpected character '$'",
    "123abc": "1:4: bad number suffix 'a'",
    "var x = 1\u00e9;": "1:10: bad number suffix '\u00e9'",
    "def main() {\r\n\treturn 1 $ 2;\r\n}\r\n":
        "2:11: unexpected character '$'",
    "x // fine\n\t\t@": "2:3: unexpected character '@'",
    "def main() {\n\treturn 0;\n}\n\f": "4:1: unexpected character '\\x0c'",
    "var x\u00a0= 1;": "1:6: unexpected character '\\xa0'",
    "/* one\n two */ #": "2:9: unexpected character '#'",
    "def main() {\n\treturn 1\n}": "3:1: expected ';', found '}'",
    "global 7;": "1:8: expected 'ident', found '7'",
}


@pytest.fixture(scope="module")
def all_sources():
    return sources()


def test_every_program_is_pinned(all_sources):
    assert sorted(all_sources) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_token_stream(name, all_sources):
    assert stream_digest(all_sources[name]) == DIGESTS[name]


@pytest.mark.parametrize("source", sorted(LAYOUTS))
def test_layout(source):
    tokens = [(t.kind, t.text, t.line, t.col) for t in tokenize(source)]
    assert tokens == LAYOUTS[source]


@pytest.mark.parametrize("source", sorted(ERRORS))
def test_error_text(source):
    with pytest.raises(TinyCSyntaxError) as info:
        parse(source)
    assert str(info.value) == ERRORS[source]


def _starts_identifier(ch: str) -> bool:
    try:
        first = tokenize(ch)[0]
    except TinyCSyntaxError:
        return False
    return first.kind in ("ident", "keyword") and first.text == ch


def _continues_identifier(ch: str) -> bool:
    try:
        first = tokenize("a" + ch)[0]
    except TinyCSyntaxError:
        return False
    return first.text == "a" + ch


#: The whole Basic Multilingual Plane, plus astral letters, digits and
#: symbols: mathematical bold A, mathematical bold digit zero, Aegean
#: number one, an emoji and the last code point.
CODE_POINTS = [chr(c) for c in range(0x10000)] + [
    "\U0001d400", "\U0001d7ce", "\U00010107", "\U0001f600", "\U0010ffff",
]


def test_identifier_start_code_points():
    wrong = [
        hex(ord(ch))
        for ch in CODE_POINTS
        if _starts_identifier(ch) != (ch.isalpha() or ch == "_")
    ]
    assert wrong == []


def test_identifier_continue_code_points():
    wrong = [
        hex(ord(ch))
        for ch in CODE_POINTS
        if _continues_identifier(ch) != (ch.isalnum() or ch == "_")
    ]
    assert wrong == []


def _write() -> None:  # pragma: no cover - maintenance entry point
    for name, source in sorted(sources().items()):
        print(f'    "{name}": "{stream_digest(source)}",')


if __name__ == "__main__":  # pragma: no cover
    if "--write" in sys.argv:
        _write()
