"""Unit tests for the TinyC lexer."""

import pytest

from repro.tinyc.lexer import TinyCSyntaxError, tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source) if t.kind != "eof"]


class TestBasicTokens:
    def test_numbers(self):
        assert kinds("0 42 123") == [
            ("number", "0"),
            ("number", "42"),
            ("number", "123"),
        ]

    def test_identifiers_and_keywords(self):
        assert kinds("foo var while xyz_1") == [
            ("ident", "foo"),
            ("keyword", "var"),
            ("keyword", "while"),
            ("ident", "xyz_1"),
        ]

    def test_all_keywords_recognized(self):
        for kw in ("def", "global", "if", "else", "return", "output",
                   "break", "continue", "malloc", "calloc", "malloc_array",
                   "calloc_array", "skip", "uninit"):
            assert kinds(kw) == [("keyword", kw)]

    def test_underscore_identifier(self):
        assert kinds("_x __y") == [("ident", "_x"), ("ident", "__y")]


class TestOperators:
    def test_maximal_munch(self):
        assert [t for _, t in kinds("a<<=b")] == ["a", "<<", "=", "b"]

    def test_two_char_operators(self):
        ops = ["<<", ">>", "<=", ">=", "==", "!=", "&&", "||"]
        for op in ops:
            assert kinds(f"a {op} b")[1] == ("op", op)

    def test_single_char_operators(self):
        for op in "+-*/%<>=!~&|^(){}[],;":
            assert kinds(op) == [("op", op)]

    def test_ampersand_vs_logical_and(self):
        assert [t for _, t in kinds("a & b && c")] == ["a", "&", "b", "&&", "c"]


class TestComments:
    def test_line_comment(self):
        assert kinds("a // whole line\nb") == [("ident", "a"), ("ident", "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [("ident", "a"), ("ident", "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(TinyCSyntaxError):
            tokenize("a /* never closed")


class TestPositions:
    def test_line_and_column(self):
        tokens = tokenize("a\n  bb")
        assert (tokens[0].line, tokens[0].col) == (1, 1)
        assert (tokens[1].line, tokens[1].col) == (2, 3)

    def test_eof_token_present(self):
        assert tokenize("")[-1].kind == "eof"


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(TinyCSyntaxError) as info:
            tokenize("a $ b")
        assert "$" in str(info.value)

    def test_bad_number_suffix(self):
        with pytest.raises(TinyCSyntaxError):
            tokenize("123abc")


class TestNonAsciiDigits:
    """Numbers are ASCII ``[0-9]+``: any other digit is a syntax error at
    its own position, never a number nor a bare ``ValueError``."""

    @pytest.mark.parametrize(
        "source, message",
        [
            ("1²", "1:2: unexpected character '²'"),
            ("²", "1:1: unexpected character '²'"),
            ("x = ٣;", "1:5: unexpected character '٣'"),
            ("12٣", "1:3: unexpected character '٣'"),
            ("a\n １", "2:2: unexpected character '１'"),
            ("½", "1:1: unexpected character '½'"),
        ],
    )
    def test_rejected(self, source, message):
        with pytest.raises(TinyCSyntaxError) as info:
            tokenize(source)
        assert str(info.value) == message

    def test_identifier_may_continue_with_any_digit(self):
        assert kinds("x٣ y²") == [("ident", "x٣"), ("ident", "y²")]
