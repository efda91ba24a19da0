"""Unit tests for the Minic lexer."""

import pytest

from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        assert kinds("") == [TokenKind.EOF]

    def test_whitespace_only_yields_only_eof(self):
        assert kinds("  \t\n  \r\n") == [TokenKind.EOF]

    def test_decimal_integer(self):
        token = tokenize("12345")[0]
        assert token.kind is TokenKind.INT
        assert token.value == 12345

    def test_hex_integer(self):
        token = tokenize("0xFF")[0]
        assert token.value == 255

    def test_hex_integer_lowercase(self):
        assert tokenize("0xdeadbeef")[0].value == 0xDEADBEEF

    def test_zero(self):
        assert tokenize("0")[0].value == 0

    def test_identifier(self):
        token = tokenize("foo_bar99")[0]
        assert token.kind is TokenKind.IDENT
        assert token.text == "foo_bar99"

    def test_identifier_with_leading_underscore(self):
        assert tokenize("_tmp")[0].kind is TokenKind.IDENT

    @pytest.mark.parametrize("word,kind", [
        ("func", TokenKind.KW_FUNC),
        ("var", TokenKind.KW_VAR),
        ("global", TokenKind.KW_GLOBAL),
        ("if", TokenKind.KW_IF),
        ("else", TokenKind.KW_ELSE),
        ("while", TokenKind.KW_WHILE),
        ("do", TokenKind.KW_DO),
        ("for", TokenKind.KW_FOR),
        ("return", TokenKind.KW_RETURN),
        ("break", TokenKind.KW_BREAK),
        ("continue", TokenKind.KW_CONTINUE),
    ])
    def test_keywords(self, word, kind):
        assert tokenize(word)[0].kind is kind

    def test_keyword_prefix_is_identifier(self):
        assert tokenize("iffy")[0].kind is TokenKind.IDENT
        assert tokenize("format")[0].kind is TokenKind.IDENT


class TestOperators:
    @pytest.mark.parametrize("text,kind", [
        ("+", TokenKind.PLUS), ("-", TokenKind.MINUS), ("*", TokenKind.STAR),
        ("/", TokenKind.SLASH), ("%", TokenKind.PERCENT),
        ("<<", TokenKind.SHL), (">>", TokenKind.SHR),
        ("<", TokenKind.LT), ("<=", TokenKind.LE),
        (">", TokenKind.GT), (">=", TokenKind.GE),
        ("==", TokenKind.EQ), ("!=", TokenKind.NE),
        ("&&", TokenKind.ANDAND), ("||", TokenKind.OROR),
        ("&", TokenKind.AMP), ("|", TokenKind.PIPE), ("^", TokenKind.CARET),
        ("~", TokenKind.TILDE), ("!", TokenKind.BANG),
        ("=", TokenKind.ASSIGN), ("+=", TokenKind.PLUS_ASSIGN),
        ("<<=", TokenKind.SHL_ASSIGN), (">>=", TokenKind.SHR_ASSIGN),
    ])
    def test_single_operator(self, text, kind):
        assert kinds(text) == [kind, TokenKind.EOF]

    def test_maximal_munch_shift_vs_compare(self):
        assert kinds("a<<b")[1] is TokenKind.SHL
        assert kinds("a< <b")[1] is TokenKind.LT

    def test_maximal_munch_compound_assign(self):
        assert kinds("x<<=2")[1] is TokenKind.SHL_ASSIGN

    def test_adjacent_operators(self):
        assert kinds("a==-b")[1:3] == [TokenKind.EQ, TokenKind.MINUS]

    def test_not_equal_vs_bang(self):
        assert kinds("!a != b")[0] is TokenKind.BANG
        assert kinds("!a != b")[2] is TokenKind.NE


class TestComments:
    def test_line_comment_is_skipped(self):
        assert texts("a // comment here\n b") == ["a", "b"]

    def test_line_comment_at_eof(self):
        assert texts("a // no newline") == ["a"]

    def test_block_comment_is_skipped(self):
        assert texts("a /* stuff \n more */ b") == ["a", "b"]

    def test_nested_star_in_block_comment(self):
        assert texts("a /* ** * */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize("a /* never ends")


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_column_after_comment(self):
        tokens = tokenize("/* x */ y")
        assert tokens[0].column == 9


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("a $ b")

    def test_error_carries_position(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("ab\n  @")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 3

    def test_malformed_hex(self):
        with pytest.raises(LexError, match="hexadecimal"):
            tokenize("0x")

    def test_digit_followed_by_letter(self):
        with pytest.raises(LexError):
            tokenize("123abc")


class TestAsciiAlphabet:
    """Minic's alphabet is ASCII; ``str.isdigit``/``isalpha`` accept more
    (``int("²")`` raises ``ValueError``), so any other character must be a
    ``LexError`` at its own position."""

    @pytest.mark.parametrize("source, column, char", [
        ("²", 1, "²"),           # a digit to isdigit(), not to int()
        ("0x²", 3, "²"),         # the same after a hex prefix
        ("٣", 1, "٣"),           # an Arabic-Indic digit int() would accept
        ("café", 4, "é"),        # a letter to isalpha()
    ])
    def test_non_ascii_is_unexpected_character(self, source, column, char):
        with pytest.raises(LexError, match="unexpected character") as excinfo:
            tokenize(source)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)
        assert repr(char) in str(excinfo.value)

    def test_non_ascii_digits_do_not_form_a_literal(self):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("x = ٣٣;")
