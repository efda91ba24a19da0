"""Hand-written lexer for Minic.

The lexer is a straightforward single-pass scanner.  It recognises decimal
and hexadecimal integer literals, identifiers/keywords, the operator set in
:mod:`repro.lang.tokens`, ``//`` line comments and ``/* ... */`` block
comments.  The alphabet is ASCII: any other character, wherever it
appears, is an "unexpected character" error at its own position.
"""

from __future__ import annotations

import string

from repro.errors import LexError
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_DIGITS = frozenset(string.digits)
_HEX_DIGITS = frozenset(string.hexdigits)
_IDENT_START = frozenset(string.ascii_letters + "_")
_IDENT_CHARS = _IDENT_START | _DIGITS

# Multi-character operators, longest first so maximal munch works with a
# simple ordered scan.
_OPERATORS = [
    ("<<=", TokenKind.SHL_ASSIGN),
    (">>=", TokenKind.SHR_ASSIGN),
    ("<<", TokenKind.SHL),
    (">>", TokenKind.SHR),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NE),
    ("&&", TokenKind.ANDAND),
    ("||", TokenKind.OROR),
    ("+=", TokenKind.PLUS_ASSIGN),
    ("-=", TokenKind.MINUS_ASSIGN),
    ("*=", TokenKind.STAR_ASSIGN),
    ("/=", TokenKind.SLASH_ASSIGN),
    ("%=", TokenKind.PERCENT_ASSIGN),
    ("&=", TokenKind.AMP_ASSIGN),
    ("|=", TokenKind.PIPE_ASSIGN),
    ("^=", TokenKind.CARET_ASSIGN),
    ("<", TokenKind.LT),
    (">", TokenKind.GT),
    ("=", TokenKind.ASSIGN),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.STAR),
    ("/", TokenKind.SLASH),
    ("%", TokenKind.PERCENT),
    ("&", TokenKind.AMP),
    ("|", TokenKind.PIPE),
    ("^", TokenKind.CARET),
    ("~", TokenKind.TILDE),
    ("!", TokenKind.BANG),
    ("(", TokenKind.LPAREN),
    (")", TokenKind.RPAREN),
    ("{", TokenKind.LBRACE),
    ("}", TokenKind.RBRACE),
    ("[", TokenKind.LBRACKET),
    ("]", TokenKind.RBRACKET),
    (",", TokenKind.COMMA),
    (";", TokenKind.SEMICOLON),
]


class Lexer:
    """Tokenizes one Minic source string."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokenize(self) -> list[Token]:
        """Return the full token list, terminated by a single EOF token."""
        tokens: list[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source) and self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _skip_trivia(self) -> None:
        """Skip whitespace and comments; raise on an unterminated comment."""
        src = self.source
        while self.pos < len(src):
            ch = src[self.pos]
            if ch in " \t\r\n":
                self._advance()
            elif src.startswith("//", self.pos):
                while self.pos < len(src) and src[self.pos] != "\n":
                    self._advance()
            elif src.startswith("/*", self.pos):
                start_line, start_col = self.line, self.column
                self._advance(2)
                while self.pos < len(src) and not src.startswith("*/", self.pos):
                    self._advance()
                if self.pos >= len(src):
                    raise LexError("unterminated block comment", start_line, start_col)
                self._advance(2)
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        src = self.source
        if self.pos >= len(src):
            return Token(TokenKind.EOF, "", self.line, self.column)

        line, column = self.line, self.column
        ch = src[self.pos]

        if ch in _DIGITS:
            return self._lex_number(line, column)
        if ch in _IDENT_START:
            return self._lex_ident(line, column)

        for text, kind in _OPERATORS:
            if src.startswith(text, self.pos):
                self._advance(len(text))
                return Token(kind, text, line, column)

        raise LexError(f"unexpected character {ch!r}", line, column)

    def _scan(self, chars: frozenset, start: int) -> int:
        """Consume the run of ``chars`` from ``start`` (no newlines in it);
        returns the position after it."""
        src = self.source
        end = start
        while end < len(src) and src[end] in chars:
            end += 1
        self.column += end - self.pos
        self.pos = end
        return end

    def _lex_number(self, line: int, column: int) -> Token:
        src = self.source
        start = self.pos
        if src.startswith(("0x", "0X"), start):
            end = self._scan(_HEX_DIGITS, start + 2)
            text = src[start:end]
            if len(text) == 2:
                if end < len(src) and not src[end].isascii():
                    raise LexError(f"unexpected character {src[end]!r}", line, column + 2)
                raise LexError("malformed hexadecimal literal", line, column)
            return Token(TokenKind.INT, text, line, column, value=int(text, 16))

        end = self._scan(_DIGITS, start)
        if end < len(src) and src[end] in _IDENT_START:
            raise LexError("identifier cannot start with a digit", line, column)
        text = src[start:end]
        return Token(TokenKind.INT, text, line, column, value=int(text, 10))

    def _lex_ident(self, line: int, column: int) -> Token:
        start = self.pos
        text = self.source[start:self._scan(_IDENT_CHARS, start)]
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        return Token(kind, text, line, column)


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper: tokenize ``source`` in one call."""
    return Lexer(source).tokenize()
