"""Unit tests for the RC lexer."""

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source) if t.value is not None]


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_integer_literal(self):
        tokens = tokenize("42")
        assert tokens[0].kind is TokenKind.INT
        assert tokens[0].value == 42

    def test_zero(self):
        assert tokenize("0")[0].value == 0

    def test_identifier(self):
        tokens = tokenize("foo_bar1")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].value == "foo_bar1"

    def test_identifier_with_leading_underscore(self):
        assert tokenize("_t0")[0].value == "_t0"

    def test_keywords_are_not_identifiers(self):
        for word, kind in [
            ("proc", TokenKind.PROC),
            ("var", TokenKind.VAR),
            ("if", TokenKind.IF),
            ("else", TokenKind.ELSE),
            ("while", TokenKind.WHILE),
            ("for", TokenKind.FOR),
            ("switch", TokenKind.SWITCH),
            ("case", TokenKind.CASE),
            ("default", TokenKind.DEFAULT),
            ("return", TokenKind.RETURN),
            ("exit", TokenKind.EXIT),
            ("break", TokenKind.BREAK),
            ("continue", TokenKind.CONTINUE),
            ("skip", TokenKind.SKIP),
            ("true", TokenKind.TRUE),
            ("false", TokenKind.FALSE),
            ("top", TokenKind.TOP),
            ("extern", TokenKind.EXTERN),
        ]:
            assert tokenize(word)[0].kind is kind, word

    def test_keyword_prefix_is_identifier(self):
        assert tokenize("iffy")[0].kind is TokenKind.IDENT
        assert tokenize("procx")[0].kind is TokenKind.IDENT


class TestOperators:
    def test_two_char_operators(self):
        assert kinds("== != <= >= && ||")[:-1] == [
            TokenKind.EQ,
            TokenKind.NE,
            TokenKind.LE,
            TokenKind.GE,
            TokenKind.AND,
            TokenKind.OR,
        ]

    def test_one_char_operators(self):
        assert kinds("+ - * / % & < > ! =")[:-1] == [
            TokenKind.PLUS,
            TokenKind.MINUS,
            TokenKind.STAR,
            TokenKind.SLASH,
            TokenKind.PERCENT,
            TokenKind.AMP,
            TokenKind.LT,
            TokenKind.GT,
            TokenKind.NOT,
            TokenKind.ASSIGN,
        ]

    def test_punctuation(self):
        assert kinds("( ) { } [ ] , ; : .")[:-1] == [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACE,
            TokenKind.RBRACE,
            TokenKind.LBRACKET,
            TokenKind.RBRACKET,
            TokenKind.COMMA,
            TokenKind.SEMI,
            TokenKind.COLON,
            TokenKind.DOT,
        ]

    def test_adjacent_operators_split_greedily(self):
        # `<=` then `=` — not `<` `==`.
        assert kinds("<==")[:-1] == [TokenKind.LE, TokenKind.ASSIGN]


class TestStrings:
    def test_single_quoted(self):
        assert tokenize("'even'")[0].value == "even"

    def test_double_quoted(self):
        assert tokenize('"odd"')[0].value == "odd"

    def test_escapes(self):
        assert tokenize(r"'a\nb\tc\\d'")[0].value == "a\nb\tc\\d"

    def test_escaped_quote(self):
        assert tokenize(r"'don\'t'")[0].value == "don't"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("'abc")

    @pytest.mark.parametrize("source", ["'\\", '"\\', "'ab\\"])
    def test_backslash_at_end_of_input_is_unterminated(self, source):
        with pytest.raises(LexError, match="unterminated string literal"):
            tokenize(source)

    def test_newline_in_string_raises(self):
        with pytest.raises(LexError):
            tokenize("'ab\ncd'")

    def test_unknown_escape_raises(self):
        with pytest.raises(LexError):
            tokenize(r"'\q'")


class TestComments:
    def test_line_comment(self):
        assert values("x // comment\ny") == ["x", "y"]

    def test_block_comment(self):
        assert values("a /* b c */ d") == ["a", "d"]

    def test_multiline_block_comment(self):
        assert values("a /* b\nc\nd */ e") == ["a", "e"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* b")

    def test_comment_does_not_nest(self):
        # The first */ ends the comment.
        assert values("a /* x /* y */ b") == ["a", "b"]


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[0].location.column == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_columns_advance_within_line(self):
        tokens = tokenize("ab cd")
        assert tokens[1].location.column == 4


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_digit_then_letter_rejected(self):
        with pytest.raises(LexError):
            tokenize("12abc")

    def test_error_carries_location(self):
        with pytest.raises(LexError) as exc:
            tokenize("ok\n  @")
        assert exc.value.location.line == 2
