"""Hand-written tokenizer for the extended SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Iterator, List

from ..errors import SqlSyntaxError

KEYWORDS = {
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "HAVING",
    "ORDER",
    "ASC",
    "DESC",
    "LIMIT",
    "AS",
    "AND",
    "OR",
    "NOT",
    "CREATE",
    "TABLE",
    "VIEW",
    "INSERT",
    "INTO",
    "VALUES",
    "DROP",
    "IF",
    "EXISTS",
    "NULL",
    "TRUE",
    "FALSE",
    "DISTINCT",
    "IS",
    "CASE",
    "WHEN",
    "THEN",
    "ELSE",
    "END",
    "IN",
    "BETWEEN",
    "UNION",
    "ALL",
    "DELETE",
    "MATERIALIZED",
    "REFRESH",
}

#: Multi-character operators, checked before single characters.
TWO_CHAR_OPS = ("<>", "!=", "<=", ">=")
ONE_CHAR_OPS = "+-*/=<>(),.;[]"


@dataclass(frozen=True)
class Token:
    kind: str  # KEYWORD | IDENT | INT | FLOAT | STRING | OP | PARAM | EOF
    text: str
    line: int
    column: int

    def matches(self, kind: str, text: str | None = None) -> bool:
        if self.kind != kind:
            return False
        if text is None:
            return True
        if kind in ("KEYWORD", "IDENT"):
            return self.text.upper() == text.upper()
        return self.text == text

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


class Lexer:
    """Tokenizes SQL text, tracking line/column for error messages."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def _error(self, message: str) -> SqlSyntaxError:
        return SqlSyntaxError(message, self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
                self.pos += 1

    def _skip_whitespace_and_comments(self) -> None:
        while True:
            char = self._peek()
            if char and char in " \t\r\n":
                self._advance()
            elif char == "-" and self._peek(1) == "-":
                while self._peek() and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._advance(2)
                while self._peek() and not (self._peek() == "*" and self._peek(1) == "/"):
                    self._advance()
                if not self._peek():
                    raise self._error("unterminated /* comment")
                self._advance(2)
            else:
                return

    def tokens(self) -> Iterator[Token]:
        while True:
            self._skip_whitespace_and_comments()
            line, column = self.line, self.column
            char = self._peek()
            if not char:
                yield Token("EOF", "", line, column)
                return
            if char.isalpha() or char == "_":
                yield self._identifier(line, column)
            elif char.isdigit() or (char == "." and self._peek(1).isdigit()):
                yield self._number(line, column)
            elif char == "'":
                yield self._string(line, column)
            elif char == ":":
                yield self._parameter(line, column)
            else:
                two = char + self._peek(1)
                if two in TWO_CHAR_OPS:
                    self._advance(2)
                    yield Token("OP", two, line, column)
                elif char in ONE_CHAR_OPS:
                    self._advance()
                    yield Token("OP", char, line, column)
                else:
                    raise self._error(f"unexpected character {char!r}")

    def _identifier(self, line: int, column: int) -> Token:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.text[start : self.pos]
        kind = "KEYWORD" if text.upper() in KEYWORDS else "IDENT"
        return Token(kind, text, line, column)

    def _number(self, line: int, column: int) -> Token:
        start = self.pos
        is_float = False
        while self._peek().isdigit():
            self._advance()
        if self._peek() == "." and self._peek(1) != ".":
            is_float = True
            self._advance()
            while self._peek().isdigit():
                self._advance()
        if self._peek() in ("e", "E") and (
            self._peek(1).isdigit()
            or (self._peek(1) in "+-" and self._peek(2).isdigit())
        ):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self.text[start : self.pos]
        return Token("FLOAT" if is_float else "INT", text, line, column)

    def _string(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        parts: List[str] = []
        while True:
            char = self._peek()
            if not char:
                raise self._error("unterminated string literal")
            if char == "'":
                if self._peek(1) == "'":  # doubled quote escapes
                    parts.append("'")
                    self._advance(2)
                    continue
                self._advance()
                return Token("STRING", "".join(parts), line, column)
            parts.append(char)
            self._advance()

    def _parameter(self, line: int, column: int) -> Token:
        self._advance()  # ':'
        start = self.pos
        if not (self._peek().isalpha() or self._peek() == "_"):
            raise self._error("expected parameter name after ':'")
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        return Token("PARAM", self.text[start : self.pos], line, column)


def tokenize(text: str) -> List[Token]:
    """Tokenize SQL text into a list ending with an EOF token."""
    return list(Lexer(text).tokens())


def normalize_tokens(tokens: Iterable[Token], labels: Container[int] = ()) -> str:
    """A whitespace- and keyword-case-insensitive rendering of a token
    run — the textual part of a plan-cache key. It is SQL again: it
    parses to the same statement up to the case of identifiers, and
    normalizing it changes nothing. The dialect folds identifier case
    everywhere but in output labels and defined names, so identifiers
    are lower-cased except at ``labels`` (positions in ``tokens``: a
    select item's alias or bare column name, whose spelling is a
    result's column name, and a name a CREATE statement defines, whose
    spelling the catalog keeps)."""
    parts = []
    for index, token in enumerate(tokens):
        if token.kind == "EOF":
            break
        if token.kind == "KEYWORD":
            parts.append(token.text.upper())
        elif token.kind == "IDENT":
            parts.append(token.text if index in labels else token.text.lower())
        elif token.kind == "STRING":
            # quoted as SQL (a quote doubled), so a string literal never
            # collides with an identifier of the same spelling
            parts.append("'" + token.text.replace("'", "''") + "'")
        elif token.kind == "PARAM":
            parts.append(f":{token.text}")
        else:
            parts.append(token.text)
    return " ".join(parts)
