"""Extended-SQL front end: lexer, AST, parser."""

from . import ast
from .lexer import Token, tokenize
from .parser import (
    Parser,
    normalize_sql,
    parse_keyed,
    parse_keyed_script,
    parse_script,
    parse_statement,
)

__all__ = [
    "Parser",
    "Token",
    "ast",
    "normalize_sql",
    "parse_keyed",
    "parse_keyed_script",
    "parse_script",
    "parse_statement",
    "tokenize",
]
