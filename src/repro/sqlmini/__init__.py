"""A tiny SQL front-end for the paper's top-k dialect.

``SELECT TOP k ... FROM R WHERE A = a AND ... ORDER BY f(N1..Nj) [DESC]``
parses into :class:`~repro.relational.query.TopKQuery` objects; ORDER BY
expressions classify into a linear function or an Lp distance, and any
other shape raises :class:`SqlError`.
"""

from .expr import (
    BinOp,
    Call,
    Col,
    Expr,
    Neg,
    Num,
    extract_affine,
    extract_lp_distance,
    to_ranking_function,
)
from .lexer import SqlError, Token, TokenKind, tokenize
from .parser import ParsedQuery, compile_topk, parse_topk

__all__ = [
    "BinOp",
    "Call",
    "Col",
    "Expr",
    "Neg",
    "Num",
    "ParsedQuery",
    "SqlError",
    "Token",
    "TokenKind",
    "compile_topk",
    "extract_affine",
    "extract_lp_distance",
    "parse_topk",
    "to_ranking_function",
    "tokenize",
]
