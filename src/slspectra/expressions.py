"""Tiny expression language for problem coefficients.

Grammar (EBNF, documented in docs/expression-grammar.md):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          # right-associative
    atom   := NUMBER | "z" | FUNC "(" expr ")" | "(" expr ")"
    FUNC   := "exp" | "sin" | "cos" | "sqrt"

"^" binds tightest, then unary minus, then "*" "/", then "+" "-".
The only variable is z.  The grammar is closed under differentiation,
which is what makes symbolic p' possible without a CAS dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = ["CoeffExpr", "ExprSyntaxError", "compile_scalar", "parse_coeff"]

_FUNCS = ("exp", "sin", "cos", "sqrt")


class ExprSyntaxError(ValueError):
    """Raised on malformed coefficient expressions; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]


# ---------------------------------------------------------------------------
# Tokenizer / parser


def _tokenize(source: str):
    tokens = []  # (kind, text, offset)
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            # exponent part of a float literal, e.g. 1e-3
            if j < n and source[j] in "eE" and j + 1 < n:
                k = j + 1
                if source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {text!r}", i)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"non-finite number literal {text!r}", i)
            tokens.append(("num", text, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and source[j].isalnum():
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            # right-associative; exponent may carry its own unary minus
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        kind, text, offset = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            if text == "z":
                return Var()
            if text in _FUNCS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(text, arg)
            raise ExprSyntaxError(f"unknown identifier {text!r}", offset)
        raise ExprSyntaxError(f"unexpected token {text!r}", offset)


# ---------------------------------------------------------------------------
# Differentiation, unparsing, compilation


def _diff(node: Node) -> Node:
    if isinstance(node, (Num,)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    if isinstance(node, Neg):
        return Neg(_diff(node.arg))
    if isinstance(node, BinOp):
        u, v = node.left, node.right
        du, dv = _diff(u), _diff(v)
        if node.op == "+":
            return BinOp("+", du, dv)
        if node.op == "-":
            return BinOp("-", du, dv)
        if node.op == "*":
            return BinOp("+", BinOp("*", du, v), BinOp("*", u, dv))
        if node.op == "/":
            num = BinOp("-", BinOp("*", du, v), BinOp("*", u, dv))
            return BinOp("/", num, BinOp("^", v, Num(2.0)))
        # power: closed under differentiation only for constant exponents,
        # which is all the grammar promises (u^c)' = c*u^(c-1)*u'
        if not isinstance(v, (Num, Neg)) or (
            isinstance(v, Neg) and not isinstance(v.arg, Num)
        ):
            raise ValueError("differentiation supports constant exponents only")
        c = v.value if isinstance(v, Num) else -v.arg.value
        return BinOp(
            "*", BinOp("*", Num(c), BinOp("^", u, Num(c - 1.0))), du
        )
    darg = _diff(node.arg)
    if node.func == "exp":
        outer: Node = Call("exp", node.arg)
    elif node.func == "sin":
        outer = Call("cos", node.arg)
    elif node.func == "cos":
        outer = Neg(Call("sin", node.arg))
    else:  # sqrt
        outer = BinOp("/", Num(0.5), Call("sqrt", node.arg))
    return BinOp("*", outer, darg)


def _simplify(node: Node) -> Node:
    if isinstance(node, Neg):
        arg = _simplify(node.arg)
        if isinstance(arg, Num):
            return Num(-arg.value)
        return Neg(arg)
    if isinstance(node, Call):
        return Call(node.func, _simplify(node.arg))
    if isinstance(node, BinOp):
        a, b = _simplify(node.left), _simplify(node.right)
        if isinstance(a, Num) and isinstance(b, Num):
            # a fold that raises (1/0, (-1)^0.5) or overflows stays as it is
            const = BinOp(node.op, a, b)
            try:
                (value,) = _compile([const], math)(0.0)
            except (ArithmeticError, ValueError):
                return const
            return Num(value) if math.isfinite(value) else const
        if node.op == "*":
            if isinstance(a, Num):
                if a.value == 0.0:
                    return Num(0.0)
                if a.value == 1.0:
                    return b
            if isinstance(b, Num):
                if b.value == 0.0:
                    return Num(0.0)
                if b.value == 1.0:
                    return a
        if node.op == "+":
            if isinstance(a, Num) and a.value == 0.0:
                return b
            if isinstance(b, Num) and b.value == 0.0:
                return a
        if node.op == "-" and isinstance(b, Num) and b.value == 0.0:
            return a
        if node.op == "^" and isinstance(b, Num) and b.value == 1.0:
            return a
        return BinOp(node.op, a, b)
    return node


def _unparse(node: Node, python: bool = False) -> str:
    """Fully parenthesized text that reparses to an equal-valued expression;
    with python=True "^" is spelled pow(a, b), the source _compile runs."""
    if isinstance(node, Num):
        # a folded negative constant is parenthesized so that "^" takes it whole
        neg = math.copysign(1.0, node.value) < 0
        return f"({node.value!r})" if neg else repr(node.value)
    if isinstance(node, Var):
        return "z"
    if isinstance(node, Neg):
        return f"(-{_unparse(node.arg, python)})"
    if isinstance(node, BinOp):
        a, b = _unparse(node.left, python), _unparse(node.right, python)
        return f"pow({a}, {b})" if python and node.op == "^" else f"({a}{node.op}{b})"
    return f"{node.func}({_unparse(node.arg, python)})"


def _compile(asts, lib):
    """The only evaluator: z -> (value of each AST at z), with lib's functions.

    lib=math is for Python-float scalars and raises outside a function's
    domain, where lib=np gives inf or nan; neither gives a complex number.
    """
    env = {fn: getattr(lib, fn) for fn in _FUNCS}
    env["pow"] = math.pow if lib is math else np.power
    env["__builtins__"] = {}
    # generated from our own AST, never from raw user text
    src = ", ".join(_unparse(ast, python=True) for ast in asts)
    return eval(f"lambda z: ({src},)", env)  # noqa: S307


# ---------------------------------------------------------------------------
# Public wrapper


class CoeffExpr:
    """A parsed coefficient expression in the variable z.

    Instances are immutable; evaluation works for scalars and numpy arrays.
    """

    def __init__(self, source: str, ast: Node | None = None):
        if ast is None:
            if not source:
                raise ExprSyntaxError("empty expression", 0)
            ast = _Parser(source).parse()
        self.source = source
        self.ast = ast
        self._scalar = self._array = None

    def __call__(self, z):
        if np.isscalar(z):
            if self._scalar is None:
                self._scalar = _compile([self.ast], math)
            return self._scalar(z)[0]
        if self._array is None:
            self._array = _compile([self.ast], np)
        return np.broadcast_to(
            np.asarray(self._array(np.asarray(z, dtype=float))[0]),
            np.shape(z),
        ).astype(float, copy=True)

    def derivative(self) -> "CoeffExpr":
        d = _simplify(_diff(self.ast))
        return CoeffExpr(_unparse(d), d)

    def unparse(self) -> str:
        return _unparse(self.ast)

    def __eq__(self, other):
        return isinstance(other, CoeffExpr) and self.ast == other.ast

    def __hash__(self):
        return hash(self.unparse())

    def __repr__(self):
        return f"CoeffExpr({self.source!r})"


def compile_scalar(*exprs: CoeffExpr):
    """One callable z -> (e_1(z), ..., e_k(z)) for a scalar z.

    Each value is what e_i(z) returns on its own.  Callers that need several
    coefficients at the same point make one call instead of k.
    """
    return _compile([e.ast for e in exprs], math)


def parse_coeff(source: str) -> CoeffExpr:
    """Parse a coefficient expression string.

    Raises ExprSyntaxError (with byte offset) on malformed input or
    unknown identifiers.
    """
    return CoeffExpr(source)
