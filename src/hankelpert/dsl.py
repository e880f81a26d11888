"""A small expression language for perturbation factors h(x).

Grammar (whitespace-insensitive):

    expr   :=  term  (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' unary)?          # right-associative
    atom   :=  NUMBER | 'x' | NAME '(' expr ')' | '(' expr ')'

NUMBER is a nonnegative integer or decimal literal (stored exactly as a
rational), NAME is one of exp, log, sqrt, cosh, sinh. Exponents must
constant-fold to a rational; 'x^x' is rejected at parse time. Parse errors
carry the byte offset and the token kinds that would have been accepted.
Number text follows ``precision.exact_fraction``'s digit limit, and the
parser refuses an expression nested deeper than ``MAX_NESTING`` levels,
so every accepted tree parses, prints and evaluates inside Python's
default recursion limit.

One table, ``BINARY_OPS``, keyed by operator symbol, drives the binary
operators in the parser, the printer and the evaluator, which also folds
constant exponents. The tree is one ``NamedTuple`` record per grammar rule;
the ``h_*`` constructors write source text and parse it, so the parser is
the only code that builds trees.

Evaluation is exact-rational-in, arbitrary-precision-out: numeric leaves are
Fractions, arithmetic on them stays exact until a transcendental call, an
mpf argument or a constant power larger than ``EXACT_POWER_BITS`` forces
the current mpmath working precision. Domain faults
(log of a nonpositive value, sqrt of a negative, 0 to a negative power,
negative base to a fractional power) raise EvalDomainError whose message
names the point.

``to_source`` prints an expression with minimal parentheses such that
reparsing reproduces the identical tree. ``positive_sample`` is the one
positivity rule, applied to every value of h the package reads;
``validate_positive`` applies it on a Chebyshev point set (endpoints
included) before any computation and returns the smallest value it saw.
"""
from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import NamedTuple

import mpmath
from mpmath import mpf

from .errors import DomainError, EvalDomainError, ParseError, PositivityError
from .precision import BigReal, Precision, exact_fraction, to_mpf
from .quadrature import SAMPLE_GUARD_DIGITS, lobatto_cos

#: name -> (function, domain fault or None, fault message). The fault test
#: reads the argument before rounding, so exact arguments are judged exactly.
FUNCTIONS = {
    "exp": (mpmath.exp, None, None),
    "log": (mpmath.log, lambda v: v <= 0, "log of a nonpositive value"),
    "sqrt": (mpmath.sqrt, lambda v: v < 0, "sqrt of a negative value"),
    "cosh": (mpmath.cosh, None, None),
    "sinh": (mpmath.sinh, None, None),
}
FUNCTION_NAMES = tuple(FUNCTIONS)
#: A rational base to an integer power stays exact while the power's size
#: bound, |k| times the bits of the base beyond the first, is within this.
EXACT_POWER_BITS = 4096
#: Points of the positivity screen ``validate_positive``: the Chebyshev-Lobatto
#: nodes of degree SCREEN_POINTS - 1, a power of two.
SCREEN_POINTS = 257
#: Deepest level the parser lets an expression reach, and the levels one
#: pair of parentheses (a call's included) takes. Parsing recurses seven
#: times per pair, printing and evaluating at most twice per level, so the
#: deepest accepted input stays inside Python's default recursion limit of
#: 1000 with room for the caller's frames.
MAX_NESTING = 300
PAREN_LEVELS = 3


# --- syntax tree: one record per grammar rule ---
# Kinds never compare equal: Var has no fields, Num holds a Fraction and Neg a
# node, Pow starts with a node and Call with a str, and only Binary has three.

class Num(NamedTuple):
    value: Fraction


class Var(NamedTuple):
    pass


class Neg(NamedTuple):
    operand: object


class Binary(NamedTuple):
    """left <op> right; the symbol ``op`` keys its precedence and arithmetic in BINARY_OPS."""

    op: str
    left: object
    right: object


#: symbol -> (printed form, precedence, operation). Precedence 1 is the
#: grammar's ``expr`` level and 2 its ``term`` level; the printed form is the
#: symbol with its spacing. A zero divisor raises ZeroDivisionError.
BINARY_OPS = {
    "+": (" + ", 1, operator.add),
    "-": (" - ", 1, operator.sub),
    "*": ("*", 2, operator.mul),
    "/": ("/", 2, operator.truediv),
}


class Pow(NamedTuple):
    base: object
    exponent: Fraction


class Call(NamedTuple):
    name: str
    argument: object


# --- evaluation ---

def _fault(message: str, x) -> EvalDomainError:
    """The domain fault ``message`` at x, naming the point unless x is None (constant folding)."""
    if x is not None:
        message += f" at x = {mpmath.nstr(x, 8)}"
    return EvalDomainError(message)


def evaluate(node, x):
    """Value of the expression at x; Fraction-exact where possible."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -evaluate(node.operand, x)
    if isinstance(node, Binary):
        a, b = evaluate(node.left, x), evaluate(node.right, x)
        if isinstance(a, mpf) or isinstance(b, mpf):
            # mpmath rejects a Fraction in some mixed operations (division)
            a, b = to_mpf(a), to_mpf(b)
        try:
            return BINARY_OPS[node.op][2](a, b)
        except ZeroDivisionError:
            raise _fault("division by zero", x) from None
    if isinstance(node, Pow):
        base = evaluate(node.base, x)
        q = node.exponent
        if base == 0 and q < 0:
            raise _fault("zero raised to a negative power", x)
        if q.denominator == 1:
            k = q.numerator
            if isinstance(base, Fraction):
                bits = max(base.numerator.bit_length(), base.denominator.bit_length()) - 1
                if abs(k) * bits > EXACT_POWER_BITS:
                    return mpmath.power(to_mpf(base), k)
            return base ** k
        if base < 0:
            raise _fault("negative base with a fractional exponent", x)
        return mpmath.power(to_mpf(base), to_mpf(q))
    if isinstance(node, Call):
        v = evaluate(node.argument, x)
        fn, fault, message = FUNCTIONS[node.name]
        if fault is not None and fault(v):
            raise _fault(message, x)
        return fn(to_mpf(v))
    raise DomainError(f"cannot evaluate node {node!r}")


# --- printing ---

def _decimal_repr(q: Fraction):
    """Finite decimal string for q >= 0, or None if the denominator is not 2^a 5^b."""
    if q.denominator == 1:
        return str(q.numerator)
    d = q.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return None
    scale = max(twos, fives)
    digits = str(q.numerator * 10 ** scale // q.denominator).rjust(scale + 1, "0")
    return digits[:-scale] + "." + digits[-scale:]


def _precedence(node) -> int:
    if isinstance(node, Binary):
        return BINARY_OPS[node.op][1]
    if isinstance(node, Neg):
        return 3
    if isinstance(node, Pow):
        return 4
    return 5


def _rational_repr(q: Fraction) -> str:
    """'0.5', '(1/3)', '(-0.5)', '(-1/3)': q as a finite decimal, else n/d, in
    parentheses when it is negative or a ratio."""
    text = _decimal_repr(abs(q)) or f"{abs(q.numerator)}/{q.denominator}"
    return f"({'-' if q < 0 else ''}{text})" if q < 0 or "/" in text else text


def to_source(node) -> str:
    """Render with minimal parentheses; reparsing yields a structurally equal tree."""
    def wrap(child, minimum):
        text = to_source(child)
        return f"({text})" if _precedence(child) < minimum else text

    if isinstance(node, Num):
        if node.value < 0:
            raise DomainError("negative literal; wrap it in a unary minus")
        return _rational_repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        return "-" + wrap(node.operand, 3)
    if isinstance(node, Binary):
        text, prec, _ = BINARY_OPS[node.op]
        return f"{wrap(node.left, prec)}{text}{wrap(node.right, prec + 1)}"
    if isinstance(node, Pow):
        return f"{wrap(node.base, 5)}^{_rational_repr(node.exponent)}"
    if isinstance(node, Call):
        return f"{node.name}({to_source(node.argument)})"
    raise DomainError(f"cannot print node {node!r}")


# --- parsing ---

#: One group per token kind; whitespace is skipped and any other character is ``bad``.
_TOKEN_RE = re.compile(r"(?P<number>\d+\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                       r"|(?P<op>[-+*/^()])|(?P<space>\s+)|(?P<bad>.)")


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(source: str):
    """The tokens of ``source``, an operator's kind its own symbol, then ``end``."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", m.start())
        if kind != "space":
            tokens.append(_Token(text if kind == "op" else kind, text, m.start()))
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    """Recursive descent over the tokens. Each rule takes ``outer``, the
    levels above it, and returns its tree and ``reach``, the deepest level
    in it: a binary operator or ``^`` is one level above its operands, the
    operand of a unary minus and an exponent one below, and a
    parenthesized group or call argument PAREN_LEVELS below."""

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", tok.pos, (kind,))
        return self.advance()

    def within(self, tok: _Token, level: int) -> int:
        """``level``, or ParseError at ``tok`` if it is deeper than MAX_NESTING."""
        if level > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", tok.pos)
        return level

    def parse(self):
        node, _ = self.binary(1, 0)
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos,
                             tuple(BINARY_OPS) + ("^",))
        return node

    def binary(self, level: int, outer: int):
        """A left-associative chain at one precedence level: 1 is expr, 2 is term."""
        def operand():
            return self.binary(2, outer) if level == 1 else self.unary(outer)

        node, reach = operand()
        while BINARY_OPS.get(self.peek().kind, (None, 0))[1] == level:
            tok = self.advance()
            right, right_reach = operand()
            node = Binary(tok.kind, node, right)
            reach = self.within(tok, max(reach, right_reach) + 1)
        return node, reach

    def unary(self, outer: int):
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            operand, reach = self.unary(self.within(tok, outer + 1))
            return Neg(operand), reach
        return self.power(outer)

    def power(self, outer: int):
        base, reach = self.atom(outer)
        if self.peek().kind == "^":
            caret = self.advance()
            exponent, _ = self.unary(self.within(caret, outer + 1))
            folded = _fold_rational(exponent)
            if folded is None:
                raise ParseError("exponent must be a rational constant",
                                 caret.pos, ("number",))
            return Pow(base, folded), self.within(caret, reach + 1)
        return base, reach

    def atom(self, outer: int):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            try:
                return Num(exact_fraction(tok.text)), outer
            except DomainError as exc:
                raise ParseError(str(exc), tok.pos) from None
        if tok.kind == "name":
            self.advance()
            if tok.text == "x":
                return Var(), outer
            if tok.text in FUNCTION_NAMES:
                self.expect("(")
                arg, reach = self.binary(1, self.within(tok, outer + PAREN_LEVELS))
                self.expect(")")
                return Call(tok.text, arg), reach
            raise ParseError(f"unknown name {tok.text!r}", tok.pos,
                             ("x",) + FUNCTION_NAMES)
        if tok.kind == "(":
            self.advance()
            node, reach = self.binary(1, self.within(tok, outer + PAREN_LEVELS))
            self.expect(")")
            return node, reach
        shown = tok.text or "end of input"
        raise ParseError(f"expected a value, found {shown!r}", tok.pos,
                         ("number", "x", "("))


def _fold_rational(node):
    """Fraction value of a constant subtree, or None: evaluated with x unbound,
    any use of x raises, and a call or a fractional power yields an mpf."""
    try:
        value = evaluate(node, None)
    except (TypeError, DomainError):
        return None
    return value if isinstance(value, Fraction) else None


# --- public surface ---

class PerturbationFn(NamedTuple):
    """A positive perturbation factor: callable tree plus its normalized source."""

    source: str
    ast: object

    def __call__(self, x) -> BigReal:
        return to_mpf(evaluate(self.ast, x))


def parse_h(source: str) -> PerturbationFn:
    """Parse an expression into a callable perturbation (no positivity check yet)."""
    ast = _Parser(source).parse()
    return PerturbationFn(to_source(ast), ast)


def positive_sample(h, x) -> BigReal:
    """h(x) as an mpf, or PositivityError with the witness x if it is not positive."""
    v = to_mpf(h(x))
    if not v > 0:
        raise PositivityError(
            f"h({mpmath.nstr(x, 8)}) = {mpmath.nstr(v, 6)} is not positive",
            witness=x, value=v)
    return v


def validate_positive(h: PerturbationFn, p: Precision) -> BigReal:
    """Screen h > 0 on a Chebyshev point set including both endpoints; return the smallest value.

    Samples the Chebyshev-Lobatto nodes cos(pi j / (SCREEN_POINTS-1)),
    j = 0..SCREEN_POINTS-1, at the precision (``SAMPLE_GUARD_DIGITS`` over
    ``p``) and from the cosine table (:func:`lobatto_cos`) that
    ``quadrature.cheb_expand`` reads at ``p``, so one memo of h given to both
    evaluates h once at each node they share. The clustering near +-1
    targets where admissible perturbations degenerate first. Raises
    PositivityError with the witnessing point on any nonpositive value.
    EvalDomainError from the expression itself propagates unchanged.
    """
    with p.workdps(SAMPLE_GUARD_DIGITS):
        return min(positive_sample(h, x) for x in lobatto_cos(SCREEN_POINTS - 1))


# --- ready-made perturbations ---

def _literal(q) -> str:
    """Source text of a rational constant: '0.5', '-(1/3)'."""
    q = Fraction(q)
    return ("-" if q < 0 else "") + to_source(Num(abs(q)))


def h_one() -> PerturbationFn:
    """The trivial perturbation h = 1."""
    return parse_h("1")


def h_const(c) -> PerturbationFn:
    """Constant perturbation h = c, c > 0 rational."""
    c = Fraction(c)
    if c <= 0:
        raise DomainError(f"constant perturbation must be positive, got {c}")
    return parse_h(_literal(c))


def h_exp_linear(t) -> PerturbationFn:
    """h = exp(t x), entire and positive for every rational t."""
    t = Fraction(t)
    inner = {1: "x", -1: "-x"}.get(t) or f"{_literal(t)}*x"
    return parse_h(f"exp({inner})")


def h_exp_cheb2(t) -> PerturbationFn:
    """h = exp(t (2x^2 - 1)), the degree-two pure-oscillation perturbation."""
    t = Fraction(t)
    return parse_h("exp(2*x^2 - 1)" if t == 1 else f"exp({_literal(t)}*(2*x^2 - 1))")


def h_one_plus_square(c) -> PerturbationFn:
    """h = 1 + c x^2, positive on [-1, 1] for rational c > -1."""
    c = Fraction(c)
    if c <= -1:
        raise DomainError(f"1 + c x^2 must stay positive on [-1, 1], got c = {c}")
    if c == 0:
        return h_one()
    square = "x^2" if abs(c) == 1 else f"{_literal(abs(c))}*x^2"
    return parse_h(f"1 {'+' if c > 0 else '-'} {square}")
