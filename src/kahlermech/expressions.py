"""Symbolic scalar fields on a flat complex phase chart.

Coordinates are the positions z1..zm and the fibre velocities w1..wm,
treated as independent formal variables.  Differentiation is the formal
(Wirtinger) partial with respect to one of these symbols: conj, re and im
are opaque to it and differentiate to zero.  Evaluation maps every symbol
to a complex number and computes in complex arithmetic throughout.

The fold rules (constant folding and the unit and zero laws) live in one
constructor, :func:`fold`.  Every differentiation rule builds through it,
so the derivative of a folded tree comes out folded, and :func:`simplify`
is a bottom-up rebuild through it.  A caller folds a parsed tree once,
where it enters, and differentiates the result as often as it likes.

The concrete grammar accepted by :func:`parse_expression`::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | 'i' | symbol | func '(' expr ')' | '(' expr ')'
    symbol := ('z'|'w') digits
    func   := sin | cos | exp | log | conj | re | im

A number is an unsigned decimal literal, optionally with a fractional part
and a scientific exponent (``2``, ``0.5``, ``1e-3``): :data:`NUMBER`.  There
is no unary minus; the printer renders negations as ``(0 - x)`` so that
printed text always re-parses.  Parentheses nest at most :data:`MAX_DEPTH`
deep.  The grammar is ASCII: any other character is a :class:`ParseError`
at its position.
"""

from __future__ import annotations

import cmath
import math
import re
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple


class ExprError(Exception):
    """Base class for expression-layer failures."""


class ParseError(ExprError):
    """Malformed or out-of-range input text.

    Carries the character offset at which parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ExprError):
    """A singular operation was hit during evaluation.

    ``subtree`` is the offending node (the division, log or power whose
    argument was out of domain), not the whole expression.  ``state`` is
    None, or the phase state of the failing solve (set by the dynamics layer).
    """

    state = None

    def __init__(self, message: str, subtree: "Expr"):
        super().__init__(f"{message}: {subtree}")
        self.subtree = subtree


class Expr:
    """Base node.  Subclasses set ``args`` (child tuple) and a payload."""

    args: Tuple["Expr", ...] = ()

    def _payload(self):
        return ()

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self._payload() == other._payload()
            and self.args == other.args
        )

    def __hash__(self):
        return hash((type(self).__name__, self._payload(), self.args))

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"

    def __str__(self):
        return self._print()

    # Precedence levels: 1 add/sub, 2 mul/div, 3 pow, 4 atom.
    def _print(self, prec: int = 0) -> str:
        raise NotImplementedError

    def evaluate(self, point: Mapping["Sym", complex]) -> complex:
        raise NotImplementedError

    def diff(self, s: "Sym") -> "Expr":
        raise NotImplementedError

    def contains_symbol(self) -> bool:
        return any(a.contains_symbol() for a in self.args)


def as_expr(value) -> Expr:
    """An expression as itself, a number (a constant coefficient) as a Num."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, complex)):
        return Num(value)
    raise TypeError(f"cannot use {value!r} in an expression")


def _fmt_unsigned(x: float) -> str:
    """Format a nonnegative real as an unsigned decimal literal.

    Infinity prints as ``1e999``, which parses back to infinity; NaN has
    no literal in the grammar and prints as ``nan``.
    """
    if not math.isfinite(x):
        return "1e999" if x > 0 else "nan"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _fmt_real_atom(x: float) -> Tuple[str, int]:
    """Print a real constant; negative values become '(0 - v)'."""
    if x >= 0:
        return _fmt_unsigned(x), 4
    return f"(0 - {_fmt_unsigned(-x)})", 4


class Num(Expr):
    """Complex literal."""

    def __init__(self, value):
        self.value = complex(value)

    def _payload(self):
        return (self.value,)

    def _print(self, prec: int = 0) -> str:
        re, im = self.value.real, self.value.imag
        if im == 0.0:
            return _fmt_real_atom(re)[0]
        if im == 1.0:
            imag = "i"
        elif im == -1.0:
            imag = "(0 - i)"
        elif im > 0:
            imag = f"{_fmt_unsigned(im)}*i"
        else:
            imag = f"(0 - {_fmt_unsigned(-im)}*i)"
        if re == 0.0:
            if im > 0 and im != 1.0 and prec > 2:
                return f"({imag})"
            return imag
        text = f"({_fmt_real_atom(re)[0]} + {imag})"
        return text

    def evaluate(self, point):
        return self.value

    def diff(self, s):
        return Num(0)

    def contains_symbol(self) -> bool:
        return False


class Sym(Expr):
    """A phase-space coordinate: kind 'z' (position) or 'w' (velocity)."""

    def __init__(self, kind: str, index: int):
        if kind not in ("z", "w"):
            raise ValueError(f"symbol kind must be 'z' or 'w', got {kind!r}")
        if index < 1:
            raise ValueError(f"symbol index must be >= 1, got {index}")
        self.kind = kind
        self.index = index

    @property
    def name(self) -> str:
        return f"{self.kind}{self.index}"

    def _payload(self):
        return (self.kind, self.index)

    def _print(self, prec: int = 0) -> str:
        return self.name

    def evaluate(self, point):
        try:
            return complex(point[self])
        except KeyError:
            raise EvalDomainError("no value supplied for symbol", self) from None

    def diff(self, s):
        return Num(1 if self == s else 0)

    def contains_symbol(self) -> bool:
        return True


class _Binary(Expr):
    _symbol = "?"
    _prec = 0
    _associative = False

    def __init__(self, left, right):
        self.args = (as_expr(left), as_expr(right))

    @property
    def left(self):
        return self.args[0]

    @property
    def right(self):
        return self.args[1]

    def _print(self, prec: int = 0) -> str:
        # A right child of equal precedence needs parens unless the operator
        # is associative: '-' and '/' are left-associative in the grammar.
        right = self.right._print(self._prec if self._associative else self._prec + 1)
        text = f"{self.left._print(self._prec)} {self._symbol} {right}"
        if prec > self._prec:
            return f"({text})"
        return text


class Add(_Binary):
    _symbol = "+"
    _prec = 1
    _associative = True

    def evaluate(self, point):
        return self.left.evaluate(point) + self.right.evaluate(point)

    def diff(self, s):
        return fold(Add, self.left.diff(s), self.right.diff(s))


class Sub(_Binary):
    _symbol = "-"
    _prec = 1

    def evaluate(self, point):
        return self.left.evaluate(point) - self.right.evaluate(point)

    def diff(self, s):
        return fold(Sub, self.left.diff(s), self.right.diff(s))


class Mul(_Binary):
    _symbol = "*"
    _prec = 2
    _associative = True

    def evaluate(self, point):
        return self.left.evaluate(point) * self.right.evaluate(point)

    def diff(self, s):
        return fold(Add, fold(Mul, self.left.diff(s), self.right),
                    fold(Mul, self.left, self.right.diff(s)))


class Div(_Binary):
    _symbol = "/"
    _prec = 2

    def evaluate(self, point):
        denom = self.right.evaluate(point)
        if denom == 0:
            raise EvalDomainError("division by zero", self)
        return self.left.evaluate(point) / denom

    def diff(self, s):
        numerator = fold(Sub, fold(Mul, self.left.diff(s), self.right),
                         fold(Mul, self.left, self.right.diff(s)))
        return fold(Div, numerator, fold(Pow, self.right, 2))


class Pow(Expr):
    """Integer power of a subexpression."""

    _prec = 3

    def __init__(self, base, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError("Pow exponent must be a plain integer")
        self.args = (as_expr(base),)
        self.exponent = exponent

    @property
    def base(self):
        return self.args[0]

    def _payload(self):
        return (self.exponent,)

    def _print(self, prec: int = 0) -> str:
        if self.exponent < 0:
            # The grammar has no signed exponents; render via a division.
            text = f"1 / {self.base._print(4)}^{-self.exponent}"
            if prec > 2:
                return f"({text})"
            return text
        text = f"{self.base._print(4)}^{self.exponent}"
        if prec > 3:
            return f"({text})"
        return text

    def evaluate(self, point):
        b = self.base.evaluate(point)
        if b == 0 and self.exponent < 0:
            raise EvalDomainError("zero base with negative exponent", self)
        try:
            return b ** self.exponent
        except (OverflowError, ZeroDivisionError):  # b^|k| under- or overflowed
            raise EvalDomainError("argument out of range", self) from None

    def diff(self, s):
        return fold(Mul, fold(Mul, Num(self.exponent), fold(Pow, self.base, self.exponent - 1)),
                    self.base.diff(s))


class _Unary(Expr):
    def __init__(self, arg):
        self.args = (as_expr(arg),)

    @property
    def arg(self):
        return self.args[0]


class Neg(_Unary):
    """Negation; printed as (0 - x) to stay inside the grammar."""

    def _print(self, prec: int = 0) -> str:
        return f"(0 - {self.arg._print(2)})"

    def evaluate(self, point):
        return -self.arg.evaluate(point)

    def diff(self, s):
        return fold(Neg, self.arg.diff(s))


# Function name -> class, filled in as each function class is defined.
_FUNCTIONS: Dict[str, type] = {}


class _Function(_Unary):
    """A named function of one argument: the lower-cased class name in the
    grammar and in printed text, and with a leading underscore in generated
    code.  The tree walker and generated code both call ``value``.  A new
    function kind is one subclass, which ``_FUNCTIONS`` registers for the
    parser and :func:`compile_function`."""

    value: Callable[[complex], complex]

    def __init_subclass__(cls):
        if not cls.__name__.startswith("_"):
            cls.name = cls.__name__.lower()
            _FUNCTIONS[cls.name] = cls

    def _print(self, prec: int = 0) -> str:
        return f"{self.name}({self.arg._print(0)})"

    def evaluate(self, point):
        v = self.arg.evaluate(point)
        try:
            return self.value(v)
        except (OverflowError, ValueError):
            raise EvalDomainError("argument out of range", self) from None


class _Opaque(_Function):
    """A function the formal derivative treats as a constant."""

    def diff(self, s):
        return Num(0)


class Conj(_Opaque):
    value = staticmethod(lambda v: v.conjugate())


class Re(_Opaque):
    value = staticmethod(lambda v: complex(v.real))


class Im(_Opaque):
    value = staticmethod(lambda v: complex(v.imag))


class Sin(_Function):
    value = staticmethod(cmath.sin)

    def diff(self, s):
        return fold(Mul, fold(Cos, self.arg), self.arg.diff(s))


class Cos(_Function):
    value = staticmethod(cmath.cos)

    def diff(self, s):
        return fold(Mul, fold(Neg, fold(Sin, self.arg)), self.arg.diff(s))


class Exp(_Function):
    value = staticmethod(cmath.exp)

    def diff(self, s):
        return fold(Mul, fold(Exp, self.arg), self.arg.diff(s))


class Log(_Function):
    value = staticmethod(cmath.log)

    def evaluate(self, point):
        v = self.arg.evaluate(point)
        if v == 0:
            raise EvalDomainError("log of zero", self)
        return self.value(v)

    def diff(self, s):
        return fold(Div, self.arg.diff(s), self.arg)


# ---------------------------------------------------------------------------
# Parsing


# An unsigned ASCII decimal: digits with an optional fraction, or a fraction
# alone, then an optional exponent.  System files read their numbers with it.
NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_BLANKS = re.compile(r"\s*")
# The tokens the lexer reads with the blanks after them: a number or a name,
# and the digits of an exponent.
_ATOM = re.compile(rf"(?:({NUMBER.pattern})|([A-Za-z][A-Za-z0-9_]*))\s*")
_DIGITS = re.compile(r"([0-9]+)\s*")


class _Lexer:
    """A cursor that rests on a non-blank character or at the end."""

    def __init__(self, text: str):
        self.text = text
        self.pos = _BLANKS.match(text).end()

    def peek(self) -> str:
        """The next character; '' at the end."""
        return self.text[self.pos:self.pos + 1]

    def take(self) -> str:
        c = self.peek()
        self.pos = _BLANKS.match(self.text, self.pos + 1).end()
        return c

    def read(self, pattern) -> Tuple[Optional[str], ...]:
        """The groups of ``pattern`` matched at the cursor, consumed; all
        None if it does not match."""
        match = pattern.match(self.text, self.pos)
        if match is None:
            return (None,) * pattern.groups
        self.pos = match.end()
        return match.groups()


_BINARY = {kind._symbol: kind for kind in _Binary.__subclasses__()}


class _Parser:
    def __init__(self, text: str, m: int):
        self.lex = _Lexer(text)
        self.m = m
        self.open_groups = 0

    def parse(self) -> Expr:
        text = self.lex.text
        if not text.isascii():  # so str.isdigit() and the like read ASCII only
            pos = next(i for i, c in enumerate(text) if not c.isascii())
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        e = self.expr()
        if self.lex.peek():
            raise ParseError(
                f"unexpected trailing input {self.lex.text[self.lex.pos:]!r}",
                self.lex.pos,
            )
        return e

    def expr(self, prec: int = 1) -> Expr:
        """Operands joined left to right by the binary operators of
        precedence ``prec``; an operand binds tighter."""
        e = self.expr(prec + 1) if prec < Mul._prec else self.factor()
        while (kind := _BINARY.get(self.lex.peek())) is not None and kind._prec == prec:
            self.lex.take()
            e = kind(e, self.expr(prec + 1) if prec < Mul._prec else self.factor())
        return e

    def factor(self) -> Expr:
        c = self.lex.peek()
        start = self.lex.pos
        if c == "":
            raise ParseError("unexpected end of input", start)
        number, name = self.lex.read(_ATOM)
        if number:
            e = Num(float(number))
        elif name == "i":
            e = Num(1j)
        elif name and name[0] in "zw" and name[1:].isdigit():
            index = int(name[1:])
            if not 1 <= index <= self.m:
                raise ParseError(f"symbol {name!r} out of range for dimension m={self.m}", start)
            e = Sym(name[0], index)
        elif name and name not in _FUNCTIONS:
            raise ParseError(f"unknown symbol {name!r}", start)
        elif c == "(" or name:  # a group, or a function's argument
            if self.lex.peek() != "(":
                raise ParseError(f"expected '(' after {name!r}", self.lex.pos)
            self.open_groups += 1
            if self.open_groups > MAX_DEPTH:
                raise ParseError("expression nested too deeply", self.lex.pos)
            self.lex.take()
            e = self.expr()
            if self.lex.peek() != ")":
                raise ParseError("expected ')'", self.lex.pos)
            self.lex.take()
            self.open_groups -= 1
            if name:
                e = _FUNCTIONS[name](e)
        else:
            raise ParseError(f"unexpected character {c!r}", start)
        if self.lex.peek() == "^":
            self.lex.take()
            start = self.lex.pos
            digits, = self.lex.read(_DIGITS)
            if not digits:
                raise ParseError("expected an integer exponent after '^'", start)
            e = Pow(e, int(digits))
        return e


def parse_expression(text: str, m: int) -> Expr:
    """Parse ``text`` over coordinates z1..zm, w1..wm."""
    if m < 1:
        raise ValueError(f"dimension m must be >= 1, got {m}")
    return _Parser(text, m).parse()


# ---------------------------------------------------------------------------
# Folding: the one normal form


def fold(kind: type, *args) -> Expr:
    """The node ``kind(*args)`` with the fold rules applied at its root.

    Given folded children, the result is folded.  The rules are the unit and
    zero laws x + 0, 0 + x, x - 0, x * 1, 1 * x, x / 1 -> x; x * 0, 0 * x,
    0 / x -> 0; x^0 -> 1, x^1 -> x; 0 - x -> -x; -(-x) -> x; and, after
    them, a node whose children are all literals becomes the literal of its
    value, unless evaluating it raises :class:`EvalDomainError`.  The
    result evaluates like the node wherever the node is defined; as usual
    for x*0 -> 0, folding can enlarge the domain.
    """
    first = args[0]
    lnum = first.value if isinstance(first, Num) else None
    rnum = None
    if kind is Pow:
        if args[1] in (0, 1):
            return first if args[1] else _ONE
    elif kind is Neg:
        if isinstance(first, Neg):
            return first.arg
    elif kind in (Add, Sub, Mul, Div):
        right = args[1]
        rnum = right.value if isinstance(right, Num) else None
        unit = 1 if kind in (Mul, Div) else 0  # the right identity
        if kind is Mul and 0 in (lnum, rnum) or kind is Div and lnum == 0:
            return _ZERO
        if lnum == unit and kind in (Add, Mul):
            return right
        if rnum == unit:
            return first
        if kind is Sub and lnum == 0 and rnum is None:
            return fold(Neg, right)
    node = kind(*args)
    if lnum is not None and (rnum is not None or len(node.args) == 1):  # literal children
        try:
            return Num(node.evaluate({}))
        except EvalDomainError:
            pass
    return node


_ZERO = Num(0)
_ONE = Num(1)


def simplify(e: Expr) -> Expr:
    """``e`` in the normal form of :func:`fold`, rebuilt bottom-up.

    The result evaluates identically to the input wherever the input is
    defined.  (As usual for x*0 -> 0, folding can enlarge the domain.)
    """
    return fold(type(e), *map(simplify, e.args), *e._payload()) if e.args else e


# ---------------------------------------------------------------------------
# Free-function convenience API


def evaluate(e: Expr, point: Mapping[Sym, complex]) -> complex:
    """Evaluate ``e`` at a total assignment of symbols to complex values."""
    return e.evaluate(point)


def diff(e: Expr, s: Sym) -> Expr:
    """Formal partial derivative of ``e`` with respect to the symbol ``s``."""
    return e.diff(s)


def make_point(z_values, w_values) -> Dict[Sym, complex]:
    """Build an evaluation point from position and velocity value vectors."""
    point: Dict[Sym, complex] = {}
    for i, v in enumerate(z_values, start=1):
        point[Sym("z", i)] = complex(v)
    for i, v in enumerate(w_values, start=1):
        point[Sym("w", i)] = complex(v)
    return point


def walk(e: Expr) -> Iterator[Expr]:
    """Every node of ``e``, parents before children, left to right."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.args))


# The most nodes on a root-to-leaf path of an input expression: generated
# code nests a parenthesis per node, and Python's parser holds 200.
MAX_DEPTH = 200


def check_expression(e: Expr, m: int, what: str) -> None:
    """:class:`ValueError`, naming ``what``, unless ``e`` is at most
    :data:`MAX_DEPTH` nodes deep and its symbols are among z1..zm, w1..wm."""
    stack = [(e, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ValueError(f"{what} is nested too deeply (more than {MAX_DEPTH} levels)")
        if isinstance(node, Sym) and node.index > m:
            raise ValueError(f"{what} uses {node.name}, beyond the dimension m={m}")
        stack.extend((a, depth + 1) for a in node.args)


def domain_error(e: Expr, point: Mapping[Sym, complex]) -> Optional[EvalDomainError]:
    """Why ``e`` has no finite value at ``point``, or None when it has one.

    The tree walker finds the offending subtree: the division, log or
    power that raised, or else the innermost node whose value is infinite
    or NaN.
    """
    try:
        value = e.evaluate(point)
    except EvalDomainError as err:
        return err
    if cmath.isfinite(value):
        return None
    while True:
        bad = next((a for a in e.args if not cmath.isfinite(a.evaluate(point))), None)
        if bad is None:
            return EvalDomainError("non-finite value", e)
        e = bad


def overflow_error(entries: Sequence[Expr], magnitudes) -> EvalDomainError:
    """The domain error where a magnitude (or a quantity made from them)
    overflows the float range: it names the first entry of largest one."""
    largest = max(range(len(entries)), key=magnitudes.__getitem__)
    return EvalDomainError("magnitude beyond the float range", entries[largest])


# ---------------------------------------------------------------------------
# Compiled evaluation (internal fast path for dynamics, constraints, checks)
#
# Each system, constraint set and check run emits one function from these
# pieces as a GeneratedFunction; on a domain failure it falls back to the
# tree walker through domain_error, which names the offending subtree.

# What generated code raises where the tree walker raises EvalDomainError.
COMPILED_DOMAIN_ERRORS = (ZeroDivisionError, ValueError, OverflowError)

# Mixed-sign zeros have no constant expression; generated code reads globals.
_MIXED_ZEROS = {"-0j": "_zero_negzero", "(-0+0j)": "_negzero_zero"}


def _repr_is_exact(v: complex) -> bool:
    """Whether ``repr(v)`` evaluates back to ``v``: ``(-0-1j)`` is
    ``-0 - 1j``, whose real part is +0.0."""
    positive = [math.copysign(1.0, x) > 0 for x in (v.real, v.imag)]
    return cmath.isfinite(v) and (all(positive) if v.real == 0 else v.imag != 0 or positive[1])


def _literal(v: complex) -> str:
    """Source for exactly ``v``, signs of zeros included: a constant the
    compiler folds, except for non-finite values and mixed-sign zeros."""
    if not cmath.isfinite(v):
        return f"complex({str(v)!r})"
    if _repr_is_exact(v):
        return f"({v!r})"
    if _repr_is_exact(-v):
        return f"(-{-v!r})"
    if v.imag != 0:  # a signed zero real part: 0.0 - |b|j is (0.0, -|b|)
        return f"(0.0 - {-v.imag!r}j)" if v.imag < 0 else f"(-(0.0 - {v.imag!r}j))"
    return _MIXED_ZEROS[repr(v)]


def emit(e: Expr) -> str:
    """Python source for ``e`` over the locals z1.., w1...; a literal
    evaluates to exactly the value of its :class:`Num`."""
    if isinstance(e, Num):
        return _literal(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Pow):
        return f"({emit(e.base)} ** {e.exponent})"
    if isinstance(e, _Binary):
        return f"({emit(e.left)} {e._symbol} {emit(e.right)})"
    if isinstance(e, Neg):
        return f"(-{emit(e.arg)})"
    return f"_{e.name}({emit(e.arg)})"  # the function's value, bound by compile_function


def compile_function(signature: str, body: List[str], symbols, **names) -> Callable:
    """Compile ``def f(signature): body`` with one ``compile`` call.

    ``signature`` starts with the value tuples ``z, w``; each symbol in
    ``symbols`` is unpacked from them into the local :func:`emit` names.
    ``names`` are further globals of the generated code.  Source nested
    too deeply for Python's parser is a :class:`ValueError`.
    """
    unpack = [
        f"{s.name} = {s.kind}[{s.index - 1}]"
        for s in sorted(set(symbols), key=lambda s: (s.kind, s.index))
    ]
    source = "\n    ".join([f"def f({signature}):"] + unpack + body)
    namespace = dict(__builtins__={}, complex=complex, _zero_negzero=complex(0.0, -0.0),
                     _negzero_zero=complex(-0.0, 0.0), **names,
                     **{f"_{name}": kind.value for name, kind in _FUNCTIONS.items()})
    try:
        code = compile(source, "<generated>", "exec")
    except SyntaxError as err:  # Python's parser holds 200 nested parentheses
        raise ValueError(f"expression nested too deeply to compile: {err.msg}") from None
    exec(code, namespace)
    return namespace["f"]


def shifted(z, w, h: float, k) -> Tuple[List[complex], List[complex]]:
    """The stage state (z + h k_z, w + h k_w), where ``k`` holds k_z then
    k_w, with the arithmetic of :meth:`GeneratedFunction.at`."""
    return [x + h * v for x, v in zip(z, k)], [x + h * v for x, v in zip(w, k[len(z):])]


class GeneratedFunction:
    """Generated code over ``entries``, with the tree walker kept to say
    why it failed.

    ``body`` is compiled as a function of ``z, w`` (m values each) and uses
    the entries through :func:`emit`.  Where the code raises one of
    ``COMPILED_DOMAIN_ERRORS``, :meth:`at` raises instead the tree walker's
    :class:`EvalDomainError` for the first entry without a finite value;
    the two agree on every value and every domain error.
    """

    def __init__(self, body: List[str], entries: Sequence[Expr], m: int):
        self.entries = tuple(entries)
        symbols = [Sym(kind, i) for kind in "zw" for i in range(1, m + 1)]
        shift = [f"    {s.name} += h * k[{s.index - 1 + m * (s.kind == 'w')}]" for s in symbols]
        self._call = compile_function("z, w, h=0.0, k=()", ["if k:", *shift, *body], symbols)

    def at(self, z, w, h: float = 0.0, k=()):
        """What the body returns at ``(z, w)``, or for a nonempty ``k`` at
        :func:`shifted` ``(z, w, h, k)``, which the generated code computes."""
        try:
            return self._call(z, w, h, k)
        except COMPILED_DOMAIN_ERRORS:
            raise self.domain_error(*(shifted(z, w, h, k) if k else (z, w))) from None

    def values(self, z, w) -> List[complex]:
        """The entries' values from a body that returns them as one list;
        :class:`EvalDomainError` unless every one is finite."""
        values = self.at(z, w)
        # One sum tests them all (an infinite or NaN term never cancels);
        # only finite values that overflow the sum need the entry-by-entry
        # test.  abs() is no help: it raises on |1.7e308 + 1.7e308j|.
        if not cmath.isfinite(sum(values)) and not all(map(cmath.isfinite, values)):
            raise self.domain_error(z, w)
        return values

    def domain_error(self, z, w) -> Optional[EvalDomainError]:
        """The tree walker's error for the first entry without a finite
        value at ``(z, w)``, or None when every entry has one."""
        point = make_point(z, w)
        return next(filter(None, (domain_error(e, point) for e in self.entries)), None)

    def magnitude_error(self, z, w) -> Optional[EvalDomainError]:
        """The :func:`overflow_error` at ``(z, w)`` when the magnitude of an
        entry's finite value overflows, or None when every magnitude fits."""
        point = make_point(z, w)
        values = [e.evaluate(point) for e in self.entries]
        magnitudes = [math.hypot(v.real, v.imag) for v in values]
        return overflow_error(self.entries, magnitudes) if math.inf in magnitudes else None
