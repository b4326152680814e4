"""Text model files: a small declaration language for charts and tensors.

A model is a sequence of lines: one ``space`` declaration, then named
bindings of scalars, forms, multivectors, structures and volumes.

    space 3 coords x1 x2 x3
    scalar f  = x1^2 + x2^2 + x3^2
    lambda L  = (x1^2 + x2^2 + x3^2) * @1^@2^@3 order 3
    form  a   = x1 * dx1 ^ dx2
    volume V  = std
    volume W  = exp(-x1) * std

``@k`` is the k-th coordinate field, ``dxk`` the coordinate differential.
``^`` is the wedge product; applied to a scalar base with a numeric-literal
exponent it is a power, which is the one scalar case where the two readings
differ (on degree-0 arguments the wedge is multiplication).  ``**`` is always
scalar power.  A power of a power needs parentheses, ``(x1^2)^3`` and not
``x1^2^3``, since conventions group it either way.  ``#`` starts a comment.
Numbers are integers, optionally ``a/b`` fractions.  Errors carry line,
column and the offending token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Polynomial
from .exterior import FORM, MULTIVECTOR, Chart, GradedTensor, wedge
from .modular import VolumeSpec
from .structures import NambuStructure

KEYWORDS = {"space", "coords", "scalar", "form", "mv", "lambda", "volume",
            "order", "std", "exp"}
BINDING_KINDS = ("scalar", "form", "mv", "lambda", "volume")


class ModelError(Exception):
    """Parse or typing error in a model file, with source position."""

    def __init__(self, message: str, line: int, column: int, token: str = ""):
        self.message = message
        self.line = line
        self.column = column
        self.token = token
        where = f"line {line}, column {column}"
        if token:
            where += f" at {token!r}"
        super().__init__(f"{message} ({where})")


@dataclass(frozen=True)
class Token:
    kind: str  # INT | IDENT | SYM
    text: str
    line: int
    column: int


# ``\w`` also holds numerals that are not decimal digits, such as ² and ½, so
# the loop checks that an identifier starts with a letter or an underscore
_TOKEN = re.compile(r"(?P<INT>\d+)|(?P<IDENT>[^\W\d]\w*)|(?P<SYM>\*\*|[-+*()=^@/])"
                    r"|(?P<COMMENT>#)|(?P<BAD>\S)")


def _tokenize_line(text: str, line_no: int) -> list[Token]:
    tokens: list[Token] = []
    for match in _TOKEN.finditer(text):
        kind, token, column = match.lastgroup, match.group(), match.start() + 1
        if kind == "COMMENT":
            break
        if kind == "BAD" or kind == "IDENT" and not (token[0].isalpha() or token[0] == "_"):
            raise ModelError("unexpected character", line_no, column, token[0])
        tokens.append(Token(kind, token, line_no, column))
    return tokens


@dataclass(frozen=True)
class Binding:
    kind: str
    name: str
    value: object  # Polynomial | GradedTensor | NambuStructure | VolumeSpec


@dataclass(eq=False)
class ModelFile:
    """A parsed model; structures compare by identity, so models do too."""

    chart: Chart
    bindings: dict[str, Binding]

    def binding(self, name: str, kind: str):
        entry = self.bindings.get(name)
        if entry is None:
            raise KeyError(f"no binding named {name!r}")
        if entry.kind != kind:
            raise KeyError(f"binding {name!r} is a {entry.kind}, not a {kind}")
        return entry.value

    def _unique(self, kind: str):
        names = [b.name for b in self.bindings.values() if b.kind == kind]
        if len(names) != 1:
            raise KeyError(f"model defines {len(names)} {kind} bindings; name one explicitly")
        return self.bindings[names[0]].value

    def structure(self, name: str | None = None) -> NambuStructure:
        return self.binding(name, "lambda") if name else self._unique("lambda")

    def volume(self, name: str | None = None) -> VolumeSpec:
        """The named volume; unnamed, the unique one, or the standard volume if none is bound."""
        if name:
            return self.binding(name, "volume")
        if not any(b.kind == "volume" for b in self.bindings.values()):
            return VolumeSpec.standard(self.chart)
        return self._unique("volume")

    def scalar(self, name: str) -> Polynomial:
        return self.binding(name, "scalar")


class _Parser:
    def __init__(self, tokens: list[Token], chart: Chart,
                 bindings: dict[str, Binding]):
        self.tokens = tokens
        self.pos = 0
        self.chart = chart
        self.bindings = bindings

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            last = self.tokens[-1]
            raise ModelError("unexpected end of line", last.line,
                             last.column + len(last.text))
        self.pos += 1
        return token

    def expect(self, text: str) -> Token:
        token = self.next()
        if token.text != text:
            raise ModelError(f"expected {text!r}", token.line, token.column, token.text)
        return token

    def error(self, message: str, token: Token) -> ModelError:
        return ModelError(message, token.line, token.column, token.text)

    # -- expression grammar --------------------------------------------------

    def parse_expression(self):
        negate = False
        token = self.peek()
        if token is not None and token.text == "-":
            self.next()
            negate = True
        value, _ = self.parse_term()
        if negate:
            value = -value
        while (token := self.peek()) is not None and token.text in ("+", "-"):
            self.next()
            rhs, _ = self.parse_term()
            if token.text == "-":
                rhs = -rhs
            value = self._add(value, rhs, token)
        return value

    def parse_term(self):
        value, literal = self.parse_factor()
        while (token := self.peek()) is not None and token.text == "*":
            self.next()
            rhs, _ = self.parse_factor()
            value = self._multiply(value, rhs, token)
            literal = False
        return value, literal

    def parse_factor(self):
        value, literal = self.parse_primary()
        powered = False
        while (token := self.peek()) is not None and token.text in ("^", "**"):
            self.next()
            if token.text == "**":
                exponent = self.next()
                if exponent.kind != "INT":
                    raise self.error("scalar power needs an integer exponent", exponent)
                power = int(exponent.text)
            else:
                rhs, rhs_literal = self.parse_primary()
                # scalar base with a literal numeric exponent reads as a power
                literal_power = rhs_literal and isinstance(value, Polynomial)
                power = self._as_int(rhs, token) if literal_power else None
            if powered and power is not None:
                raise self.error("a power of a power needs parentheses", token)
            value = self._wedge(value, rhs, token) if power is None else \
                self._power(value, power, token)
            powered, literal = power is not None, False
        return value, literal

    def parse_primary(self):
        token = self.next()
        if token.kind == "INT":
            number = int(token.text)
            if (nxt := self.peek()) is not None and nxt.text == "/":
                self.next()
                denom = self.next()
                if denom.kind != "INT" or int(denom.text) == 0:
                    raise self.error("expected a non-zero integer denominator", denom)
                number = Fraction(int(token.text), int(denom.text))
            return Polynomial.constant(self.chart.coordinates, number), True
        if token.text == "(":
            value = self.parse_expression()
            self.expect(")")
            return value, False
        if token.text == "@":
            index = self.next()
            if index.kind != "INT":
                raise self.error("expected a coordinate number after @", index)
            k = int(index.text)
            if not 1 <= k <= self.chart.dimension:
                raise self.error("coordinate number out of range", index)
            return GradedTensor.coordinate_field(self.chart, k - 1), False
        if token.kind == "IDENT":
            return self._resolve(token), False
        raise self.error("unexpected token", token)

    def _resolve(self, token: Token):
        name = token.text
        if name in self.chart.coordinates:
            return Polynomial.variable(self.chart.coordinates,
                                       self.chart.coordinates.index(name))
        entry = self.bindings.get(name)
        if entry is not None:
            if entry.kind in ("scalar", "form", "mv"):
                return entry.value
            raise self.error(f"a {entry.kind} binding cannot appear in an expression",
                             token)
        if name.startswith("d") and name[1:] in self.chart.coordinates:
            index = self.chart.coordinates.index(name[1:])
            return GradedTensor.coordinate_differential(self.chart, index)
        raise self.error("unknown name", token)

    # -- value algebra ---------------------------------------------------------

    def _as_int(self, value, token: Token) -> int:
        if isinstance(value, Polynomial) and value.is_constant():
            constant = value.constant_value()
            if constant.denominator == 1 and constant >= 0:
                return int(constant)
        raise self.error("exponent must be a non-negative integer", token)

    def _add(self, left, right, token: Token):
        if isinstance(left, Polynomial) and isinstance(right, Polynomial):
            return left + right
        if isinstance(left, GradedTensor) and isinstance(right, GradedTensor):
            if left.variance != right.variance and not (left.is_zero() or right.is_zero()):
                raise self.error("cannot add a form and a multivector", token)
            if left.degree != right.degree and not (left.is_zero() or right.is_zero()):
                raise self.error(
                    f"cannot add tensors of degrees {left.degree} and {right.degree}",
                    token)
            if left.is_zero() and left.degree != right.degree:
                return right
            if right.is_zero() and left.degree != right.degree:
                return left
            if left.variance != right.variance:
                return left if right.is_zero() else right
            return left + right
        raise self.error("cannot add a scalar and a tensor", token)

    def _multiply(self, left, right, token: Token):
        if isinstance(left, Polynomial) and isinstance(right, Polynomial):
            return left * right
        if isinstance(left, Polynomial) and isinstance(right, GradedTensor):
            return right.scale(left)
        if isinstance(left, GradedTensor) and isinstance(right, Polynomial):
            return left.scale(right)
        raise self.error("use ^ for products of forms or multivectors", token)

    def _wedge(self, left, right, token: Token):
        if isinstance(left, Polynomial) or isinstance(right, Polynomial):
            return self._multiply(left, right, token)
        if left.variance != right.variance:
            raise self.error("cannot wedge a form with a multivector", token)
        if left.chart != right.chart:
            raise self.error("wedge operands live on different charts", token)
        return wedge(left, right)

    def _power(self, value, exponent: int, token: Token):
        if not isinstance(value, Polynomial):
            raise self.error("powers apply to scalars only", token)
        return value ** exponent


def _parse_space(tokens: list[Token]) -> Chart:
    parser = _Parser(tokens, Chart.of("placeholder"), {})
    parser.expect("space")
    dim_token = parser.next()
    if dim_token.kind != "INT":
        raise parser.error("expected the chart dimension", dim_token)
    dimension = int(dim_token.text)
    parser.expect("coords")
    names = []
    while parser.peek() is not None:
        token = parser.next()
        if token.kind != "IDENT":
            raise parser.error("expected a coordinate name", token)
        if token.text in KEYWORDS:
            raise parser.error("coordinate name collides with a keyword", token)
        names.append(token.text)
    if len(names) != dimension:
        raise ModelError(f"declared dimension {dimension} but {len(names)} coordinates",
                         tokens[0].line, tokens[0].column)
    try:
        return Chart.of(names)
    except ValueError as exc:
        raise ModelError(str(exc), tokens[0].line, tokens[0].column) from None


def _parse_volume(parser: _Parser, tokens_rest: list[Token]) -> VolumeSpec:
    chart = parser.chart
    if not tokens_rest:
        last = parser.tokens[-1]
        raise ModelError("empty volume expression", last.line, last.column)
    if len(tokens_rest) == 1 and tokens_rest[0].text == "std":
        return VolumeSpec.standard(chart)
    tail = tokens_rest[-2:]
    if len(tail) != 2 or tail[0].text != "*" or tail[1].text != "std":
        raise ModelError("a volume is 'std', 'poly * std' or 'exp(poly) * std'",
                         tokens_rest[0].line, tokens_rest[0].column,
                         tokens_rest[-1].text)
    head = tokens_rest[:-2]
    if head and head[0].text == "exp":
        inner = _Parser(head, chart, parser.bindings)
        inner.expect("exp")
        inner.expect("(")
        exponent = inner.parse_expression()
        inner.expect(")")
        if inner.peek() is not None:
            raise inner.error("unexpected token after exp(...)", inner.peek())
        if not isinstance(exponent, Polynomial):
            raise ModelError("the exponential weight must be a scalar",
                             head[0].line, head[0].column)
        # exp(E) is exp(-w) with the weight w = -E
        return VolumeSpec.weighted(chart, -exponent)
    inner = _Parser(head, chart, parser.bindings)
    coefficient = inner.parse_expression()
    if inner.peek() is not None:
        raise inner.error("unexpected token in volume coefficient", inner.peek())
    if not isinstance(coefficient, Polynomial):
        raise ModelError("the volume coefficient must be a scalar",
                         head[0].line, head[0].column)
    if coefficient.is_zero():
        raise ModelError("the volume coefficient must be non-zero",
                         head[0].line, head[0].column)
    return VolumeSpec(chart, coefficient, chart.zero_polynomial())


def parse_model(text: str) -> ModelFile:
    """Parse a model file; raises ModelError with line/column on any defect."""
    chart: Chart | None = None
    bindings: dict[str, Binding] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if not tokens:
            continue
        head = tokens[0]
        if head.text == "space":
            if chart is not None:
                raise ModelError("duplicate space declaration", head.line, head.column)
            chart = _parse_space(tokens)
            continue
        if chart is None:
            raise ModelError("the space declaration must come first",
                             head.line, head.column, head.text)
        if head.text not in BINDING_KINDS:
            raise ModelError("expected a binding kind", head.line, head.column, head.text)
        kind = head.text
        parser = _Parser(tokens, chart, bindings)
        parser.expect(kind)
        name_token = parser.next()
        if name_token.kind != "IDENT":
            raise parser.error("expected a binding name", name_token)
        name = name_token.text
        if name in KEYWORDS or name in chart.coordinates or name in bindings \
                or (name.startswith("d") and name[1:] in chart.coordinates):
            raise parser.error("binding name is reserved or already used", name_token)
        parser.expect("=")

        if kind == "volume":
            value: object = _parse_volume(parser, tokens[parser.pos:])
        else:
            expression = parser.parse_expression()
            if kind == "scalar":
                if not isinstance(expression, Polynomial):
                    raise parser.error("scalar binding holds a tensor", name_token)
                value = expression
            elif kind in ("form", "mv"):
                wanted = FORM if kind == "form" else MULTIVECTOR
                if isinstance(expression, Polynomial):
                    expression = GradedTensor.from_scalar(chart, wanted, expression)
                if expression.variance != wanted and not expression.is_zero():
                    raise parser.error(f"{kind} binding holds the wrong variance",
                                       name_token)
                value = expression
            else:  # lambda
                order_token = parser.peek()
                if order_token is None or order_token.text != "order":
                    raise parser.error("a lambda binding needs a trailing order",
                                       name_token)
                parser.expect("order")
                order_value = parser.next()
                if order_value.kind != "INT":
                    raise parser.error("expected the structure order", order_value)
                if not isinstance(expression, GradedTensor) \
                        or expression.variance != MULTIVECTOR:
                    raise parser.error("a lambda binding must be a multivector",
                                       name_token)
                try:
                    value = NambuStructure(expression, order=int(order_value.text))
                except ValueError as exc:
                    raise ModelError(str(exc), name_token.line, name_token.column,
                                     name_token.text) from None
            if parser.peek() is not None:
                raise parser.error("unexpected tokens after the order" if kind == "lambda"
                                   else "unexpected trailing tokens", parser.peek())
        bindings[name] = Binding(kind, name, value)
    if chart is None:
        raise ModelError("model has no space declaration", 1, 1)
    return ModelFile(chart, bindings)
