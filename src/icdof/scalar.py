"""Exact scalars: polynomials in formal generators with rational coefficients.

Every value whose collisions matter (channel entries, alphabet points, linear
combinations of both) lives here. A generator is an opaque symbol standing in
for a real number with no rational relations to the others, so two values are
equal exactly when their canonical term lists coincide; zero-testing a
difference decides every collision question in the package.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterator, Mapping

from .errors import NotRationalError, ParseError, ValidationError

# A monomial is (degree, pairs) with pairs sorted by generator id, e.g.
# (3, (("g1", 2), ("g2", 1))) for g1^2*g2. Storing the degree first makes
# plain tuple comparison a graded order, so term lists sort without key
# functions. The empty monomial is the constant 1.
Monomial = tuple

MONO_ONE: Monomial = (0, ())


def mono_from_pairs(pairs) -> Monomial:
    """Build a canonical monomial from (generator, exponent) pairs."""
    merged: dict[str, int] = {}
    for gen, exp in pairs:
        if exp < 0:
            raise ValidationError(f"negative exponent {exp} for generator '{gen}'")
        if exp:
            merged[gen] = merged.get(gen, 0) + exp
    items = tuple(sorted(merged.items()))
    return (sum(e for _, e in items), items)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a[1]:
        return b
    if not b[1]:
        return a
    merged = dict(a[1])
    for gen, exp in b[1]:
        merged[gen] = merged.get(gen, 0) + exp
    return (a[0] + b[0], tuple(sorted(merged.items())))


def mono_str(mono: Monomial) -> str:
    if not mono[1]:
        return "1"
    return "*".join(g if e == 1 else f"{g}^{e}" for g, e in mono[1])


class ExactScalar:
    """Immutable canonical polynomial; hashable, so usable as a support point.

    Internally a flat tuple (m1, c1, m2, c2, ...) with monomials strictly
    increasing and coefficients nonzero ints or Fractions, an integral one
    always an int. Equality and hashing are plain tuple operations on that
    canonical form, except that a rational scalar hashes as the int or
    Fraction it equals.
    """

    __slots__ = ("_flat", "_hash")

    def __init__(self, flat: tuple = ()):
        # trusts the caller; external construction goes through the factories
        self._flat = flat
        self._hash = None

    # -- factories ---------------------------------------------------------

    @staticmethod
    def from_terms(terms: Mapping[Monomial, Fraction | int]) -> "ExactScalar":
        flat = []
        for mono in sorted(terms):
            coeff = terms[mono]
            if not coeff:
                continue
            if isinstance(coeff, Fraction) and coeff.denominator == 1:
                coeff = coeff.numerator
            flat.append(mono)
            flat.append(coeff)
        return ExactScalar(tuple(flat))

    @staticmethod
    def rational(value: int | Fraction) -> "ExactScalar":
        if not value:
            return ZERO
        if isinstance(value, Fraction) and value.denominator == 1:
            value = value.numerator
        return ExactScalar((MONO_ONE, value))

    @staticmethod
    def generator(gen_id: str) -> "ExactScalar":
        if not _IDENT_RE.fullmatch(gen_id):
            raise ValidationError(f"invalid generator id '{gen_id}'")
        return ExactScalar(((1, ((gen_id, 1),)), 1))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms())
        for mono, x in other.terms():
            c = acc.get(mono)
            acc[mono] = x if c is None else c + x
        return ExactScalar.from_terms(acc)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        b = other._flat
        acc: dict[Monomial, Fraction | int] = {}
        for ma, ca in self.terms():
            for j in range(0, len(b), 2):
                m = mono_mul(ma, b[j])
                c = acc.get(m)
                acc[m] = ca * b[j + 1] if c is None else c + ca * b[j + 1]
        return ExactScalar.from_terms(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValidationError(f"exponent must be a nonnegative integer, got {exponent!r}")
        if not exponent:
            return ONE
        flat = self._flat
        if len(flat) == 2:  # one term c*m: c^e * m^e in one step
            (degree, pairs), coeff = flat
            mono = (degree * exponent, tuple((g, k * exponent) for g, k in pairs))
            return ExactScalar((mono, coeff**exponent))
        half = self ** (exponent // 2)  # square and multiply
        return half * half * self if exponent % 2 else half * half

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._flat

    def __bool__(self) -> bool:
        return bool(self._flat)

    def is_rational(self) -> bool:
        flat = self._flat
        return not flat or (len(flat) == 2 and not flat[0][1])

    def as_fraction(self) -> Fraction:
        flat = self._flat
        if not flat:
            return Fraction(0)
        if len(flat) == 2 and not flat[0][1]:
            return Fraction(flat[1])
        raise NotRationalError(f"'{self}' is symbolic, not a rational")

    def terms(self) -> Iterator[tuple[Monomial, Fraction | int]]:
        flat = self._flat
        return zip(flat[::2], flat[1::2])

    def sort_key(self) -> tuple:
        """Opaque deterministic total-order key (used for stable JSON output)."""
        return self._flat

    # -- equality / hashing / formatting -------------------------------------

    def __eq__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self._flat == other._flat

    def __hash__(self):
        h = self._hash
        if h is None:
            flat = self._flat
            rational = len(flat) == 2 and not flat[0][1]
            h = self._hash = hash(flat[1] if rational else flat) if flat else 0
        return h

    def __str__(self) -> str:
        if not self._flat:
            return "0"
        parts = []
        for mono, coeff in self.terms():
            negative = coeff < 0
            mag = -coeff if negative else coeff
            if not mono[1]:
                body = str(mag)
            elif mag == 1:
                body = mono_str(mono)
            else:
                body = f"{mag}*{mono_str(mono)}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ExactScalar('{self}')"


def _operand(value) -> ExactScalar | None:
    """`value` as an operand of the ring operations: a scalar as itself, an
    int or a Fraction as its rational scalar (a bool as the int it equals),
    anything else as None."""
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactScalar.rational(int(value) if isinstance(value, bool) else value)
    return None


ZERO = ExactScalar()
ONE = ExactScalar((MONO_ONE, 1))
ExactScalar.ZERO = ZERO
ExactScalar.ONE = ONE


def decimal(value, formula: str = "") -> str:
    """`value` (an int, a Fraction or an ExactScalar) as `str` writes it, or,
    once it holds an integer too long for the interpreter to convert (its
    limit on integer string conversion), `formula` or else its size."""
    try:
        return str(value)
    except ValueError:
        pass
    if formula:
        return formula
    parts = [c for _, c in value.terms()] if isinstance(value, ExactScalar) else [value]
    top = max(abs(x) for p in map(Fraction, parts) for x in (p.numerator, p.denominator))
    digits = int((top.bit_length() - 1) * math.log10(2)) + 1  # those of 2^(bitlen - 1)
    return f"a value of {digits + (top >= 10**digits)} digits"


def exact_str(value) -> str:
    """`str(value)` for an output that must print `value` exactly; a value
    too long for the interpreter to convert is refused by its size."""
    try:
        return str(value)
    except ValueError:
        size, limit = decimal(value), sys.get_int_max_str_digits()
        raise ValidationError(f"cannot print {size} exactly; the limit is {limit} digits") from None


def as_scalar(value) -> ExactScalar:
    """Coerce an int, Fraction, text expression, or ExactScalar to ExactScalar."""
    if isinstance(value, ExactScalar):
        return value
    # bool is an int subclass; a JSON true/false is not a number
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return ExactScalar.rational(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise ValidationError(f"cannot interpret {value!r} as an exact scalar")


# -- text syntax -------------------------------------------------------------
#
# signed terms, each a "*" product of rationals "p/q" or "p" and generators
# "name" or "name^k", e.g. "2*g1^2*g2 - 1/3*g2 + 4". No parentheses, so every
# term is a rational times a monomial.

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_MINUS = str.maketrans("−–", "--")  # the minus sign and the en dash read as "-"
_FACTOR_RE = re.compile(rf"(\d+(?:\s*/\s*\d+)?)|({_IDENT_RE.pattern})(?:\s*\^\s*(\d+))?")


def parse_scalar(text: str) -> ExactScalar:
    """Parse the scalar text syntax into a canonical ExactScalar.

    Decimal literals are rejected: exact inputs are written "p/q" or "p".
    The minus sign "−" and the en dash "–" read as "-".
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a scalar string, got {type(text).__name__}")
    cleaned = text.translate(_MINUS).strip()
    if "." in cleaned:
        raise ParseError(f"decimal literals are not exact; write a fraction p/q instead: {text!r}")
    if not cleaned:
        raise ParseError("empty scalar expression")
    pieces = re.split(r"([-+])", cleaned)  # the signs at the odd places
    if not pieces[-1]:
        raise ParseError(f"dangling sign in {text!r}")
    terms: dict[Monomial, Fraction | int] = {}
    negative = False
    for i, piece in enumerate(pieces):
        if i % 2:
            negative ^= piece == "-"
        elif piece.strip():  # a blank piece lies between two signs of one run
            mono, coeff = _parse_term(piece, text)
            terms[mono] = terms.get(mono, 0) + (-coeff if negative else coeff)
            negative = False
    return ExactScalar.from_terms(terms)


def _parse_term(term: str, text: str):
    """The (monomial, coefficient) of one unsigned term."""
    coeff, pairs = 1, []
    for factor in map(str.strip, term.split("*")):
        match = _FACTOR_RE.fullmatch(factor)
        if match is None:
            if not factor:
                raise ParseError(f"dangling operator in {text!r}")
            raise ParseError(f"expected a number or a generator, not {factor!r}, in {text!r}")
        number, gen, exponent = match.groups()
        if number:
            # "zero denominator in '1/0'", also for "1 / 0"
            coeff *= parse_rational(number.replace(" ", ""))
        else:
            pairs.append((gen, _integer(exponent) if exponent else 1))
    return mono_from_pairs(pairs), coeff


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (signs allowed, read as in `parse_scalar`) into an
    exact Fraction."""
    cleaned = str(text).translate(_MINUS).strip()
    match = re.fullmatch(r"(-?\d+)(?:\s*/\s*(-?\d+))?", cleaned)
    if match is None:
        raise ParseError(f"expected a rational 'p/q' or 'p', got {text!r}")
    num = _integer(match.group(1))
    den = _integer(match.group(2)) if match.group(2) else 1
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def _integer(digits: str) -> int:
    """int(digits), refusing a literal longer than the interpreter converts."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits.lstrip('-'))} digits is over the "
                         f"limit of {sys.get_int_max_str_digits()}") from None
