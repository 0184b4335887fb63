"""Exact scalar ring: arithmetic, canonical form, parsing, evaluation."""

from __future__ import annotations

import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdof.scalar import _integer, decimal, exact_str, mono_from_pairs, mono_mul
from icdof import (
    ExactScalar,
    NotRationalError,
    ParseError,
    ValidationError,
    as_scalar,
    parse_rational,
    parse_scalar,
)

G1 = ExactScalar.generator("g1")
G2 = ExactScalar.generator("g2")
G3 = ExactScalar.generator("g3")


def random_scalar(rng: random.Random, max_terms: int = 4, max_degree: int = 3) -> ExactScalar:
    gens = [G1, G2, G3]
    total = ExactScalar.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
    for _ in range(rng.randint(0, max_terms)):
        term = ExactScalar.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
        for _ in range(rng.randint(0, max_degree)):
            term = term * rng.choice(gens)
        total = total + term
    return total


def eval_float(value: ExactScalar, assignment: dict) -> float:
    """The value at a float point, summed term by term: the float oracle."""
    total = 0.0
    for mono, coeff in value.terms():
        term = float(coeff)
        for gen, exp in mono[1]:
            term *= assignment[gen] ** exp
        total += term
    return total


# -- the slow twins of scalar `+`, unary `-` and the product by a number: an
# index merge of the two canonical term lists and two tuple rebuilds, each
# building canonical form without `ExactScalar.from_terms`


def reference_add(a: ExactScalar, b: ExactScalar) -> ExactScalar:
    a, b = a._flat, b._flat
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ma, mb = a[i], b[j]
        if ma == mb:
            c = a[i + 1] + b[j + 1]
            if c:
                out += [ma, c]
            i += 2
            j += 2
        elif ma < mb:
            out += [ma, a[i + 1]]
            i += 2
        else:
            out += [mb, b[j + 1]]
            j += 2
    return ExactScalar(tuple(out) + a[i:] + b[j:])


def reference_neg(a: ExactScalar) -> ExactScalar:
    return ExactScalar(tuple(x if i % 2 == 0 else -x for i, x in enumerate(a._flat)))


def reference_scale(a: ExactScalar, q) -> ExactScalar:
    if not q:
        return ExactScalar.ZERO
    return ExactScalar(tuple(x if i % 2 == 0 else _norm_coeff(q * x) for i, x in enumerate(a._flat)))


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


# -- the slow twin of parse_scalar: a tokenizer and a token-index loop that
# sums the terms with ExactScalar arithmetic, one `+` per term

_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\s*/\s*\d+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^])|(?P<bad>\S))"
)


def _reference_tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if match.group("bad"):
            raise ParseError(
                f"unexpected character {match.group('bad')!r} at position {match.start('bad')} in {text!r}"
            )
        if match.group("number"):
            tokens.append(("num", match.group("number").replace(" ", "")))
        elif match.group("ident"):
            tokens.append(("ident", match.group("ident")))
        else:
            tokens.append(("op", match.group("op")))
        pos = match.end()
    return tokens


def reference_parse_scalar(text: str) -> ExactScalar:
    cleaned = text.replace("−", "-").replace("–", "-").strip()
    if "." in cleaned:
        raise ParseError(f"decimal literals are not exact; write a fraction p/q instead: {text!r}")
    if not cleaned:
        raise ParseError("empty scalar expression")
    tokens = _reference_tokenize(cleaned)
    result = ExactScalar.ZERO
    idx = 0
    while idx < len(tokens):
        sign = 1
        while idx < len(tokens) and tokens[idx][0] == "op" and tokens[idx][1] in "+-":
            if tokens[idx][1] == "-":
                sign = -sign
            idx += 1
        if idx >= len(tokens):
            raise ParseError(f"dangling sign in {text!r}")
        term, idx = _reference_parse_term(tokens, idx, cleaned)
        result = result + (term * -1 if sign < 0 else term)
        if idx < len(tokens) and not (tokens[idx][0] == "op" and tokens[idx][1] in "+-"):
            raise ParseError(f"expected '+' or '-' before {tokens[idx][1]!r} in {text!r}")
    return result


def _reference_parse_term(tokens, idx, text):
    factors = []
    expect_factor = True
    while idx < len(tokens):
        kind, value = tokens[idx]
        if expect_factor:
            if kind == "num":
                factors.append(ExactScalar.rational(parse_rational(value)))
                idx += 1
            elif kind == "ident":
                base = ExactScalar.generator(value)
                idx += 1
                if idx < len(tokens) and tokens[idx] == ("op", "^"):
                    idx += 1
                    if idx >= len(tokens) or tokens[idx][0] != "num" or "/" in tokens[idx][1]:
                        raise ParseError(f"'^' must be followed by an integer exponent in {text!r}")
                    base = base ** _integer(tokens[idx][1])
                    idx += 1
                factors.append(base)
            else:
                raise ParseError(f"expected a number or generator near {value!r} in {text!r}")
            expect_factor = False
        else:
            if kind == "op" and value == "*":
                expect_factor = True
                idx += 1
            else:
                break
    if expect_factor or not factors:
        raise ParseError(f"dangling operator in {text!r}")
    product = factors[0]
    for factor in factors[1:]:
        product = product * factor
    return product, idx


def parsed_or_refused(parse, text: str):
    """The canonical form `parse` gives `text`, or ParseError if it refuses it."""
    try:
        return parse(text)._flat
    except ParseError:
        return ParseError


# unicode whitespace (no-break, em and ideographic spaces, a file separator)
# and an Arabic-Indic digit, which `\d` and int() both read as 3
_SPACES = [" ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c"]
_TOKEN_SOUP = st.lists(
    st.sampled_from(["0", "1", "7", "12", "\u0663", "/", ".", "g", "g1", "h_1_2", "_x", "G2",
                     "*", "^", "+", "-", "−", "–", "(", ")", *_SPACES]),
    max_size=14,
).map("".join)


_BLANK = st.sampled_from(["", "", " ", "  ", *_SPACES[1:]])
_SIGN_RUN = st.lists(st.builds(str.__add__, _BLANK, st.sampled_from("+-−–")),
                     min_size=1, max_size=3).map("".join)
_FACTOR = st.one_of(
    st.integers(0, 30).map(str),
    st.builds("{}{}/{}{}".format, st.integers(0, 30), _BLANK, _BLANK, st.integers(0, 9)),
    st.sampled_from(["g1", "g2", "x"]),
    st.builds("{}{}^{}{}".format, st.sampled_from(["g1", "g2", "x"]), _BLANK, _BLANK,
              st.integers(0, 4)),
)
_TERM = st.builds(lambda factors, b1, b2: b1 + f"{b2}*{b1}".join(factors) + b2,
                  st.lists(_FACTOR, min_size=1, max_size=3), _BLANK, _BLANK)
# sums of products with runs of signs, blanks anywhere between tokens,
# repeated generators, powers and `p / q`
_EXPRESSIONS = st.builds(
    lambda lead, first, rest: lead + first + "".join(signs + term for signs, term in rest),
    st.just("") | _SIGN_RUN, _TERM, st.lists(st.tuples(_SIGN_RUN, _TERM), max_size=3),
)


# scalars of up to 5 terms over g1..g3 of degree <= 3; the coefficients
# include halves and thirds, so that some sums are integers
_COEFFS = st.one_of(st.integers(-6, 6),
                    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 6])))
_MONOS = st.lists(st.sampled_from(["g1", "g2", "g3"]), max_size=3).map(
    lambda gens: mono_from_pairs((g, 1) for g in gens))
_SCALARS = st.dictionaries(_MONOS, _COEFFS, max_size=5).map(ExactScalar.from_terms)
# plain numbers as operands: ints, Fractions (some with denominator 1) and bools
_NUMBERS = st.one_of(_COEFFS, st.builds(Fraction, st.integers(-6, 6)), st.booleans())
_OPERANDS = st.one_of(_SCALARS, _NUMBERS)


def assert_canonical(value: ExactScalar):
    flat = value._flat
    monos, coeffs = flat[::2], flat[1::2]
    assert all(m < n for m, n in zip(monos, monos[1:]))
    for c in coeffs:
        assert c and type(c) in (int, Fraction)
        assert not (isinstance(c, Fraction) and c.denominator == 1)
    rebuilt = ExactScalar.from_terms(dict(value.terms()))
    assert value == rebuilt and hash(value) == hash(rebuilt)
    if value.is_rational():
        assert hash(value) == hash(value.as_fraction())


class TestArithmetic:
    def test_small_identities(self):
        assert (G1 + 1) * (G1 - 1) == G1 * G1 - 1
        assert (G1 + G2) ** 2 == G1**2 + 2 * G1 * G2 + G2**2
        assert G1 - G1 == ExactScalar.ZERO
        assert not (G1 - G1)
        assert G1 * 0 == ExactScalar.ZERO
        assert G1 * 1 == G1
        assert Fraction(1, 2) * G1 + Fraction(1, 2) * G1 == G1

    def test_non_numeric_operands_raise_type_error(self):
        with pytest.raises(TypeError):
            G1 + "x"
        with pytest.raises(TypeError):
            G1 * "x"

    def test_pow(self):
        a = 2 * G1 + 1
        assert a**0 == ExactScalar.ONE
        assert a**1 == a
        assert a**3 == a * a * a
        with pytest.raises(Exception):
            a ** (-1)

    def test_pow_matches_repeated_products(self, rng):
        for _ in range(60):
            a = random_scalar(rng, max_terms=2, max_degree=2)
            for base in (a, Fraction(-2, 3) * G1**2 * G2, ExactScalar.ZERO):
                product = ExactScalar.ONE
                for e in range(6):
                    assert base**e == product
                    product = product * base

    def test_pow_of_one_term_takes_one_step(self):
        # a loop of 10^6 products took seconds
        start = time.perf_counter()
        assert parse_scalar("g^1000000") == ExactScalar.from_terms(
            {mono_from_pairs([("g", 10**6)]): 1})
        assert time.perf_counter() - start < 0.5
        assert (Fraction(-1, 2) * G1 * G2**3) ** 10001 == ExactScalar.from_terms(
            {mono_from_pairs([("g1", 10001), ("g2", 30003)]): Fraction(-1, 2**10001)})

    def test_ring_axioms_on_corpus(self, rng):
        for _ in range(150):
            a, b, c = (random_scalar(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == ExactScalar.ZERO
            assert a * ExactScalar.ONE == a

    def test_hash_consistency(self, rng):
        for _ in range(100):
            a = random_scalar(rng)
            b = -(-a)
            assert a == b and hash(a) == hash(b)
        assert hash(ExactScalar.rational(3)) == hash(as_scalar(3))

    def test_rational_scalar_hashes_as_its_number(self):
        assert 3 in frozenset({as_scalar(3)})
        assert as_scalar(3) in frozenset({3})
        assert {as_scalar(Fraction(1, 2)): 1}.get(Fraction(1, 2)) == 1
        assert hash(ExactScalar.ZERO) == hash(0) == 0
        assert len({0, ExactScalar.ZERO, Fraction(-2, 4), as_scalar("-1/2"), G1}) == 3

    @given(st.lists(st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.builds(as_scalar, st.fractions(min_value=-3, max_value=3, max_denominator=4)),
        st.builds(lambda c, x: G1 * c + x, st.integers(-2, 2), st.integers(-2, 2)),
    ), min_size=2, max_size=2))
    def test_equal_values_hash_equal(self, pair):
        a, b = pair
        if a == b:
            assert hash(a) == hash(b)

    def test_rational_fast_paths_match_general_route(self, rng):
        for _ in range(100):
            a = random_scalar(rng)
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert a * q == a * ExactScalar.rational(q)
            assert a + q == a + ExactScalar.rational(q)

    @given(_SCALARS, _SCALARS, _NUMBERS)
    def test_operations_match_reference(self, a, b, q):
        assert (a + b)._flat == reference_add(a, b)._flat
        assert (a - b)._flat == reference_add(a, reference_neg(b))._flat
        assert (-a)._flat == reference_neg(a)._flat
        assert (a * q)._flat == (q * a)._flat == reference_scale(a, q)._flat
        assert (a + q)._flat == (q + a)._flat == reference_add(a, ExactScalar.rational(q))._flat

    @given(_SCALARS, _OPERANDS, _OPERANDS)
    def test_ring_laws_with_numbers_on_either_side(self, a, b, c):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (b + a) + c == b + (a + c)
        assert (a * b) * c == a * (b * c) and (b * c) * a == b * (c * a)
        assert a * (b + c) == a * b + a * c and b * (a + c) == b * a + b * c
        assert a - b == a + (-1) * b and b - a == -(a - b)
        assert a + 0 == a and a * 1 == a and a * 0 == 0 and a - a == 0

    @given(_SCALARS, _OPERANDS)
    def test_results_are_canonical(self, a, b):
        for value in (a + b, b + a, a - b, b - a, -a, a * b, b * a, a**2):
            assert_canonical(value)

    def test_a_bool_operand_is_the_int_it_equals(self):
        value = ExactScalar.generator("g") + True
        assert str(value) == "1 + g"
        assert type(value._flat[1]) is int


class TestQueries:
    def test_is_rational_and_as_fraction(self):
        assert ExactScalar.rational(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
        assert as_scalar(7).is_rational()
        assert not G1.is_rational()
        with pytest.raises(NotRationalError):
            G1.as_fraction()

    def test_constant_monomial_is_matched_by_value(self):
        # a freshly built constant monomial, equal to but not the same object
        # as any other, still makes a rational that prints as one
        one = mono_from_pairs([("g1", 0)])
        q = ExactScalar.from_terms({one: Fraction(3, 2)})
        assert q.is_rational() and q.as_fraction() == Fraction(3, 2)
        assert str(q) == "3/2" and str(q * G1 - G1) == "1/2*g1"
        assert mono_mul(one, (1, (("g1", 1),))) == (1, (("g1", 1),))

    def test_eval_float_is_a_homomorphism(self, rng):
        assignment = {"g1": 1.25, "g2": -0.75, "g3": 0.5}
        for _ in range(100):
            a, b = random_scalar(rng), random_scalar(rng)
            fa, fb = eval_float(a, assignment), eval_float(b, assignment)
            scale = max(1.0, abs(fa), abs(fb), abs(fa * fb))
            assert eval_float(a + b, assignment) == pytest.approx(fa + fb, abs=1e-9 * scale)
            assert eval_float(a * b, assignment) == pytest.approx(fa * fb, abs=1e-9 * scale)

    def test_sort_key_orders_by_degree(self):
        keys = [x.sort_key() for x in (as_scalar(2), G1, G1 * G2, G1**3)]
        assert keys == sorted(keys)


class TestParsing:
    def test_round_trip(self, rng):
        for _ in range(100):
            a = random_scalar(rng)
            assert parse_scalar(str(a)) == a

    def test_refusals(self):
        with pytest.raises(ValidationError) as info:
            ExactScalar.generator("1x")
        assert str(info.value) == "invalid generator id '1x'"
        with pytest.raises(ParseError) as info:
            parse_scalar(3)
        assert str(info.value) == "expected a scalar string, got int"

    def test_examples(self):
        assert parse_scalar("2*g1^2 - 1/3*g2 + 4") == 2 * G1**2 - Fraction(1, 3) * G2 + 4
        assert parse_scalar("-g1") == -G1
        assert parse_scalar("0") == ExactScalar.ZERO
        assert parse_scalar("g1*g2*g1") == G1**2 * G2
        assert parse_scalar("3/4") == ExactScalar.rational(Fraction(3, 4))

    def test_unicode_minus(self):
        assert parse_scalar("−g1 + 2") == -G1 + 2

    def test_decimals_rejected(self):
        with pytest.raises(ParseError, match="fraction"):
            parse_scalar("0.5*g1")

    @pytest.mark.parametrize("bad", ["", "g1 +", "g1 g2", "2**3", "(g1)", "1/0", "^2"])
    def test_malformed(self, bad):
        with pytest.raises(Exception):
            parse_scalar(bad)

    @settings(max_examples=1000)
    @given(_TOKEN_SOUP)
    def test_token_soup_matches_reference(self, text):
        assert parsed_or_refused(parse_scalar, text) == parsed_or_refused(reference_parse_scalar, text)

    @settings(max_examples=500)
    @given(_EXPRESSIONS)
    def test_expressions_match_reference(self, text):
        assert parsed_or_refused(parse_scalar, text) == parsed_or_refused(reference_parse_scalar, text)

    def test_parses_with_no_scalar_arithmetic(self, monkeypatch):
        # summing the terms one `+` at a time is quadratic: 20000 took 50 s
        big = " + ".join(f"g{i}" for i in range(20000))
        expected = {
            big: ExactScalar.from_terms({mono_from_pairs([(f"g{i}", 1)]): 1 for i in range(20000)}),
            "2*g1^2*g2 - 1/3*g2 + 4": 2 * G1**2 * G2 - Fraction(1, 3) * G2 + 4,
        }

        def refuse(*args):
            raise AssertionError("the parser did ExactScalar arithmetic")

        for name in ("__add__", "__mul__", "__pow__"):
            monkeypatch.setattr(ExactScalar, name, refuse)
        for text, value in expected.items():
            assert parse_scalar(text) == value

    def test_zero_denominator_names_the_literal(self):
        with pytest.raises(ParseError, match=r"^zero denominator in '3/0'$"):
            parse_scalar("2*g1 + 3/0")

    @pytest.mark.parametrize("flag", [True, False])
    def test_booleans_are_not_scalars(self, flag):
        with pytest.raises(ValidationError):
            as_scalar(flag)

    def test_parse_rational(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2") == -2
        assert parse_rational("−1/3") == Fraction(-1, 3)
        with pytest.raises(ParseError):
            parse_rational("0.25")

    def test_parse_rational_reads_the_en_dash(self):
        assert parse_rational("–3/4") == Fraction(-3, 4)

    def test_literals_over_the_digit_limit_are_parse_errors(self):
        # int() refuses more than 4300 digits with a ValueError
        for text in ("1" * 5000, "1/" + "1" * 5000, "g^" + "9" * 5000, "2*" + "1" * 5000):
            with pytest.raises(ParseError, match="integer literal of 5000 digits is over the limit"):
                parse_scalar(text)


class TestFormatting:
    def test_constant_leads_then_graded(self):
        s = 2 * G1**2 + Fraction(2, 3) * G2 + Fraction(13, 3)
        assert str(s) == "13/3 + 2/3*g2 + 2*g1^2"

    def test_negative_leading_term(self):
        assert str(-G1) == "-g1"
        assert str(1 - G1) == "1 - g1"

    def test_zero(self):
        assert str(ExactScalar.ZERO) == "0"

    def test_values_too_long_to_convert_are_named_by_size(self):
        # the digit count of the longest integer, exact on both sides of a power of ten
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert decimal(10**700 - 1) == "a value of 700 digits"
            assert decimal(-(10**700)) == "a value of 701 digits"
            assert decimal(Fraction(1, 10**700 + 1)) == "a value of 701 digits"
            assert decimal(10**699 * G1 + 1) == "a value of 700 digits"
            assert decimal(10**700, "10^700") == "10^700"
            assert decimal(Fraction(-3, 10**639)) == str(Fraction(-3, 10**639))
            message = "^cannot print a value of 700 digits exactly; the limit is 640 digits$"
            with pytest.raises(ValidationError, match=message):
                exact_str(G1 + 10**699)
            assert exact_str(G1 + 10**639) == f"{10**639} + g1"
        finally:
            sys.set_int_max_str_digits(limit)
