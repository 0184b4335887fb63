"""Channel matrices, monomial families, the alphabet builder, and the
rational-independence checker with its witnesses."""

from __future__ import annotations

import json
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import icdof.channel
import icdof.linalg
from icdof import (
    BudgetExceededError,
    ChannelMatrix,
    ConditionStarReport,
    ExactScalar,
    ValidationError,
    Witness,
    WitnessTerm,
    as_scalar,
    build_wn,
    channel_from_json,
    check_condition_star,
    evaluate_monomial,
    is_fully_connected,
    monomial_basis,
    off_diagonal_name,
    phi,
    support_set,
    theorem1_certified_bound,
    verify_witness,
)
from icdof.channel import alphabet_size
from conftest import counting_merge, enumerate_monomials, reference_build_wn
from test_linalg import reference_first_kernel_vector


def rational_matrix(K: int, rng: random.Random) -> ChannelMatrix:
    return ChannelMatrix.from_rows(
        [[Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(K)] for _ in range(K)]
    )


def reference_family_kernel(H: ChannelMatrix, i: int, d: int):
    """User i's family, each member tagged and evaluated on its own, and the
    first kernel vector of its elimination by rows, or None."""
    diag = H.entry(i, i)
    family = [("monomial", m, evaluate_monomial(H, m))
              for m in enumerate_monomials(H.K, d + 1)]
    family += [("diag-multiple", m, diag * evaluate_monomial(H, m))
               for m in enumerate_monomials(H.K, d)]
    rows: dict = {}
    for col, (_, _, value) in enumerate(family):
        for mono, coeff in value.terms():
            rows.setdefault(mono, {})[col] = coeff
    return family, reference_first_kernel_vector(rows.values(), len(family))


def reference_check(H: ChannelMatrix, d: int) -> ConditionStarReport:
    """Slow twin of `check_condition_star`: both bases enumerated, every
    family member evaluated on its own and tagged, each user's family
    eliminated on its own by rows, the first kernel vector cleared to
    integers by hand, and re-substituted into the values the kernel saw."""
    for i in range(H.K):
        family, kernel = reference_family_kernel(H, i, d)
        if kernel is None:
            continue
        denom = math.lcm(*(x.denominator for x in kernel))
        ints = [int(x * denom) for x in kernel]
        sign = 1 if next(x for x in ints if x) > 0 else -1
        witness = [sign * x // math.gcd(*ints) for x in ints]
        combo = ExactScalar.ZERO
        for (_, _, value), coeff in zip(family, witness):
            combo = combo + value * coeff
        assert combo.is_zero()
        terms = tuple(
            WitnessTerm(tag, mono, coeff)
            for (tag, mono, _), coeff in zip(family, witness)
            if coeff
        )
        return ConditionStarReport("violated", d, Witness(user=i + 1, degree=d, terms=terms))
    return ConditionStarReport("holds-up-to-bound", d)


def _gen(i: int, j: int) -> ExactScalar:
    return ExactScalar.generator(off_diagonal_name(i, j))


@st.composite
def channels(draw, sizes=(2, 3)):
    """A K x K channel, K in `sizes`, of one of three kinds: all rational;
    generic generators mixed with rationals; or generic and polynomial
    entries such as h_1_2*h_2_1 + 1/2 off the diagonal, with rational ones
    allowed on it (the kind whose witnesses use the diagonal multiples)."""
    K = draw(st.sampled_from(sizes))
    kind = draw(st.sampled_from(("rational", "mixed", "polynomial")))
    gens = [_gen(i, j) for i in range(1, K + 1) for j in range(1, K + 1) if i != j]

    def entry(i, j):
        value = as_scalar(draw(st.fractions(min_value=-4, max_value=4, max_denominator=3)))
        choices = {
            "rational": ["rational"],
            "mixed": ["rational", "generic"],
            "polynomial": ["rational", "generic", "polynomial"] if i == j
            else ["generic", "generic", "polynomial"],
        }[kind]
        choice = draw(st.sampled_from(choices))
        if choice == "generic":
            return _gen(i, j)
        if choice == "polynomial":
            for _ in range(draw(st.integers(1, 2))):
                term = as_scalar(draw(st.integers(-2, 2)))
                for _ in range(draw(st.integers(1, 2))):
                    term = term * draw(st.sampled_from(gens))
                value = value + term
        return value

    return ChannelMatrix.from_rows(
        [[entry(i, j) for j in range(1, K + 1)] for i in range(1, K + 1)])


def single_term_channel(choose, K: int) -> ChannelMatrix:
    """A K x K channel whose entries are each one term: a nonzero rational,
    or a rational times a power of the position's own generator and up to two
    shared ones, or a rational times shared generators alone. `choose` picks
    one element of a tuple. Shared generators and rational entries make the
    rank certificate refuse some of these channels and accept the rest."""
    shared = (ExactScalar.generator("g1"), ExactScalar.generator("g2"))

    def entry(i, j):
        kind = choose(("own",) * 6 + ("shared",) * 3 + ("rational",))
        value = as_scalar(Fraction(choose((-3, -1, 1, 2, 3)), choose((1, 2, 3))))
        if kind == "rational":
            return value
        if kind == "own":
            value = value * _gen(i, j) ** choose((1, 2))
        for _ in range(choose((0, 1, 1)) if kind == "own" else choose((1, 2))):
            value = value * choose(shared)
        return value

    return ChannelMatrix.from_rows(
        [[entry(i, j) for j in range(1, K + 1)] for i in range(1, K + 1)])


@st.composite
def single_term_channels(draw):
    K = draw(st.sampled_from((2, 3)))
    return single_term_channel(lambda options: draw(st.sampled_from(options)), K)


def _single_term_exponents(value: ExactScalar):
    """The (generator, exponent) pairs of a single nonzero term, or None."""
    terms = list(value.terms())
    return terms[0][0][1] if len(terms) == 1 else None


def _sympy_gradient_at_ones(value: ExactScalar) -> dict:
    """{generator: nonzero derivative at the all-ones point}, by sympy."""
    gens = {name: sympy.Symbol(name) for mono, _ in value.terms() for name, _ in mono[1]}
    expr = sum((sympy.Rational(coeff.numerator, coeff.denominator)
                * sympy.Mul(*(gens[g] ** e for g, e in mono[1]))
                for mono, coeff in value.terms()), sympy.Integer(0))
    ones = {symbol: 1 for symbol in gens.values()}
    gradient = {name: sympy.diff(expr, symbol).subs(ones) for name, symbol in gens.items()}
    return {name: Fraction(int(v.p), int(v.q)) for name, v in gradient.items() if v}


@st.composite
def polynomial_channels(draw):
    """A K x K channel, K in {2, 3}, whose entries are sums of 0 to 3 terms
    c x^e, c a nonzero rational, over a pool of K(K-1) + 1 to K(K-1) + 3
    generators that every entry draws from: zero, rational, single-term and
    multi-term entries, with and without a Jacobian of full rank. Zero
    entries and constant terms are drawn less often than the others, so
    that some K = 3 channels have none; every draw comes from one seeded
    generator."""
    rng = draw(st.randoms(use_true_random=False))
    K = rng.choice((2, 3))
    pool = [ExactScalar.generator(f"g{n}") for n in range(K * (K - 1) + rng.randint(1, 3))]

    def term():
        value = as_scalar(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
        for _ in range(rng.choice((0, 1, 1, 2, 2))):
            value = value * rng.choice(pool) ** rng.randint(1, 2)
        return value

    def entry():
        return sum((term() for _ in range(rng.choice((0, 1, 1, 2, 2, 3, 3)))), ExactScalar.ZERO)

    return ChannelMatrix.from_rows([[entry() for _ in range(K)] for _ in range(K)])


def reference_rank_certificate(H: ChannelMatrix) -> list[bool]:
    """Slow twin of `_jacobian_certificate`: per user, one elimination by
    rows of the whole generator-by-column matrix for the K(K-1) off-diagonal
    entries and h_ii. On a channel of nonzero single terms c x^e the columns
    are the exponent vectors e, which the gradients at the all-ones point
    only scale by c != 0; on any other channel they are sympy's gradients at
    that point."""
    exponents = [[_single_term_exponents(x) for x in row] for row in H.entries]
    if any(e is None for row in exponents for e in row):
        columns = [[_sympy_gradient_at_ones(x) for x in row] for row in H.entries]
    else:
        columns = [[dict(e) for e in row] for row in exponents]
    off = [c for j, row in enumerate(columns) for k, c in enumerate(row) if j != k]
    proved = []
    for i in range(H.K):
        rows: dict[str, dict[int, Fraction | int]] = {}
        for col, column in enumerate(off + [columns[i][i]]):
            for gen, value in column.items():
                rows.setdefault(gen, {})[col] = value
        proved.append(reference_first_kernel_vector(rows.values(), len(off) + 1) is None)
    return proved


class TestChannelMatrix:
    def test_generic_entries_are_distinct_generators(self):
        H = ChannelMatrix.generic(3)
        names = {str(H.entry(i, j)) for i in range(3) for j in range(3)}
        assert len(names) == 9
        assert str(H.entry(0, 1)) == off_diagonal_name(1, 2)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            ChannelMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
        with pytest.raises(ValidationError):
            ChannelMatrix.from_rows([[1]])

    def test_fully_connected(self):
        assert is_fully_connected(ChannelMatrix.generic(4))
        lower_triangular = ChannelMatrix.from_rows([[1, 0, 0], [1, -1, 0], [1, 1, 1]])
        assert not is_fully_connected(lower_triangular)

    def test_json_generic_token(self):
        obj = {"K": 2, "entries": [["generic", "generic"], ["generic", "3/4"]]}
        H = channel_from_json(obj)
        assert H.entry(0, 0) == ExactScalar.generator(off_diagonal_name(1, 1))
        assert H.entry(1, 1) == as_scalar(Fraction(3, 4))

    def test_json_malformed(self):
        with pytest.raises(Exception):
            channel_from_json({"K": 2, "entries": [["1", "2"]]})
        with pytest.raises(Exception):
            channel_from_json({"entries": []})


def basis_monomials(K: int, d: int) -> tuple:
    """The monomials `monomial_basis` walks for a K-user channel."""
    return tuple(mono for mono, _ in monomial_basis(ChannelMatrix.generic(K), d))


class TestMonomialFamilies:
    def test_phi_values(self):
        assert [phi(3, d) for d in (0, 1, 2)] == [1, 7, 28]
        assert phi(2, 1) == 3
        assert phi(2, 0) == 1

    def test_phi_refusals(self):
        for args, message in (((1, 0), "need K >= 2, got 1"), ((2, -1), "need d >= 0, got -1")):
            with pytest.raises(ValidationError) as info:
                phi(*args)
            assert str(info.value) == message

    def test_enumeration_count_and_order(self):
        for K, d in ((2, 2), (3, 1), (3, 2)):
            basis = basis_monomials(K, d)
            assert len(basis) == phi(K, d)
            degrees = [mono[0] for mono in basis]
            assert degrees[0] == 0  # constant first
            assert degrees == sorted(degrees)
            assert len(set(basis)) == len(basis)

    @pytest.mark.parametrize("K, d", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 1)])
    def test_lower_degrees_are_a_prefix(self, K, d):
        assert (
            basis_monomials(K, d)
            == basis_monomials(K, d + 1)[: phi(K, d)]
        )

    def test_evaluate_monomial_is_a_product(self):
        H = ChannelMatrix.generic(2)
        basis, values = zip(*monomial_basis(H, 2))
        h12 = H.entry(0, 1)
        h21 = H.entry(1, 0)
        assert values[0] == ExactScalar.ONE
        assert h12 * h21 in values
        assert all(evaluate_monomial(H, m) == v for m, v in zip(basis, values))


class TestMonomialBasis:
    """`monomial_basis` against two oracles: the conftest enumeration for its
    monomials and their order, and `evaluate_monomial` for its values."""

    @settings(max_examples=60)
    @given(st.sampled_from((2, 3, 4)).map(ChannelMatrix.generic) | channels(sizes=(2, 3, 4)),
           st.data())
    def test_matches_the_oracles(self, H, data):
        d = data.draw(st.integers(0, {2: 5, 3: 3, 4: 2}[H.K]), label="d")
        walked = list(monomial_basis(H, d))
        assert walked == [(m, evaluate_monomial(H, m)) for m in enumerate_monomials(H.K, d)]

    def test_two_digit_names_sort_as_strings(self):
        H = ChannelMatrix.generic(11)
        walked = list(monomial_basis(H, 1))
        assert walked == [(m, evaluate_monomial(H, m)) for m in enumerate_monomials(11, 1)]
        names = [mono[1][0][0] for mono, _ in walked[1:]]
        assert names.index("h_10_1") < names.index("h_1_10") < names.index("h_1_2")

    def test_negative_degree_rejected(self):
        with pytest.raises(ValidationError) as info:
            next(monomial_basis(ChannelMatrix.generic(2), -1))
        assert str(info.value) == "need d >= 0, got -1"


# (channel, degrees) pairs for the slow twin of `build_wn`
REFERENCE_CHANNELS = {
    "generic2": (ChannelMatrix.generic(2), (0, 1, 2)),
    "generic3": (ChannelMatrix.generic(3), (0, 1)),
    "ones3": (ChannelMatrix.from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]]), (0, 1)),
    "zero-entry": (ChannelMatrix.from_rows([["h_1_1", 0], ["h_2_1", "h_2_2"]]), (0, 1, 2)),
    "affine2": (ChannelMatrix.from_rows([["h_1_1", "h_1_2 + 1"], ["h_2_1 + 1", "h_2_2"]]),
                (0, 1, 2)),
    "mixed3": (ChannelMatrix.from_rows([["h_1_1", 2, "h_1_3"], ["h_2_1", "h_2_2", Fraction(1, 2)],
                                        [-3, "h_3_2 + 1", "h_3_3"]]), (0, 1)),
}


class TestBuildWn:
    def test_desk_scale_size(self):
        alphabet = build_wn(ChannelMatrix.generic(3), 1, 2)
        assert len(alphabet) == 2 ** phi(3, 1) == 128
        assert all(p == Fraction(1, 128) for _, p in alphabet.items())

    def test_needs_one_point(self):
        with pytest.raises(ValidationError) as info:
            build_wn(ChannelMatrix.generic(2), 0, 0)
        assert str(info.value) == "need N >= 1, got 0"

    def test_degree_zero_gives_coefficient_range(self):
        alphabet = build_wn(ChannelMatrix.generic(3), 0, 3)
        assert support_set(alphabet) == {as_scalar(v) for v in (1, 2, 3)}

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("H, degrees", REFERENCE_CHANNELS.values(), ids=REFERENCE_CHANNELS)
    def test_matches_reference_enumeration(self, H, degrees, N):
        # each value's probability times N^phi is the number of coefficient
        # vectors that reach it, repeats included
        for d in degrees:
            counts = Counter(reference_build_wn(H, d, N))
            W = build_wn(H, d, N)
            assert support_set(W) == set(counts)
            assert {x: p * N ** phi(H.K, d) for x, p in W.items()} == counts

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            build_wn(ChannelMatrix.generic(3), 2, 2)  # 2^28 points

    def test_steps_are_refused_as_convolve_refuses_them(self):
        # 2^15 = 32768 values pass the count; the last step's 2^14 * 2 pairs
        # of 2-word keys do not
        with pytest.raises(BudgetExceededError) as refused:
            build_wn(ChannelMatrix.generic(2), 4, 2, budget=40000)
        assert str(refused.value) == (
            "convolution needs 32768 atom pairs of 2-word keys, over the budget of 40000")

    def test_generic_steps_are_refused_before_the_first(self, monkeypatch):
        # generic values share no monomial, so no atoms merge: step 20's 2^20 * 2
        # pairs of 3-word keys are refused before any of the 19 steps below
        # it runs, as they would be once it was reached
        steps: list = []
        monkeypatch.setattr(icdof.dist, "_merge", counting_merge(steps))
        with pytest.raises(BudgetExceededError) as refused:
            build_wn(ChannelMatrix.generic(2), 5, 2)
        assert str(refused.value) == (
            "convolution needs 2097152 atom pairs of 3-word keys, over the budget of 5000000")
        assert steps == []

    def test_no_scalar_sum_forms_the_alphabet(self, monkeypatch):
        def fail(*args):
            raise AssertionError("an ExactScalar sum formed an alphabet value")

        monkeypatch.setattr(ExactScalar, "__add__", fail)
        assert len(build_wn(ChannelMatrix.generic(3), 1, 2)) == 128

    def test_refusal_too_long_to_print_names_the_power(self):
        with pytest.raises(BudgetExceededError) as short:
            build_wn(ChannelMatrix.generic(2), 5, 10)
        assert str(short.value) == (
            "alphabet would hold 1000000000000000000000 values, over the budget of 5000000")
        # 10^4371 has more digits than the interpreter converts to a string
        with pytest.raises(BudgetExceededError) as long:
            build_wn(ChannelMatrix.generic(2), 92, 10)
        assert str(long.value) == "alphabet would hold 10^4371 values, over the budget of 5000000"

    def test_refusal_text_matches_the_formed_power(self):
        # around the count where N^count outgrows the interpreter's digit
        # limit, the refusal prints what forming the power would print
        for N, counts in ((2, range(14270, 14345, 5)), (3, range(9000, 9030, 3)),
                          (10**6 + 1, (700, 716, 717, 800))):
            for count in counts:
                try:
                    shown = str(N**count)
                except ValueError:
                    shown = f"{N}^{count}"
                with pytest.raises(BudgetExceededError) as refused:
                    alphabet_size(count, N, 10)
                assert str(refused.value) == f"alphabet would hold {shown} values, over the budget of 10"
        assert [alphabet_size(c, N, 1000) for c, N in ((9, 2), (6, 3), (1000, 1))] == [512, 729, 1]
        with pytest.raises(BudgetExceededError, match="hold 1000 values"):
            alphabet_size(3, 10, 999)

    def test_huge_alphabet_refused_without_forming_the_power(self):
        # 10^(300 * 501501) would take minutes to form; its bit length refuses it
        H = ChannelMatrix.generic(2)
        for N, budget in ((10**6, 10), (10**300, 10), (10**300, 5_000_000)):
            start = time.perf_counter()
            with pytest.raises(BudgetExceededError) as refused:
                build_wn(H, 1000, N, budget=budget)
            assert time.perf_counter() - start < 0.5
            assert str(refused.value) == (
                f"alphabet would hold {N}^501501 values, over the budget of {budget}")

    def test_unit_range_counts_the_basis_against_the_budget(self, monkeypatch):
        # at N = 1 the alphabet is one value, but the basis still has phi(3, 1) = 7
        H = ChannelMatrix.generic(3)
        assert len(build_wn(H, 1, 1, budget=7)) == 1

        def fail(*args):
            raise AssertionError("monomials enumerated for a refused alphabet")

        monkeypatch.setattr(icdof.channel, "monomial_basis", fail)
        with pytest.raises(BudgetExceededError) as refused:
            build_wn(H, 1, 1, budget=6)
        assert str(refused.value) == (
            "alphabet basis would hold 7 monomials, over the budget of 6")

    def test_rational_matrix_collapses(self):
        H = ChannelMatrix.from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        alphabet = build_wn(H, 1, 2)
        assert len(alphabet) < 2 ** phi(3, 1)


class TestConditionStar:
    def test_generic_holds(self):
        H = ChannelMatrix.generic(3)
        for d in (0, 1):
            report = check_condition_star(H, d)
            assert report.status == "holds-up-to-bound"
            assert report.witness is None

    def test_negative_degree_rejected(self):
        with pytest.raises(ValidationError) as info:
            check_condition_star(ChannelMatrix.generic(2), -1)
        assert str(info.value) == "need d >= 0, got -1"

    def test_columns_are_budgeted_before_enumeration(self, monkeypatch):
        # generic(3) at d = 1 checks phi(3, 2) + phi(3, 1) = 28 + 7 columns
        H = ChannelMatrix.generic(3)
        assert check_condition_star(H, 1, budget=35).status == "holds-up-to-bound"

        def fail(*args):
            raise AssertionError("monomials enumerated for a refused check")

        monkeypatch.setattr(icdof.channel, "monomial_basis", fail)
        with pytest.raises(BudgetExceededError) as refused:
            check_condition_star(H, 1, budget=34)
        assert str(refused.value) == (
            "independence check needs 35 family columns, over the budget of 34")
        # a count too long to print is named by its formula
        with pytest.raises(BudgetExceededError) as huge:
            check_condition_star(ChannelMatrix.generic(60), 20000)
        assert str(huge.value) == (
            "independence check needs phi(60, 20001) + phi(60, 20000) family columns, "
            "over the budget of 5000000")

    def test_theorem1_passes_its_budget_to_the_check(self):
        with pytest.raises(BudgetExceededError, match="needs 35 family columns"):
            theorem1_certified_bound(ChannelMatrix.generic(3), 1, 2, budget=34)

    def test_generic_four_users_degree_two_holds(self):
        report = check_condition_star(ChannelMatrix.generic(4), 2)
        assert report.status == "holds-up-to-bound"

    def test_rational_matrix_violated_with_verifiable_witness(self):
        H = ChannelMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        report = check_condition_star(H, 0)
        assert report.status == "violated"
        witness = report.witness
        assert witness is not None and len(witness.terms) >= 2
        assert verify_witness(H, witness)

    def test_witness_is_the_first_free_column(self):
        # the kernel vector of the first free column, as in the README example
        H = ChannelMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert check_condition_star(H, 2).witness.to_json()["combination"] == [
            {"family": "monomial", "monomial": "1", "coefficient": "2"},
            {"family": "monomial", "monomial": "h_1_2", "coefficient": "-1"},
        ]
        H = channel_from_json({"K": 3, "entries": [
            ["generic"] * 3, ["generic"] * 3, ["generic", "generic", "h_1_2 * h_2_1 + 1/2"]]})
        assert check_condition_star(H, 1).witness.to_json() == {
            "user": 3,
            "degree": 1,
            "combination": [
                {"family": "monomial", "monomial": "1", "coefficient": "1"},
                {"family": "monomial", "monomial": "h_1_2*h_2_1", "coefficient": "2"},
                {"family": "diag-multiple", "monomial": "1", "coefficient": "-2"},
            ],
        }

    def test_witness_resubstitutes_to_zero(self):
        H = ChannelMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        witness = check_condition_star(H, 1).witness
        total = ExactScalar.ZERO
        for term in witness.terms:
            value = evaluate_monomial(H, term.monomial)
            if term.family == "diag-multiple":
                value = H.entry(witness.user - 1, witness.user - 1) * value
            total = total + term.coefficient * value
        assert total == ExactScalar.ZERO

    def test_integer_offdiagonal_with_generic_diagonal(self):
        g = ExactScalar.generator
        H = ChannelMatrix.from_rows(
            [[g("g_1"), 1, 1], [1, g("g_2"), 1], [1, 1, g("g_3")]]
        )
        report = check_condition_star(H, 0)
        assert report.status == "violated"
        # the pure monomials collapse; the diagonal multiples are clean
        assert all(t.family == "monomial" for t in report.witness.terms)
        assert verify_witness(H, report.witness)

    def test_random_rational_matrices_yield_verifiable_witnesses(self):
        rng = random.Random(7)
        for _ in range(10):
            H = rational_matrix(rng.choice((2, 3)), rng)
            report = check_condition_star(H, rng.choice((0, 1)))
            assert report.status == "violated"  # rationals are always dependent
            assert verify_witness(H, report.witness)

    def test_witness_json_shape(self):
        H = ChannelMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        obj = check_condition_star(H, 0).to_json()
        assert obj["status"] == "violated"
        assert {"user", "degree", "combination"} <= obj["witness"].keys()
        for term in obj["witness"]["combination"]:
            assert {"family", "monomial", "coefficient"} <= term.keys()


class TestConditionStarAgainstReference:
    """`check_condition_star` evaluates one basis and slices its prefix; the
    reference evaluates every family member on its own."""

    def test_seeded_channels(self):
        rng = random.Random(11)
        g = _gen
        cases = [
            (ChannelMatrix.generic(4), 0),
            (ChannelMatrix.generic(3), 1),
            (ChannelMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), 1),
            (ChannelMatrix.from_rows([[g(1, 1), Fraction(1, 2)], [3, g(2, 2)]]), 1),
            (ChannelMatrix.from_rows(
                [[g(1, 1), g(1, 2), g(1, 3)], [g(2, 1), g(2, 2), g(2, 3)],
                 [g(3, 1), g(3, 2), g(1, 2) * g(2, 1) + Fraction(1, 2)]]), 1),
            (ChannelMatrix.from_rows([[g(1, 2) * g(2, 1) + 1, g(1, 2)], [g(2, 1), 2]]), 1),
        ]
        cases += [(rational_matrix(rng.choice((2, 3)), rng), rng.choice((0, 1))) for _ in range(6)]
        for H, d in cases:
            assert check_condition_star(H, d).to_json() == reference_check(H, d).to_json()

    @settings(max_examples=100)
    @given(channels(), st.sampled_from((0, 1)))
    def test_hypothesis_channels(self, H, d):
        assert check_condition_star(H, d).to_json() == reference_check(H, d).to_json()

    @settings(max_examples=60)
    @given(channels(sizes=(2,)), st.sampled_from((2, 3)))
    def test_hypothesis_two_user_channels_at_higher_degree(self, H, d):
        assert check_condition_star(H, d).to_json() == reference_check(H, d).to_json()


class TestOneElimination:
    """The family columns every user shares are built and reduced once per
    call, each user's diagonal multiples on their pivots, and nothing is
    built or reduced after the first dependent column."""

    @pytest.fixture
    def spies(self, monkeypatch):
        """The monomials evaluated (as family columns, then by
        `verify_witness`) and the indices of the columns reduced."""
        built, reduced = [], []
        evaluate, reduce = icdof.channel.evaluate_monomial, icdof.linalg._reduce
        columns = icdof.channel.monomial_basis

        def evaluate_spy(H, mono):
            built.append(mono)
            return evaluate(H, mono)

        def columns_spy(H, d):
            for mono, value in columns(H, d):
                built.append(mono)
                yield mono, value

        def reduce_spy(row, relation, pivots):
            reduced.append(max(relation))  # a column enters as its own relation
            return reduce(row, relation, pivots)

        monkeypatch.setattr(icdof.channel, "evaluate_monomial", evaluate_spy)
        monkeypatch.setattr(icdof.channel, "monomial_basis", columns_spy)
        monkeypatch.setattr(icdof.linalg, "_reduce", reduce_spy)
        return built, reduced

    @pytest.mark.parametrize("H, d", [
        # independent entries, but the gradient of x^2 - 2x vanishes at x = 1
        (ChannelMatrix.from_rows(
            [[_gen(1, 1), _gen(1, 2) ** 2 - 2 * _gen(1, 2)], [_gen(2, 1) + 1, _gen(2, 2)]]), 2),
        # h_3_2 is a polynomial in h_1_2, h_2_1 and h_1_3; (*) still holds at d = 1
        (ChannelMatrix.from_rows(
            [[_gen(1, 2) * _gen(2, 1) * _gen(1, 3) + 1 if (i, j) == (3, 2) else _gen(i, j)
              for j in range(1, 4)] for i in range(1, 4)]), 1),
    ])
    def test_shared_block_is_reduced_once(self, spies, H, d):
        built, reduced = spies
        assert not any(icdof.channel._jacobian_certificate(H))
        certificate = len(reduced)  # the certificate's reductions come first in each call
        reduced.clear()
        report = check_condition_star(H, d)
        del reduced[:certificate]
        assert report.to_json() == reference_check(H, d).to_json()
        assert report.status == "holds-up-to-bound"
        n, m = phi(H.K, d + 1), phi(H.K, d)
        assert built == list(enumerate_monomials(H.K, d + 1))
        assert reduced[len(reduced) - H.K * m:] == list(range(n, n + m)) * H.K
        assert sorted(reduced[: len(reduced) - H.K * m]) == list(range(n))

    @pytest.mark.parametrize("rows, last", [
        # h_1_2 = 2 is the constant's multiple: column 1 of the shared block
        ([[_gen(1, 1), 2], [_gen(2, 1) + 1, _gen(2, 2)]], 1),
        # user 1's first diagonal multiple, 3 * 1, is the constant's multiple
        ([[3, _gen(1, 2) + 1], [_gen(2, 1) + 1, _gen(2, 2)]], phi(2, 3)),
    ])
    def test_nothing_after_the_first_dependent_column(self, spies, rows, last):
        built, reduced = spies
        H, d = ChannelMatrix.from_rows(rows), 2
        report = check_condition_star(H, d)
        assert report.to_json() == reference_check(H, d).to_json()
        assert report.witness.user == 1
        monos = enumerate_monomials(H.K, d + 1)
        witness = [term.monomial for term in report.witness.terms]
        # the columns up to the dependent one (diagonal multiples reuse the
        # values of the shared block), then `verify_witness`
        assert built == list(monos[: last + 1]) + witness
        assert reduced[-1] == last and sorted(set(reduced)) == list(range(last + 1))


def test_degree_1000_reads_only_the_columns_up_to_the_dependent_one(monkeypatch):
    # h_1_2 = 2 is the constant's multiple at every degree; forming the whole
    # degree-1001 basis first took 38 s at d = 1000
    H = channel_from_json({"K": 2, "entries": [["generic", 2], [3, "generic"]]})
    low = check_condition_star(H, 0).to_json()
    walk, yielded = icdof.channel.monomial_basis, []

    def walk_spy(H, d):
        for pair in walk(H, d):
            yielded.append(pair)
            yield pair

    monkeypatch.setattr(icdof.channel, "monomial_basis", walk_spy)
    high = check_condition_star(H, 1000).to_json()
    # the same witness terms, at degree 1000
    assert high == {**low, "degree": 1000, "witness": {**low["witness"], "degree": 1000}}
    assert len(yielded) <= 3


# channels the rank certificate leaves to the elimination, at degrees where
# it decides them: rank drops of polynomial entries, and rational violations
KEPT_VALUE_CHANNELS = [
    (ChannelMatrix.from_rows(
        [[_gen(1, 1), _gen(1, 2) ** 2 - 2 * _gen(1, 2) + _gen(2, 1)],
         [_gen(2, 1) + 1, _gen(2, 2)]]), 8),
    (ChannelMatrix.from_rows(
        [[_gen(1, 1), _gen(1, 2) ** 2 - 2 * _gen(1, 2)], [_gen(2, 1) + 1, _gen(2, 2)]]), 3),
    (ChannelMatrix.from_rows([[_gen(1, 1), 2], [_gen(2, 1) + 1, _gen(2, 2)]]), 2),
    (ChannelMatrix.from_rows([[3, _gen(1, 2) + 1], [_gen(2, 1) + 1, _gen(2, 2)]]), 2),
    (ChannelMatrix.from_rows([[1, Fraction(2, 3), 3], [4, 5, 7], [2, -1, Fraction(1, 2)]]), 1),
    (ChannelMatrix.from_rows(
        [[_gen(1, 1), _gen(1, 2) * _gen(1, 3), 0], [_gen(2, 1), _gen(2, 2), _gen(2, 3) - 1],
         [Fraction(1, 2), _gen(3, 2) ** 2, _gen(3, 3)]]), 2),
]


class TestKeptValues:
    """Each family value is a kept value of degree one less times one entry;
    `evaluate_monomial`, which forms it from the entries alone, is the
    oracle, and the elimination reports the same bytes from either."""

    @pytest.mark.parametrize("H, d", KEPT_VALUE_CHANNELS)
    def test_values_match_evaluate_monomial(self, H, d):
        basis = enumerate_monomials(H.K, d + 1)
        assert list(monomial_basis(H, d + 1)) == [(m, evaluate_monomial(H, m)) for m in basis]

    @pytest.mark.parametrize("H, d", KEPT_VALUE_CHANNELS)
    def test_witnesses_are_byte_identical(self, monkeypatch, H, d):
        report = json.dumps(check_condition_star(H, d).to_json())
        monkeypatch.setattr(icdof.channel, "monomial_basis", lambda H, d: (
            (m, evaluate_monomial(H, m)) for m in enumerate_monomials(H.K, d)))
        assert json.dumps(check_condition_star(H, d).to_json()) == report


def test_self_check_rejects_a_non_kernel_vector(monkeypatch):
    def not_a_kernel_vector(base, extras):
        next(iter(base))  # the column its relation names is read, as an elimination reads it
        return ([1] for _ in extras)  # the constant alone, which never vanishes

    monkeypatch.setattr(icdof.channel, "first_relations", not_a_kernel_vector)
    # a rational channel, which the rank certificate leaves to the elimination
    H = ChannelMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(RuntimeError, match="^kernel witness failed re-substitution; elimination bug$"):
        check_condition_star(H, 0)


class TestRankCertificate:
    """Users whose entries have a Jacobian of full rank at the all-ones point
    are proved without elimination; every other user is eliminated, and both
    paths report what `reference_check` reports."""

    @pytest.fixture
    def eliminated(self, monkeypatch):
        """The users whose families `first_relations` reduced for the
        elimination, counted by a spy; the rank certificate's own call reduces
        gradients, not families, and is not counted."""
        calls = []
        original = icdof.channel.first_relations

        def spy(base, extras):
            if sys._getframe(1).f_code.co_name == "check_condition_star":
                extras = (calls.append(len(calls)) or group for group in extras)
            return original(base, extras)

        monkeypatch.setattr(icdof.channel, "first_relations", spy)
        return calls

    def test_generic_degree_200_never_eliminates(self, monkeypatch):
        def fail(*args):
            raise AssertionError("elimination ran for a certified channel")

        monkeypatch.setattr(icdof.channel, "evaluate_monomial", fail)
        monkeypatch.setattr(icdof.channel, "monomial_basis", fail)
        report = check_condition_star(ChannelMatrix.generic(2), 200)
        assert report.to_json() == {"status": "holds-up-to-bound", "degree": 200}
        for K, d in ((3, 10), (4, 5)):
            assert check_condition_star(ChannelMatrix.generic(K), d).status == "holds-up-to-bound"
        # channels with entries of several terms, which the elimination
        # decides only in seconds at these degrees
        a, b, c = (ExactScalar.generator(name) for name in ("a", "b", "c"))
        for H, d in (
            (ChannelMatrix.from_rows([[_gen(1, 1), _gen(1, 2) + 1], [_gen(2, 1) + 1, _gen(2, 2)]]), 40),
            (ChannelMatrix.from_rows(
                [[_gen(i, j) + (i != j) for j in range(1, 4)] for i in range(1, 4)]), 10),
            (ChannelMatrix.from_rows([[a, b ** 2 + c], [c ** 3 - b, a + b]]), 30),
        ):
            report = check_condition_star(H, d)
            assert report.to_json() == {"status": "holds-up-to-bound", "degree": d}

    @pytest.mark.parametrize("H, d", [
        (ChannelMatrix.generic(2), 0),
        (ChannelMatrix.generic(2), 2),
        (ChannelMatrix.generic(3), 1),
        (ChannelMatrix.generic(4), 0),
        # single terms with rational coefficients
        (ChannelMatrix.from_rows(
            [[Fraction(5, 2) * _gen(1, 1), -3 * _gen(1, 2)],
             [Fraction(1, 3) * _gen(2, 1), 7 * _gen(2, 2)]]), 2),
        (ChannelMatrix.from_rows(
            [[Fraction(-1, 2) * _gen(i, j) ** 2 if i == j else (i + j) * _gen(i, j)
              for j in range(1, 4)] for i in range(1, 4)]), 1),
        # mixed exponents over shared generators: columns (2,1,0), (1,3,0)
        # and (1,0,1) for user 1, (0,1,2) for user 2
        (ChannelMatrix.from_rows([
            [as_scalar("3*g1*g3"), as_scalar("g1^2*g2")],
            [as_scalar("-1/4*g1*g2^3"), as_scalar("g2*g3^2")]]), 2),
        # one generator serves two users' diagonals
        (ChannelMatrix.from_rows([
            [as_scalar("g1"), _gen(1, 2), _gen(1, 3)],
            [_gen(2, 1), as_scalar("g1^2*h_1_2"), _gen(2, 3)],
            [_gen(3, 1), _gen(3, 2), as_scalar("2*g1*h_2_1")]]), 1),
        # an entry of two terms off the diagonal, and one on it
        (ChannelMatrix.from_rows([[_gen(1, 1), _gen(1, 2) + 1], [_gen(2, 1), _gen(2, 2)]]), 1),
        (ChannelMatrix.from_rows(
            [[_gen(1, 1), _gen(1, 2)], [_gen(2, 1), _gen(2, 2) - _gen(1, 1)]]), 1),
    ])
    def test_accepted_channels_match_reference(self, eliminated, H, d):
        assert icdof.channel._jacobian_certificate(H) == [True] * H.K
        assert check_condition_star(H, d).to_json() == reference_check(H, d).to_json()
        assert eliminated == []

    @pytest.mark.parametrize("H, d, refused", [
        # a rational entry has a zero gradient
        (ChannelMatrix.from_rows([[_gen(1, 1), 2], [_gen(2, 1), _gen(2, 2)]]), 1, [1, 2]),
        # a rational diagonal refuses only its own user
        (ChannelMatrix.from_rows([[3, _gen(1, 2)], [_gen(2, 1), _gen(2, 2)]]), 1, [1]),
        # and so has a zero entry
        (ChannelMatrix.from_rows([[_gen(1, 1), 0], [_gen(2, 1), _gen(2, 2)]]), 1, [1, 2]),
        # h_2_1 = h_1_2^2 + 1 has a gradient parallel to h_1_2's
        (ChannelMatrix.from_rows(
            [[_gen(1, 1), _gen(1, 2)], [_gen(1, 2) ** 2 + 1, _gen(2, 2)]]), 1, [1, 2]),
        # dependent exponents: h_2_2 = h_1_2 * h_2_1 as monomials
        (ChannelMatrix.from_rows(
            [[_gen(1, 1), _gen(1, 2)], [_gen(2, 1), 5 * _gen(1, 2) * _gen(2, 1)]]), 1, [2]),
        (ChannelMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), 1, [1, 2, 3]),
    ])
    def test_refused_users_are_eliminated(self, eliminated, H, d, refused):
        proved = icdof.channel._jacobian_certificate(H)
        assert [i + 1 for i, ok in enumerate(proved) if not ok] == refused
        report = check_condition_star(H, d)
        assert report.to_json() == reference_check(H, d).to_json()
        # users are eliminated in order until one is violated
        stop = refused.index(report.witness.user) + 1 if report.witness else len(refused)
        assert len(eliminated) == stop

    def test_seeded_single_term_channels(self):
        rng = random.Random(3)
        accepted = 0
        for _ in range(60):
            H = single_term_channel(rng.choice, rng.choice((2, 3)))
            d = rng.choice((0, 1))
            accepted += all(icdof.channel._jacobian_certificate(H))
            assert check_condition_star(H, d).to_json() == reference_check(H, d).to_json()
        assert 0 < accepted < 60  # both paths are exercised

    @pytest.mark.parametrize("K", range(2, 9))
    def test_certificate_matches_reference_on_generic(self, K):
        assert icdof.channel._jacobian_certificate(ChannelMatrix.generic(K)) == (
            reference_rank_certificate(ChannelMatrix.generic(K))) == [True] * K

    @pytest.mark.parametrize("rows", [
        [[_gen(1, 1), 0], [_gen(2, 1), _gen(2, 2)]],  # zero off the diagonal
        [[0, _gen(1, 2)], [_gen(2, 1), _gen(2, 2)]],  # zero on it
        [[_gen(1, 1), 2], [_gen(2, 1), _gen(2, 2)]],  # rational off the diagonal
        [[Fraction(1, 3), _gen(1, 2)], [_gen(2, 1), _gen(2, 2)]],  # and on it
        [[_gen(1, 1), _gen(1, 2) + 1], [_gen(2, 1), _gen(2, 2)]],  # two terms off
        [[_gen(1, 1), _gen(1, 2)], [_gen(2, 1), _gen(2, 2) - _gen(1, 1)]],  # and on
        # dependent off-diagonal block: h_1_3 = h_1_2 * h_2_1 as monomials
        [[_gen(1, 1), _gen(1, 2), _gen(1, 2) * _gen(2, 1)],
         [_gen(2, 1), _gen(2, 2), _gen(2, 3)], [_gen(3, 1), _gen(3, 2), _gen(3, 3)]],
        # independent block; one diagonal in its span, one sharing a generator
        [[_gen(1, 2) ** 2 * _gen(2, 1), _gen(1, 2), _gen(1, 3)],
         [_gen(2, 1), _gen(1, 3) * _gen(2, 2), _gen(2, 3)],
         [_gen(3, 1), _gen(3, 2), 3 * _gen(3, 3) ** 2]],
        [[as_scalar("g1"), as_scalar("g1*g2")], [as_scalar("g2^2"), as_scalar("g3")]],
        # several terms: independent entries whose gradient vanishes at ones,
        # and a diagonal whose gradient there is in the off-diagonal span
        [[_gen(1, 1), _gen(1, 2) ** 2 - 2 * _gen(1, 2)], [_gen(2, 1), _gen(2, 2)]],
        [[_gen(1, 2) ** 2 + _gen(2, 1), _gen(1, 2)], [_gen(2, 1) ** 3, 3 * _gen(2, 2) + 1]],
    ])
    def test_certificate_matches_reference(self, rows):
        H = ChannelMatrix.from_rows(rows)
        assert icdof.channel._jacobian_certificate(H) == reference_rank_certificate(H)

    @settings(max_examples=150)
    @given(single_term_channels())
    def test_certificate_matches_reference_on_single_terms(self, H):
        assert icdof.channel._jacobian_certificate(H) == reference_rank_certificate(H)

    @settings(max_examples=60)
    @given(polynomial_channels())
    def test_certificate_matches_reference_on_polynomials(self, H):
        assert icdof.channel._jacobian_certificate(H) == reference_rank_certificate(H)

    @settings(max_examples=100)
    @given(polynomial_channels())
    def test_proved_users_have_no_kernel_vector(self, H):
        # a user's family at degree d holds its families at every lower
        # degree, so no kernel vector at the top degree covers them all
        d = 2 if H.K == 2 else 1
        for i, proved in enumerate(icdof.channel._jacobian_certificate(H)):
            if proved:
                assert reference_family_kernel(H, i, d)[1] is None

    @settings(max_examples=100)
    @given(single_term_channels(), st.sampled_from((0, 1)))
    def test_hypothesis_single_term_channels(self, H, d):
        assert check_condition_star(H, d).to_json() == reference_check(H, d).to_json()
