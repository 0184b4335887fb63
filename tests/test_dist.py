"""Exact distributions: construction, convolution, entropy, JSON."""

from __future__ import annotations

import itertools
import math
import random
import warnings
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdof import (
    BudgetExceededError,
    ChannelMatrix,
    DiscreteDist,
    ExactScalar,
    IFSSpec,
    NotRationalError,
    ParseError,
    ValidationError,
    as_scalar,
    convolve,
    dist_from_json,
    dist_to_json,
    empirical_infodim,
    entropy_bits,
    entropy_inequality_suite,
    finite_set,
    hlambda_bound,
    integer_example_bound,
    linear_combination,
    parse_probability,
    point_mass,
    recommended_quantization,
    scale,
    sorted_items,
    sumset,
    support_set,
    theorem1_certified_bound,
    truncated_dist,
    uniform_on,
    weighted_on,
)
from conftest import (
    counting_merge,
    random_rational_dist,
    reference_empirical_infodim,
    reference_build_wn,
    reference_truncation,
)
import icdof.dist
from icdof.dist import (
    DEFAULT_ATOM_BUDGET,
    PlacedSplit,
    _kronecker,
    _Lattice,
    _monomials,
    _pack,
    floor_dist,
    place_step,
)
from icdof.scalar import MONO_ONE, ONE, mono_mul

G1 = ExactScalar.generator("g1")
G2 = ExactScalar.generator("g2")


def reference_place(terms) -> tuple[_Lattice, list[tuple[list[int], int]]]:
    """Slow twin of `_pack`'s placement: every term's points c_j*x decoded
    point by point, then placed on one lattice. Returns the lattice and, per
    term, its keys and reach (largest |coordinate|)."""
    scaled = []  # per term (E, points), each point's nonzero coordinates v/E
    for c, dist in terms:
        lattice = dist._lattice
        denom = math.lcm(*(a.denominator for _, a in c.terms()))
        images = [[(mono_mul(m, mc), a.numerator * (denom // a.denominator))
                   for mc, a in c.terms()] for m in lattice.basis]
        points = []
        for key in dist._weights:
            point: dict = {}
            for image, v in zip(images, lattice.digits(key)):
                for mono, a in image:
                    point[mono] = point.get(mono, 0) + v * a
            points.append([(m, v) for m, v in point.items() if v])
        scaled.append((lattice.denominator * denom, points))
    denom = 1
    for E, points in scaled:
        denom = math.lcm(denom, E // math.gcd(E, *(v for point in points for _, v in point)))
    basis = sorted({mono for _, points in scaled for point in points for mono, _ in point})
    index = {mono: i for i, mono in enumerate(basis)}
    placed = []
    for E, points in scaled:
        coordinates = [[(index[mono], v * denom // E) for mono, v in point] for point in points]
        placed.append((coordinates, max((abs(v) for p in coordinates for _, v in p), default=0)))
    radix = 2 * sum(reach for _, reach in placed) + 1
    powers = [radix**i for i in range(len(basis))]
    return _Lattice(basis, denom, radix), [
        ([sum(v * powers[i] for i, v in point) for point in coordinates], reach)
        for coordinates, reach in placed
    ]


def convolve_fold(dists: list[DiscreteDist], budget: int) -> DiscreteDist:
    """The sum of distributions on one lattice, one `convolve` step per
    term after the first, each refused as `convolve` refuses it."""
    total = dists[0]
    for X in dists[1:]:
        total = convolve(total, X, budget)
    return total


def split_entropies(cross_terms, signal_term, budget=DEFAULT_ATOM_BUDGET):
    """A `PlacedSplit` of the terms, evaluated once with their own weights."""
    split = PlacedSplit(cross_terms, signal_term, budget)
    return split.entropies(split.terms)


def reference_convolve(A: DiscreteDist, B: DiscreteDist) -> dict:
    """Slow twin of `convolve`: one exact `Fraction` product per atom pair,
    with the same operand order, so keys come out in the same order."""
    if len(A) < len(B):
        A, B = B, A
    acc: dict = {}
    for xa, pa in A.items():
        for xb, pb in B.items():
            key = xa + xb
            acc[key] = acc.get(key, Fraction(0)) + pa * pb
    return acc


_small = st.integers(-3, 3)
_rational_points = st.builds(Fraction, _small, st.integers(1, 3))
_symbolic_points = st.builds(
    lambda c, a, b: as_scalar(c) + a * G1 + b * G2, _rational_points, _small, _small
)
_numerators = st.integers(1, 2**80)
_denominators = st.one_of(st.integers(1, 6), st.integers(1, 2**80))


@st.composite
def exact_dists(draw, points, max_size=8):
    support = draw(st.lists(points.map(as_scalar), min_size=1, max_size=max_size, unique=True))
    weights = [Fraction(draw(_numerators), draw(_denominators)) for _ in support]
    total = sum(weights)
    return DiscreteDist({x: w / total for x, w in zip(support, weights)})


def reference_combination(coeffs, dists) -> DiscreteDist:
    """Slow twin of `linear_combination`: scale each term, then fold the
    pairwise `Fraction` reference over them."""
    live = [scale(c, d) for c, d in zip(coeffs, dists) if c != 0]
    result = live[0]
    for term in live[1:]:
        result = DiscreteDist(reference_convolve(result, term))
    return result


G3 = ExactScalar.generator("g3")
# degree-2 monomials over three generators, with coefficient denominators up to 2^80
_quadratic_points = st.builds(
    lambda c, a, b, e, f: as_scalar(c) + a * G1 + b * G2 * G3 + e * G1 * G1 + f * G3,
    st.one_of(_rational_points, st.builds(Fraction, _small, st.integers(1, 2**80))),
    _rational_points,
    _small,
    _rational_points,
    st.sampled_from([0, 1, Fraction(-1, 2**80)]),
)
_coefficients = st.one_of(
    st.just(as_scalar(0)),
    _rational_points.map(as_scalar),
    st.sampled_from([G1, G2 - 1, G1 * G3, Fraction(1, 3) * G2]),
)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DiscreteDist({as_scalar(0): Fraction(1, 2)})  # does not sum to 1
        with pytest.raises(ValidationError):
            DiscreteDist({as_scalar(0): Fraction(3, 2), as_scalar(1): Fraction(-1, 2)})
        with pytest.raises(ValidationError):
            uniform_on([])
        with pytest.raises(ValidationError):
            uniform_on([1, 1, 2])

    def test_point_mass_and_uniform(self):
        assert len(point_mass(3)) == 1
        assert entropy_bits(point_mass(3)) == 0.0
        U = uniform_on(range(4))
        assert all(p == Fraction(1, 4) for _, p in U.items())

    def test_atoms_are_read_only(self):
        U = uniform_on([0, 1])
        with pytest.raises(TypeError):
            U.atoms[as_scalar(0)] = Fraction(1)  # type: ignore[index]

    def test_sorted_items_orders_rationals(self):
        D = uniform_on([3, -1, 2])
        values = [v.as_fraction() for v, _ in sorted_items(D)]
        assert values == sorted(values)

    def test_repr(self):
        assert repr(uniform_on([1, 0])) == "DiscreteDist({'0': 1/2, '1': 1/2})"
        assert repr(uniform_on(range(7))) == "DiscreteDist(<7 atoms>)"
        assert repr(finite_set([2, 0])) == "SupportSet({0, 2})"

    @pytest.mark.parametrize("points", [[3, -1, 2, 0], [G1, 1, G1 + G2, Fraction(-1, 2)]])
    def test_weighted_on_a_support_set(self, points):
        grid = support_set(uniform_on(points))
        weights = [6, 2, 10, 4]
        D = weighted_on(grid, weights)  # its points weighted in the set's insertion order
        assert D == weighted_on(points, weights)
        assert dict(D.items()) == {as_scalar(x): Fraction(w, 22) for x, w in zip(points, weights)}
        for bad, message in (([1, 2, 3], "3 weights for 4 support points"),
                             ([1, 2, 0, 1], "weight 0 is not a positive integer"),
                             ([1, 2, 1.0, 1], "weight 1.0 is not a positive integer")):
            for support in (grid, points):
                with pytest.raises(ValidationError, match=f"^{message}$"):
                    weighted_on(support, bad)

    def test_weighted_on_names_the_first_repeat(self):
        with pytest.raises(ValidationError, match="^support not distinct: '2' appears twice$"):
            weighted_on([1, 2, 3, 2, 1], [1] * 5)


class TestConvolution:
    def test_three_coin_flips(self):
        coin = uniform_on([0, 1])
        B3 = convolve(convolve(coin, coin), coin)
        expected = {0: Fraction(1, 8), 1: Fraction(3, 8), 2: Fraction(3, 8), 3: Fraction(1, 8)}
        assert {v.as_fraction(): p for v, p in B3.items()} == {
            Fraction(k): p for k, p in expected.items()
        }

    def test_commutative_and_associative(self, rng):
        for _ in range(25):
            A = random_rational_dist(rng, max_support=6)
            B = random_rational_dist(rng, max_support=6)
            C = random_rational_dist(rng, max_support=4)
            assert convolve(A, B) == convolve(B, A)
            assert convolve(convolve(A, B), C) == convolve(A, convolve(B, C))

    def test_mass_conservation_exact(self, rng):
        for _ in range(50):
            A = random_rational_dist(rng)
            B = random_rational_dist(rng)
            total = sum(p for _, p in convolve(A, B).items())
            assert total == 1

    def test_point_mass_shift(self):
        A = uniform_on([0, 1, 5])
        shifted = convolve(A, point_mass(10))
        assert support_set(shifted) == {as_scalar(v) for v in (10, 11, 15)}
        assert entropy_bits(shifted) == entropy_bits(A)

    def test_budget(self):
        A = uniform_on(range(100))
        with pytest.raises(BudgetExceededError):
            convolve(A, A, budget=99)
        convolve(A, A, budget=100 * 100)  # exactly at the limit is allowed

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_pairwise_fraction_reference(self, data):
        points = data.draw(st.sampled_from([_rational_points, _symbolic_points]))
        A = data.draw(exact_dists(points))
        B = data.draw(exact_dists(points))
        expected = reference_convolve(A, B)
        result = convolve(A, B)
        assert list(result.items()) == list(expected.items())
        assert entropy_bits(result) == entropy_bits(DiscreteDist(expected))

    def test_symbolic_values_stay_exact(self):
        A = uniform_on([ExactScalar.ZERO, G1])
        S = convolve(A, A)
        assert support_set(S) == {ExactScalar.ZERO, G1, 2 * G1}


_mixed_dists = exact_dists(st.one_of(_rational_points, _symbolic_points, _quadratic_points),
                           max_size=5)


class TestConvolutionLaws:
    """Laws of `convolve` on operands built independently, each on a lattice
    of its own: rational, symbolic and quadratic points, alone or mixed."""

    @settings(max_examples=200)
    @given(_mixed_dists, _mixed_dists)
    def test_sum_is_no_less_uncertain_than_either_summand(self, X, Y):
        assert entropy_bits(convolve(X, Y)) >= max(entropy_bits(X), entropy_bits(Y)) - 1e-12

    @settings(max_examples=150)
    @given(_mixed_dists, _mixed_dists, _mixed_dists)
    def test_commutative_and_associative(self, X, Y, Z):
        assert dist_to_json(convolve(X, Y)) == dist_to_json(convolve(Y, X))
        assert dist_to_json(convolve(convolve(X, Y), Z)) == (
            dist_to_json(convolve(X, convolve(Y, Z))))


class TestLattice:
    """The packed-integer kernel against the per-pair `Fraction` twins:
    decoded atoms are equal, and entropies are equal bit for bit."""

    @settings(max_examples=150)
    @given(st.data())
    def test_chains_match_iterated_reference(self, data):
        size = data.draw(st.integers(3, 5))
        points = data.draw(st.sampled_from([_rational_points, _symbolic_points, _quadratic_points]))
        dists = [data.draw(exact_dists(points, max_size=4)) for _ in range(size)]
        coeffs = data.draw(st.lists(_coefficients, min_size=size, max_size=size))
        if all(c.is_zero() for c in coeffs):
            coeffs[0] = as_scalar(1)
        expected = reference_combination(coeffs, dists)
        result = linear_combination(coeffs, dists)
        # the entropy first, from the packed weights, before any point is decoded
        assert entropy_bits(result) == entropy_bits(expected)
        assert len(result) == len(expected)
        assert result == expected

    @settings(max_examples=100)
    @given(st.data())
    def test_quadratic_pairs_match_reference(self, data):
        A = data.draw(exact_dists(_quadratic_points))
        B = data.draw(exact_dists(_quadratic_points))
        expected = reference_convolve(A, B)
        assert entropy_bits(convolve(A, B)) == entropy_bits(DiscreteDist(expected))
        assert list(convolve(A, B).items()) == list(expected.items())

    @pytest.mark.parametrize("sign", [1, -1])
    def test_coordinates_at_the_radix_edge(self, sign):
        # every term puts its largest coordinate on the same monomials with
        # the same sign, so one sum reaches the edge digit (R-1)/2 exactly
        maxima = [3, 5, 7, 2]
        dists = [
            DiscreteDist({
                as_scalar(0): Fraction(1, 3),
                sign * (M * G1 + Fraction(M, 4) * G2 + M): Fraction(1, 3),
                -sign * (M * G1 + M): Fraction(1, 3),
            })
            for M in maxima
        ]
        coeffs = [as_scalar(1)] * len(dists)
        result = linear_combination(coeffs, dists)
        assert result == reference_combination(coeffs, dists)
        total = sum(maxima)
        assert sign * (total * G1 + Fraction(total, 4) * G2 + total) in result.atoms
        assert -sign * (total * G1 + total) in result.atoms
        assert entropy_bits(linear_combination(coeffs, dists)) == entropy_bits(
            DiscreteDist(dict(result.items()))
        )

    def test_single_atom_operands(self):
        A = DiscreteDist({as_scalar(1): Fraction(1, 3), G1: Fraction(2, 3)})
        shift = point_mass(G2 + Fraction(1, 2))
        for pair in ((A, shift), (shift, A), (shift, shift)):
            assert list(convolve(*pair).items()) == list(reference_convolve(*pair).items())
        coeffs = [as_scalar(2), G3, as_scalar(-1)]
        dists = [shift, A, point_mass(5)]
        assert linear_combination(coeffs, dists) == reference_combination(coeffs, dists)

    def test_sums_of_sums_repack(self):
        # two convolution results on different lattices meet in a third
        A = DiscreteDist({as_scalar(1): Fraction(1, 3), G1: Fraction(2, 3)})
        B = uniform_on([0, Fraction(1, 2) * G2])
        C = uniform_on([G1 * G3, 5, -G2])
        D = DiscreteDist({as_scalar(Fraction(2, 7)): Fraction(3, 4), G3: Fraction(1, 4)})
        left = convolve(A, B)
        right = convolve(C, D)
        expected = reference_convolve(DiscreteDist(dict(left.items())), DiscreteDist(dict(right.items())))
        assert entropy_bits(convolve(convolve(A, B), convolve(C, D))) == entropy_bits(
            DiscreteDist(expected)
        )
        assert list(convolve(left, right).items()) == list(expected.items())

    def test_results_can_be_summed_again(self):
        # a sum reused as an operand reaches past the digits its lattice was
        # sized for, so it must be packed afresh rather than added as is
        A = uniform_on([0, G1])
        B = DiscreteDist({G1 - G2: Fraction(1, 3), 2 * G2: Fraction(2, 3)})
        S = convolve(A, B)
        plain = DiscreteDist(dict(S.items()))
        for left, right in ((S, S), (S, A), (A, S)):
            expected = reference_convolve(
                DiscreteDist(dict(left.items())), DiscreteDist(dict(right.items())))
            assert convolve(left, right) == DiscreteDist(expected)
        for coeffs in ([as_scalar(1), as_scalar(-1), G3], [as_scalar(1)] * 3):
            T = linear_combination(coeffs, [A, B, A])
            expected = reference_combination([as_scalar(1)] * 2, [T, T])
            assert entropy_bits(convolve(T, T)) == entropy_bits(expected)
            assert convolve(T, T) == expected
        assert convolve(S, plain) == convolve(plain, S)

    def test_zero_coefficients_are_dropped(self):
        A = uniform_on([0, 1, 2])
        B = uniform_on([0, G1])
        C = uniform_on([7, 9])
        coeffs = [as_scalar(0), as_scalar(3), as_scalar(0), G2]
        result = linear_combination(coeffs, [C, A, C, B])
        assert result == reference_combination(coeffs, [C, A, C, B])
        assert result == convolve(scale(3, A), scale(G2, B))

    def test_chain_is_refused_at_the_same_step(self):
        dists = [uniform_on(range(0, 10 * step, step)) for step in (1, 10, 100)]
        coeffs = [as_scalar(1)] * 3
        message = "convolution needs 1000 atom pairs, over the budget of 999"
        with pytest.raises(BudgetExceededError, match=message):
            linear_combination(coeffs, dists, budget=999)
        with pytest.raises(BudgetExceededError, match=message):
            convolve(convolve(dists[0], dists[1], budget=999), dists[2], budget=999)
        assert len(linear_combination(coeffs, dists, budget=1000)) == 1000

    @settings(max_examples=60)
    @given(st.data())
    def test_empirical_infodim_matches_fraction_floors(self, data):
        q = data.draw(st.integers(2, 5))
        r = Fraction(data.draw(st.integers(1, q - 1)), q)
        offsets = data.draw(
            st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
                     min_size=2, max_size=4, unique=True)
        )
        weights = [data.draw(st.integers(1, 9)) for _ in offsets]
        probs = [Fraction(w, sum(weights)) for w in weights]
        ifs = IFSSpec.create(r, offsets, probs)
        m = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(2, 60))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert empirical_infodim(ifs, m, k) == reference_empirical_infodim(ifs, m, k)


def reference_scale(c, A: DiscreteDist) -> dict:
    """Slow twin of `scale`: one `ExactScalar` product per decoded point."""
    return {c * x: p for x, p in A.items()}


def reference_entropy(probs) -> float:
    """Slow twin of `entropy_bits`: one term per `Fraction` probability."""
    total = math.fsum(
        p.numerator / p.denominator * (math.log2(p.numerator) - math.log2(p.denominator))
        for p in probs
    )
    return -total if total else 0.0


class TestPacking:
    """Every constructor packs its points, and every packing is read back
    through the decoded slow twins: atoms, their order and entropies are
    equal exactly."""

    _points = st.sampled_from([_rational_points, _symbolic_points, _quadratic_points])

    @settings(max_examples=150)
    @given(st.data())
    def test_born_distributions_decode_to_their_atoms(self, data):
        points = data.draw(st.lists(
            data.draw(self._points).map(as_scalar), min_size=1, max_size=8, unique=True))
        weights = [data.draw(_numerators) for _ in points]
        atoms = {x: Fraction(w, sum(weights)) for x, w in zip(points, weights)}
        D = DiscreteDist(atoms)
        assert list(D.items()) == list(atoms.items())
        assert entropy_bits(D) == reference_entropy(atoms.values())
        assert support_set(D) == frozenset(points)
        U = uniform_on(points)
        assert list(U.items()) == [(x, Fraction(1, len(points))) for x in points]
        assert entropy_bits(U) == reference_entropy([Fraction(1, len(points))] * len(points))
        assert list(point_mass(points[-1]).items()) == [(points[-1], Fraction(1))]
        assert dist_from_json(dist_to_json(D)) == D

    @settings(max_examples=100)
    @given(st.data())
    def test_scale_reads_digits(self, data):
        points = data.draw(self._points)
        A = data.draw(exact_dists(points, max_size=5))
        if data.draw(st.booleans()):
            # a sum on a shared lattice, whose radix is wider than its own points need
            A = linear_combination(
                [as_scalar(1), data.draw(_coefficients.filter(bool))],
                [A, data.draw(exact_dists(points, max_size=3))],
            )
        c = data.draw(_coefficients.filter(bool))
        expected = reference_scale(c, A)
        scaled = scale(c, A)
        assert list(scaled.items()) == list(expected.items())
        assert entropy_bits(scaled) == entropy_bits(A)
        B = data.draw(exact_dists(points, max_size=4))
        reference = reference_convolve(DiscreteDist(expected), B)
        assert list(convolve(scaled, B).items()) == list(reference.items())
        assert entropy_bits(convolve(scaled, B)) == entropy_bits(DiscreteDist(reference))

    def test_equality_across_lattices(self):
        A = DiscreteDist({as_scalar(-3): Fraction(1, 6), as_scalar(2): Fraction(1, 2),
                          as_scalar(7): Fraction(1, 3)})
        # the same distribution through a lattice with a denominator of 2,
        # and through one with an extra all-zero monomial and a wider radix
        halves = convolve(convolve(A, point_mass(Fraction(1, 2))), point_mass(Fraction(-1, 2)))
        symbolic = convolve(convolve(A, point_mass(G1)), point_mass(-G1))
        for other in (halves, symbolic, scale(Fraction(1, 3), scale(3, A))):
            assert other == A and A == other
            assert sorted_items(other) == sorted_items(A)
            assert dist_to_json(other) == dist_to_json(A)
            assert support_set(other) == support_set(A)
            assert entropy_bits(other) == entropy_bits(A)
        # equal keys and weights on different lattices are different points
        assert uniform_on([0, 1]) != uniform_on([0, Fraction(1, 2)])
        assert uniform_on([0, 1]) != uniform_on([0, G1])

    @pytest.mark.parametrize("atoms, message", [
        ({0: Fraction(1, 2)}, "probabilities sum to 1/2, expected exactly 1"),
        ({0: Fraction(1, 3), 1: Fraction(1, 3)}, "probabilities sum to 2/3, expected exactly 1"),
        ({0: Fraction(3, 2), 1: Fraction(-1, 2)}, "probability -1/2 of atom '1' is not positive"),
        ({0: Fraction(1), 1: 0}, "probability 0 of atom '1' is not positive"),
        ({"1/2": Fraction(1, 2), Fraction(1, 2): Fraction(1, 2)},
         "duplicate support point '1/2'"),
        ({}, "a distribution needs at least one atom"),
        # checked atom by atom, in order, before the total
        ({"g1": Fraction(1, 2), G1: Fraction(1, 2), 3: -1}, "duplicate support point 'g1'"),
        ({3: -1, "g1": Fraction(1, 2), G1: Fraction(1, 2)},
         "probability -1 of atom '3' is not positive"),
        ({0: 2, 1: -1, 2: Fraction(1, 2)}, "probability -1 of atom '1' is not positive"),
    ])
    def test_validation_messages_and_order(self, atoms, message):
        with pytest.raises(ValidationError) as info:
            DiscreteDist(atoms)
        assert str(info.value) == message

    def test_wide_keys_count_against_the_budget(self):
        # one coordinate: keys near 2^71 need 2 words per pair
        A = uniform_on([0, 2**70])
        B = uniform_on([0, 1])
        message = "convolution needs 4 atom pairs of 2-word keys, over the budget of 7"
        with pytest.raises(BudgetExceededError, match=message):
            convolve(A, B, budget=7)
        with pytest.raises(BudgetExceededError, match=message):
            linear_combination([as_scalar(1)] * 2, [A, B], budget=7)
        assert len(convolve(A, B, budget=8)) == 4
        # keys of 64 bits whose sums need 65
        D = uniform_on([0, 2**62])
        with pytest.raises(BudgetExceededError, match="2-word keys, over the budget of 7"):
            convolve(D, D, budget=7)
        # two coordinates of 33 bits each: 66 bits, 2 words
        C = uniform_on([0, 2**31 * G1 + 2**31])
        with pytest.raises(BudgetExceededError, match="2-word keys, over the budget of 7"):
            convolve(C, B, budget=7)
        assert len(convolve(C, B, budget=8)) == 4
        # keys of one word keep the plain pair count
        assert len(convolve(B, B, budget=4)) == 3

    def test_replaced_step_is_refused_before_any_key_is_formed(self, monkeypatch):
        # operands on different lattices are placed afresh, on one whose keys
        # need 4 words: the step is refused on it before either is placed
        A = uniform_on([G1 * 10**30 * k + G2 for k in range(3)])
        B = uniform_on([G1 * k - G2 * 10**30 for k in range(4)])
        formed = []
        new = icdof.dist._new
        monkeypatch.setattr(icdof.dist, "_new", lambda *args: formed.append(args) or new(*args))
        with pytest.raises(BudgetExceededError) as info:
            convolve(A, B, 12)
        assert str(info.value) == (
            "convolution needs 12 atom pairs of 4-word keys, over the budget of 12")
        assert formed == []
        assert len(convolve(A, B, 48)) == 12
        assert [len(weights) for _, weights, *_ in formed] == [3, 4, 12]


_wide_rationals = st.builds(
    Fraction, st.integers(-(2**80), 2**80), st.sampled_from([1, 3, 2**80, 3 * 2**80]))
_rational_coefficients = st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 7, 2**80]))


@st.composite
def rational_dists(draw):
    kind = draw(st.sampled_from(["small", "wide", "zero", "sum"]))
    if kind == "zero":
        return point_mass(0)
    A = draw(exact_dists(_rational_points if kind == "small" else _wide_rationals, max_size=5))
    if kind == "sum":  # a lattice whose radix is wider than its own points need
        A = convolve(A, draw(exact_dists(_rational_points, max_size=3)))
    return A


def running_rescale(terms):
    """`_rescale` as it grew the lattice denominator term by term: the
    lattice, then each term's (keys, reach). The running lcm of the reduced
    denominators E/g is kept with, per term, its cofactor and how much it
    grew the lcm, and a key is scaled by the cofactor times the growth of
    the terms after it."""
    steps, denom = [], 1
    for c, dist in terms:
        c = c.as_fraction()
        E = dist._lattice.denominator * c.denominator
        g = math.gcd(E, c.numerator * math.gcd(*dist._weights))
        shared = math.gcd(denom, E // g)
        growth = E // g // shared
        steps.append((dist, c.numerator, g, denom // shared, growth))
        denom *= growth
    later, total = 1, 0
    for dist, num, g, cofactor, growth in reversed(steps):
        total += max(map(abs, dist._weights)) * abs(num) // g * cofactor * later
        later *= growth
    yield _Lattice([MONO_ONE] if total else [], denom, 2 * total + 1)
    upto = 1
    for dist, num, g, cofactor, growth in steps:
        upto *= growth
        keys = [key * num // g * (cofactor * (denom // upto)) for key in dist._weights]
        yield keys, max(map(abs, keys))


class TestRationalPacking:
    """The one-coordinate branch of `_pack` against the decoded slow twins,
    and against `reference_place`, which it bypasses: the same lattice, keys and
    reach, so budgets and every later step are unchanged."""

    @settings(max_examples=150)
    @given(rational_dists(), _rational_coefficients, rational_dists())
    def test_scale_matches_reference(self, A, c, B):
        expected = reference_scale(as_scalar(c), A)
        scaled = scale(c, A)
        assert entropy_bits(scaled) == entropy_bits(A)
        assert list(scaled.items()) == list(expected.items())
        reference = reference_convolve(DiscreteDist(expected), B)
        assert entropy_bits(convolve(scaled, B)) == entropy_bits(DiscreteDist(reference))
        assert list(convolve(scaled, B).items()) == list(reference.items())

    @settings(max_examples=150)
    @given(st.data())
    def test_chains_match_reference(self, data):
        size = data.draw(st.integers(1, 4))
        dists = [data.draw(rational_dists()) for _ in range(size)]
        coeffs = [as_scalar(data.draw(_rational_coefficients)) for _ in range(size)]
        expected = reference_combination(coeffs, dists)
        result = linear_combination(coeffs, dists)
        assert entropy_bits(result) == entropy_bits(expected)
        assert list(result.items()) == list(expected.items())
        # the point-by-point placement of the same terms gives the same packing
        terms = list(zip(coeffs, dists))
        lattice, placed = reference_place(terms)
        packed = list(_pack(terms))
        assert [d._lattice for d in packed] == [lattice] * size
        assert [(list(d._weights), d._reach) for d in packed] == placed

    @settings(max_examples=300)
    @given(st.lists(st.tuples(_rational_coefficients.map(as_scalar), rational_dists()),
                    min_size=1, max_size=5))
    def test_rescale_matches_the_running_lcm(self, terms):
        # one lcm of the reduced denominators places every term as the
        # running lcm did: the same lattice and keys, and the radix is twice
        # the sum of the terms' reaches, plus one
        placed = list(icdof.dist._rescale(terms))
        assert placed == list(running_rescale(terms))
        lattice, *steps = placed
        assert lattice.radix == 2 * sum(reach for _, reach in steps) + 1

    @settings(max_examples=100)
    @given(st.data())
    def test_refused_as_packing_every_term_first(self, data):
        # the old order: pack every term, then let each `convolve` step refuse
        size = data.draw(st.integers(2, 4))
        dists = [data.draw(rational_dists()) for _ in range(size)]
        coeffs = [as_scalar(data.draw(_rational_coefficients)) for _ in range(size)]
        budget = data.draw(st.integers(1, 200))
        try:
            expected = convolve_fold(list(_pack(list(zip(coeffs, dists)))), budget)
        except BudgetExceededError as exc:
            with pytest.raises(BudgetExceededError) as info:
                linear_combination(coeffs, dists, budget=budget)
            assert str(info.value) == str(exc)
        else:
            assert list(linear_combination(coeffs, dists, budget=budget).items()) == (
                list(expected.items()))

    def test_first_step_is_refused_before_any_key_is_formed(self):
        # the truncation sum_k 3^-k W_k of `infodim` at r = 1/3, w = {0, 1}:
        # keys as wide as 3^m, so the first step's key words are over a
        # small budget while its 4 atom pairs are not
        formed = []

        class SpyKey(int):
            def __mul__(self, other):
                formed.append(self)
                return int(self) * other

        W = uniform_on([0, 1])
        spied = icdof.dist._new(
            W._lattice, {SpyKey(k): w for k, w in W._weights.items()}, W._denominator, W._reach)
        m = 200
        coeffs = [Fraction(1, 3**k) for k in range(m)]
        packed = list(_pack([(as_scalar(c), W) for c in coeffs]))
        budget = 16
        with pytest.raises(BudgetExceededError) as old:
            convolve(packed[0], packed[1], budget=budget)
        assert str(old.value) == "convolution needs 4 atom pairs of 5-word keys, over the budget of 16"
        with pytest.raises(BudgetExceededError) as new:
            linear_combination(coeffs, [spied] * m, budget=budget)
        assert str(new.value) == str(old.value)
        assert formed == []
        # over a budget that admits the first step, the same spy sees the keys
        # of the three terms the second step's refusal needs, and no others
        with pytest.raises(BudgetExceededError, match="8 atom pairs of 5-word keys"):
            linear_combination(coeffs, [spied] * m, budget=20)
        assert len(formed) == 2 * 3

    def test_wide_chain_key_width_refusals(self):
        # keys over a denominator near 2^83 need 2 words, and 3 once a term
        # scaled by 2^-80 joins them; messages as before the one-coordinate branch
        dists = [uniform_on(range(4)), uniform_on([0, Fraction(1, 3), 5]),
                 DiscreteDist({as_scalar(-2): Fraction(1, 3), as_scalar(7): Fraction(2, 3)})]
        coeffs = [as_scalar(Fraction(1, 2**80)), as_scalar(-3), as_scalar(Fraction(5, 7))]
        with pytest.raises(BudgetExceededError) as info:
            linear_combination(coeffs, dists, budget=24 * 2 - 1)
        assert str(info.value) == (
            "convolution needs 24 atom pairs of 2-word keys, over the budget of 47")
        total = linear_combination(coeffs, dists, budget=24 * 2)
        assert total == reference_combination(coeffs, dists)
        with pytest.raises(BudgetExceededError) as info:
            convolve(total, total, budget=576 * 2 - 1)
        assert str(info.value) == (
            "convolution needs 576 atom pairs of 2-word keys, over the budget of 1151")
        assert len(convolve(total, total, budget=576 * 2)) == 126
        shrunk = scale(Fraction(-1, 2**80), total)
        with pytest.raises(BudgetExceededError) as info:
            convolve(total, shrunk, budget=576 * 2)
        assert str(info.value) == (
            "convolution needs 576 atom pairs of 3-word keys, over the budget of 1152")
        assert convolve(total, shrunk, budget=576 * 3) == DiscreteDist(
            reference_convolve(total, shrunk))


def reference_packed(terms) -> list[DiscreteDist]:
    """The terms of `reference_place` as distributions, every key formed."""
    lattice, placed = reference_place(terms)
    return [icdof.dist._new(lattice, dict(zip(keys, dist._weights.values())),
                            dist._denominator, reach)
            for (keys, reach), (_, dist) in zip(placed, terms)]


# the g1 digit is 0 at every point of {g1, g1 + 1} + {-g1}
DEAD = convolve(uniform_on([G1, G1 + 1]), uniform_on([-G1]))


@st.composite
def placement_sources(draw):
    kind = draw(st.sampled_from(["symbolic", "quadratic", "sum", "rational", "zero", "dead"]))
    if kind == "zero":
        return point_mass(0)
    if kind == "dead":
        return DEAD
    if kind == "rational":
        return draw(rational_dists())
    A = draw(exact_dists(_quadratic_points if kind == "quadratic" else _symbolic_points,
                         max_size=5))
    if kind == "sum":  # a shared lattice, with a radix wider than its own points need
        A = convolve(A, draw(exact_dists(_symbolic_points, max_size=3)))
    return A


_one_term = st.sampled_from([G1, G1 * G3, Fraction(1, 3) * G2, Fraction(-5, 2**80) * G1 * G1])
# images collide (g1 * 1 = 1 * g1) and can cancel: (1 + g1) * (1 - g1) = 1 - g1^2
_several_terms = st.sampled_from([
    G2 - 1, G1 + 1, 1 - G1, G1 * G1 - 2 * G1 + Fraction(1, 2),
    Fraction(1, 3) * G1 + Fraction(3, 2) * G2, 2 * G1 * G3 + 6 * G1,
])
_placement_coefficients = st.one_of(
    _rational_coefficients.map(as_scalar), _one_term, _several_terms)


@st.composite
def symbolic_forms(draw, min_size=1):
    """Terms (c_j, X_j) of one linear form, inputs drawn from a small pool so
    that one distribution can stand in several terms."""
    pool = draw(st.lists(placement_sources(), min_size=1, max_size=3))
    size = draw(st.integers(min_size, 4))
    return [(draw(_placement_coefficients), draw(st.sampled_from(pool))) for _ in range(size)]


class TestSymbolicPlacement:
    """The linear-map placement of `_pack` against the point-by-point twin:
    the same lattice, keys and reach, compared by `==`, so budgets, refusal
    texts and every later step are unchanged."""

    @staticmethod
    def assert_placed_as_reference(terms):
        lattice, placed = reference_place(terms)
        packed = list(_pack(terms))
        assert [(d._lattice.basis, d._lattice.denominator, d._lattice.radix) for d in packed] == (
            [(lattice.basis, lattice.denominator, lattice.radix)] * len(terms))
        assert [(list(d._weights), d._reach) for d in packed] == placed

    @settings(max_examples=300)
    @given(symbolic_forms())
    def test_matches_reference_place(self, terms):
        self.assert_placed_as_reference(terms)

    def test_edge_cases_match_reference_place(self):
        assert len(DEAD._lattice.basis) == 2 and len(DEAD) == 2
        zero = scale(G1, point_mass(0))  # a lattice with no coordinate at all
        assert zero._lattice.basis == []
        W = uniform_on([G1 + G2, 2 * G1 - 1, G2 * G3])
        rational = uniform_on([0, Fraction(1, 3), 5])
        cancelling = uniform_on([1 + G1, 2 + 2 * G1])  # times 1 - g1, g1 is never live
        cases = [
            [(G1, DEAD)], [(G1 + 1, DEAD), (G2, DEAD)],
            [(G1, point_mass(0))], [(G2 - 1, point_mass(0)), (G1, W)],
            [(G2, zero)], [(G1 + 1, zero), (as_scalar(3), zero)],
            [(G1, rational), (G2 - 1, rational), (as_scalar(Fraction(1, 2)), rational)],
            [(G1, W), (G2, W), (G1 + G2, W), (as_scalar(-2), W)],
            [(1 - G1, cancelling), (G1 * G1, cancelling)],
            # 3 * (g1/3 + 2/3) = g1 + 2: the shared denominator shrinks below E
            [(as_scalar(3), uniform_on([Fraction(1, 3) * G1, Fraction(2, 3)])), (3 * G1 + 3, W)],
        ]
        for terms in cases:
            self.assert_placed_as_reference([(as_scalar(c), d) for c, d in terms])
        # the cancelled g1 is no coordinate of the lattice
        lattice, _ = reference_place([(1 - G1, cancelling)])
        assert lattice.basis == [mono for mono, _ in (1 - G1 * G1).terms()]

    def test_each_input_is_decoded_once(self, monkeypatch):
        decoded = []
        digits = _Lattice.digits
        monkeypatch.setattr(_Lattice, "digits", lambda lattice, key: (
            decoded.append(key) or digits(lattice, key)))
        W = uniform_on(reference_build_wn(ChannelMatrix.generic(2), 1, 2))
        V = uniform_on([G1 + G2, 2 * G1 - 1, G2 * G3])
        terms = [(G1, W), (G2 + 1, W), (G3, V), (as_scalar(Fraction(1, 2)), W), (G1, V),
                 (G2, uniform_on(range(3)))]  # one coordinate: read from its keys
        list(_pack(terms))
        assert len(decoded) == len(W) + len(V)

    @settings(max_examples=150)
    @given(symbolic_forms(min_size=2), st.integers(1, 200))
    def test_refused_as_packing_every_term_first(self, terms, budget):
        # the old order: form every term's keys, then let each `convolve` step refuse
        coeffs, dists = zip(*terms)
        try:
            expected = convolve_fold(reference_packed(terms), budget)
        except BudgetExceededError as exc:
            with pytest.raises(BudgetExceededError) as info:
                linear_combination(coeffs, dists, budget=budget)
            assert str(info.value) == str(exc)
        else:
            assert list(linear_combination(coeffs, dists, budget=budget).items()) == (
                list(expected.items()))

    @pytest.mark.parametrize("budget", [8, 53, 54, 161, 162, 485, 486, 1457, 1458])
    def test_merge_free_chain_is_refused_before_its_first_step(self, budget):
        # no two terms share a monomial: 3^k * 3 pairs at step k, each pair
        # of 6-word keys on the lattice 2^70 g3 widens; the chain's first
        # refusal comes before any step runs
        X = uniform_on(range(1, 4))
        terms = [(G1, X), (G2, X), (G1 * G2, X), (2**70 * G3, X), (G3 * G3, X)]
        assert [len(_monomials([term])) for term in terms] == [1] * 5
        calls: list = []
        try:
            expected = convolve_fold(reference_packed(terms), budget)
        except BudgetExceededError as exc:
            with mock.patch.object(icdof.dist, "_merge", counting_merge(calls)), \
                    pytest.raises(BudgetExceededError) as info:
                linear_combination(*zip(*terms), budget=budget)
            assert str(info.value) == str(exc)
            assert calls == []
        else:
            assert linear_combination(*zip(*terms), budget=budget) == expected

    def test_first_step_is_refused_before_any_key_is_formed(self, monkeypatch):
        H = ChannelMatrix.generic(2)
        W = uniform_on(reference_build_wn(H, 1, 2))  # 8 points on 3 coordinates
        g11, g12 = H.row(0)
        formed = []
        monkeypatch.setattr(icdof.dist, "mul", lambda a, b: formed.append(a) or a * b)
        pairs = len(W) ** 2
        # a one-term and a two-term coefficient; then keys over 2^100 wide
        for coeffs, budget, message in [
            ([g12, g11 + 1], pairs - 1, f"{pairs} atom pairs, over the budget of {pairs - 1}"),
            ([2**100 * g12, g11 + 1], pairs, f"{pairs} atom pairs of 13-word keys"),
        ]:
            terms = [(as_scalar(c), W) for c in coeffs]
            with pytest.raises(BudgetExceededError) as old:
                convolve_fold(reference_packed(terms), budget)
            with pytest.raises(BudgetExceededError, match=message) as new:
                linear_combination(coeffs, [W, W], budget=budget)
            assert str(new.value) == str(old.value)
            assert formed == []
        # over a budget that admits the step, the spy sees every key formed,
        # one product per digit
        linear_combination([g12, g11 + 1], [W, W], budget=pairs)
        assert len(formed) == 2 * len(W) * len(W._lattice.basis)


class TestScaleAndCombine:
    def test_scale_zero_rejected(self):
        with pytest.raises(ValidationError):
            scale(0, uniform_on([0, 1]))

    def test_scale_entropy_invariant(self, rng):
        for _ in range(25):
            A = random_rational_dist(rng)
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert entropy_bits(scale(c, A)) == pytest.approx(entropy_bits(A), abs=1e-12)
            assert entropy_bits(scale(-1, A)) == pytest.approx(entropy_bits(A), abs=1e-12)

    def test_linear_combination_matches_manual(self, rng):
        for _ in range(10):
            A = random_rational_dist(rng, max_support=5)
            B = random_rational_dist(rng, max_support=5)
            lhs = linear_combination([as_scalar(2), as_scalar(-3)], [A, B])
            rhs = convolve(scale(2, A), scale(-3, B))
            assert lhs == rhs

    def test_linear_combination_drops_zero_coefficients(self):
        A = uniform_on([0, 1])
        B = uniform_on([0, 7])
        assert linear_combination([as_scalar(0), as_scalar(1)], [A, B]) == B
        with pytest.raises(ValidationError):
            linear_combination([as_scalar(0), as_scalar(0)], [A, B])
        with pytest.raises(ValidationError):
            linear_combination([as_scalar(1)], [A, B])


class TestFloor:
    def test_rational_points_on_a_symbolic_lattice(self):
        # the floor reads keys as numerators, so only a one-coordinate lattice is floored
        g1 = ExactScalar.generator("g1")
        X = convolve(uniform_on([g1, g1 + 1]), uniform_on([-g1]))
        assert len(X._lattice.basis) > 1  # the points are rational, the lattice is not
        for s in (Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3)):
            with pytest.raises(NotRationalError, match="^floor needs rational support points$"):
                floor_dist(s, X)

    def test_matches_floor_of_each_point(self, rng):
        for _ in range(20):
            A = random_rational_dist(rng)
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            expected: dict = {}
            for x, p in A.items():
                cell = math.floor(s * x.as_fraction())
                expected[cell] = expected.get(cell, 0) + p
            assert floor_dist(s, A) == DiscreteDist(expected)

    def test_symbolic_point_rejected(self):
        g1 = ExactScalar.generator("g1")
        with pytest.raises(NotRationalError, match="^floor needs rational support points$"):
            floor_dist(Fraction(1, 2), uniform_on([0, g1]))
        X = convolve(uniform_on([g1, g1 + 1]), uniform_on([-g1, 0]))
        with pytest.raises(NotRationalError, match="^floor needs rational support points$"):
            floor_dist(Fraction(1, 2), X)

    @settings(max_examples=60)
    @given(st.data())
    def test_two_operands_match_the_floor_of_the_sum(self, data):
        # the halves of a truncation's last doubling step, for a dense digit set
        # and two Cantor sets: `_floor_windows` takes each step unless s spreads
        # B over more than 2*|B| cells, which it declines to the pair loop
        r, digits = data.draw(st.sampled_from([
            (Fraction(1, 2), range(4)), (Fraction(1, 3), (0, 2)), (Fraction(2, 5), (1, 3, 4))]))
        weights = [data.draw(st.integers(1, 9)) for _ in digits]
        ifs = IFSSpec.create(r, digits, [Fraction(w, sum(weights)) for w in weights])
        a, b = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        A, B, c = truncated_dist(ifs, a), truncated_dist(ifs, b), as_scalar(r**a)
        s = Fraction(data.draw(st.integers(-400, 400)), data.draw(st.integers(1, 9)))
        expected = floor_dist(s, linear_combination([1, c], [A, B]))
        assert floor_dist(s, *_pack([(ONE, A), (c, B)])) == expected
        assert floor_dist(s, A, scale(c, B)) == expected  # placed afresh by `place_step`

    @pytest.mark.parametrize("r, digits, taken", [
        (Fraction(1, 2), range(4), True), (Fraction(1, 3), (0, 2), False)])
    def test_two_operands_are_floored_without_merging(self, r, digits, taken):
        # the dense step is one `_merge` takes as `_kronecker`'s product; the
        # floor merges neither step, and floors both one window per atom:
        # r^4 X meets at most two cells at s = -7/3
        ifs = IFSSpec.create(r, digits, [Fraction(1, len(digits))] * len(digits))
        X = truncated_dist(ifs, 4)
        A, B = _pack([(ONE, X), (as_scalar(r**4), X)])
        assert (_kronecker(A._weights, B._weights) is not None) is taken
        expected = floor_dist(Fraction(-7, 3), convolve(A, B))
        with mock.patch.object(icdof.dist, "_kronecker", side_effect=AssertionError), \
                mock.patch.object(icdof.dist, "_merge", side_effect=AssertionError), \
                floor_paths() as paths:
            floored = floor_dist(Fraction(-7, 3), A, B)
        assert floored == expected
        assert paths == [(True, 2)]

    def test_two_operands_on_a_symbolic_lattice(self):
        # the placed step is refused whether or not its points are rational
        g1 = ExactScalar.generator("g1")
        A, B = uniform_on([g1, g1 + 1]), uniform_on([-g1, 1 - g1])
        for s in (Fraction(1, 2), Fraction(-5, 3)):
            with pytest.raises(NotRationalError, match="^floor needs rational support points$"):
                floor_dist(s, A, B)
        with pytest.raises(NotRationalError, match="^floor needs rational support points$"):
            floor_dist(Fraction(1, 2), A, uniform_on([0, 1]))

    def test_two_operands_are_refused_as_the_step(self):
        A, B = uniform_on(range(0, 40, 2)), uniform_on(range(0, 30, 3))
        message = "convolution needs 200 atom pairs, over the budget of 199"
        with pytest.raises(BudgetExceededError, match=message):
            convolve(A, B, budget=199)
        with pytest.raises(BudgetExceededError, match=message):
            floor_dist(Fraction(1, 3), A, B, budget=199)
        assert floor_dist(Fraction(1, 3), A, B, budget=200) == floor_dist(
            Fraction(1, 3), convolve(A, B))


class TestEntropy:
    def test_uniform_entropies_exact(self):
        for k in (2, 4, 8, 16):
            assert entropy_bits(uniform_on(range(k))) == math.log2(k)

    def test_point_mass_is_positive_zero(self):
        h = entropy_bits(point_mass(3))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_binomial_entropy(self):
        coin = uniform_on([0, 1])
        B2 = convolve(coin, coin)
        expected = 2 * (Fraction(1, 4) * 2) + Fraction(1, 2) * 1
        assert entropy_bits(B2) == pytest.approx(float(expected), abs=1e-15)

    def test_huge_denominators_stay_finite(self):
        tiny = Fraction(1, 10**300)
        D = DiscreteDist({as_scalar(0): 1 - tiny, as_scalar(1): tiny})
        h = entropy_bits(D)
        assert math.isfinite(h) and 0.0 < h < 1e-295

    def test_subadditivity_and_monotonicity(self, rng):
        for _ in range(40):
            A = random_rational_dist(rng)
            B = random_rational_dist(rng)
            hA, hB = entropy_bits(A), entropy_bits(B)
            hS = entropy_bits(convolve(A, B))
            assert hS >= max(hA, hB) - 1e-9
            assert hS <= hA + hB + 1e-9


GS = ExactScalar.generator("gs")  # on no cross term, so a signal on it is split

_weights = st.one_of(st.integers(1, 3), st.integers(1, 2**80))  # repeats and huge totals


@st.composite
def weighted_dists(draw, points, max_size=6):
    support = draw(st.lists(points.map(as_scalar), min_size=1, max_size=max_size, unique=True))
    return weighted_on(support, draw(st.lists(_weights, min_size=len(support),
                                              max_size=len(support))))


_nonzero = _rational_points.filter(bool).map(as_scalar)
_cross_terms = st.lists(
    st.tuples(st.one_of(_nonzero, st.sampled_from([G1, G2 - 1, G1 * G3, Fraction(1, 3) * G2])),
              weighted_dists(st.one_of(_rational_points, _symbolic_points))),
    min_size=1, max_size=3,
)


class TestSplitEntropies:
    """`PlacedSplit` evaluated with its terms' own weights against the
    enumerated sums: the entropies must be the same floats, bit for bit."""

    @settings(max_examples=150)
    @given(_cross_terms,
           st.sampled_from([GS, Fraction(-2, 3) * GS, GS * G1, GS * G2 - GS]),
           weighted_dists(st.one_of(_rational_points, _symbolic_points)))
    def test_proved_split_matches_the_enumerated_sum(self, cross, c, X):
        calls: list = []
        with mock.patch.object(icdof.dist, "_merge", counting_merge(calls)):
            result = split_entropies(cross, (as_scalar(c), X))
        assert len(calls) == len(cross) - 1  # the cross steps; I + S is never built
        coeffs, dists = zip(*cross)
        interference = linear_combination(coeffs, dists)
        full = linear_combination([*coeffs, c], [*dists, X])
        assert len(full) == len(interference) * len(X)
        assert result == (entropy_bits(interference), entropy_bits(full),
                          len(interference), len(full))

    @settings(max_examples=150)
    @given(_cross_terms, _nonzero, weighted_dists(_rational_points),
           weighted_dists(_rational_points))
    def test_overlapping_terms_are_enumerated(self, cross, q, first, X):
        # the signal q*c_0*X and the first cross term c_0*first, both on
        # rational points, reach the same monomials, so the sum is counted
        (c0, _), *rest = cross
        cross = [(c0, first), *rest]
        # counted, not proved: a sum that merges atoms reports fewer than
        # |I| * |X| of them instead of raising
        calls: list = []
        with mock.patch.object(icdof.dist, "_merge", counting_merge(calls)):
            result = split_entropies(cross, (q * c0, X))
        coeffs, dists = zip(*cross)
        interference = linear_combination(coeffs, dists)
        full = linear_combination([*coeffs, q * c0], [*dists, X])
        assert calls[-1] == len(interference) * len(X)
        assert result == (entropy_bits(interference), entropy_bits(full),
                          len(interference), len(full))

    def test_the_points_monomials_count_too(self):
        # the coefficients g1 and gs share no monomial, but g1*{0, gs} and
        # gs*{0, g1} both reach g1*gs, where 0 + g1*gs = g1*gs + 0
        cross = [(G1, uniform_on([0, GS]))]
        _, _, n_intf, n_full = split_entropies(cross, (GS, uniform_on([0, G1])))
        assert (n_intf, n_full) == (2, 3)  # 3 sums for 2 * 2 pairs

    def test_refused_as_the_enumerated_sum(self):
        # two symbolic coordinates over 10^6 need 2-word keys
        cross = [(as_scalar(1), uniform_on([G1 * 10**6 * k + G2 for k in range(4)]))]
        signal = (GS, uniform_on(range(4)))
        coeffs, dists = zip(cross[0], signal)
        for budget in (15, 16, 31):
            with pytest.raises(BudgetExceededError) as expected:
                linear_combination(coeffs, dists, budget=budget)
            with pytest.raises(BudgetExceededError) as refused:
                split_entropies(cross, signal, budget=budget)
            assert str(refused.value) == str(expected.value)
        assert split_entropies(cross, signal, budget=32) == (2.0, 4.0, 4, 16)

    def test_without_a_signal_the_output_is_the_interference(self):
        # a zero diagonal: no signal term, so no step beyond the cross steps
        cross = [(G1, uniform_on([0, 1, 2])), (as_scalar(2), uniform_on([0, 1]))]
        calls: list = []
        with mock.patch.object(icdof.dist, "_merge", counting_merge(calls)):
            result = split_entropies(cross, None, budget=6)
        interference = linear_combination(*zip(*cross))
        h = entropy_bits(interference)
        assert (calls, result) == ([6], (h, h, 6, 6))


@st.composite
def dense_dists(draw, max_size=24, tops=(2**4, 2**8, 2**16, 2**32, 2**64, 2**80)):
    """Integer points lo + stride*i, i from a window half again as wide as
    the support, so that most pairs of them pass the dense step's gate, with
    weights sized for every slot width and past the widest."""
    n = draw(st.integers(1, max_size))
    lo, stride = draw(st.integers(-40, 40)), draw(st.sampled_from([1, 1, 2, 3, 4]))
    picked = draw(st.lists(st.integers(0, n + n // 2), min_size=n, max_size=n, unique=True))
    top = draw(st.sampled_from(tops))
    weights = draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
    return weighted_on([lo + stride * i for i in picked], weights)


@contextmanager
def loop_only():
    """`_kronecker` declines every step, so `convolve` runs the pair loop,
    the big-integer product's oracle."""
    with mock.patch.object(icdof.dist, "_kronecker", lambda a, b: None):
        yield


def pair_loop(A: DiscreteDist, B: DiscreteDist, budget: int = 10**9) -> DiscreteDist:
    with loop_only():
        return convolve(A, B, budget)


@contextmanager
def products():
    """Record, for each step that reaches `_kronecker`, its operand sizes
    and whether it took the step as one product."""
    taken: list = []
    kronecker = icdof.dist._kronecker

    def spy(a, b):
        merged = kronecker(a, b)
        taken.append((len(a), len(b), merged is not None))
        return merged

    with mock.patch.object(icdof.dist, "_kronecker", spy):
        yield taken


def dense_and_loop(A: DiscreteDist, B: DiscreteDist, budget: int = 10**9) -> bool:
    """Assert that `convolve` gives the pair loop's sum: the same merged
    weights, lattice, reach and denominator. True when it took the product."""
    with products() as taken:
        dense = convolve(A, B, budget)
    loop = pair_loop(A, B, budget)
    assert dense._weights == loop._weights
    assert (dense._lattice, dense._reach, dense._denominator) == (
        loop._lattice, loop._reach, loop._denominator)
    assert entropy_bits(dense) == entropy_bits(loop)
    return any(took for *_, took in taken)


def full_rule_takes(a: dict, b: dict) -> bool:
    """`_kronecker`'s rule with g read from every key, and no earlier
    bound: the atom pairs are at least twice |A| + |B| + slots, and the
    merged-weight bound fits 8 bytes."""
    low = min(a), min(b)
    g = math.gcd(*(k - low[0] for k in a), *(k - low[1] for k in b)) or 1
    slots = sum((max(keys) - lo) // g + 1 for keys, lo in zip((a, b), low)) - 1
    top = min(sum(a.values()) * max(b.values()), sum(b.values()) * max(a.values()))
    return len(a) * len(b) >= 2 * (len(a) + len(b) + slots) and top < 2**64


class TestDenseConvolve:
    """`convolve`'s big-integer product against its oracle, the pair loop
    (`convolve` with `_kronecker` declining)."""

    @settings(max_examples=300)
    @given(dense_dists(), dense_dists())
    def test_matches_the_pair_loop(self, A, B):
        dense_and_loop(A, B)

    @settings(max_examples=100)
    @given(st.lists(st.integers(-4, 4).filter(bool), min_size=2, max_size=3),
           dense_dists(tops=(1, 2**4, 2**16)).filter(lambda X: len(X) > 1), st.booleans())
    def test_on_the_lattice_of_an_integer_table(self, coeffs, X, symbolic):
        # bound-integer's terms h_ij*W_j beside the signal g_i*W_i: two
        # coordinates, the keys of the cross terms on the constant one; a
        # symbolic input adds g1 and g1*g_i
        if symbolic:
            X = weighted_on([x + (k % 3) * G1 for k, x in enumerate(support_set(X))],
                            list(X._weights.values()))
        packed = _pack([*((as_scalar(c), X) for c in coeffs), (GS, X)])
        A, B = next(packed), next(packed)
        assert len(A._lattice.basis) == 2 + 2 * symbolic
        dense_and_loop(A, B)

    @pytest.mark.parametrize("total, dense", [
        (2**8 - 1, True), (2**8, True), (2**64 - 1, True), (2**64, False)])
    def test_slot_width_bounds(self, total, dense):
        # the slot bound min(sum(a)*max(b), sum(b)*max(a)) is `total`, and the
        # sum at key 19 reaches it: one byte, two, eight, then the loop
        A = weighted_on(range(20), [1] * 19 + [total - 19])
        B = uniform_on(range(20))
        assert dense_and_loop(A, B) is dense
        assert max(convolve(A, B, 10**9)._weights.values()) == total

    @pytest.mark.parametrize("A, B", [
        (point_mass(-7), uniform_on(range(0, 90, 3))),
        (uniform_on(range(-60, 0, 2)), point_mass(5)),
        (point_mass(2), point_mass(-3)),
        (point_mass(G1), uniform_on(range(30))),
    ])
    def test_one_atom_operands(self, A, B):
        dense_and_loop(A, B)

    def test_refused_as_convolve(self):
        # two coordinates over 10^12 need 2-word keys; at the budget that
        # admits them the 12 x 12 step is dense, and a refused step never
        # reaches the product
        A = uniform_on([G1 * 10**12 * k + G2 for k in range(12)])
        B = uniform_on([G1 * 10**12 * k - G2 for k in range(12)])
        pairs = len(A) * len(B)
        for budget in (pairs - 1, pairs, 2 * pairs - 1):
            with pytest.raises(BudgetExceededError) as expected:
                pair_loop(A, B, budget)
            with products() as taken, pytest.raises(BudgetExceededError) as refused:
                convolve(A, B, budget)
            assert str(refused.value) == str(expected.value) and taken == []
        assert "2-word keys" in str(expected.value)
        assert dense_and_loop(A, B, 2 * pairs)


def corpus_steps():
    """The aligned operands of one corpus-benchmark step U + lam*V: 2-12
    points in [-15, 15] with weights 1-9, lam one of -1, 2, 1/2, -2."""
    def dist(points, weights):
        return weighted_on(points, weights[:len(points)])

    side = st.builds(dist, st.lists(st.integers(-15, 15), min_size=2, max_size=12, unique=True),
                     st.lists(st.integers(1, 9), min_size=12, max_size=12))
    lam = st.sampled_from([Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-2)])
    return st.builds(lambda U, V, lam: place_step(U, scale(lam, V), 10**9)[:2], side, side, lam)


class TestDeclineBound:
    """`_kronecker` declines a step by a bound on its slots before it scans
    every key for their gcd; the bound never declines a step that the rule
    with the full gcd takes."""

    @settings(max_examples=300)
    @given(dense_dists(), dense_dists())
    def test_on_dense_operands(self, A, B):
        (a, _), (b, _), *_ = place_step(A, B, 10**9)
        assert (_kronecker(a, b) is not None) == full_rule_takes(a, b)

    @settings(max_examples=300)
    @given(corpus_steps())
    def test_on_corpus_steps(self, step):
        a, b = (weights for weights, _ in step)
        assert (_kronecker(a, b) is not None) == full_rule_takes(a, b)

    @pytest.mark.parametrize("extra, taken", [(0, True), (1, False)])
    def test_at_the_boundary(self, extra, taken):
        # 12 x 12 pairs pay for 144/2 - 24 = 48 slots: key ranges 23 and 24
        # fill them, and one more slot is declined
        a = dict.fromkeys([*range(11), 23], 1)
        b = dict.fromkeys([*range(11), 24 + extra], 1)
        assert full_rule_takes(a, b) is taken
        assert (_kronecker(a, b) is not None) is taken


class TestDensePath:
    """Which steps `convolve` takes as one product: wide integer steps do,
    steps of corpus size and symbolic steps stay on the pair loop."""

    @pytest.fixture
    def steps(self):
        calls: list = []
        with mock.patch.object(icdof.dist, "_merge", counting_merge(calls)), \
                products() as taken:
            yield calls, taken

    def test_integer_table_step_is_dense(self, steps):
        report = integer_example_bound(3, [[0, 2, -1], [3, 0, 1], [-2, 4, 0]], 48)
        # each user's 48 x 48 interference step, and no other
        assert steps == ([48 * 48] * 3, [(48, 48, True)] * 3)
        assert report.bound > 0

    def test_enumerated_full_step_is_dense(self, steps):
        # the signal 2*X and the cross term X reach the same monomial
        X = uniform_on(range(30))
        result = split_entropies([(as_scalar(1), X)], (as_scalar(2), X))
        assert steps == ([30 * 30], [(30, 30, True)])
        full = linear_combination([1, 2], [X, X])
        assert result == (entropy_bits(X), entropy_bits(full), 30, len(full))

    def test_corpus_size_step_is_not(self, steps):
        A = weighted_on([-15, -13, -10, -6, -3, 0, 2, 5, 7, 9, 12, 15], range(1, 13))
        B = weighted_on([-14, -11, -9, -8, -4, -1, 1, 3, 6, 10, 13, 14], range(12, 0, -1))
        split_entropies([(as_scalar(1), A), (as_scalar(1), B)], None)
        assert steps == ([144], [(12, 12, False)])

    def test_generic_theorem1_steps_are_not(self, steps):
        calls, taken = steps
        theorem1_certified_bound(ChannelMatrix.generic(3), 1, 2)
        # W_N's own steps, then one symbolic interference step per user
        assert calls[-3:] == [128 * 128] * 3
        assert not any(took for *_, took in taken)


def dense_integer_dist(seed: int, n: int) -> DiscreteDist:
    """n integer points picked from a window half again as wide, with
    seeded weights 1-1000: operands whose steps the product takes."""
    rng = random.Random(seed)
    return weighted_on(sorted(rng.sample(range(-n, n // 2), n)),
                       [rng.randint(1, 1000) for _ in range(n)])


class TestEveryCallerTakesTheProduct:
    """Every sum goes through `convolve`, so each caller takes large dense
    steps as one product and gives the pair loop's result exactly: the
    same floats bit for bit, or results equal by `==`."""

    @pytest.mark.parametrize("lam", [Fraction(-1), Fraction(2), Fraction(1, 2)])
    @pytest.mark.parametrize("n", [16, 150])
    def test_hlambda_bound(self, lam, n):
        U, V = dense_integer_dist(1, n), dense_integer_dist(2, n)
        with products() as taken:
            bound = hlambda_bound(lam, U, V)
        assert taken and all(took for *_, took in taken)
        with loop_only():
            assert bound == hlambda_bound(lam, U, V)

    def test_hlambda_bound_at_2000_atoms(self):
        U, V = dense_integer_dist(3, 2000), dense_integer_dist(4, 2000)
        with products() as taken:
            bound = hlambda_bound(-1, U, V)
        assert taken == [(2000, 2000, True)] * 2
        with loop_only():
            assert bound == hlambda_bound(-1, U, V)

    @pytest.mark.parametrize("n", [16, 150])
    def test_entropy_inequality_suite(self, n):
        U, V = dense_integer_dist(5, n), dense_integer_dist(6, n)
        with products() as taken:
            report = entropy_inequality_suite(U, V)
        assert len(taken) == 2 and all(took for *_, took in taken)
        with loop_only():
            assert report == entropy_inequality_suite(U, V)

    @pytest.mark.parametrize("n", [16, 150])
    def test_sumset(self, n):
        A = support_set(dense_integer_dist(7, n))
        B = support_set(dense_integer_dist(8, n))
        with products() as taken:
            total = sumset(A, B)
        assert taken == [(n, n, True)]
        with loop_only():
            assert total == sumset(A, B)

    @pytest.mark.parametrize("n", [16, 150])
    def test_linear_combination(self, n):
        coeffs = [1, -2, 3]
        dists = [dense_integer_dist(seed, n) for seed in (9, 10, 11)]
        with products() as taken:
            total = linear_combination(coeffs, dists)
        assert taken and all(took for *_, took in taken)
        with loop_only():
            assert total == linear_combination(coeffs, dists)

    def test_truncated_dist(self):
        ifs = IFSSpec(Fraction(1, 2), tuple(map(as_scalar, range(4))), (Fraction(1, 4),) * 4)
        with products() as taken:
            X = truncated_dist(ifs, 10)
        assert taken[-1] == (94, 94, True)
        with loop_only():
            assert X == truncated_dist(ifs, 10)
        assert entropy_bits(X) == entropy_bits(reference_truncation(ifs, 10))


@contextmanager
def floor_paths():
    """Record, for each two-operand floor on one coordinate, whether
    `_floor_windows` took it and how many times it called `sorted`."""
    paths: list = []
    windows = icdof.dist._floor_windows

    def spy(*args):
        sorts = []

        def counting_sorted(*items, **kwargs):
            sorts.append(1)
            return sorted(*items, **kwargs)

        with mock.patch.object(icdof.dist, "sorted", counting_sorted, create=True):
            cells = windows(*args)
        paths.append((cells is not None, len(sorts)))
        return cells

    with mock.patch.object(icdof.dist, "_floor_windows", spy):
        yield paths


def floor_both_ways(s: Fraction, A: DiscreteDist, B: DiscreteDist, budget: int = 10**9):
    """Assert that the two-operand floor gives the pair loop's cells (the
    floor with `_floor_windows` declining) and the floor of each point of
    A + B; return whether the windows took the step."""
    with floor_paths() as paths:
        floored = floor_dist(s, A, B, budget)
    with mock.patch.object(icdof.dist, "_floor_windows", lambda *args: None):
        loop = floor_dist(s, A, B, budget)
    assert floored._weights == loop._weights
    assert (floored._lattice, floored._reach, floored._denominator) == (
        loop._lattice, loop._reach, loop._denominator)
    expected: dict = {}
    for (x, p), (y, q) in itertools.product(A.items(), B.items()):
        cell = math.floor(s * (x + y).as_fraction())
        expected[cell] = expected.get(cell, 0) + p * q
    assert floored == DiscreteDist(expected)
    (taken, _), = paths
    return taken


@st.composite
def floor_steps(draw):
    """(s, A, B) for a two-operand floor: B points lo + stride*i over a
    denominator of 1-3, i from a window twice as wide as B, so that B meets
    few cells at small |s|; A's points apart by gaps from one to far past a
    window; weights sized for every slot width and past the widest; s of
    either sign, or 0."""
    top = draw(st.sampled_from([1, 9, 2**12, 2**28, 2**40]))
    n = draw(st.integers(1, 10))
    lo, stride = draw(st.integers(-40, 40)), draw(st.integers(1, 3))
    picked = draw(st.lists(st.integers(0, 2 * n), min_size=n, max_size=n, unique=True))
    denom = draw(st.integers(1, 3))
    B = weighted_on([Fraction(lo + stride * i, denom) for i in picked],
                    draw(st.lists(st.integers(1, top), min_size=n, max_size=n)))
    gaps = draw(st.lists(st.sampled_from([1, 2, 3, 5, 40, 10**4]), max_size=10))
    start, denom = draw(st.integers(-10**4, 10**4)), draw(st.integers(1, 3))
    points = [*itertools.accumulate(gaps, initial=start)]
    A = weighted_on([Fraction(x, denom) for x in points],
                    draw(st.lists(st.integers(1, top), min_size=len(points),
                                  max_size=len(points))))
    s = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 9)))
    return s, A, B


class TestFloorWindows:
    """The two-operand floor one window per atom (`_floor_windows`) against
    its oracle, the pair loop, and the floor of each point of the sum."""

    @settings(max_examples=300)
    @given(floor_steps())
    def test_matches_the_pair_loop(self, step):
        floor_both_ways(*step)

    def test_exact_carries(self):
        # at s = 1/3 the residues of 1 and 2 sum to the denominator exactly,
        # so the pair 1 + 2 is one cell up from 0 + 0: floor(3/3) = 1
        A, B = uniform_on([1, 4, 7]), uniform_on([2, 5])
        assert floor_both_ways(Fraction(1, 3), A, B)
        assert floor_dist(Fraction(1, 3), A, B) == weighted_on([1, 2, 3, 4], [1, 2, 2, 1])
        for s in (Fraction(-1, 3), Fraction(0), Fraction(2, 3)):
            assert floor_both_ways(s, A, B)

    @pytest.mark.parametrize("total, width", [
        (2**8 - 2, 1), (2**8, 2), (2**16 - 2, 2), (2**16, 4), (2**32 - 2, 4), (2**32, 8),
        (2**64 - 2, 8), (2**64, None)])
    def test_slot_widths(self, total, width):
        # da * db is `total`, and every pair lands in cell 0, which holds it
        A = weighted_on(range(20), [1] * 19 + [total // 2 - 19])
        B = uniform_on([0, 1])
        codes, slot_code = [], icdof.dist._slot_code
        with mock.patch.object(icdof.dist, "_slot_code",
                               lambda top: codes.append((top, slot_code(top))) or codes[-1][1]):
            assert floor_both_ways(Fraction(1, 100), A, B) is (width is not None)
        assert [(top, code and code[0]) for top, code in codes] == [(total, width)]
        assert floor_dist(Fraction(1, 100), A, B)._weights == {0: total}

    @pytest.mark.parametrize("s, cells", [
        (Fraction(1), 10), (Fraction(2), 19), (Fraction(-2), 19), (Fraction(21, 10), 19),
        (Fraction(23, 10), 21), (Fraction(-3), 28)])
    def test_span_decline(self, s, cells):
        # B's keys 0..9 meet the cells floor(s*0) to floor(s*9): taken up to 2 * 10
        A, B = uniform_on([0, 3, 100]), uniform_on(range(10))
        assert abs(math.floor(s * 9)) + 1 == cells
        assert floor_both_ways(s, A, B) is (cells <= 20)

    def test_gaps_wider_than_a_window(self):
        # A's atoms far apart, alone and in runs: the accumulator is read up
        # to its end and moved over each gap without a slot of it
        A = uniform_on([-10**9, 0, 1, 2, 3, 40, 10**6, 10**6 + 1, 10**12])
        B = weighted_on([0, 1, 3, 4], [1, 2, 3, 4])
        for s in (Fraction(1), Fraction(2, 3), Fraction(-1, 2)):
            assert floor_both_ways(s, A, B)

    @pytest.mark.parametrize("A, B", [
        (point_mass(-7), uniform_on(range(3))),
        (uniform_on(range(-60, 0, 7)), point_mass(5)),
        (point_mass(Fraction(2, 3)), point_mass(-3)),
    ])
    def test_one_atom_operands(self, A, B):
        for s in (Fraction(1, 3), Fraction(-5, 2), Fraction(0)):
            assert floor_both_ways(s, A, B)

    def test_windows_fit_the_budget(self):
        # B's keys 0..9 meet cells 0 and 1 at s = 1/5: 11 windows of 3
        # one-byte slots, 33 bytes, which fit 5 words and not 4
        a = b = dict.fromkeys(range(10), 1)
        assert icdof.dist._floor_windows(a, b, 1, 5, 100, 5) is not None
        assert icdof.dist._floor_windows(a, b, 1, 5, 100, 4) is None

    @pytest.mark.parametrize("r, digits, m, taken, sorts", [
        (Fraction(1, 2), (0, 1, 2), 11, True, 2), (Fraction(1, 3), (0, 2), 13, False, 0)])
    def test_estimator_steps(self, r, digits, m, taken, sorts):
        # the dimension benchmark's overlap shape takes the windows; the
        # Cantor step's 128 atoms of B meet 365 cells, and it is declined
        # from B's extreme keys, before B is sorted
        ifs = IFSSpec.create(r, digits, [Fraction(1, len(digits))] * len(digits))
        with floor_paths() as paths:
            estimate = empirical_infodim(ifs, m)
        assert paths == [(taken, sorts)]
        assert estimate == reference_empirical_infodim(ifs, m, recommended_quantization(ifs, m))


class TestJson:
    def test_round_trip(self, rng):
        for _ in range(20):
            A = random_rational_dist(rng)
            assert dist_from_json(dist_to_json(A)) == A

    def test_decimal_probabilities_are_exact(self):
        obj = {
            "atoms": [
                {"value": "0", "prob": "0.08"},
                {"value": "1", "prob": "0.92"},
            ]
        }
        D = dist_from_json(obj)
        assert D.atoms[as_scalar(0)] == Fraction(2, 25)
        assert D.atoms[as_scalar(1)] == Fraction(23, 25)

    def test_scientific_notation(self):
        assert parse_probability("1e-3") == Fraction(1, 1000)
        assert parse_probability("2.5e-1") == Fraction(1, 4)

    def test_malformed_decimal_probability(self):
        with pytest.raises(ParseError) as info:
            parse_probability("1.2.3")
        assert str(info.value) == "bad probability '1.2.3': Invalid literal for Fraction: '1.2.3'"

    def test_symbolic_values(self):
        obj = {"atoms": [{"value": "g1", "prob": "1/2"}, {"value": "0", "prob": "1/2"}]}
        D = dist_from_json(obj)
        assert G1 in D.atoms
        assert dist_from_json(dist_to_json(D)) == D

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ValidationError):
            dist_from_json({"atoms": [{"value": True, "prob": "1"}]})
        with pytest.raises(ParseError):
            dist_from_json({"atoms": [{"value": "1", "prob": True}]})

    def test_malformed(self):
        with pytest.raises(Exception):
            dist_from_json({"atoms": []})
        with pytest.raises(Exception):
            dist_from_json({"atoms": [{"value": "0", "prob": "1/2"}]})
        with pytest.raises(Exception):
            dist_from_json({})
