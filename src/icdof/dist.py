"""Finitely supported distributions over exact scalars, and finite sets as
their supports.

Every distribution has one representation: positive integer weights over one
common denominator, on packed integer keys. A key packs a point's integer
coordinates over a lattice (a sorted monomial basis and one denominator) into
one Python int. The terms of one linear form sum_j c_j X_j share one lattice
whose radix leaves room for every partial sum, so adding keys adds points: a
`convolve` step is a loop of int additions and integer weight products,
checked against its budget before it allocates. `_pack` reads c_j*X_j as an
integer linear map of X_j's digits: each input is decoded once, the lattice
is fixed before any key exists, and a key is one dot product (one multiply on
one coordinate, where a rational point's key is its numerator), formed just
before its term's step. `len` and `entropy_bits` read only the weights, so
only the entropy is a float, even where `split_entropies` proves a sum
injective and does not build it. The steps `split_entropies` does build need
only weights and counts, so where the atom pairs far outnumber the slots of
the key range, `_kronecker` takes such a step as one product of two integers
whose fixed-width slots hold the operands' weights (Kronecker substitution);
the pair loop of `convolve` is its oracle, and every other sum keeps the
loop's atom order.

A finite set is the support of a packed distribution (`SupportSet`), so a
sumset is the support of one `convolve` and a progression test sorts integer
keys. Points are decoded to `ExactScalar`s only at the output boundary:
`items`, `atoms`, `==`, `repr` and `sorted_items` of a distribution,
iteration, `==` and `hash` of a set (`in` packs its argument instead), and
JSON. No other module knows the format.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from collections.abc import Set
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from operator import mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import BudgetExceededError, NotRationalError, ParseError, ValidationError
from .scalar import MONO_ONE, ONE, ExactScalar, as_scalar, decimal, mono_mul, parse_rational

DEFAULT_ATOM_BUDGET = 5_000_000


@dataclass(slots=True)
class _Lattice:
    """Packed keys sum_i v_i * R^i in balanced base R = `radix` for points
    with coordinates v_i / `denominator` over `basis`. With every |v_i| <=
    (R-1)/2, packing is injective, and key(x) + key(y) == key(x + y) while the
    sum's coordinates stay in that range too. The top digit is whatever the
    lower ones leave, so on one coordinate (rational points) a key is the
    numerator itself, any sum fits, and R only sizes the keys."""

    basis: list
    denominator: int
    radix: int

    def is_rational(self) -> bool:
        """One coordinate (or none, when every point is 0): keys are numerators."""
        basis = self.basis
        return not basis or (len(basis) == 1 and basis[0] == MONO_ONE)

    def digits(self, key: int) -> list[int]:
        """The coordinates of the point packed as `key`, one per basis monomial."""
        radix = self.radix
        half = radix // 2
        digits = []
        for _ in range(len(self.basis) - 1):
            digit = key % radix
            if digit > half:
                digit -= radix
            key = (key - digit) // radix
            digits.append(digit)
        digits.append(key)
        return digits

    def point(self, key: int) -> ExactScalar:
        denom = self.denominator
        if self.is_rational():
            return ExactScalar.rational(Fraction(key, denom))
        return ExactScalar.from_terms(
            {mono: Fraction(v, denom) for mono, v in zip(self.basis, self.digits(key))})

    def key(self, x: ExactScalar, reach: int) -> Optional[int]:
        """The key of `x`, or None unless `x` lies on this lattice with no
        coordinate above `reach` (which is at most (R-1)/2, so the key is
        the only one that decodes to `x`)."""
        basis, denom = self.basis, self.denominator
        digits = [0] * len(basis)
        for mono, c in x.terms():
            if mono not in basis:
                return None
            v, rem = divmod(c.numerator * denom, c.denominator)
            if rem or abs(v) > reach:
                return None
            digits[basis.index(mono)] = v
        return sum(v * self.radix**i for i, v in enumerate(digits))


def _born(points: Sequence[ExactScalar]) -> tuple[_Lattice, list[int], int]:
    """Distinct points on a lattice of their own: (lattice, keys, reach)."""
    if all(x.is_rational() for x in points):  # one coordinate, read without terms
        values = [x.as_fraction() for x in points]
        denom = math.lcm(*(v.denominator for v in values))
        keys = [v.numerator * (denom // v.denominator) for v in values]
        reach = max(map(abs, keys))
        return _Lattice([MONO_ONE], denom, 2 * reach + 1), keys, reach
    terms = [tuple(x.terms()) for x in points]
    denom = math.lcm(*(c.denominator for point in terms for _, c in point))  # in lowest terms
    coordinates = [[(m, c.numerator * (denom // c.denominator)) for m, c in p] for p in terms]
    reach = max(abs(v) for point in coordinates for _, v in point)
    power = {m: (2 * reach + 1)**i for i, m in enumerate(sorted({m for p in terms for m, _ in p}))}
    keys = [sum(v * power[m] for m, v in point) for point in coordinates]
    return _Lattice(list(power), denom, 2 * reach + 1), keys, reach


def _pack(
    terms: Sequence[tuple[ExactScalar, "DiscreteDist"]], budget: Optional[int] = None
) -> Iterator["DiscreteDist"]:
    """c_j*X_j for the terms of one linear form (every c_j nonzero) on one
    lattice, each formed when the iterator reaches it. A placement yields the
    lattice first, so with a `budget` the first step is refused by
    `check_pair_budget` on that lattice before any key is formed. `_place`
    would place one-coordinate terms too, but `_rescale` stays beside it
    because the many tiny rational forms of sums and sumsets pay for
    `_place`'s per-term images: through `_place` alone, the corpus
    benchmark's `wall_s` went from 0.38-0.49 s to 0.61 s on a 2-vCPU host."""
    rational = all(c.is_rational() and dist._lattice.is_rational() for c, dist in terms)
    placed = (_rescale if rational else _place)(terms)
    lattice = next(placed)
    if budget is not None and len(terms) > 1:
        check_pair_budget(len(terms[0][1]) * len(terms[1][1]), budget, lattice)
    for (_, dist), (keys, reach) in zip(terms, placed):
        yield _new(lattice, dict(zip(keys, dist._weights.values())), dist._denominator, reach)


def _rescale(terms: Sequence[tuple[ExactScalar, "DiscreteDist"]]) -> Iterator:
    """The lattice of one-coordinate terms, then each term's (keys, reach)
    once it is reached. c*key/D is (key*c.numerator/g) * (denom/E), with E =
    D*c.denominator/g reduced as `_place` reduces it and denom/E the
    cofactor times how much the running lcm of the E's grew after the term."""
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


def _place(terms: Sequence[tuple[ExactScalar, "DiscreteDist"]]) -> Iterator:
    """The lattice of the points c_j*x, radix 2*sum(reach) + 1, then each
    term's (keys, reach) once it is reached. Over E = D*q, q the lcm of c_j's
    denominators, X_j's digit for monomial m maps to a*m*t for each term a*t
    of q*c_j. Each distinct X_j is decoded once, into the gcd, largest
    |value| and live coordinates of its digits, which fix a one-term c_j's
    image; several terms' images can collide and are summed point by point."""
    sources, maps, denom = {}, [], 1
    for c, dist in terms:
        lattice = dist._lattice
        if id(dist) not in sources:
            keys = dist._weights  # a one-coordinate key is its digit
            rows = [[k] for k in keys] if len(lattice.basis) < 2 else [*map(lattice.digits, keys)]
            flat = [v for row in rows for v in row]
            live = [i for i, column in enumerate(zip(*rows)) if any(column)]
            sources[id(dist)] = rows, math.gcd(*flat), max(map(abs, flat)), live
        rows, g, top, live = sources[id(dist)]
        q = math.lcm(*(a.denominator for _, a in c.terms()))
        images = [[(mono_mul(m, t), a.numerator * (q // a.denominator)) for t, a in c.terms()]
                  for m in lattice.basis or [MONO_ONE]]
        if len(images[0]) == 1:
            a = abs(images[0][0][1])
            monos, g, top = {images[i][0][0] for i in live}, g * a, top * a
        else:
            monos, g, top = set(), 0, 0
            for row in rows:
                point = Counter()
                for image, v in zip(images, row):  # an image's monomials are distinct
                    point.update({mono: v * a for mono, a in image})
                monos.update(mono for mono, v in point.items() if v)
                g, top = math.gcd(g, *point.values()), max(top, *map(abs, point.values()))
        E = lattice.denominator * q  # reduced, so that keys are no wider than they need be
        denom = math.lcm(denom, E // math.gcd(E, g))
        maps.append((rows, images, E, top, monos))
    basis = sorted(set().union(*(monos for *_, monos in maps)))
    radix = 2 * sum(top * denom // E for _, _, E, top, _ in maps) + 1
    power = {mono: radix**i for i, mono in enumerate(basis)}  # a dead image packs as 0
    yield _Lattice(basis, denom, radix)
    for rows, images, E, top, _ in maps:  # a key is one dot product, times denom/E
        n, d = denom // math.gcd(denom, E), E // math.gcd(denom, E)
        M = [n * sum(a * power.get(mono, 0) for mono, a in image) for image in images]
        keys = [v * M[0] for v, in rows] if len(M) == 1 else [sum(map(mul, r, M)) for r in rows]
        yield (keys if d == 1 else [key // d for key in keys]), top * denom // E


class DiscreteDist:
    """Immutable map from support point to positive rational probability."""

    # `reach` bounds the absolute value of every coordinate of the points
    __slots__ = ("_lattice", "_weights", "_denominator", "_reach")

    def __init__(self, atoms: Mapping[ExactScalar, Fraction]):
        checked: dict[ExactScalar, Fraction] = {}
        for point, prob in atoms.items():
            point = as_scalar(point)
            prob = prob if type(prob) is Fraction else Fraction(prob)
            if prob.numerator <= 0:
                raise ValidationError(
                    f"probability {decimal(prob)} of atom '{decimal(point)}' is not positive")
            if point in checked:
                raise ValidationError(f"duplicate support point '{decimal(point)}'")
            checked[point] = prob
        if not checked:
            raise ValidationError("a distribution needs at least one atom")
        denom = math.lcm(*(prob.denominator for prob in checked.values()))
        weights = [prob.numerator * (denom // prob.denominator) for prob in checked.values()]
        if sum(weights) != denom:
            total = Fraction(sum(weights), denom)
            raise ValidationError(f"probabilities sum to {decimal(total)}, expected exactly 1")
        lattice, keys, reach = _born(list(checked))
        self._fill(lattice, dict(zip(keys, weights)), denom, reach)

    def _fill(self, lattice: _Lattice, weights: dict, denominator: int, reach: int):
        self._lattice, self._weights = lattice, weights
        self._denominator, self._reach = denominator, reach
        return self

    @property
    def atoms(self) -> Mapping[ExactScalar, Fraction]:
        return MappingProxyType(dict(self.items()))

    def items(self) -> Iterator[tuple[ExactScalar, Fraction]]:
        point, denom = self._lattice.point, self._denominator
        return ((point(key), Fraction(w, denom)) for key, w in self._weights.items())

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other):
        if isinstance(other, DiscreteDist):
            return dict(self.items()) == dict(other.items())
        return NotImplemented

    def __repr__(self):
        if len(self) > 6:
            return f"DiscreteDist(<{len(self)} atoms>)"
        body = ", ".join(f"'{x}': {p}" for x, p in sorted_items(self))
        return f"DiscreteDist({{{body}}})"


def _new(lattice: _Lattice, weights: dict, denominator: int, reach: int) -> DiscreteDist:
    # for operations that keep the keys distinct and the total mass exact
    return object.__new__(DiscreteDist)._fill(lattice, weights, denominator, reach)


def sorted_items(dist: DiscreteDist) -> list[tuple[ExactScalar, Fraction]]:
    """Atoms in the canonical deterministic order (stable across processes)."""
    return sorted(dist.items(), key=lambda item: item[0].sort_key())


class SupportSet(Set):
    """The support of a distribution, read as a finite set of exact scalars.

    Read-only and packed: it holds `dist` and decodes a point only when the
    set is read point by point. Set operators (`|`, `&`, `-`, `^`) return
    plain frozensets, and `hash` is that of the equal frozenset.
    """

    __slots__ = ("dist",)

    def __init__(self, dist: DiscreteDist):
        self.dist = dist

    def __len__(self) -> int:
        return len(self.dist._weights)

    def __iter__(self) -> Iterator[ExactScalar]:
        return map(self.dist._lattice.point, self.dist._weights)

    def __contains__(self, x) -> bool:
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            x = ExactScalar.rational(x)
        elif not isinstance(x, ExactScalar):
            return False
        key = self.dist._lattice.key(x, self.dist._reach)
        return key is not None and key in self.dist._weights

    def __hash__(self) -> int:
        return hash(frozenset(self))

    @classmethod
    def _from_iterable(cls, points) -> frozenset:
        return frozenset(points)

    def __repr__(self):
        body = ", ".join(map(str, sorted(self, key=ExactScalar.sort_key)))
        return f"SupportSet({{{body}}})"

    def rational_grid(self) -> tuple[list[int], int]:
        """The points as sorted integer numerators over one common
        denominator. Raises NotRationalError if a point is symbolic."""
        return sorted(_numerators(self.dist)), self.dist._lattice.denominator


def _numerators(dist: DiscreteDist) -> Iterable[int]:
    """The numerators of the points over the lattice denominator, in key
    order: the keys themselves on a rational lattice, digit 0 otherwise
    (rational points can sit on a symbolic lattice: g1 + (-g1)). Raises
    NotRationalError if a point is symbolic."""
    lattice, keys = dist._lattice, dist._weights
    if lattice.is_rational():
        return keys.keys()
    constant = lattice.basis[0] == MONO_ONE  # first in the graded order
    numerators = []
    for key in keys:
        digits = lattice.digits(key)
        if any(digits[constant:]):
            raise NotRationalError(f"'{lattice.point(key)}' is symbolic, not a rational")
        numerators.append(digits[0] if constant else 0)
    return numerators


def support_set(dist: DiscreteDist) -> SupportSet:
    """The support of `dist` as a set; nothing is decoded."""
    return SupportSet(dist)


def point_mass(value) -> DiscreteDist:
    lattice, (key,), reach = _born([as_scalar(value)])
    return _new(lattice, {key: 1}, 1, reach)


def weighted_on(support: Iterable, weights: Sequence[int]) -> DiscreteDist:
    """Distribution on the given support points with probabilities in the
    ratios of positive integer weights.

    A `SupportSet` lends its lattice and keys, so nothing is packed again; its
    points take the weights in iteration order, which is insertion order.
    Other supports error when empty and on duplicates (exact canonical
    equality), since silently merging would change the intended
    probabilities.
    """
    if isinstance(support, SupportSet):  # distinct by construction
        dist = support.dist
        lattice, keys, reach = dist._lattice, list(dist._weights), dist._reach
    else:
        points = [as_scalar(x) for x in support]
        if not points:
            raise ValidationError("empty support")
        lattice, keys, reach = _born(points)
    if len(weights) != len(keys):
        raise ValidationError(f"{len(weights)} weights for {len(keys)} support points")
    for w in weights:
        if type(w) is not int or w <= 0:
            raise ValidationError(f"weight {w!r} is not a positive integer")
    g = math.gcd(*weights)  # lowest terms, as `DiscreteDist(atoms)` stores them
    packed = dict(zip(keys, [w // g for w in weights]))
    if len(packed) < len(keys):
        seen = set()
        for key, point in zip(keys, points):
            if key in seen:
                raise ValidationError(f"support not distinct: '{decimal(point)}' appears twice")
            seen.add(key)
    return _new(lattice, packed, sum(weights) // g, reach)


def uniform_on(support: Iterable) -> DiscreteDist:
    """Uniform distribution on the given support points; errors as `weighted_on`."""
    points = list(support)
    return weighted_on(points, [1] * len(points))


def scale(c, dist: DiscreteDist) -> DiscreteDist:
    """Distribution of c*X. The map x -> c*x is injective for c != 0."""
    c = as_scalar(c)
    if c.is_zero():
        raise ValidationError("degenerate scaling: coefficient is zero")
    if c == ONE:
        return dist
    return next(_pack([(c, dist)]))


def floor_dist(s: Fraction, dist: DiscreteDist) -> DiscreteDist:
    """Distribution of floor(s*X) for a rational s and a rational-valued X."""
    try:
        numerators = _numerators(dist)
    except NotRationalError:
        raise NotRationalError("floor needs rational support points") from None
    # the points are x = v / D, so each floor(s*x) is one integer floor division
    num, den = s.numerator, s.denominator * dist._lattice.denominator
    cells: dict[int, int] = {}
    for v, w in zip(numerators, dist._weights.values()):
        cell = v * num // den
        cells[cell] = cells.get(cell, 0) + w
    reach = max(map(abs, cells))
    return _new(_Lattice([MONO_ONE], 1, 2 * reach + 1), cells, dist._denominator, reach)


def check_pair_budget(pairs: int, budget: int, lattice: Optional[_Lattice] = None) -> None:
    """Refuse a convolution step of `pairs` atom pairs before it allocates:
    by pairs, then, given the step's `lattice`, by pairs times the 64-bit
    words a key on it can need, so wide keys are refused while their pair
    count still looks small."""
    if pairs > budget:
        raise BudgetExceededError(
            f"convolution needs {pairs} atom pairs, over the budget of {budget}"
        )
    if lattice is None:
        return
    words = max(1, -(-len(lattice.basis) * lattice.radix.bit_length() // 64))
    if pairs * words > budget:
        raise BudgetExceededError(
            f"convolution needs {pairs} atom pairs of {words}-word keys, "
            f"over the budget of {budget}"
        )


def _align(
    A: DiscreteDist, B: DiscreteDist, budget: int
) -> tuple[DiscreteDist, DiscreteDist, _Lattice, int]:
    """A and B on the lattice of A + B, and the sum's reach, once the step
    A + B is within the budget of `check_pair_budget` on that lattice. Pairs
    are checked before anything is placed; operands placed afresh are
    refused on their new lattice before any key is formed."""
    pairs = len(A) * len(B)
    check_pair_budget(pairs, budget)
    lattice, other = A._lattice, B._lattice
    reach = A._reach + B._reach
    if len(lattice.basis) > 1:  # keys add while every coordinate stays within its digit
        shared = lattice is other and reach <= lattice.radix // 2
    else:  # one coordinate: keys are numerators over one denominator
        shared = (lattice.basis, lattice.denominator) == (other.basis, other.denominator)
    if not shared:
        A, B = _pack([(ONE, A), (ONE, B)], budget)
        return A, B, A._lattice, A._reach + B._reach
    if reach > lattice.radix // 2:
        lattice = _Lattice(lattice.basis, lattice.denominator, 2 * reach + 1)
    check_pair_budget(pairs, budget, lattice)
    return A, B, lattice, reach


def convolve(A: DiscreteDist, B: DiscreteDist, budget: int = DEFAULT_ATOM_BUDGET) -> DiscreteDist:
    """Distribution of X+Y for independent X~A, Y~B, collisions merged exactly,
    refused as `_align` refuses."""
    A, B, lattice, reach = _align(A, B, budget)
    if len(A) < len(B):
        A, B = B, A
    merged: dict[int, int] = {}
    get = merged.get
    inner = list(B._weights.items())
    for ka, wa in A._weights.items():
        for kb, wb in inner:
            key = ka + kb
            merged[key] = get(key, 0) + wa * wb
    return _new(lattice, merged, A._denominator * B._denominator, reach)


def _dense_convolve(A: DiscreteDist, B: DiscreteDist, budget: int) -> DiscreteDist:
    """`convolve`'s sum, refused as it refuses, from one big-integer product
    where `_kronecker` takes the step; its atoms come in key order, so only
    `split_entropies`, which reads weights and counts alone, takes it."""
    m, n = len(A), len(B)
    if m * n >= 4 * (m + n) - 2:  # else slots >= m + n - 1, so `_kronecker` would decline
        A, B, lattice, reach = _align(A, B, budget)
        merged = _kronecker(A._weights, B._weights)
        if merged is not None:
            return _new(lattice, merged, A._denominator * B._denominator, reach)
    return convolve(A, B, budget)


_SLOT_CODES = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))  # native memoryview formats


def _kronecker(a: dict, b: dict) -> Optional[dict]:
    """The merged weights of the key sums of `a` and `b` (keys to weights),
    or None where the pair loop is cheaper or a slot would need more than 8
    bytes.

    Every key sum is lo + g*i for i below `slots`, g the gcd of both
    operands' key differences. Each operand's weights are set in slots of one
    width at (key - min)/g and read as one integer. The product of the two
    integers holds the merged weight of lo + g*i in slot i, and no slot
    carries into the next: no merged weight exceeds min(sum(wa)*max(wb),
    sum(wb)*max(wa)). The product pays once the atom pairs are at least
    twice the slots packed and read, |A| + |B| + slots. The factor 2 puts
    the certify integer tables' 12x12 steps near break-even (1.15x the
    loop's speed on a shared 2-vCPU host), where 24x24 steps ran 1.8-2.2x,
    48x48 4.5x and 156x24 5.9x."""
    pairs = len(a) * len(b)
    low = min(a), min(b)
    g = math.gcd(*(k - low[0] for k in a), *(k - low[1] for k in b)) or 1
    spans = [(max(keys) - lo) // g + 1 for keys, lo in zip((a, b), low)]
    slots = sum(spans) - 1
    if pairs < 2 * (len(a) + len(b) + slots):
        return None
    top = min(sum(a.values()) * max(b.values()), sum(b.values()) * max(a.values()))
    for width, code in _SLOT_CODES:
        if top >> 8 * width == 0:
            break
    else:
        return None
    product = 1
    for weights, lo, span in zip((a, b), low, spans):
        view = memoryview(bytearray(width * span)).cast(code)
        for k, w in weights.items():
            view[(k - lo) // g] = w
        product *= int.from_bytes(view, sys.byteorder)
    out = memoryview(product.to_bytes(width * slots, sys.byteorder)).cast(code)
    lo = sum(low)
    return dict(zip(compress(range(lo, lo + g * slots, g), out), filter(None, out)))


def _sum(packed: Iterator[DiscreteDist], budget: int, step=None) -> DiscreteDist:
    """The sum of the packed terms of one linear form: one `step` (by
    default `convolve`) per term after the first, each taken (its keys
    formed) just before it."""
    step = step or convolve
    total = next(packed)
    for term in packed:
        total = step(total, term, budget=budget)
    return total


def linear_combination(
    coeffs: Sequence,
    dists: Sequence[DiscreteDist],
    budget: int = DEFAULT_ATOM_BUDGET,
) -> DiscreteDist:
    """Distribution of sum_j c_j X_j for independent X_j.

    Zero coefficients are dropped; all-zero is an error because the result
    would be deterministic regardless of the inputs.
    """
    if len(coeffs) != len(dists):
        raise ValidationError(f"{len(coeffs)} coefficients for {len(dists)} distributions")
    live = [(as_scalar(c), d) for c, d in zip(coeffs, dists)]
    live = [(c, d) for c, d in live if not c.is_zero()]
    if not live:
        raise ValidationError("degenerate combination: all coefficients are zero")
    return _sum(_pack(live, budget), budget)


def _monomials(terms: Sequence[tuple[ExactScalar, DiscreteDist]]) -> set:
    """Every monomial a point of sum_j c_j X_j can have: m*t for m on X_j's
    lattice basis and t a monomial of c_j."""
    return {mono_mul(m, t) for c, dist in terms for m in dist._lattice.basis for t, _ in c.terms()}


def split_entropies(
    cross_terms: Sequence[tuple[ExactScalar, DiscreteDist]],
    signal_term: Optional[tuple[ExactScalar, DiscreteDist]],
    budget: int = DEFAULT_ATOM_BUDGET,
) -> tuple[float, float, int, int]:
    """(H(I), H(I + S), |I|, |I + S|) for the interference I = sum_j c_j X_j
    of at least one cross term and the signal S = c X of one linear form
    (every c nonzero); without a signal term, I + S is I.

    When no monomial S can reach is one that I can reach, the map (t, s) ->
    t + s on their supports is proved injective: distinct monomials are
    linearly independent over Q, so t + s = t' + s' forces t = t' and s = s'.
    Then |I + S| = |I| * |S|, and H(I + S) is `entropy_bits` of the sum, read
    from the two weight multisets without building it or forming S's keys.
    Otherwise the sum is enumerated. The steps that are built go through
    `_dense_convolve`, a big-integer product where it pays and the pair loop
    elsewhere, with the same merged weights either way. Every step, built or
    not, is refused exactly as `linear_combination` of the cross terms, then
    the signal, refuses it.
    """
    packed = _pack([*cross_terms, signal_term] if signal_term else cross_terms, budget)
    interference = _sum(islice(packed, len(cross_terms)), budget, _dense_convolve)
    h_intf, n_intf = entropy_bits(interference), len(interference)
    if signal_term is None:
        return h_intf, h_intf, n_intf, n_intf
    if not _monomials([signal_term]).isdisjoint(_monomials(cross_terms)):
        full = _dense_convolve(interference, next(packed), budget)
        return h_intf, entropy_bits(full), n_intf, len(full)
    # the signal's keys are never read: |S|, its weights and its denominator
    # are those of the unscaled X, and the step's lattice is the interference's
    signal = signal_term[1]
    pairs = n_intf * len(signal)
    check_pair_budget(pairs, budget, interference._lattice)
    return h_intf, _product_entropy(interference, signal), n_intf, pairs


# -- entropy ------------------------------------------------------------------


def _entropy_terms(weights: Iterable[int], total: int) -> dict[int, float]:
    """p*log2(p) for each distinct weight w, p = w/total, evaluated with p =
    n/d in lowest terms and log2 via integer logs, so huge denominators stay
    finite; p = 1 gives 0.0."""
    terms = {}
    for w in weights:
        g = math.gcd(w, total)
        n, d = w // g, total // g
        terms[w] = n / d * (math.log2(n) - math.log2(d))
    return terms


def entropy_bits(dist: DiscreteDist) -> float:
    """Shannon entropy -sum p*log2(p), evaluated in double precision."""
    weights = dist._weights.values()
    terms = _entropy_terms(set(weights), dist._denominator)
    # fsum is correctly rounded, so the result does not depend on term order
    s = math.fsum(map(terms.__getitem__, weights))
    return -s if s else 0.0


def _product_entropy(A: DiscreteDist, B: DiscreteDist) -> float:
    """`entropy_bits` of A + B when every atom pair is its own atom: weight
    a*b over the product denominator, repeated (number of a in A) * (number of
    b in B) times."""
    counted = Counter(B._weights.values()).items()
    counts = [(a, b, m * n) for a, m in Counter(A._weights.values()).items() for b, n in counted]
    terms = _entropy_terms({a * b for a, b, _ in counts}, A._denominator * B._denominator)
    # the exact sum of the repeated terms, each a dyadic rational, over one
    # power of two, divided once: int / int rounds correctly, as fsum does
    ratios = [(terms[a * b].as_integer_ratio(), k) for a, b, k in counts]
    unit = max(q for (_, q), _ in ratios)
    s = sum(p * (unit // q) * k for (p, q), k in ratios) / unit
    return -s if s else 0.0


# -- JSON ----------------------------------------------------------------------
#
# {"atoms": [{"value": "<scalar-syntax>", "prob": "p/q"}, ...]}; probabilities
# may also be decimal strings, which are converted exactly (0.08 -> 2/25).

_EXPONENT = re.compile(r"e[-+]?0*([\d_]*)\s*\Z", re.IGNORECASE)


def json_list(obj: dict, key: str) -> list:
    """obj[key], refused unless it is a JSON list."""
    value = obj[key]
    if not isinstance(value, list):
        raise ParseError(f'"{key}" must be a list, got {value!r}')
    return value


def parse_probability(text) -> Fraction:
    if isinstance(text, str) and ("." in text or "e" in text.lower()):
        # Fraction forms 10^exponent: refuse one with more digits than the
        # interpreter converts to a string, which would take minutes
        exponent = _EXPONENT.search(text)
        digits = exponent[1].replace("_", "") if exponent else ""
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
        if limit and (len(digits) > len(str(limit)) or int(digits or 0) > limit):
            raise ParseError(f"bad probability {text!r}: exponent over the limit of {limit}")
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad probability {text!r}: {exc}") from None
    if isinstance(text, bool):
        raise ParseError(f"a probability must be a number or a string, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    return parse_rational(text)


def dist_from_json(obj) -> DiscreteDist:
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise ParseError('distribution JSON must be {"atoms": [...]}')
    atoms: dict[ExactScalar, Fraction] = {}
    for entry in json_list(obj, "atoms"):
        if not isinstance(entry, dict) or "value" not in entry or "prob" not in entry:
            raise ParseError(f'each atom needs "value" and "prob", got {entry!r}')
        point = as_scalar(entry["value"])
        if point in atoms:
            raise ParseError(f"duplicate atom '{decimal(point)}' in distribution JSON")
        atoms[point] = parse_probability(entry["prob"])
    return DiscreteDist(atoms)


def dist_to_json(dist: DiscreteDist) -> dict:
    return {
        "atoms": [
            {"value": str(x), "prob": str(p)} for x, p in sorted_items(dist)
        ]
    }
