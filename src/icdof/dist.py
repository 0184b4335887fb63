"""Finitely supported distributions over exact scalars, and finite sets as
their supports.

Every distribution has one representation: positive integer weights over one
common denominator, on packed integer keys. A key packs a point's integer
coordinates over a lattice (a sorted monomial basis and one denominator) into
one Python int. The terms of one linear form sum_j c_j X_j share one lattice
whose radix leaves room for every partial sum, so adding keys adds points.
`_pack` reads c_j*X_j as an integer linear map of X_j's digits: each input
is decoded once, the lattice is fixed before any key exists, and a key is
one dot product (one multiply on one coordinate, where a rational point's
key is its numerator), formed just before its term's step. A placement
reads keys only (`place_step` for one step, `PlacedSplit` for one form), and
a step reads weights only: `_merge` is a loop of int additions and integer
weight products, checked against its budget before it allocates, or, where
a step's atom pairs far outnumber the slots of its key range, one product
of two integers whose fixed-width slots hold the operands' weights
(Kronecker substitution, `_kronecker`), with the loop as its oracle. So
`convolve` is `place_step` then `_merge`, and an evaluation attaches weights
to placed keys and sums them with `_sum`, building and aligning nothing
again. `floor_dist` floors one placed step on one coordinate without
holding its sum: where the second operand's keys meet at most two cells per
atom, one window of its weights per atom of the first, as integers whose
fixed-width slots are the cells (`_floor_windows`, no larger than the
budget in words), and elsewhere pair by pair, the windows' oracle. Only the
entropy is a float, even where `PlacedSplit` proves a sum injective and does
not build it. A sum's atom order is deterministic but unspecified: `==`,
`sorted_items`, JSON and the entropy do not read it.

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
from bisect import bisect_left
from collections import Counter
from collections.abc import Set
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice
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
    once it is reached. c*key/D is key*c.numerator/g over E' =
    D*c.denominator/g, reduced as `_place` reduces it; the lattice
    denominator is the lcm of every term's E', so a key is
    key*c.numerator/g * (denom/E')."""
    steps = []
    for c, dist in terms:
        c = c.as_fraction()
        E = dist._lattice.denominator * c.denominator
        g = math.gcd(E, c.numerator * math.gcd(*dist._weights))
        steps.append((dist._weights, c.numerator, g, E // g))
    denom = math.lcm(*(E for *_, E in steps))
    total = sum(max(map(abs, keys)) * abs(num) // g * (denom // E) for keys, num, g, E in steps)
    yield _Lattice([MONO_ONE] if total else [], denom, 2 * total + 1)
    for keys, num, g, E in steps:
        keys = [key * num // g * (denom // E) for key in keys]
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
        """The points as sorted integer numerators over the lattice
        denominator: the keys themselves on a rational lattice, digit 0
        otherwise (rational points can sit on a symbolic lattice: g1 +
        (-g1)). Raises NotRationalError if a point is symbolic."""
        lattice, keys = self.dist._lattice, self.dist._weights
        if lattice.is_rational():
            return sorted(keys), lattice.denominator
        constant = lattice.basis[0] == MONO_ONE  # first in the graded order
        numerators = []
        for key in keys:
            digits = lattice.digits(key)
            if any(digits[constant:]):
                raise NotRationalError(f"'{lattice.point(key)}' is symbolic, not a rational")
            numerators.append(digits[0] if constant else 0)
        return sorted(numerators), lattice.denominator


def support_set(dist: DiscreteDist) -> SupportSet:
    """The support of `dist` as a set; nothing is decoded."""
    return SupportSet(dist)


def point_mass(value) -> DiscreteDist:
    lattice, (key,), reach = _born([as_scalar(value)])
    return _new(lattice, {key: 1}, 1, reach)


def weighted_on(support: Iterable, weights: Sequence[int]) -> DiscreteDist:
    """Distribution on the given support points with probabilities in the
    ratios of positive integer weights.

    Errors when empty and on duplicates (exact canonical equality), since
    silently merging would change the intended probabilities.
    """
    points = [as_scalar(x) for x in support]
    if not points:
        raise ValidationError("empty support")
    lattice, keys, reach = _born(points)
    weights, denominator = lowest_weights(weights, len(keys))
    packed = dict(zip(keys, weights))
    if len(packed) < len(keys):
        seen = set()
        for key, point in zip(keys, points):
            if key in seen:
                raise ValidationError(f"support not distinct: '{decimal(point)}' appears twice")
            seen.add(key)
    return _new(lattice, packed, denominator, reach)


def lowest_weights(weights: Sequence[int], count: int) -> tuple[list[int], int]:
    """Positive integer weights for `count` points, in lowest terms as
    `DiscreteDist(atoms)` stores them, and their sum, the denominator. Refused
    unless there are `count` of them and each is a positive int."""
    if len(weights) != count:
        raise ValidationError(f"{len(weights)} weights for {count} support points")
    for w in weights:
        if type(w) is not int or w <= 0:
            raise ValidationError(f"weight {w!r} is not a positive integer")
    g = math.gcd(*weights)
    return [w // g for w in weights], sum(weights) // g


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


def floor_dist(
    s: Fraction,
    dist: DiscreteDist,
    other: Optional[DiscreteDist] = None,
    budget: int = DEFAULT_ATOM_BUDGET,
) -> DiscreteDist:
    """Distribution of floor(s*X) for a rational s and X ~ dist, or, given
    `other`, of floor(s*(X + Y)) for independent X ~ dist and Y ~ other,
    the step X + Y placed and refused as `convolve` places and refuses it.
    The points, or the placed step, must lie on a one-coordinate lattice,
    whose keys are numerators over one denominator; any other lattice is
    refused with NotRationalError, even where its points are rational. The
    sum X + Y is never held. Where Y's keys meet at most 2*|Y| cells, the
    step is floored one window per atom of X by `_floor_windows`, whose
    windows take no more than the budget in 64-bit words; elsewhere each
    atom pair is floored straight into its cell, the windows' oracle."""
    if other is None:
        a, lattice, denominator = dist._weights, dist._lattice, dist._denominator
    else:
        (a, da), (b, db), lattice, _ = place_step(dist, other, budget)
        denominator = da * db
    if not lattice.is_rational():
        raise NotRationalError("floor needs rational support points")
    # the points are x = v / D, so each floor(s*x) is one integer floor division
    num, den = s.numerator, s.denominator * lattice.denominator
    cells = None if other is None else _floor_windows(a, b, num, den, denominator, budget)
    if cells is None:
        cells = {}
        get = cells.get
        if other is None:
            for v, w in a.items():
                cell = v * num // den
                cells[cell] = get(cell, 0) + w
        else:  # `_merge`'s pair loop, summing into cells: B's keys scaled once
            inner = [(kb * num, wb) for kb, wb in b.items()]
            for ka, wa in a.items():
                ka *= num
                for kb, wb in inner:
                    cell = (ka + kb) // den
                    cells[cell] = get(cell, 0) + wa * wb
    reach = max(map(abs, cells))
    return _new(_Lattice([MONO_ONE], 1, 2 * reach + 1), cells, denominator, reach)


def _floor_windows(a: dict, b: dict, num: int, den: int, total: int, budget: int) -> Optional[dict]:
    """The cells floor((ka + kb)*num/den) of the key sums of `a` and `b`
    (keys to weights, weights summing to `total`), with their summed
    weights, or None where B's keys meet more than 2*|B| cells, `total`
    needs more than 8 bytes or B's windows more than `budget` words.

    With k*num = q*den + r, 0 <= r < den, a pair's cell is qa + qb + [ra +
    rb >= den]. B sorted by r keeps its suffix sums as integers whose slots,
    at qb - min qb, hold its weights; the slots are 1, 2, 4 or 8 bytes, sized
    from `total`, which bounds every cell. The window of a suffix from index
    j is (all of B) + (x - 1)*(the suffix): B below j in its own cells, the
    suffix one cell up. An atom of A adds wa times the window that starts
    where rb >= den - ra, shifted to slot qa, to an accumulator. A is read in
    the order of qa, so the slots below the current qa are final: they are
    read by `compress`/`filter` as the product of `_kronecker` is, once qa
    has moved a window's width past them, and a gap in A costs nothing.
    Every check reads B's extreme keys only, before B is sorted."""
    ends = min(b) * num // den, max(b) * num // den
    lo, hi = min(ends), max(ends)
    span = hi - lo + 2  # the slots of one window: B's cells and one carry
    slot = _slot_code(total)
    if span > 2 * len(b) + 1 or slot is None or (len(b) + 1) * span * slot[0] > 8 * budget:
        return None
    width, code = slot
    bits = 8 * width
    placed = sorted((r, q - lo, w) for (q, r), w in zip((divmod(k * num, den) for k in b), b.values()))
    residues = [r for r, _, _ in placed]
    windows, suffix = [0] * (len(placed) + 1), 0
    for j in range(len(placed) - 1, -1, -1):
        _, q, w = placed[j]
        suffix += w << q * bits
        windows[j] = suffix
    whole = windows[0]
    for j, suffix in enumerate(windows):  # the slots of B one cell up from j on
        windows[j] = whole - suffix + (suffix << bits)
    cells: dict[int, int] = {}
    pending, where = bytearray(), []  # final slots, and the cells they are

    def read() -> None:
        with memoryview(pending).cast(code) as view:
            cells.update(zip(compress(chain.from_iterable(where), view), filter(None, view)))
        pending.clear()
        where.clear()

    atoms = sorted(a.items(), reverse=num < 0)  # qa ascending
    base, acc, end = atoms[0][0] * num // den, 0, 0  # acc's slot 0 is cell base + lo
    for ka, wa in atoms:
        q, r = divmod(ka * num, den)
        shift = q - base
        if shift >= span:  # no later atom reaches the slots below `shift`
            count = min(shift, end)  # past `end`, a gap: nothing to read
            pending += (acc & ((1 << count * bits) - 1)).to_bytes(width * count, sys.byteorder)
            where.append(range(base + lo, base + lo + count))
            if len(pending) >= len(windows) * span * width:  # never more than the windows
                read()
            acc >>= count * bits
            base, shift = q, 0
        acc += wa * windows[bisect_left(residues, den - r)] << shift * bits
        end = shift + span
    pending += acc.to_bytes(width * end, sys.byteorder)
    where.append(range(base + lo, base + lo + end))
    read()
    return cells


def check_pair_budget(pairs: int, budget: int, lattice: Optional[_Lattice] = None) -> None:
    """Refuse a convolution step of `pairs` atom pairs before it allocates:
    by pairs, then, given the step's `lattice`, by pairs times the 64-bit
    words a key on it can need, so wide keys are refused while their pair
    count still looks small."""
    if pairs > budget:
        raise BudgetExceededError(
            f"convolution needs {decimal(pairs)} atom pairs, over the budget of {budget}"
        )
    if lattice is None:
        return
    words = max(1, -(-len(lattice.basis) * lattice.radix.bit_length() // 64))
    if pairs * words > budget:
        raise BudgetExceededError(
            f"convolution needs {pairs} atom pairs of {words}-word keys, "
            f"over the budget of {budget}"
        )


def place_step(A: DiscreteDist, B: DiscreteDist, budget: int) -> tuple:
    """The placement of the step A + B, which reads keys only: A's and B's
    (weights, denominator) on the lattice of A + B, that lattice and the
    sum's reach, once the step is within the budget of `check_pair_budget`
    on that lattice. Pairs are checked before anything is placed; operands
    placed afresh are refused on their new lattice before any key is
    formed. Other weights attached to the placed keys are summed on that
    lattice by `_sum`, which places nothing again."""
    pairs = len(A) * len(B)
    check_pair_budget(pairs, budget)
    lattice, other = A._lattice, B._lattice
    reach = A._reach + B._reach
    if len(lattice.basis) > 1:  # keys add while every coordinate stays within its digit
        shared = lattice is other and reach <= lattice.radix // 2
    else:  # one coordinate: keys are numerators over one denominator
        shared = (lattice.basis, lattice.denominator) == (other.basis, other.denominator)
    if not shared:  # `_pack` refuses the step on its new lattice before any key
        A, B = _pack([(ONE, A), (ONE, B)], budget)
        lattice, reach = A._lattice, A._reach + B._reach
    elif reach > lattice.radix // 2:
        lattice = _Lattice(lattice.basis, lattice.denominator, 2 * reach + 1)
    check_pair_budget(pairs, budget, lattice)
    return (A._weights, A._denominator), (B._weights, B._denominator), lattice, reach


def convolve(A: DiscreteDist, B: DiscreteDist, budget: int = DEFAULT_ATOM_BUDGET) -> DiscreteDist:
    """Distribution of X+Y for independent X~A, Y~B, collisions merged exactly:
    the step placed by `place_step`, and refused as it refuses it, then
    merged by `_merge`."""
    (a, da), (b, db), lattice, reach = place_step(A, B, budget)
    return _new(lattice, _merge(a, b), da * db, reach)


def _merge(a: dict, b: dict) -> dict:
    """The merged weights of the key sums of `a` and `b` (keys to weights):
    one big-integer product where `_kronecker` takes the step and a loop
    over the atom pairs elsewhere, with the same merged weights either way;
    the atoms come in the loop's insertion order or, from the product, in
    key order."""
    if len(a) < len(b):
        a, b = b, a
    m, n = len(a), len(b)
    # under 4(m + n) - 2 pairs, slots >= m + n - 1 and `_kronecker` would decline
    merged = _kronecker(a, b) if m * n >= 4 * (m + n) - 2 else None
    if merged is None:
        merged = {}
        get = merged.get
        inner = list(b.items())
        for ka, wa in a.items():
            for kb, wb in inner:
                key = ka + kb
                merged[key] = get(key, 0) + wa * wb
    return merged


_SLOT_CODES = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))  # native memoryview formats


def _slot_code(top: int) -> Optional[tuple[int, str]]:
    """The narrowest (width, format) of `_SLOT_CODES` that holds `top`, or None."""
    for width, code in _SLOT_CODES:
        if top >> 8 * width == 0:
            return width, code
    return None


def _kronecker(a: dict, b: dict) -> Optional[dict]:
    """The merged weights of the key sums of `a` and `b` (keys to weights),
    in key order, or None where the pair loop is cheaper or a slot would
    need more than 8 bytes.

    Every key sum is lo + g*i for i below `slots`, g the gcd of both
    operands' key differences. Each operand's weights are set in slots of one
    width at (key - min)/g and read as one integer. The product of the two
    integers holds the merged weight of lo + g*i in slot i, and no slot
    carries into the next: no merged weight exceeds min(sum(wa)*max(wb),
    sum(wb)*max(wa)). The product pays once the atom pairs are at least
    twice the slots packed and read, |A| + |B| + slots. The factor 2 puts
    the certify integer tables' 12x12 steps near break-even (1.15x the
    loop's speed on a shared 2-vCPU host), where 24x24 steps ran 1.8-2.2x,
    48x48 4.5x and 156x24 5.9x. g divides each operand's key range (max -
    min) and its first key minus its min, so the gcd of those four bounds
    the slots from below: most small steps are declined before the scan of
    every key that finds g itself."""
    pairs = len(a) * len(b)
    low = min(a), min(b)
    ranges = max(a) - low[0], max(b) - low[1]
    room = pairs // 2 - len(a) - len(b)  # the most slots the product pays for
    g = math.gcd(*ranges, next(iter(a)) - low[0], next(iter(b)) - low[1]) or 1
    if sum(ranges) // g + 1 > room:
        return None
    g = math.gcd(g, *(k - low[0] for k in a), *(k - low[1] for k in b))
    slots = sum(ranges) // g + 1
    if slots > room:
        return None
    slot = _slot_code(min(sum(a.values()) * max(b.values()), sum(b.values()) * max(a.values())))
    if slot is None:
        return None
    width, code = slot
    product = 1
    for weights, lo, extent in zip((a, b), low, ranges):
        view = memoryview(bytearray(width * (extent // g + 1))).cast(code)
        for k, w in weights.items():
            view[(k - lo) // g] = w
        product *= int.from_bytes(view, sys.byteorder)
    out = memoryview(product.to_bytes(width * slots, sys.byteorder)).cast(code)
    lo = sum(low)
    return dict(zip(compress(range(lo, lo + g * slots, g), out), filter(None, out)))


def _sum(lattice: _Lattice, terms: Iterable[tuple[dict, int]], budget: int) -> tuple[dict, int]:
    """The (weights, denominator) of the sum of placed (weights, denominator)
    pairs whose keys are on `lattice`: one `_merge` per term after the
    first, each refused first by `check_pair_budget` on that lattice, as
    `convolve` refuses the same step. No distribution is built."""
    terms = iter(terms)
    total, denominator = next(terms)
    for weights, d in terms:
        check_pair_budget(len(total) * len(weights), budget, lattice)
        total, denominator = _merge(total, weights), denominator * d
    return total, denominator


def linear_combination(
    coeffs: Sequence,
    dists: Sequence[DiscreteDist],
    budget: int = DEFAULT_ATOM_BUDGET,
) -> DiscreteDist:
    """Distribution of sum_j c_j X_j for independent X_j.

    Zero coefficients are dropped; all-zero is an error because the result
    would be deterministic regardless of the inputs. Where no two terms
    share a monomial, no atoms merge, so every step's atom pairs are known
    up front: each step is checked then, in order, and the first over the
    budget is refused before any step runs, as it would be when reached.
    """
    if len(coeffs) != len(dists):
        raise ValidationError(f"{len(coeffs)} coefficients for {len(dists)} distributions")
    live = [(as_scalar(c), d) for c, d in zip(coeffs, dists)]
    live = [(c, d) for c, d in live if not c.is_zero()]
    if not live:
        raise ValidationError("degenerate combination: all coefficients are zero")
    packed = _pack(live, budget)
    total = next(packed)
    if len(live) > 2:  # `_pack` has checked the first step
        monomials = [_monomials([term]) for term in live]
        if sum(map(len, monomials)) == len(set().union(*monomials)):
            atoms = len(total)
            for _, X in live[1:]:
                check_pair_budget(atoms * len(X), budget, total._lattice)
                atoms *= len(X)
    for term in packed:  # each term's keys formed just before its step
        total = convolve(total, term, budget)
    return total


def _monomials(terms: Sequence[tuple[ExactScalar, DiscreteDist]]) -> set:
    """Every monomial a point of sum_j c_j X_j can have: m*t for m on X_j's
    lattice basis and t a monomial of c_j."""
    return {mono_mul(m, t) for c, dist in terms for m in dist._lattice.basis for t, _ in c.terms()}


class PlacedSplit:
    """(H(I), H(I + S), |I|, |I + S|) for the interference I = sum_j c_j X_j
    of at least one cross term and the signal S = c X of one linear form
    (every c nonzero); without a signal term, I + S is I.

    The placement reads the terms' keys and coefficients only. `terms`
    holds each term's (weights, denominator) with its keys on one
    `lattice`, cross terms first; the first step is refused on that lattice
    as `_pack` refuses it. When no monomial S can reach is one that I can
    reach, the map (t, s) -> t + s on their supports is proved injective,
    once: distinct monomials are linearly independent over Q, so t + s =
    t' + s' forces t = t' and s = s'. Then |I + S| = |I| * |S|, and H(I +
    S) is read from the two weight multisets without building the sum, so
    a proved signal is its unscaled distribution's (weights, denominator),
    whose keys are never read. `entropies` evaluates on `terms`, or on
    other weights attached to their keys: the steps that are built are
    `_sum` steps, and every step, built or not, is refused exactly as
    `linear_combination` of the cross terms, then the signal, refuses it.
    """

    __slots__ = ("lattice", "terms", "count", "proved", "budget")

    def __init__(
        self,
        cross_terms: Sequence[tuple[ExactScalar, DiscreteDist]],
        signal_term: Optional[tuple[ExactScalar, DiscreteDist]],
        budget: int,
    ):
        terms = [*cross_terms, signal_term] if signal_term else cross_terms
        self.count, self.budget = len(cross_terms), budget
        self.proved = signal_term is not None and _monomials([signal_term]).isdisjoint(
            _monomials(cross_terms))
        placed = [*islice(_pack(terms, budget), len(terms) - self.proved)]
        if self.proved:
            placed.append(signal_term[1])
        self.lattice = placed[0]._lattice
        self.terms = [(X._weights, X._denominator) for X in placed]

    def entropies(self, terms: Sequence[tuple[dict, int]]) -> tuple[float, float, int, int]:
        count, lattice, budget = self.count, self.lattice, self.budget
        interference = _sum(lattice, islice(terms, count), budget)
        h_intf, n_intf = _entropy(*interference), len(interference[0])
        if len(terms) == count:  # no signal
            return h_intf, h_intf, n_intf, n_intf
        if not self.proved:
            full = _sum(lattice, [interference, terms[count]], budget)
            return h_intf, _entropy(*full), n_intf, len(full[0])
        pairs = n_intf * len(terms[count][0])
        check_pair_budget(pairs, budget, lattice)
        return h_intf, _product_entropy(interference, terms[count]), n_intf, pairs


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
    return _entropy(dist._weights, dist._denominator)


def _entropy(weights: dict, denominator: int) -> float:
    """`entropy_bits` of the distribution with these (weights, denominator)."""
    weights = weights.values()
    terms = _entropy_terms(set(weights), denominator)
    # fsum is correctly rounded, so the result does not depend on term order
    s = math.fsum(map(terms.__getitem__, weights))
    return -s if s else 0.0


def _product_entropy(A: tuple[dict, int], B: tuple[dict, int]) -> float:
    """`_entropy` of the sum of the (weights, denominator) pairs A and B when
    every atom pair is its own atom: weight a*b over the product
    denominator, repeated (number of a in A) * (number of b in B) times."""
    (wa, da), (wb, db) = A, B
    counted = Counter(wb.values()).items()
    counts = [(a, b, m * n) for a, m in Counter(wa.values()).items() for b, n in counted]
    terms = _entropy_terms({a * b for a, b, _ in counts}, da * db)
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
