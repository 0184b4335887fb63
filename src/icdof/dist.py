"""Finitely supported distributions over exact scalars.

Probabilities are exact rationals so that collision merging is exact; only
entropy is evaluated in floating point. Every sum goes through one kernel,
the lattice of a linear form sum_j c_j X_j: each support point c_j*x is
written as integer coordinates over one sorted monomial basis and one common
denominator, and the coordinates are packed into one Python int whose radix
leaves room for every partial sum, so adding two keys is adding the points
and equal keys are equal points. A `convolve` step is then a loop of int
additions and integer weight products (weights over the product of the
operands' denominators), checked against its atom-pair budget before it
allocates, so oversized requests fail loudly instead of exhausting memory.
Its result keeps the packed keys: `len` and `entropy_bits` read the integer
weights, and the support points are decoded only when they are asked for.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BudgetExceededError, ParseError, ValidationError
from .scalar import ONE, ExactScalar, as_scalar, parse_rational

DEFAULT_ATOM_BUDGET = 5_000_000


class DiscreteDist:
    """Immutable map from support point to positive rational probability."""

    __slots__ = ("_atoms",)

    def __init__(self, atoms: Mapping[ExactScalar, Fraction]):
        checked: dict[ExactScalar, Fraction] = {}
        total = Fraction(0)
        for point, prob in atoms.items():
            point = as_scalar(point)
            prob = Fraction(prob)
            if prob <= 0:
                raise ValidationError(f"probability {prob} of atom '{point}' is not positive")
            if point in checked:
                raise ValidationError(f"duplicate support point '{point}'")
            checked[point] = prob
            total += prob
        if not checked:
            raise ValidationError("a distribution needs at least one atom")
        if total != 1:
            raise ValidationError(f"probabilities sum to {total}, expected exactly 1")
        self._atoms = checked

    @classmethod
    def _trusted(cls, atoms: dict[ExactScalar, Fraction]) -> "DiscreteDist":
        # internal fast path for operations that preserve total mass exactly
        self = object.__new__(cls)
        self._atoms = atoms
        return self

    @property
    def atoms(self) -> Mapping[ExactScalar, Fraction]:
        return MappingProxyType(self._atoms)

    def items(self) -> Iterator[tuple[ExactScalar, Fraction]]:
        return iter(self._atoms.items())

    def __len__(self) -> int:
        return len(self._atoms)

    def __eq__(self, other):
        if isinstance(other, DiscreteDist):
            return self._atoms == other._atoms
        return NotImplemented

    def __repr__(self):
        if len(self) > 6:
            return f"DiscreteDist(<{len(self)} atoms>)"
        body = ", ".join(f"'{x}': {p}" for x, p in sorted_items(self))
        return f"DiscreteDist({{{body}}})"


def sorted_items(dist: DiscreteDist) -> list[tuple[ExactScalar, Fraction]]:
    """Atoms in the canonical deterministic order (stable across processes)."""
    return sorted(dist.items(), key=lambda item: item[0].sort_key())


def point_mass(value) -> DiscreteDist:
    return DiscreteDist._trusted({as_scalar(value): Fraction(1)})


def uniform_on(support: Iterable) -> DiscreteDist:
    """Uniform distribution on the given support points.

    Errors on an empty support and on duplicates (exact canonical equality),
    since silently merging would change the intended probabilities.
    """
    points = [as_scalar(x) for x in support]
    if not points:
        raise ValidationError("empty support")
    atoms: dict[ExactScalar, Fraction] = {}
    prob = Fraction(1, len(points))
    for point in points:
        if point in atoms:
            raise ValidationError(f"support not distinct: '{point}' appears twice")
        atoms[point] = prob
    return DiscreteDist._trusted(atoms)


def scale(c, dist: DiscreteDist) -> DiscreteDist:
    """Distribution of c*X. The map x -> c*x is injective for c != 0."""
    c = as_scalar(c)
    if c.is_zero():
        raise ValidationError("degenerate scaling: coefficient is zero")
    if c == 1:
        return dist
    return DiscreteDist._trusted({c * x: p for x, p in dist.items()})


def check_pair_budget(pairs: int, budget: int) -> None:
    """Refuse a convolution of `pairs` atom pairs before it allocates."""
    if pairs > budget:
        raise BudgetExceededError(
            f"convolution needs {pairs} atom pairs, over the budget of {budget}"
        )


def _integer_weights(dist: DiscreteDist) -> tuple[int, list[tuple[ExactScalar, int]]]:
    """(D, [(x, p*D)]) with D the lcm of the probabilities' denominators."""
    # pairwise, since lcm(*denominators) would leave an argument tuple of
    # every operand size on the interpreter's free lists
    denom = 1
    for p in dist._atoms.values():
        denom = math.lcm(denom, p.denominator)
    return denom, [(x, p.numerator * (denom // p.denominator)) for x, p in dist.items()]


class _Lattice:
    """Packed integer keys for the support points of one linear form
    sum_j c_j X_j.

    Every scaled point c_j*x is written as integer coordinates over one sorted
    monomial basis and one common denominator D (the lcm of all coefficient
    denominators), and the coordinates are packed into one int in balanced
    base R = 2 * sum_j max|coordinate of term j| + 1. No sum that takes each
    term at most once reaches a coordinate outside [-(R-1)/2, (R-1)/2], so
    packing is injective on every such partial sum and key(x) + key(y) ==
    key(x + y). A rational-only form has one coordinate: its key is the
    value's numerator over D.
    """

    __slots__ = ("basis", "denominator", "radix")

    def __init__(self, basis: list, denominator: int, radix: int):
        self.basis = basis
        self.denominator = denominator
        self.radix = radix

    def point(self, key: int) -> ExactScalar:
        """The canonical scalar whose packed key is `key`."""
        flat = []
        radix, denom = self.radix, self.denominator
        half = radix // 2
        for mono in self.basis:
            digit = key % radix
            if digit > half:
                digit -= radix
            key = (key - digit) // radix
            if digit:
                coeff = Fraction(digit, denom)
                flat += (mono, coeff.numerator if coeff.denominator == 1 else coeff)
        return ExactScalar(tuple(flat))


class _PackedDist(DiscreteDist):
    """A distribution held as integer weights over one denominator on packed
    lattice keys. Sums and entropies work on the keys; the support points
    are decoded only when they are asked for. `reach` bounds the absolute
    value of every coordinate of its points."""

    __slots__ = ("lattice", "weights", "denominator", "reach", "_decoded")

    def __init__(
        self, lattice: _Lattice, weights: dict[int, int], denominator: int, reach: int
    ):
        self.lattice = lattice
        self.weights = weights
        self.denominator = denominator
        self.reach = reach
        self._decoded = None

    @property
    def _atoms(self) -> dict[ExactScalar, Fraction]:
        if self._decoded is None:
            point, denom = self.lattice.point, self.denominator
            self._decoded = {point(k): Fraction(w, denom) for k, w in self.weights.items()}
        return self._decoded

    def __len__(self) -> int:
        return len(self.weights)


def _pack(terms: Sequence[tuple[ExactScalar, DiscreteDist]]) -> list[_PackedDist]:
    """The distributions of c_j*X_j for the terms of one linear form, packed
    on one shared lattice, so that `convolve` can add any of them."""
    scaled = []
    monomials = set()
    denom = 1
    for c, dist in terms:
        weights_denom, weights = _integer_weights(dist)
        if c != ONE:
            weights = [(c * x, w) for x, w in weights]
        scaled.append((weights_denom, weights))
        for x, _ in weights:
            for mono, coeff in x.terms():
                monomials.add(mono)
                denom = math.lcm(denom, coeff.denominator)
    basis = sorted(monomials)
    index = {mono: i for i, mono in enumerate(basis)}
    coordinates = []
    for _, weights in scaled:
        points = [
            [(index[mono], c.numerator * (denom // c.denominator)) for mono, c in x.terms()]
            for x, _ in weights
        ]
        reach = max((abs(v) for point in points for _, v in point), default=0)
        coordinates.append((points, reach))
    lattice = _Lattice(basis, denom, 2 * sum(reach for _, reach in coordinates) + 1)
    powers = [lattice.radix**i for i in range(len(basis))]
    return [
        _PackedDist(lattice, {
            sum(v * powers[i] for i, v in point): w for point, (_, w) in zip(points, weights)
        }, weights_denom, reach)
        for (points, reach), (weights_denom, weights) in zip(coordinates, scaled)
    ]


def convolve(A: DiscreteDist, B: DiscreteDist, budget: int = DEFAULT_ATOM_BUDGET) -> DiscreteDist:
    """Distribution of X+Y for independent X~A, Y~B, collisions merged exactly."""
    check_pair_budget(len(A) * len(B), budget)
    # keys add as points only while every coordinate of the sum stays within
    # the lattice's digit range, so operands past it are packed afresh
    if not (
        isinstance(A, _PackedDist)
        and isinstance(B, _PackedDist)
        and A.lattice is B.lattice
        and A.reach + B.reach <= A.lattice.radix // 2
    ):
        A, B = _pack([(ONE, A), (ONE, B)])
    if len(A) < len(B):
        A, B = B, A
    merged: dict[int, int] = {}
    get = merged.get
    inner = list(B.weights.items())
    for ka, wa in A.weights.items():
        for kb, wb in inner:
            key = ka + kb
            merged[key] = get(key, 0) + wa * wb
    return _PackedDist(A.lattice, merged, A.denominator * B.denominator, A.reach + B.reach)


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
    if len(live) == 1:
        return scale(*live[0])
    result, *rest = _pack(live)
    for term in rest:
        result = convolve(result, term, budget=budget)
    return result


def support_set(dist: DiscreteDist) -> frozenset:
    return frozenset(dist._atoms)


# -- entropy ------------------------------------------------------------------


def _plog2p(n: int, d: int) -> float:
    # p = n/d in lowest terms; log2 via integer logs so huge denominators stay
    # finite. p = 1 gives 0.0, which leaves the sum unchanged.
    return n / d * (math.log2(n) - math.log2(d))


def _entropy(terms: Iterable[float]) -> float:
    # fsum is correctly rounded, so the result does not depend on term order
    total = math.fsum(terms)
    return -total if total else 0.0


def entropy_bits(dist: DiscreteDist) -> float:
    """Shannon entropy -sum p*log2(p), evaluated in double precision."""
    if isinstance(dist, _PackedDist):
        return _weight_entropy(dist.weights, dist.denominator)
    return _entropy(_plog2p(p.numerator, p.denominator) for p in dist._atoms.values())


def _weight_entropy(weights: dict, total: int) -> float:
    """Entropy of the probabilities w/total over the weights' values; each
    term equals the one entropy_bits takes for Fraction(w, total)."""
    values = weights.values()
    # one term per distinct weight, repeated: fsum sees the same multiset
    terms = {}
    for w in set(values):
        g = math.gcd(w, total)
        terms[w] = _plog2p(w // g, total // g)
    return _entropy(map(terms.__getitem__, values))


# -- JSON ----------------------------------------------------------------------
#
# {"atoms": [{"value": "<scalar-syntax>", "prob": "p/q"}, ...]}; probabilities
# may also be decimal strings, which are converted exactly (0.08 -> 2/25).


def parse_probability(text) -> Fraction:
    if isinstance(text, str) and ("." in text or "e" in text.lower()):
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
    for entry in obj["atoms"]:
        if not isinstance(entry, dict) or "value" not in entry or "prob" not in entry:
            raise ParseError(f'each atom needs "value" and "prob", got {entry!r}')
        point = as_scalar(entry["value"])
        if point in atoms:
            raise ParseError(f"duplicate atom '{point}' in distribution JSON")
        atoms[point] = parse_probability(entry["prob"])
    return DiscreteDist(atoms)


def dist_to_json(dist: DiscreteDist) -> dict:
    return {
        "atoms": [
            {"value": str(x), "prob": str(p)} for x, p in sorted_items(dist)
        ]
    }
