"""Finitely supported distributions over exact scalars.

Probabilities are exact rationals so that collision merging is exact; only
entropy is evaluated in floating point. Convolution is plain pairwise
enumeration (support points are symbolic, there is no lattice to exploit),
guarded by an atom budget that is checked before anything is allocated, so
oversized requests fail loudly instead of exhausting memory. Inside a
convolution the weights are exact integers over a common denominator (the
product of the operands' denominator lcms); each merged atom becomes a
`Fraction` once, at the end, instead of one `Fraction` product per pair.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BudgetExceededError, ParseError, ValidationError
from .scalar import ExactScalar, ZERO, as_scalar, parse_rational

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
        if len(self._atoms) > 6:
            return f"DiscreteDist(<{len(self._atoms)} atoms>)"
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


def convolve(A: DiscreteDist, B: DiscreteDist, budget: int = DEFAULT_ATOM_BUDGET) -> DiscreteDist:
    """Distribution of X+Y for independent X~A, Y~B, collisions merged exactly."""
    check_pair_budget(len(A) * len(B), budget)
    if len(A) < len(B):
        A, B = B, A
    if len(B) == 1:
        ((shift, _),) = B.items()
        return DiscreteDist._trusted({x + shift: p for x, p in A.items()})
    da, a_weights = _integer_weights(A)
    db, b_weights = _integer_weights(B)
    acc: dict[ExactScalar, int] = {}
    acc_get = acc.get
    for xa, wa in a_weights:
        for xb, wb in b_weights:
            key = xa + xb
            acc[key] = acc_get(key, 0) + wa * wb
    # in place, so no second output-sized dict is alive at the peak
    denom = da * db
    for key, weight in acc.items():
        acc[key] = Fraction(weight, denom)
    return DiscreteDist._trusted(acc)


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
    result = scale(live[0][0], live[0][1])
    for c, d in live[1:]:
        result = convolve(result, scale(c, d), budget=budget)
    return result


def support_set(dist: DiscreteDist) -> frozenset:
    return frozenset(dist._atoms)


# -- entropy ------------------------------------------------------------------


def _plog2p(p: Fraction) -> float:
    # log2 via integer logs so huge denominators stay finite
    return float(p) * (math.log2(p.numerator) - math.log2(p.denominator))


def entropy_of_probs(probs: Iterable[Fraction]) -> float:
    total = math.fsum(_plog2p(p) for p in probs if p != 1)
    return -total if total else 0.0


def entropy_bits(dist: DiscreteDist) -> float:
    """Shannon entropy -sum p*log2(p), evaluated in double precision."""
    return entropy_of_probs(dist._atoms.values())


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
