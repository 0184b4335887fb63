"""Sumset cardinalities, arithmetic-progression structure, and the entropy
inequality suite for sums and differences of independent variables.

Difference sets and difference distributions are always formed by scaling
with -1 and reusing the sum path, so there is a single audited kernel for
both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable, Optional

from .dist import DEFAULT_ATOM_BUDGET, DiscreteDist, convolve, entropy_bits, scale
from .errors import BudgetExceededError, NotRationalError, ParseError, ValidationError
from .scalar import ExactScalar, as_scalar


def finite_set(elements: Iterable) -> frozenset:
    """Canonical deduplicated set of exact scalars."""
    return frozenset(as_scalar(x) for x in elements)


def set_from_json(obj) -> frozenset:
    if not isinstance(obj, dict) or "elements" not in obj:
        raise ParseError('set JSON must be {"elements": [...]}')
    elements = list(obj["elements"])
    result = finite_set(elements)
    if not result:
        raise ParseError("empty element list")
    if len(result) != len(elements):
        raise ParseError("element list repeats a value")
    return result


def set_to_json(elements: AbstractSet[ExactScalar]) -> dict:
    ordered = sorted(elements, key=lambda x: x.sort_key())
    return {"elements": [str(x) for x in ordered]}


def sumset(
    A: AbstractSet[ExactScalar],
    B: AbstractSet[ExactScalar],
    budget: int = DEFAULT_ATOM_BUDGET,
) -> frozenset:
    """{a + b : a in A, b in B} with exact collision merging."""
    if not A or not B:
        raise ValidationError("sumset needs non-empty operands")
    pairs = len(A) * len(B)
    if pairs > budget:
        raise BudgetExceededError(f"sumset needs {pairs} pairs, over the budget of {budget}")
    return frozenset(a + b for a in A for b in B)


def check_trivial_bounds(
    A: AbstractSet[ExactScalar],
    B: AbstractSet[ExactScalar],
    budget: int = DEFAULT_ATOM_BUDGET,
) -> tuple[bool, bool]:
    """(lower_ok, upper_ok) for max{|A|,|B|} <= |A+B| <= |A|*|B|.

    Both are theorems, so this exists as a test oracle for the sum kernel.
    """
    size = len(sumset(A, B, budget=budget))
    return max(len(A), len(B)) <= size, size <= len(A) * len(B)


def is_arithmetic_progression(
    A: AbstractSet[ExactScalar],
) -> Optional[tuple[Fraction, Optional[Fraction], int]]:
    """(start, step, length) if A is an arithmetic progression, else None.

    Singletons are degenerate progressions: the step is None. Elements must
    be rational-valued, since progressions need an order.
    """
    if not A:
        raise ValidationError("empty set")
    try:
        values = [x.as_fraction() for x in A]
    except NotRationalError:
        raise NotRationalError("progression test requires ordered rationals") from None
    # integer numerators over one common denominator sort far faster than Fractions
    denom = math.lcm(*(value.denominator for value in values))
    numerators = sorted(v.numerator * (denom // v.denominator) for v in values)
    start = Fraction(numerators[0], denom)
    if len(numerators) == 1:
        return start, None, 1
    step = numerators[1] - numerators[0]
    for prev, cur in zip(numerators, numerators[1:]):
        if cur - prev != step:
            return None
    return start, Fraction(step, denom), len(numerators)


@dataclass(frozen=True)
class InequalityReport:
    """Entropies of U, V, U+V, U-V and the slacks (RHS minus LHS) of the
    three sum-difference inequalities:

      1. H(U+V) + H(U) + H(V) <= 3*H(U-V)
      2. H(U-V) <= (1/2)*H(U+V) + (2/3)*(H(U) + H(V))
      3. (5/3)*H(U-V) <= (5/2)*H(U+V)

    All slacks are nonnegative for every pair of independent variables; the
    third combines the first two and forces H(U+V)/H(U-V) >= 2/3.
    """

    h_u: float
    h_v: float
    h_sum: float
    h_diff: float
    slack_triple: float
    slack_mixed: float
    slack_combined: float

    def to_json(self) -> dict:
        return {
            "h_u": self.h_u,
            "h_v": self.h_v,
            "h_sum": self.h_sum,
            "h_diff": self.h_diff,
            "slacks": {
                "triple_difference": self.slack_triple,
                "mixed_half_two_thirds": self.slack_mixed,
                "combined": self.slack_combined,
            },
        }


def entropy_inequality_suite(
    U: DiscreteDist, V: DiscreteDist, budget: int = DEFAULT_ATOM_BUDGET
) -> InequalityReport:
    """Evaluate the three sum-difference entropy inequalities exactly."""
    h_u = entropy_bits(U)
    h_v = entropy_bits(V)
    h_sum = entropy_bits(convolve(U, V, budget=budget))
    h_diff = entropy_bits(convolve(U, scale(-1, V), budget=budget))
    return InequalityReport(
        h_u=h_u,
        h_v=h_v,
        h_sum=h_sum,
        h_diff=h_diff,
        slack_triple=3 * h_diff - (h_sum + h_u + h_v),
        slack_mixed=0.5 * h_sum + (2 / 3) * (h_u + h_v) - h_diff,
        slack_combined=2.5 * h_sum - (5 / 3) * h_diff,
    )
