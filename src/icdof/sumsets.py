"""Sumset cardinalities, arithmetic-progression structure, and the entropy
inequality suite for sums and differences of independent variables.

A finite set is the support of a packed distribution (`SupportSet`): the sets
built here are packed at birth, and a plain set passed in is packed once on
entry. A sumset A+B is then the support of one `convolve`, the same kernel
that sums distributions, and a progression test sorts integer keys. Difference
sets and difference distributions are always formed by scaling with -1 and
reusing the sum path, so there is a single audited kernel for both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable, Optional

from .dist import (
    DEFAULT_ATOM_BUDGET,
    DiscreteDist,
    SupportSet,
    convolve,
    entropy_bits,
    json_list,
    scale,
    support_set,
    uniform_on,
)
from .errors import BudgetExceededError, NotRationalError, ParseError, ValidationError
from .scalar import ExactScalar, as_scalar, exact_str


def finite_set(elements: Iterable) -> AbstractSet[ExactScalar]:
    """Canonical deduplicated set of exact scalars, packed as the support of
    the uniform distribution on it. The empty set, which is no support,
    comes back as an empty frozenset."""
    points = list(dict.fromkeys(map(as_scalar, elements)))
    return support_set(uniform_on(points)) if points else frozenset()


def _packed(A: AbstractSet) -> SupportSet:
    """`A` itself if packed, else `A` packed once; `A` is not empty."""
    return A if isinstance(A, SupportSet) else finite_set(A)


def set_from_json(obj) -> AbstractSet[ExactScalar]:
    if not isinstance(obj, dict) or "elements" not in obj:
        raise ParseError('set JSON must be {"elements": [...]}')
    elements = json_list(obj, "elements")
    result = finite_set(elements)
    if not result:
        raise ParseError("empty element list")
    if len(result) != len(elements):
        raise ParseError("element list repeats a value")
    return result


def set_to_json(elements: AbstractSet[ExactScalar]) -> dict:
    ordered = sorted(elements, key=lambda x: x.sort_key())
    return {"elements": [exact_str(x) for x in ordered]}


def sumset(
    A: AbstractSet[ExactScalar],
    B: AbstractSet[ExactScalar],
    budget: int = DEFAULT_ATOM_BUDGET,
) -> SupportSet:
    """{a + b : a in A, b in B} with exact collision merging: the support of
    the convolution of any two distributions with supports A and B.

    Refused when |A|*|B| is over the budget. `convolve` also counts the
    64-bit words of the sum's keys, so a pair count within the budget is
    still refused when the keys are wide (many monomials or large
    coordinates) and pairs times words is over it.
    """
    if not A or not B:
        raise ValidationError("sumset needs non-empty operands")
    pairs = len(A) * len(B)
    if pairs > budget:
        raise BudgetExceededError(f"sumset needs {pairs} pairs, over the budget of {budget}")
    return support_set(convolve(_packed(A).dist, _packed(B).dist, budget=budget))


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
        numerators, denom = _packed(A).rational_grid()
    except NotRationalError:
        raise NotRationalError("progression test requires ordered rationals") from None
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
