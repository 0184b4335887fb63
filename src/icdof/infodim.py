"""Self-similar measures from iterated function systems of affine contractions
x -> r*x + w_i, their closed-form information dimension, and an empirical
estimator on exact truncations.

The closed-form value min{H(W)/log2(1/r), 1} holds for contraction parameters
outside an exceptional set of Hausdorff and packing dimension zero; membership
is not decidable per instance, so outputs carry a caveat flag instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .dist import (
    DEFAULT_ATOM_BUDGET,
    DiscreteDist,
    entropy_bits,
    floor_dist,
    json_list,
    linear_combination,
    parse_probability,
)
from .errors import NotRationalError, ParseError, ValidationError
from .scalar import ExactScalar, as_scalar, parse_rational

NON_EXCEPTIONAL_CAVEAT = "valid for non-exceptional r"


@dataclass(frozen=True)
class IFSSpec:
    r: Fraction
    w_values: tuple[ExactScalar, ...]
    probs: tuple[Fraction, ...]
    _offsets: DiscreteDist = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 < self.r < 1):
            raise ValidationError(f"contraction parameter must be in (0,1), got {self.r}")
        if len(self.w_values) != len(self.probs):
            raise ValidationError(
                f"{len(self.w_values)} offsets for {len(self.probs)} probabilities"
            )
        if len(self.w_values) < 2:
            raise ValidationError("need at least 2 offsets")
        if len(set(self.w_values)) != len(self.w_values):  # before the dict below merges them
            raise ValidationError("offsets must be pairwise distinct")
        # the probabilities' positivity and sum are checked by the distribution
        object.__setattr__(self, "_offsets", DiscreteDist(dict(zip(self.w_values, self.probs))))

    @staticmethod
    def create(r, w_values: Sequence, probs: Sequence) -> "IFSSpec":
        return IFSSpec(
            Fraction(r),
            tuple(as_scalar(w) for w in w_values),
            tuple(Fraction(p) for p in probs),
        )

    def offset_dist(self) -> DiscreteDist:
        return self._offsets


def ifs_from_json(obj) -> IFSSpec:
    """Parse {"r": "p/q", "w": [...], "probs": [...]}."""
    if not isinstance(obj, dict) or not {"r", "w", "probs"} <= set(obj):
        raise ParseError('IFS JSON must be {"r": ..., "w": [...], "probs": [...]}')
    return IFSSpec(
        parse_rational(obj["r"]),
        tuple(as_scalar(w) for w in json_list(obj, "w")),
        tuple(parse_probability(p) for p in json_list(obj, "probs")),
    )


def log2_inverse_contraction(r: Fraction) -> float:
    return math.log2(r.denominator) - math.log2(r.numerator)


def infodim_formula(ifs: IFSSpec) -> float:
    """Closed-form information dimension min{H(W)/log2(1/r), 1}.

    Valid for non-exceptional contraction parameters (see module docstring).
    """
    return min(entropy_bits(ifs.offset_dist()) / log2_inverse_contraction(ifs.r), 1.0)


def truncated_dist(ifs: IFSSpec, m: int, budget: int = DEFAULT_ATOM_BUDGET) -> DiscreteDist:
    """Exact distribution of the m-term truncation sum_{k=0}^{m-1} r^k W_k
    with the W_k independent copies of the offset variable."""
    if m < 1:
        raise ValidationError(f"need m >= 1, got {m}")
    W = ifs.offset_dist()
    coeffs, power = [], Fraction(1)
    for _ in range(m):  # r^k by one multiply each, not one power each
        coeffs.append(ExactScalar.rational(power))
        power *= ifs.r
    return linear_combination(coeffs, [W] * m, budget=budget)


def recommended_quantization(ifs: IFSSpec, m: int) -> int:
    """Largest k with k * r^m * max|w| / (1-r) <= 1, floored at 2."""
    max_w = max(abs(w.as_fraction()) for w in ifs.w_values)  # > 0: the offsets are distinct
    limit = (1 - ifs.r) / (ifs.r**m * max_w)
    return max(2, math.floor(limit))


def empirical_infodim(
    ifs: IFSSpec, m: int, k: int, budget: int = DEFAULT_ATOM_BUDGET
) -> float:
    """Quantization-based estimate H(floor(k * X~_m)) / log2(k), where X~_m is
    the m-term truncation contracted once: sum_{j=1}^{m} r^j W_j.

    The single contraction aligns the quantization grid with the digits the
    truncation pins down; quantizing the uncontracted sum would add one
    coarse digit of entropy and overshoot the limit by ~1/log2(k). The floor
    is exact on rationals, so the offsets must be rational-valued here.

    The guard k * r^m * max|w| / (1-r) <= 1 keeps the truncation error below
    one quantization cell; a violation only warns, because the estimate is
    still defined, just less trustworthy.
    """
    if k < 2:
        raise ValidationError(f"need a quantization factor k >= 2, got {k}")
    if m < 1:  # before the guard below can warn
        raise ValidationError(f"need m >= 1, got {m}")
    try:
        w_fracs = [w.as_fraction() for w in ifs.w_values]
    except NotRationalError:
        raise NotRationalError(
            "the empirical path requires rational offsets (exact floors need ordered values)"
        ) from None
    max_w = max(abs(w) for w in w_fracs)
    if k * ifs.r**m * max_w / (1 - ifs.r) > 1:
        warnings.warn(
            "quantization factor is finer than the truncation error; "
            "increase m or lower k",
            stacklevel=2,
        )
    X = truncated_dist(ifs, m, budget=budget)
    return entropy_bits(floor_dist(k * ifs.r, X)) / math.log2(k)
