"""Channel matrices, monomial enumeration, alphabet construction, and the
finite independence checker.

A channel is a K x K matrix of exact scalars. "Generic" entries are fresh
generators (algebraically independent stand-ins), named h_<i>_<j> with
1-based indices. The alphabet construction and the certified bounds build on
monomials in the K(K-1) off-diagonal positions, substituting whatever each
position actually holds (a generator, a rational, or a polynomial).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from .dist import DEFAULT_ATOM_BUDGET
from .errors import BudgetExceededError, ParseError, ValidationError
from .linalg import first_relations
from .scalar import ExactScalar, Monomial, MONO_ONE, as_scalar, mono_from_pairs, mono_str


def off_diagonal_name(i: int, j: int) -> str:
    """Generator id for the off-diagonal position (i, j), 1-based."""
    return f"h_{i}_{j}"


@dataclass(frozen=True)
class ChannelMatrix:
    K: int
    entries: tuple[tuple[ExactScalar, ...], ...]

    def __post_init__(self):
        if self.K < 2:
            raise ValidationError(f"need at least 2 users, got K={self.K}")
        if len(self.entries) != self.K or any(len(row) != self.K for row in self.entries):
            raise ValidationError(f"entries must form a {self.K}x{self.K} matrix")

    @staticmethod
    def generic(K: int) -> "ChannelMatrix":
        """Fully generic matrix: every entry its own fresh generator."""
        rows = tuple(
            tuple(ExactScalar.generator(off_diagonal_name(i, j)) for j in range(1, K + 1))
            for i in range(1, K + 1)
        )
        return ChannelMatrix(K, rows)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "ChannelMatrix":
        K = len(rows)
        return ChannelMatrix(K, tuple(tuple(as_scalar(x) for x in row) for row in rows))

    def entry(self, i: int, j: int) -> ExactScalar:
        """0-based accessor."""
        return self.entries[i][j]

    def row(self, i: int) -> tuple[ExactScalar, ...]:
        return self.entries[i]


def channel_from_json(obj) -> ChannelMatrix:
    """Parse {"K": k, "entries": [[...], ...]}; the token "generic" in an
    entry position allocates the generator h_<i>_<j> for that position."""
    if not isinstance(obj, dict) or "K" not in obj or "entries" not in obj:
        raise ParseError('channel JSON must be {"K": k, "entries": [[...], ...]}')
    K = obj["K"]
    if not isinstance(K, int) or isinstance(K, bool):
        raise ParseError(f'"K" must be an integer, got {K!r}')
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != K:
        raise ParseError(f'"entries" must be a list of {K} rows')
    rows = []
    for i, row in enumerate(entries, start=1):
        if not isinstance(row, list) or len(row) != K:
            raise ParseError(f"row {i} must have exactly {K} entries")
        parsed = []
        for j, cell in enumerate(row, start=1):
            if cell == "generic":
                parsed.append(ExactScalar.generator(off_diagonal_name(i, j)))
            else:
                parsed.append(as_scalar(cell))
        rows.append(tuple(parsed))
    return ChannelMatrix(K, tuple(rows))


def channel_to_json(H: ChannelMatrix) -> dict:
    return {"K": H.K, "entries": [[str(x) for x in row] for row in H.entries]}


def is_fully_connected(H: ChannelMatrix) -> bool:
    """True iff every entry is nonzero (exact test)."""
    return all(not x.is_zero() for row in H.entries for x in row)


# -- monomial basis -------------------------------------------------------------


def phi(K: int, d: int) -> int:
    """Number of monomials of degree at most d in the K(K-1) off-diagonal
    positions: C(K(K-1)+d, d)."""
    if K < 2:
        raise ValidationError(f"need K >= 2, got {K}")
    if d < 0:
        raise ValidationError(f"need d >= 0, got {d}")
    return math.comb(K * (K - 1) + d, d)


@dataclass(frozen=True)
class MonomialBasis:
    K: int
    d: int
    monomials: tuple[Monomial, ...]

    def __len__(self) -> int:
        return len(self.monomials)


def enumerate_monomials(K: int, d: int) -> MonomialBasis:
    """All monomials of degree <= d in the off-diagonal position generators,
    ordered by degree and then lexicographically; the constant comes first."""
    count = phi(K, d)  # validates K, d
    names = sorted(
        off_diagonal_name(i, j)
        for i in range(1, K + 1)
        for j in range(1, K + 1)
        if i != j
    )
    monos: list[Monomial] = [MONO_ONE]
    for degree in range(1, d + 1):
        monos.extend(
            mono_from_pairs((name, 1) for name in combo)
            for combo in combinations_with_replacement(names, degree)
        )
    assert len(monos) == count
    return MonomialBasis(K, d, tuple(monos))


def _position_of(name: str) -> tuple[int, int]:
    _, i, j = name.split("_")
    return int(i), int(j)


def evaluate_monomial(H: ChannelMatrix, mono: Monomial) -> ExactScalar:
    """Value of an off-diagonal monomial with H's entries substituted in."""
    value = ExactScalar.rational(1)
    for name, exp in mono[1]:
        i, j = _position_of(name)
        value = value * (H.entry(i - 1, j - 1) ** exp)
    return value


def _decimal(count: int, formula: str) -> str:
    """`count` in decimal, or `formula` once it is too long for the
    interpreter to convert (its limit on integer string conversion)."""
    try:
        return str(count)
    except ValueError:
        return formula


def alphabet_size(count: int, N: int, budget: int) -> int:
    """N^count, the number of alphabet values, once within the budget. Its
    lower bound 2^(count * (bitlen N - 1)) refuses it before it is formed, and
    names it N^count once it must have more digits than `str` converts."""
    floor_bits = count * (N.bit_length() - 1)  # N^count >= 2^floor_bits
    if floor_bits < budget.bit_length() and N**count <= budget:
        return N**count
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    # 2^floor_bits has more than `limit` digits once floor_bits >= limit * 10/3
    formula = f"{N}^{count}"
    shown = formula if limit and 3 * floor_bits >= 10 * limit else _decimal(N**count, formula)
    raise BudgetExceededError(f"alphabet would hold {shown} values, over the budget of {budget}")


def basis_values(H: ChannelMatrix, basis: MonomialBasis) -> list[ExactScalar]:
    return [evaluate_monomial(H, m) for m in basis.monomials]


def build_wn(
    H: ChannelMatrix, d: int, N: int, budget: int = DEFAULT_ATOM_BUDGET
) -> list[ExactScalar]:
    """The alphabet {sum_j a_j f_j : a_j in {1..N}} over the degree-<=d basis.

    Returns all N^phi(K,d) combination values in a deterministic order. With
    generic entries these are pairwise distinct; with concrete entries the
    list may repeat values, and callers decide whether that is an error.
    Both the N^phi(K,d) values and the phi(K,d) basis monomials are counted
    against the budget before the basis is enumerated.
    """
    if N < 1:
        raise ValidationError(f"need N >= 1, got {N}")
    count = phi(H.K, d)
    alphabet_size(count, N, budget)
    if count > budget:  # only reachable at N = 1, where the alphabet has one value
        raise BudgetExceededError(
            f"alphabet basis would hold {_decimal(count, f'phi({H.K}, {d})')} monomials, "
            f"over the budget of {budget}"
        )
    values = [ExactScalar.rational(0)]
    for f in basis_values(H, enumerate_monomials(H.K, d)):
        scaled = [f * a for a in range(1, N + 1)]
        values = [w + fa for w in values for fa in scaled]
    return values


# -- independence checker --------------------------------------------------------


@dataclass(frozen=True)
class WitnessTerm:
    family: str  # "monomial" or "diag-multiple"
    monomial: Monomial
    coefficient: int

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "monomial": mono_str(self.monomial),
            "coefficient": str(self.coefficient),
        }


@dataclass(frozen=True)
class Witness:
    user: int  # 1-based
    degree: int
    terms: tuple[WitnessTerm, ...]

    def to_json(self) -> dict:
        return {
            "user": self.user,
            "degree": self.degree,
            "combination": [t.to_json() for t in self.terms],
        }


@dataclass(frozen=True)
class ConditionStarReport:
    status: str  # "holds-up-to-bound" or "violated"
    d: int
    witness: Optional[Witness] = None

    def to_json(self) -> dict:
        out = {"status": self.status, "degree": self.d}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def check_condition_star(
    H: ChannelMatrix, d: int, budget: int = DEFAULT_ATOM_BUDGET
) -> ConditionStarReport:
    """Decide, degree by degree up to d, whether the checked families are
    linearly independent over the rationals.

    For each user i the family is {f : deg f <= d+1} together with
    {h_ii * f : deg f <= d}, both evaluated at H's entries. A user proved by
    `_rank_certificate` is independent at every degree. For the others each
    member is a column, its coefficients over the concrete generator
    monomials, and `linalg.first_relations` finds the first column that
    depends on the ones before it, which decides dependence with any
    rational coefficients, what integer combinations reduce to after
    clearing denominators. The degree-<=(d+1) basis is shared by every user:
    its columns are evaluated and reduced once per call, and each user's
    diagonal multiples are then reduced on their pivots. It is graded with
    the constant first, so the degree-<=d basis is its first phi(K, d)
    values, kept for those multiples. Columns are built as they are reduced,
    and none after the first dependent one. That column's relation is the
    integer witness, tagged by family, so a report shows whether the plain
    monomials or the diagonal multiples collapsed; `verify_witness`
    re-substitutes it from H before it is reported.

    The phi(K, d+1) + phi(K, d) columns are counted against the budget before
    the certificate runs or the first monomial is enumerated, so a refusal
    does not depend on which path would decide the check.
    """
    if d < 0:
        raise ValidationError(f"need d >= 0, got {d}")
    columns = phi(H.K, d + 1) + phi(H.K, d)
    if columns > budget:
        shown = _decimal(columns, f"phi({H.K}, {d + 1}) + phi({H.K}, {d})")
        raise BudgetExceededError(
            f"independence check needs {shown} family columns, over the budget of {budget}"
        )
    users = [i for i, proved in enumerate(_rank_certificate(H)) if not proved]
    if not users:
        return ConditionStarReport("holds-up-to-bound", d)
    monos = enumerate_monomials(H.K, d + 1).monomials
    n, lo, prefix = len(monos), phi(H.K, d), []

    def values():
        # the degree-<=d values are kept for the diagonal multiples, which are
        # read only once every value has been reduced
        for c, mono in enumerate(monos):
            value = evaluate_monomial(H, mono)
            if c < lo:
                prefix.append(value)
            yield dict(value.terms())

    extras = ((dict((H.entry(i, i) * v).terms()) for v in prefix) for i in users)
    for i, vector in zip(users, first_relations(values(), extras)):
        if vector is not None:
            terms = tuple(
                WitnessTerm("monomial", monos[c], coeff) if c < n
                else WitnessTerm("diag-multiple", monos[c - n], coeff)
                for c, coeff in enumerate(vector)
                if coeff
            )
            witness = Witness(user=i + 1, degree=d, terms=terms)
            if not verify_witness(H, witness):
                raise RuntimeError("kernel witness failed re-substitution; elimination bug")
            return ConditionStarReport("violated", d, witness)
    return ConditionStarReport("holds-up-to-bound", d)


def _rank_certificate(H: ChannelMatrix) -> list[bool]:
    """Per user i, whether i's checked families are proved independent at
    every degree without elimination.

    Suppose each off-diagonal entry h_jk is one nonzero term c_jk x^e_jk and
    so is h_ii. A family member f = prod h_jk^a_jk then evaluates to a nonzero
    multiple of x^(E a), and h_ii f to one of x^(E a + e_ii), where E has the
    columns e_jk. When the columns of [E | e_ii] are linearly independent over
    Q, (a, t) -> E a + t e_ii is injective, so the members are multiples of
    pairwise distinct monomials and hence independent. A zero entry, a
    rational one (zero exponent vector), an entry of two or more terms, or
    dependent exponents leave the user to the elimination.

    The exponent vectors e_jk of the K(K-1) off-diagonal entries are shared
    by every user, so they are reduced once; each e_ii is then reduced on
    their pivots, and user i is proved when no relation turns up.
    """
    exponents = [[_single_term_exponents(x) for x in row] for row in H.entries]
    off = [e for j, row in enumerate(exponents) for k, e in enumerate(row) if j != k]
    if None in off:
        return [False] * H.K
    # a diagonal of no single term (None) is the zero vector, never independent
    return [relation is None for relation in first_relations(
        (dict(e) for e in off), ([dict(exponents[i][i] or ())] for i in range(H.K)))]


def _single_term_exponents(value: ExactScalar) -> Optional[tuple]:
    """The (generator, exponent) pairs of a single nonzero term, or None."""
    terms = list(value.terms())
    return terms[0][0][1] if len(terms) == 1 else None


def verify_witness(H: ChannelMatrix, witness: Witness) -> bool:
    """Re-substitute a witness combination and confirm it vanishes exactly."""
    diag = H.entry(witness.user - 1, witness.user - 1)
    combo = ExactScalar.rational(0)
    for term in witness.terms:
        value = evaluate_monomial(H, term.monomial)
        if term.family == "diag-multiple":
            value = diag * value
        combo = combo + value * term.coefficient
    return combo.is_zero()
