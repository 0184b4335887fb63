"""Channel matrices, the monomial basis with its values, Theorem 1's input
distribution W_N, and the finite independence checker.

A channel is a K x K matrix of exact scalars. "Generic" entries are fresh
generators (algebraically independent stand-ins), named h_<i>_<j> with
1-based indices. W_N and the certified bounds build on monomials in the
K(K-1) off-diagonal positions, substituting whatever each position actually
holds (a generator, a rational, or a polynomial). `monomial_basis` forms
that basis one monomial at a time, each value from one of the degree below,
so the checker forms none after its first dependent column.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .dist import DEFAULT_ATOM_BUDGET, DiscreteDist, linear_combination, uniform_on
from .errors import BudgetExceededError, ParseError, ValidationError
from .linalg import first_relations
from .scalar import (
    ONE, ExactScalar, Monomial, MONO_ONE, as_scalar, decimal, exact_str, mono_str)


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
    shown = formula if limit and 3 * floor_bits >= 10 * limit else decimal(N**count, formula)
    raise BudgetExceededError(f"alphabet would hold {shown} values, over the budget of {budget}")


def monomial_basis(H: ChannelMatrix, d: int) -> Iterator[tuple[Monomial, ExactScalar]]:
    """Each monomial of degree <= d in the off-diagonal positions with its
    value at H, ordered by degree and then lexicographically over the sorted
    position names; the constant comes first. A degree is grown from the one
    below: each kept monomial is extended by every generator at or after its
    last, whose exponent grows or which is appended, and its value is the
    kept value times that generator's entry. Each pair is formed as it is
    read, and only two degrees are kept. `evaluate_monomial`, which forms a
    value from the entries alone, is its oracle and re-substitutes witnesses."""
    if d < 0:
        raise ValidationError(f"need d >= 0, got {d}")
    names = sorted(
        off_diagonal_name(i, j)
        for i in range(1, H.K + 1)
        for j in range(1, H.K + 1)
        if i != j
    )
    entries = [H.entry(i - 1, j - 1) for i, j in map(_position_of, names)]
    yield MONO_ONE, ONE
    layer = [(MONO_ONE, ONE, 0)]
    for degree in range(1, d + 1):
        kept, layer = layer, []
        for (_, pairs), value, last in kept:
            for g in range(last, len(names)):
                if g == last and pairs:
                    *rest, (name, exp) = pairs
                    mono = (degree, (*rest, (name, exp + 1)))
                else:
                    mono = (degree, (*pairs, (names[g], 1)))
                grown = value * entries[g]
                layer.append((mono, grown, g))
                yield mono, grown


def build_wn(
    H: ChannelMatrix, d: int, N: int, budget: int = DEFAULT_ATOM_BUDGET
) -> DiscreteDist:
    """Theorem 1's input W_N = sum_f a_f f(H) over the degree-<=d basis, the
    a_f i.i.d. uniform on {1..N}: a `linear_combination`, so a value that k of
    the N^phi(K,d) coefficient vectors reach has probability k / N^phi(K,d).
    Generic entries reach each value once; callers decide whether a collapse
    is an error. The N^phi(K,d) values and the phi(K,d) basis monomials are
    counted against the budget before the basis is formed, and each
    convolution step is then refused as `convolve` refuses it.
    """
    if N < 1:
        raise ValidationError(f"need N >= 1, got {N}")
    count = phi(H.K, d)
    alphabet_size(count, N, budget)
    if count > budget:  # only reachable at N = 1, where the alphabet has one value
        raise BudgetExceededError(
            f"alphabet basis would hold {decimal(count, f'phi({H.K}, {d})')} monomials, "
            f"over the budget of {budget}"
        )
    coefficient = uniform_on(range(1, N + 1))
    values = [value for _, value in monomial_basis(H, d)]
    return linear_combination(values, [coefficient] * count, budget=budget)


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
            "coefficient": exact_str(self.coefficient),
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
    {h_ii * f : deg f <= d}: distinct monomials in the off-diagonal entries
    and h_ii, evaluated at H. `_jacobian_certificate` proves a user at every
    degree when the Jacobian of those entries has full rank at one point. A
    rank drop proves nothing, and the user is eliminated: each member is a
    column, its coefficients over the concrete generator monomials, and
    `linalg.first_relations` finds the first column that depends on the ones
    before it, which decides dependence with any rational coefficients, what
    integer combinations reduce to after clearing denominators. The
    degree-<=(d+1) basis is shared by every user: its columns are evaluated
    and reduced once per call, and each user's diagonal multiples are then
    reduced on their pivots. It is graded with the constant first, so the
    degree-<=d basis is its first phi(K, d) values, kept for those multiples.
    Monomials and their columns are formed one at a time as they are reduced,
    and none after the first dependent one. That column's relation is the
    integer witness, tagged by family, so a report shows whether the plain
    monomials or the diagonal multiples collapsed; `verify_witness`
    re-substitutes it from H before it is reported.

    The phi(K, d+1) + phi(K, d) columns are counted against the budget before
    the certificate runs or the first monomial is formed, so a refusal
    does not depend on which path would decide the check.
    """
    if d < 0:
        raise ValidationError(f"need d >= 0, got {d}")
    n, lo = phi(H.K, d + 1), phi(H.K, d)
    if n + lo > budget:
        shown = decimal(n + lo, f"phi({H.K}, {decimal(d + 1)}) + phi({H.K}, {d})")
        raise BudgetExceededError(
            f"independence check needs {shown} family columns, over the budget of {budget}"
        )
    users = [i for i, proved in enumerate(_jacobian_certificate(H)) if not proved]
    if not users:
        return ConditionStarReport("holds-up-to-bound", d)
    monos, prefix = [], []

    def values():
        # the witness names the monomials read so far; the degree-<=d values
        # are kept for the diagonal multiples, which are read only once every
        # value has been reduced
        for mono, value in monomial_basis(H, d + 1):
            if len(monos) < lo:
                prefix.append(value)
            monos.append(mono)
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


def _jacobian_certificate(H: ChannelMatrix) -> list[bool]:
    """Per user i, whether the Jacobian of the K(K-1) off-diagonal entries
    and h_ii has full rank at the all-ones point.

    Full rank at one rational point makes those polynomials algebraically
    independent over Q (the Jacobian criterion; Beecken, Mittmann and
    Saxena, Inf. Comput. 2013), so distinct monomials in them, i's family
    members, are linearly independent at every degree. At that point the
    gradient of c x^e is c e, so single terms reduce their exponent vectors.
    The off-diagonal gradients are shared by every user, so they are reduced
    once, and each gradient of h_ii on their pivots.
    """
    gradients = [[_gradient_at_ones(x) for x in row] for row in H.entries]
    off = (g for j, row in enumerate(gradients) for k, g in enumerate(row) if j != k)
    return [relation is None for relation in first_relations(
        off, ([gradients[i][i]] for i in range(H.K)))]


def _gradient_at_ones(value: ExactScalar) -> dict:
    """The gradient where every generator is 1: c e summed over terms c x^e."""
    gradient: dict = {}
    for (_, pairs), coeff in value.terms():
        for gen, exp in pairs:
            gradient[gen] = gradient.get(gen, 0) + coeff * exp
    return {gen: v for gen, v in gradient.items() if v}


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
