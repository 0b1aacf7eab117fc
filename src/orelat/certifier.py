"""Linear-primitivity certificates assembled from the published reduction rules.

Two kinds of input are certified, all through `certify`:

* concrete intervals, where the dual totient is honestly computable: a
  distributive `IndexedInterval` (a group interval among them) is reduced
  by `boolean_between` to the label vector of its bottom interval, and a
  `BooleanInterval` is taken as is.  The boolean rules and
  `chain_types` read label vectors only; and

* abstract scenarios (`IndexedModel`): a hypothetical boolean interval known
  only by rank and total index.  Here the analysis enumerates the chain
  types that are arithmetically possible and certifies each, mirroring the
  published case analysis; types that no rule covers are reported as the
  undecided frontier; past `MAX_CHAIN_TYPES` types, CapExceeded.

The module stands on labels and integers alone (it imports `lattice`,
`totients` and `errors`); its primality test is exact below 3.3·10²⁴ and
trial divides up to 10⁶ above, enough for every chain-type entry.

Certificates record every applied rule with its numeric evidence so a
verdict can be re-checked independently.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice
from math import gcd, prod
from operator import index
from typing import NamedTuple, Optional, Sequence, Union

from . import lattice as lat
from . import totients as tt
from .errors import CapExceeded, InvalidParameters, NotDistributive
from .totients import BooleanInterval, IndexedInterval, integer_labels

ALLSPLIT_PRODUCT_LIMIT = 32
FORBIDDEN_EDGE = 7
# the most chain types `factorizations` lists (14 MB at rank 8); 6^12 has 23,955 of rank 8
MAX_CHAIN_TYPES = 100_000


@dataclass
class CertStep:
    rule: str
    description: str
    evidence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"rule": self.rule, "description": self.description, "evidence": self.evidence}


@dataclass
class Certificate:
    verdict: str
    steps: list
    frontier: list = field(default_factory=list)

    @property
    def is_primitive(self) -> bool:
        return self.verdict == "primitive"

    def rules_fired(self) -> list:
        return [s.rule for s in self.steps]

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "steps": [s.to_dict() for s in self.steps],
                "frontier": [list(t) for t in self.frontier]}


@dataclass(frozen=True)
class IndexedModel:
    """Abstract scenario: a boolean interval of this rank and total index."""

    rank: int
    index: int

    def __post_init__(self):
        rank, index = integer_labels((self.rank, self.index), "rank and index")
        # a frozen dataclass: the exact ints replace the fields once, here
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "index", index)
        if self.rank < 1 or self.index < 2:
            raise InvalidParameters("need rank >= 1 and index >= 2")
        if self.index.bit_length() <= self.rank:
            raise InvalidParameters(f"index {self.index} is below 2^{self.rank}, the least index "
                                    f"of a boolean interval of rank {self.rank}")


# -- chain types and factor enumeration --------------------------------------


def chain_types(model: BooleanInterval) -> set:
    """Distinct multisets of cover indices over all maximal chains.

    A dynamic program over subsets: the types of the chains from the bottom
    to a mask s extend those to s minus one bit by the edge into s.
    """
    tt._require(model, BooleanInterval, "chain_types")
    idx = model.idx
    types = [{()}]
    for s in range(1, len(idx)):
        here = set()
        rest = s
        while rest:
            bit = rest & -rest
            rest ^= bit
            edge = idx[s ^ bit] // idx[s]
            here.update(tuple(sorted(t + (edge,))) for t in types[s ^ bit])
        types.append(here)
    return types[-1]


def factorizations(number: int, parts: int, min_factor: int = 3) -> list:
    """All nondecreasing tuples of `parts` integers >= min_factor multiplying to number, ascending.

    A depth-first walk on an explicit stack, so the number of parts is not
    bounded by the interpreter's recursion limit.  Each node is (remaining,
    lowest next factor, factors so far); a node with one factor to go
    appends its tuple, and the children of any other are pushed largest
    factor first, so they are popped in ascending order.  A node's
    candidates f, with f ** count <= remaining, are the sorted divisors of
    `number` built from the primes found so far: trial division of the
    unfactored cofactor, by 2 and the odd numbers, goes on only up to that
    count-th root, so no node counts further than its own candidates reach.
    A cofactor that `_miller_rabin` finds prime is taken as the next
    divisor at once, so a large prime factor costs no trial division.
    Trial division stops at `_TRIAL_DIVISION_LIMIT`: a node that needs
    more splits a composite cofactor below `_MR_LIMIT` into its primes by
    `_rho_primes`, and raises CapExceeded naming a cofactor past it, where
    the primality test is not exact.  It raises CapExceeded as well before
    the list passes `MAX_CHAIN_TYPES` tuples.
    """
    number, parts, min_factor = integer_labels((number, parts, min_factor), "number, parts and min_factor")
    if number < 1 or parts < 1 or min_factor < 2:
        raise InvalidParameters("need number >= 1, parts >= 1 and min_factor >= 2")
    divisors, cofactor, p = [1], number, 2
    prime = cofactor < _MR_LIMIT and _miller_rabin(cofactor)
    result: list = []
    stack = [(number, min_factor, ())]
    while stack:
        remaining, lowest, acc = stack.pop()
        count = parts - len(acc)
        if count == 1:
            # the last factor is what remains
            if remaining >= lowest:
                if len(result) == MAX_CHAIN_TYPES:
                    raise CapExceeded(f"the index {number} has more than {MAX_CHAIN_TYPES:,} "
                                      f"chain types of {parts} entries")
                result.append(acc + (remaining,))
            continue
        # every prime factor of a candidate is at most its count-th root
        while cofactor > 1 and _power_at_most(p, count, remaining):
            if prime or p * p > cofactor:
                p = cofactor
            elif p > _TRIAL_DIVISION_LIMIT:
                if cofactor >= _MR_LIMIT:
                    raise CapExceeded(
                        f"the cofactor {cofactor} of the index has no prime factor up to "
                        f"{_TRIAL_DIVISION_LIMIT:,} and is past the exact primality test's bound"
                    )
                # a composite cofactor: take all of its primes at once, which leaves it 1
                for f in set(_rho_primes(cofactor)):
                    divisors, cofactor = _divide_out(divisors, cofactor, f)
                break
            if cofactor % p == 0:
                divisors, cofactor = _divide_out(divisors, cofactor, p)
                prime = cofactor < _MR_LIMIT and _miller_rabin(cofactor)
            p += 2 if p > 2 else 1
        children = []
        for f in islice(divisors, bisect_left(divisors, lowest), None):
            if not _power_at_most(f, count, remaining):
                break
            if remaining % f == 0:
                children.append((remaining // f, f, acc + (f,)))
        stack.extend(reversed(children))
    return result


def _power_at_most(base: int, exponent: int, bound: int) -> bool:
    """base ** exponent <= bound, for base >= 2, never forming a power of more than twice bound's bits.

    base ** exponent >= 2 ** ((bit length of base - 1) * exponent), so a
    product of bit counts past bound's settles it before the power is taken.
    """
    return (base.bit_length() - 1) * exponent < bound.bit_length() and base ** exponent <= bound


def _divide_out(divisors: list, cofactor: int, f: int) -> tuple:
    """The sorted divisors times every power of the prime f in cofactor, and cofactor without f."""
    powers = [1]
    while cofactor % f == 0:
        cofactor //= f
        powers.append(powers[-1] * f)
    return sorted(d * q for d in divisors for q in powers), cofactor


def factor_products(limit: int, min_factor: int, min_count: int) -> list:
    """Numbers below `limit` that factor into >= min_count integers >= min_factor.

    Returns (number, {parts: [factorizations]}) entries, covering every
    admissible number of parts, sorted by number: one walk over the
    nondecreasing tuples that can still reach `min_count` factors below
    `limit` records each one that has.
    """
    limit, min_factor, min_count = integer_labels((limit, min_factor, min_count), "limit, min_factor and min_count")
    if min_factor < 2 or min_count < 1:
        raise InvalidParameters("need min_factor >= 2 and min_count >= 1")
    per_number: dict = {}
    stack = [(1, min_factor, ())]
    while stack:
        product, lowest, acc = stack.pop()
        if len(acc) >= min_count:
            per_number.setdefault(product, {}).setdefault(len(acc), []).append(acc)
        need = max(min_count - len(acc), 1)
        f = lowest
        while _power_at_most(f, need, (limit - 1) // product):
            stack.append((product * f, f, acc + (f,)))
            f += 1
    return [(number, {k: sorted(v) for k, v in sorted(per_number[number].items())})
            for number in sorted(per_number)]


# -- per-chain-type rules -----------------------------------------------------


def allsplit_small_ok(chain_type: Sequence[int]) -> bool:
    """Every product of two distinct edges below the census limit, no edge 7."""
    if FORBIDDEN_EDGE in chain_type:
        return False
    return all(u * v < ALLSPLIT_PRODUCT_LIMIT for u, v in combinations(chain_type, 2))


def _extended_allsplit_ok(chain_type: Sequence[int]) -> bool:
    """Small-products propagation extended through repeated-edge squares.

    A pair at or above the census limit is tolerated only when it is a
    repeated value s whose square has no other two-factor decomposition
    inside the edge values of the type; this follows the published case
    argument for types like (p, ..., p, s, s).
    """
    if FORBIDDEN_EDGE in chain_type:
        return False
    values = set(chain_type)
    for u, v in combinations(chain_type, 2):
        if u * v < ALLSPLIT_PRODUCT_LIMIT:
            continue
        if u != v:
            return False
        square = u * u
        for c in values:
            if square % c == 0 and square // c in values and {c, square // c} != {u}:
                return False
    return True


def _single_divergent_shape(key: Sequence[int]) -> Optional[tuple]:
    """(p, q) when the sorted type is (p, ..., p, q) with q > p, else None."""
    if len(key) >= 2 and key[0] == key[-2] < key[-1]:
        return key[0], key[-1]
    return None


class ScanResult(NamedTuple):
    minimum: int
    bound: int
    passed: bool


_BOUNDS_MEMO: dict = {}


def _leaf_bounds(key: tuple) -> Optional[tuple]:
    """(min, max) of a sorted chain type that needs no sub-type, else None.

    A type (p, ..., p, q) with q > p ranges over the closed form at the
    coatom counts m = 1..n (m = 0 would force every edge to p and
    contradict the divergent entry).  The closed form is
    (p-1)^n + (q-p)/p * [(p-1)^n - (-1)^m (p-1)^(n-m)], and (p-1)^(n-m)
    does not grow with m, so the bracket is largest at the least odd m, 1,
    and smallest at the least even m, 2 (at 1 when n = 1).  Only those two
    counts are evaluated.
    """
    if len(key) == 0:
        return (1, 1)
    n = len(key)
    if key[0] == key[-1]:
        v = (key[0] - 1) ** n
        return (v, v)
    shape = _single_divergent_shape(key)
    if shape is None:
        return None
    return (tt.closed_form_p_n_q(*shape, n, min(n, 2)), tt.closed_form_p_n_q(*shape, n, 1))


def _phihat_bounds(chain_type: tuple) -> tuple:
    """(min, max) of the dual totient over every recursion branch.

    Implements the iterative coatom method: remove a coatom of maximal
    relative index c, evaluate the lower interval by the (p, ..., p, q)
    formula over every admissible coatom count, and branch on the relative
    index of the complementary atom, recursing where needed.  The branch
    values are enumerated as an independent cross product, which can only
    widen the interval, so the minimum is a valid lower bound for every
    interval whose maximal chains all have this type.

    The sub-types are walked with an explicit stack, not by recursion, so
    a long chain type gets its bounds whatever the caller's stack depth: a
    type is taken off the stack once the bounds of its sub-types are in
    `_BOUNDS_MEMO`.
    """
    wanted = tuple(sorted(chain_type))
    stack = [wanted]
    while stack:
        key = stack[-1]
        if key in _BOUNDS_MEMO:
            stack.pop()
            continue
        result = _leaf_bounds(key)
        if result is None:
            c = key[-1]
            rest = key[:-1]
            # one sub-type per smaller value v, cut at v's first index
            subs = [key[:i] + key[i + 1:] for i, v in enumerate(key)
                    if v != c and (i == 0 or key[i - 1] != v)]
            missing = [k for k in [rest] + subs if k not in _BOUNDS_MEMO]
            if missing:
                stack += missing
                continue
            x_lo, x_hi = _BOUNDS_MEMO[rest]
            lows = [(c - 1) * x_lo]
            highs = [(c - 1) * x_hi]
            for sub in subs:
                y_lo, y_hi = _BOUNDS_MEMO[sub]
                lows.append(c * x_lo - y_hi)
                highs.append(c * x_hi - y_lo)
            result = (min(lows), max(highs))
        _BOUNDS_MEMO[key] = result
        stack.pop()
    return _BOUNDS_MEMO[wanted]


def lemma_check_scan(a: int, b: int, c: int, n: int) -> ScanResult:
    """Iterative minimum of the dual totient for chains of type (a^n, b, c).

    Enumerates the coatom recursion with every admissible coatom count and
    all three atom branches, and compares the minimum against (a-1)^(n+2).
    """
    try:  # read directly, not by `integer_labels`: the lemma-check suite calls this 1,320 times
        a, b, c, n = index(a), index(b), index(c), index(n)
    except TypeError:
        raise InvalidParameters("a, b, c and n must be integers") from None
    if not (3 <= a <= b <= c <= 12) or not (1 <= n <= 6):
        raise InvalidParameters("need 3 <= a <= b <= c <= 12 and 1 <= n <= 6")
    chain_type = (a,) * n + (b, c)
    lo, _ = _phihat_bounds(chain_type)
    bound = (a - 1) ** (n + 2)
    return ScanResult(lo, bound, lo >= bound)


# -- the certifying pipeline --------------------------------------------------


def certify(obj: Union[IndexedInterval, BooleanInterval, IndexedModel]) -> Certificate:
    """Decide linear primitivity by chaining the reduction rules."""
    if isinstance(obj, IndexedModel):
        return _certify_scenario(obj)
    if isinstance(obj, BooleanInterval):
        return _certify_boolean(obj, [])
    if not lat.is_distributive(obj.lattice):
        raise NotDistributive("certification requires a distributive interval")
    return certify_above(obj, obj.lattice.bottom)


def certify_above(model: IndexedInterval, a: int) -> Certificate:
    """The rule chain on the distributive interval [a, top] of a concrete model.

    R1 reduces it to [a, join of its atoms], where the boolean rules decide.
    """
    lattice = model.lattice
    steps: list = []
    bottom_join = lat.covers_join(lattice, a)
    work = tt.boolean_between(model, a, bottom_join)
    if bottom_join != lattice.top:
        steps.append(CertStep(
            "R1-bottom-interval",
            "reduced to the boolean interval generated by the atoms",
            {"index": work.total_index},
        ))
    return _certify_boolean(work, steps)


def _certify_boolean(model: BooleanInterval, steps: list) -> Certificate:
    rank = model.n
    if rank <= 1:
        steps.append(CertStep(
            "R2-rank-one", "rank at most one: the base is maximal", {"rank": rank}))
        return Certificate("primitive", steps)
    # the reciprocal atom index sum is numerator / product, a Fraction only in evidence
    indices = [model.below_index(a) for a in model.atoms()]
    product = prod(indices)
    numerator = sum(product // a for a in indices)
    if numerator <= 2 * product:
        if numerator <= product:
            rule, description = "R3-reciprocal-sum-1", "sum of reciprocal atom indices is at most 1"
        else:
            rule, description = "R4-reciprocal-sum-2", "distributive with reciprocal atom index sum at most 2"
        steps.append(CertStep(rule, description, {"sum": str(Fraction(numerator, product))}))
        return Certificate("primitive", steps)
    reduction = _index_two_reduction(model, steps)
    if reduction is not None:
        return reduction
    if rank < 7:
        steps.append(CertStep(
            "R6-rank-below-seven", "boolean of rank below seven", {"rank": rank}))
        return Certificate("primitive", steps)
    phihat = tt.dual_totient(model)
    if phihat != 0:
        steps.append(CertStep(
            "R7-dual-totient", "nonzero dual Euler totient", {"phihat": phihat}))
        return Certificate("primitive", steps)
    steps.append(CertStep(
        "R7-dual-totient", "dual Euler totient vanishes; falling back to chain types",
        {"phihat": 0}))
    types = sorted(chain_types(model))
    return _certify_types(model.total_index, rank, types, steps, exact_types=True)


def _index_two_reduction(model: BooleanInterval, steps: list) -> Optional[Certificate]:
    """Recurse through an index-2 atom complement or an index-2 coatom, atoms first."""
    faces = [(model.top ^ a, "atom_index", "an atom of relative index 2: primitivity lifts from the complement face")
             for a in model.atoms() if model.below_index(a) == 2]
    faces += [(co, "coatom_index", "an index-2 coatom: primitivity extends from the coatom interval")
              for co in model.coatoms() if model.idx[co] == 2]
    for top, key, description in faces:
        inner = _certify_boolean(model.sub(0, top), [])
        if inner.is_primitive:
            steps.append(CertStep("R5-index-two-reduction", description,
                                  {key: 2, "sub_steps": [s.to_dict() for s in inner.steps]}))
            return Certificate("primitive", steps)
    return None


def _certify_scenario(scenario: IndexedModel) -> Certificate:
    """Walk the R5 halvings down to an odd index or rank below 7, then fold the verdicts back up.

    A cap met on a halving is raised again naming the scenario given, with
    the halving as a detail.
    """
    chain = [scenario]
    while chain[-1].rank >= 7 and chain[-1].index % 2 == 0:
        chain.append(IndexedModel(chain[-1].rank - 1, chain[-1].index // 2))
    inner = None
    for model in reversed(chain):
        try:
            inner = _scenario_step(model, inner)
        except CapExceeded as exc:
            if model is scenario:
                raise
            raise CapExceeded(
                f"the scenario of rank {scenario.rank} and index {scenario.index} was not certified: "
                f"at its R5 halving to rank {model.rank}, {exc}"
            ) from None
    return inner


def _scenario_step(scenario: IndexedModel, halved: Optional[Certificate]) -> Certificate:
    """The certificate of one scenario, given that of its R5 halving when it has one."""
    steps: list = []
    if scenario.rank < 7:
        steps.append(CertStep(
            "R6-rank-below-seven", "boolean of rank below seven", {"rank": scenario.rank}))
        return Certificate("primitive", steps)
    if halved is not None:
        steps.append(CertStep(
            "R5-index-two-reduction",
            "if any edge has index 2, an index-2 coatom exists and the smaller interval decides",
            {"reduced_rank": scenario.rank - 1, "reduced_index": scenario.index // 2,
             "reduced_verdict": halved.verdict},
        ))
        if not halved.is_primitive:
            return Certificate("undecided", steps, halved.frontier)
    possible = factorizations(scenario.index, scenario.rank, min_factor=3)
    if not possible:
        steps.append(CertStep("R8-chain-type-analysis",
                              "no chain type without index-2 edges is arithmetically possible", {"possible_types": []}))
        return Certificate("primitive", steps)
    return _certify_types(scenario.index, scenario.rank, possible, steps, exact_types=False)


def _certify_types(index: int, rank: int, possible: Sequence[tuple], steps: list,
                   exact_types: bool) -> Certificate:
    """Cover every possible chain type by a rule, or report the frontier.

    `exact_types` marks concrete inputs whose chain-type set was computed
    rather than enumerated arithmetically; there a single covered type
    already decides, because a chain of it certainly exists.
    """
    covered: dict = {}
    for t in possible:
        evidence = {"type": list(t), "product": prod(e - 1 for e in t)}
        if allsplit_small_ok(t):
            covered[t] = CertStep("R8-allsplit-small",
                                  "a chain of this type makes every atom split: product formula applies", evidence)
        elif _extended_allsplit_ok(t):
            covered[t] = CertStep("R8-allsplit-extended",
                                  "repeated-edge square with no alternative decomposition among the type's edge "
                                  "values; split propagation per the published case argument", evidence)
    if exact_types and covered:
        t = next(t for t in possible if t in covered)
        steps.append(covered[t])
        steps.append(CertStep(
            "R8-chain-type-analysis",
            "a maximal chain of a covered type exists in the computed type set",
            {"type": list(t)},
        ))
        return Certificate("primitive", steps)
    steps.extend(covered[t] for t in possible if t in covered)
    uncovered = [t for t in possible if t not in covered]
    if not uncovered:
        steps.append(CertStep(
            "R8-chain-type-analysis",
            "every possible chain type is covered by a split rule",
            {"possible_types": [list(t) for t in possible]},
        ))
        return Certificate("primitive", steps)
    if len(uncovered) > 1:
        excluded = _trusted_two_case(index, rank, uncovered, steps)
        if excluded is not None:
            uncovered = excluded
    if len(uncovered) == 1:
        t = uncovered[0]
        forced = _forced_type_step(t)
        if forced is not None:
            steps.append(CertStep(
                "R8-forced-type",
                "if no covered chain type occurs, every maximal chain has the one "
                "remaining type",
                {"type": list(t)},
            ))
            steps.append(forced)
            return Certificate("primitive", steps)
        steps.append(CertStep(
            "R8-chain-type-analysis",
            "the single remaining chain type escapes every totient bound",
            {"type": list(t)},
        ))
        return Certificate("undecided", steps, [t])
    steps.append(CertStep(
        "R8-chain-type-analysis",
        "several chain types stay uncovered and may coexist; no rule concludes",
        {"uncovered": [list(t) for t in uncovered]},
    ))
    return Certificate("undecided", steps, sorted(uncovered))


def _trusted_two_case(index: int, rank: int, uncovered: Sequence[tuple], steps: list) -> Optional[list]:
    """The published case argument for indices of shape p^(rank-1) * q.

    When the uniform-with-one-composite type (p, ..., p, q) is possible and
    every other uncovered type avoids q, the published analysis asserts that
    without a split-covered chain the composite q must appear in every
    maximal chain; the q-free types are then excluded.  Recorded as a
    trusted step.
    """
    for t in uncovered:
        shape = _single_divergent_shape(t)
        if shape is None:
            continue
        p, q = shape
        if p ** (rank - 1) * q != index or _is_prime(q) or not _is_prime(p):
            continue
        others = [u for u in uncovered if u != t]
        if all(q not in u for u in others):
            steps.append(CertStep(
                "R8-trusted-two-case",
                "published case analysis: with no split-covered chain, the composite "
                "top index must appear in every maximal chain; q-free types excluded",
                {"kept": list(t), "excluded": [list(u) for u in others], "q": q},
            ))
            return [t]
    return None


def _forced_type_step(chain_type: tuple) -> Optional[CertStep]:
    """A totient bound valid when every maximal chain has this exact type.

    The bound is `_phihat_bounds`' minimum; the rule named is the one its
    shape was evaluated by.
    """
    lo, _ = _phihat_bounds(chain_type)
    if lo <= 0:
        return None
    if len(set(chain_type)) == 1:
        return CertStep("R8-uniform-type", "all edges share one index: dual totient is (p-1)^n",
                        {"type": list(chain_type), "phihat": lo})
    shape = _single_divergent_shape(chain_type)
    if shape is not None:
        p, q = shape
        return CertStep(
            "R8-single-divergent-type",
            "type (p, ..., p, q): the closed formula is positive for every "
            "admissible coatom count",
            {"type": list(chain_type), "p": p, "q": q, "minimum": lo},
        )
    return CertStep("R8-iterative-bound", "coatom recursion over every branch keeps the dual totient positive",
                    {"type": list(chain_type), "minimum": str(lo)})


# Miller–Rabin to the first 13 prime bases decides primality exactly below
# _MR_LIMIT, the least strong pseudoprime to all of them (Sorenson and Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
# the largest trial divisor `factorizations` and `_is_prime` try past _MR_LIMIT;
# counting up to it takes about 0.2 s on x86-64
_TRIAL_DIVISION_LIMIT = 10 ** 6


def _miller_rabin(n: int) -> bool:
    """Whether n < _MR_LIMIT is prime: n is a strong probable prime to every base of `_MR_BASES`."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d · 2^r with d odd
    d = (n - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Brent's rho: the polynomials x^2 + c tried in turn, and the most steps it
# takes over one cofactor.  It finds a prime factor f once its rounds outgrow
# the tail and the cycle of x^2 + c mod f, each about 0.63 sqrt(f) long on
# average.  Below _MR_LIMIT the least prime factor of a composite is under
# 1.9e12, so rounds up to 2^23 steps, about 6 sqrt(f), leave a wide margin.
_RHO_CONSTANTS = (1, 3, 5, 7)
_RHO_STEP_CAP = 1 << 25
_RHO_BATCH = 128


def _rho_primes(n: int) -> tuple:
    """The prime factors of a composite n < _MR_LIMIT with multiplicity, ascending, by Brent's rho.

    Each part is kept once `_miller_rabin`, exact below the bound, calls it
    prime, and split again otherwise.  The steps over all parts are counted,
    and CapExceeded is raised before a round would pass `_RHO_STEP_CAP`.  R. P. Brent,
    "An improved Monte Carlo factorization algorithm", BIT 20 (1980).
    """
    primes, composites, steps = [], [n], 0
    while composites:
        m = composites.pop()
        for c in _RHO_CONSTANTS:
            # y runs x -> x^2 + c mod m; x is y at the last power of two, and
            # the differences x - y are multiplied up and checked _RHO_BATCH at a time
            y, r, product, g = 2, 1, 1, 1
            while g == 1:
                # a round of r steps, then r more that multiply the differences
                steps += 2 * r
                if steps > _RHO_STEP_CAP:
                    raise CapExceeded(f"Brent's rho found no factor of the cofactor {n} "
                                      f"of the index in {_RHO_STEP_CAP:,} steps")
                x = y
                for _ in range(r):
                    y = (y * y + c) % m
                k = 0
                while k < r and g == 1:
                    saved = y
                    for _ in range(min(_RHO_BATCH, r - k)):
                        y = (y * y + c) % m
                        product = product * (x - y) % m
                    g = gcd(product, m)
                    k += _RHO_BATCH
                r *= 2
            if g == m:
                # the batch overshot: step through it again one difference at a time
                g = 1
                while g == 1:
                    saved = (saved * saved + c) % m
                    g = gcd(x - saved, m)
            if g != m:
                break
        else:
            raise CapExceeded(f"Brent's rho found no factor of the cofactor {n} of the index")
        for part in (g, m // g):
            if _miller_rabin(part):
                primes.append(part)
            else:
                composites.append(part)
    return tuple(sorted(primes))


def _is_prime(n: int) -> bool:
    """Miller–Rabin below `_MR_LIMIT`, trial division up to 10⁶ above it, else CapExceeded.

    No chain-type entry from `factorizations` raises: each prime above 10⁶
    there comes from a cofactor below `_MR_LIMIT` (it raises CapExceeded on
    a larger one), so an entry at or above `_MR_LIMIT` has a prime factor
    of at most 10⁶.
    """
    if n < _MR_LIMIT:
        return _miller_rabin(n)
    if any(n % p == 0 for p in range(2, _TRIAL_DIVISION_LIMIT + 1)):
        return False
    raise CapExceeded(f"{n} has no prime factor up to {_TRIAL_DIVISION_LIMIT:,} "
                      f"and is past the exact primality test's bound")
