"""Labelled models of intervals, and their Euler and dual Euler totients.

All arithmetic is on Python integers; the alternating sums cancel
catastrophically in floating point.  Both kinds of labelled model live
here, their labels checked by one `_check_labels`; each routine takes one:

* a boolean interval is a label vector indexed by atom bitmask
  (`BooleanInterval`).  `dual_totient_coatom_split` (whose coatom is a
  mask), `dual_totient_allsplit` and `certifier.chain_types` take nothing
  else.  Synthetic index models are built in that form directly, as
  Kronecker products of cached factors (one per block, one uniform factor
  for the free atoms), each spread in one pass by a cached picker, so the
  closed formulas can be exercised without building any group or lattice.
* `IndexedInterval`, labels over a `FiniteLattice` read through the
  `lattice` functions, serves the intervals that are not boolean, an
  `intervals.GroupInterval` among them.  `boolean_between` and the two
  `*_distributive` extensions take nothing else; `boolean_between` is the
  one conversion to a label vector.

`dual_totient` and `euler_totient` take either.  A walk over a label vector
is a few C-level `map`/`sum`/`itemgetter` calls, with the sign (-1)^|s| of
every mask cached per rank.  A label vector keeps its signed labels
(-1)^|s| idx[s], built when first read; the dual totient is their sum, as
the top label is 1.  The first coatom split of a vector computes all n
splits in one fold of the signed labels, from the top bit down: the signed
labels with bit i clear sum to idx[L] phihat(H, L) for the coatom L without
bit i, those with bit i set to -phihat(A, G), and adding the two halves
elementwise folds bit i away.  So all n splits read about 4·2^n signed
labels, 2·2^n in the sums and as many in the elementwise adds, where
summing each split's two sub-intervals on their own reads n·2^n.  The
vector keeps the splits, and later calls read them.  Labels are read with
`operator.index`: a float, even an integral one, is refused, never
truncated.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from operator import add, floordiv, index, mul, or_
from typing import Callable, Iterable, Optional, Sequence, Union

from . import lattice as lat
from .errors import (
    InvalidParameters,
    NotACoatom,
    NotComparable,
    NotDistributive,
    NotGraded,
    SplitConditionFails,
)
from .perm import _picker


def integer_labels(values: Iterable, what: str = "labels") -> tuple:
    """`values` as a tuple of ints, read with `operator.index`.

    Ints and numpy integers pass.  A float, a string or a fraction is
    refused, even an integral one, where `int` would truncate or parse it.
    """
    try:
        return tuple(map(index, values))
    except TypeError:
        raise InvalidParameters(f"{what} must be integers") from None


def _check_labels(idx: tuple, top: int, covers: Iterable) -> None:
    """Refuse labels unless the top's is 1, all are positive and each is a proper multiple of its upper `covers`' labels."""
    if idx[top] != 1:
        raise InvalidParameters("the top element must have label 1")
    if min(idx) <= 0:
        raise InvalidParameters("labels must be positive")
    for v, upper in zip(idx, covers):
        if any(v % idx[y] or v == idx[y] for y in upper):
            raise InvalidParameters("labels must strictly divide downward along covers")


class IndexedInterval:
    """A graded-capable lattice with a positive integer label per element.

    For concrete intervals the label of K is the index |G:K|; synthetic
    models carry abstract labels.  Labels divide along the order: the top is
    1 and every cover strictly divides downward.
    """

    __slots__ = ("lattice", "idx")

    def __init__(self, lattice: lat.FiniteLattice, idx: Sequence[int]):
        idx = integer_labels(idx)
        if len(idx) != lattice.n:
            raise InvalidParameters("one label per lattice element is required")
        _check_labels(idx, lattice.top, (lat.upper_covers(lattice, x) for x in range(lattice.n)))
        self.lattice = lattice
        self.idx = idx

    @property
    def total_index(self) -> int:
        return self.idx[self.lattice.bottom]

    def __repr__(self) -> str:
        return f"IndexedInterval(n={self.lattice.n}, index={self.total_index})"


class BooleanInterval:
    """A boolean interval of rank n as a label vector indexed by atom bitmask.

    Mask s stands for the join of the atoms whose bits are set: 0 is the
    bottom, 2**n - 1 the top, the rank of s is its popcount and the covers
    are s -> s | bit.  The labels obey the rules of `IndexedInterval`, which
    are checked once here.  `ids` holds, for an interval converted from a
    concrete lattice and for its sub-intervals, the source element id of
    every mask; it is None when the masks are the ids themselves.
    """

    __slots__ = ("n", "idx", "ids", "_signed", "_splits")

    def __init__(self, n: int, labels: Sequence[int], ids: Optional[Sequence[int]] = None):
        n, *idx = integer_labels(chain((n,), labels), "the rank and the labels")
        idx = tuple(idx)
        if n < 0 or len(idx) != 1 << n:
            raise InvalidParameters("one label per atom bitmask is required")
        _check_labels(idx, len(idx) - 1, ([s | 1 << i for i in range(n) if not s >> i & 1] for s in range(len(idx))))
        self._set(n, idx, ids)

    @classmethod
    def _trusted(cls, n: int, idx: tuple, ids=None) -> BooleanInterval:
        """An interval on labels that are valid by construction, built without the checks."""
        interval = cls.__new__(cls)
        interval._set(n, idx, ids)
        return interval

    def _set(self, n: int, idx: tuple, ids) -> None:
        self.n = n
        self.idx = idx
        self.ids = None if ids is None else tuple(ids)
        self._signed = None
        self._splits = None

    def signed(self) -> tuple:
        """(-1)^|s| idx[s] for every mask s, built once."""
        if self._signed is None:
            self._signed = tuple(map(mul, self.idx, _signs(self.n)))
        return self._signed

    def coatom_splits(self) -> tuple:
        """idx[L] phihat(H, L) - phihat(A, G) for the coatom L = top ^ (1 << i), by i; built once.

        One fold of the signed labels from the top bit down: at bit i the
        current vector's lower half (bit i clear) sums to idx[L] phihat(H, L)
        and its upper half to -phihat(A, G), and the elementwise sum of the
        halves, over the bits below i, is the vector for the next bit.  The
        halves are summed apart, so a split equals the direct sum only if
        the fold visits every label once.
        """
        if self._splits is None:
            idx, top = self.idx, self.top
            folded = self.signed()
            splits = [0] * self.n
            for i in reversed(range(self.n)):
                half = 1 << i
                lower, upper = folded[:half], folded[half:]
                label = idx[top ^ half]
                # phihat(H, L) is lower's sum divided by idx[L], which divides each of its labels
                splits[i] = label * (sum(lower) // label) + sum(upper)
                if i:
                    folded = tuple(map(add, lower, upper))
            self._splits = tuple(splits)
        return self._splits

    @property
    def top(self) -> int:
        return len(self.idx) - 1

    @property
    def total_index(self) -> int:
        return self.idx[0]

    def below_index(self, x: int) -> int:
        """Relative index of x over the bottom element."""
        return self.idx[0] // self.idx[x]

    def element(self, mask: int) -> int:
        """The source element id of a mask."""
        return mask if self.ids is None else self.ids[mask]

    def atoms(self) -> list:
        """Atom masks in the source lattice's element order."""
        atoms = [1 << i for i in range(self.n)]  # ascending: the order when the masks are the ids
        return atoms if self.ids is None else sorted(atoms, key=self.ids.__getitem__)

    def coatoms(self) -> list:
        """Coatom masks in the source lattice's element order."""
        top = self.top
        coatoms = [top ^ (1 << i) for i in reversed(range(self.n))]  # ascending
        return coatoms if self.ids is None else sorted(coatoms, key=self.ids.__getitem__)

    def sub(self, a: int, b: int) -> BooleanInterval:
        """[a, b] on the bits of b & ~a, in order, relabelled relative to b."""
        if not 0 <= b <= self.top:
            raise NotComparable(f"mask {b} is outside [0, {self.top}]")
        # with b in range, a & ~b is zero only for a submask of b, which is in range too
        if a & ~b:
            raise NotComparable(f"{a} is not below {b}")
        masks = (a,)  # ordered by the bits of b & ~a from the lowest
        for i in lat.bits(b & ~a):
            masks += tuple(map(or_, masks, repeat(1 << i)))
        pick = _picker(masks)
        idx = self.idx
        ids = None if self.ids is None else pick(self.ids)
        # A sub-interval of validated labels is valid: skip the checks.
        return BooleanInterval._trusted((b & ~a).bit_count(), tuple(map(floordiv, pick(idx), repeat(idx[b]))), ids)

    def __repr__(self) -> str:
        return f"BooleanInterval(n={self.n}, index={self.total_index})"


@lru_cache(maxsize=16)
def _signs(n: int) -> tuple:
    """(-1)^|s| for every mask s of rank n."""
    signs = (1,)
    for _ in range(n):
        signs += tuple(map(mul, signs, repeat(-1)))
    return signs


def _require(model, kind: type, routine: str) -> None:
    """Refuse a model of another kind than the one `routine` takes."""
    if not isinstance(model, kind):
        raise InvalidParameters(f"{routine} takes a model of type {kind.__name__}, not {type(model).__name__}")


def from_group_interval(interval: IndexedInterval) -> IndexedInterval:
    """The labelled model of a group interval: the interval itself."""
    return interval


def boolean_between(model: IndexedInterval, a: int, b: int) -> BooleanInterval:
    """The interval [a, b] of a labelled lattice as a label vector relative to b.

    The masks follow `lattice.boolean_elements`: the atoms of [a, b], in
    ascending element id, are the bits, and `ids` maps each mask back to
    its element.  Raises NotBoolean unless [a, b] is boolean.
    """
    _require(model, IndexedInterval, "boolean_between")
    elems = lat.boolean_elements(model.lattice, a, b)
    base = model.idx[b]
    # labels of a checked model, relabelled over one of its intervals, are valid: skip the checks
    return BooleanInterval._trusted(len(elems).bit_length() - 1, tuple([model.idx[e] // base for e in elems]), elems)


def _require_graded(model: IndexedInterval) -> tuple:
    if not model.lattice.is_graded():
        raise NotGraded("totients are only defined on graded intervals")
    return model.lattice.ranks()


def dual_totient(model: Union[IndexedInterval, BooleanInterval]) -> int:
    """Alternating sum of labels, sign by rank above the bottom."""
    if isinstance(model, BooleanInterval):
        return sum(model.signed())
    ranks = _require_graded(model)
    return sum(
        (-1) ** ranks[x] * model.idx[x] for x in range(model.lattice.n)
    )


def euler_totient(model: Union[IndexedInterval, BooleanInterval]) -> int:
    """Alternating sum of indices over the bottom, sign by corank."""
    total = model.total_index
    if isinstance(model, BooleanInterval):
        result = sum(map(mul, _signs(model.n), map(floordiv, repeat(total), model.idx)))
        return -result if model.n & 1 else result
    ranks = _require_graded(model)
    height = model.lattice.height()
    result = 0
    for x in range(model.lattice.n):
        assert total % model.idx[x] == 0
        result += (-1) ** (height - ranks[x]) * (total // model.idx[x])
    return result


def euler_totient_distributive(model: IndexedInterval) -> int:
    """Totient of a distributive interval via its boolean top interval.

    Equals the direct sum when the interval is boolean, and counts the
    generating cosets in general (the direct alternating sum does not).
    """
    _require(model, IndexedInterval, "euler_totient_distributive")
    if not lat.is_distributive(model.lattice):
        raise NotDistributive("the top-interval extension needs a distributive lattice")
    t = lat.top_interval_base(model.lattice)
    factor = model.total_index // model.idx[t]
    return factor * euler_totient(boolean_between(model, t, model.lattice.top))


def dual_totient_distributive(model: IndexedInterval) -> int:
    """Dual totient of a distributive interval via its boolean bottom interval."""
    _require(model, IndexedInterval, "dual_totient_distributive")
    if not lat.is_distributive(model.lattice):
        raise NotDistributive("the bottom-interval extension needs a distributive lattice")
    b = lat.covers_join(model.lattice, model.lattice.bottom)
    return model.idx[b] * dual_totient(boolean_between(model, model.lattice.bottom, b))


def closed_form_p_n(p: int, n: int) -> int:
    """Dual totient of a rank-n boolean interval with every cover of index p."""
    p, n = integer_labels((p, n), "p and n")
    if p < 2 or n < 1:
        raise InvalidParameters("need p >= 2 and n >= 1")
    return (p - 1) ** n


def closed_form_p_n_q(p: int, q: int, n: int, m: int) -> int:
    """Dual totient at rank n when every maximal chain has type (p, ..., p, q).

    `m` counts the coatoms L of relative index q, i.e. with |G : L| = q; the
    value is (p-1)^n * [1 + ((q-p)/p) (1 - 1/(1-p)^m)], always a positive
    integer at least (p-1)^n.  In integers that is (p-1)^n plus
    (q-p) (-1)^m (p-1)^(n-m) ((1-p)^m - 1) / p, and p divides (1-p)^m - 1.
    """
    try:  # read directly, not by `integer_labels`: every model of the formulas grid comes here
        p, q, n, m = index(p), index(q), index(n), index(m)
    except TypeError:
        raise InvalidParameters("p, q, n and m must be integers") from None
    if not (2 <= p <= q) or n < 1 or not (0 <= m <= n):
        raise InvalidParameters("need 2 <= p <= q, n >= 1 and 0 <= m <= n")
    numerator = (q - p) * (-1) ** m * (p - 1) ** (n - m) * ((1 - p) ** m - 1)
    assert numerator % p == 0
    result = (p - 1) ** n + numerator // p
    assert result >= (p - 1) ** n
    return result


def closed_form_p_n_p2(p: int, n: int, m: int) -> int:
    """Dual totient at rank n and total index p^(n+1), for 1 <= m <= n."""
    p, n, m = integer_labels((p, n, m), "p, n and m")
    if p < 2 or n < 1 or not (1 <= m <= n):
        raise InvalidParameters("need p >= 2, n >= 1 and 1 <= m <= n")
    result = (p - 1) ** (n + 1) + (p - 1) ** n - (-1) ** m * (p - 1) ** (n + 1 - m)
    assert result >= (p - 1) ** (n + 1)
    return result


def dual_totient_coatom_split(model: BooleanInterval, coatom: int) -> int:
    """Recursion phihat(H,G) = q phihat(H,L) - phihat(A,G) for a coatom L.

    q is the relative index of the top over L and A the complement of L.
    `coatom` is the mask of L.  Agrees with the direct sum on every model.
    The first call on a model computes the splits at every coatom in one
    fold (`BooleanInterval.coatom_splits`); later calls read them.
    """
    _require(model, BooleanInterval, "dual_totient_coatom_split")
    top = len(model.idx) - 1
    if not 0 <= coatom < top or (top ^ coatom).bit_count() != 1:
        raise NotACoatom(f"mask {coatom} is not a coatom")
    return model.coatom_splits()[(top ^ coatom).bit_length() - 1]


def dual_totient_allsplit(model: BooleanInterval) -> int:
    """Product formula over atoms, valid under the all-split condition.

    The condition: for every atom A and every K in [H, complement(A)], the
    edge K -> K v A has the same index as A over the bottom.
    """
    _require(model, BooleanInterval, "dual_totient_allsplit")
    idx = model.idx
    product = 1
    for a in model.atoms():
        v = model.below_index(a)
        # source element order, so the reported edge is the first one there
        for k in sorted((k for k in range(len(idx)) if not k & a), key=model.element):
            edge = idx[k] // idx[k | a]
            if edge != v:
                raise SplitConditionFails(
                    f"atom {model.element(a)}: edge over {model.element(k)} has index {edge} != {v}"
                )
        product *= v - 1
    return product


def boolean_index_model(p: int, n: int, specials: Sequence = ()) -> BooleanInterval:
    """A boolean rank-n model whose chains have type (p, ..., p, q1, ..., qk).

    `specials` is a sequence of (q, block_size) pairs assigned to disjoint
    blocks of atoms from bit 0 up; crossing the last missing atom of a block
    costs q, every other cover costs p.  With one special (q, m) this
    realizes every chain type (p, ..., p, q) with exactly m coatoms of
    relative index q; with single-atom blocks it realizes fully split models.

    The labels are the Kronecker product of one factor per block, the
    lowest bits varying fastest, and one for all the free atoms above them.
    At the mask t of its k atoms, a block contributes p^(k-|t|-1) q until it
    is complete and 1 once it is; the free atoms' factor is that of a block
    with q = p, the uniform vector p^(k-|t|).  Factors are cached, and each
    one after the first takes one pass, spread by one cached picker, so a
    `pq_model` is one pass.  With p, q >= 2 and block sizes >= 1 these
    labels are valid by construction, and so the product is built without
    the checks of `BooleanInterval`: each factor is positive and ends in 1,
    and a cover of a factor multiplies its label by p or q.  A cover of the
    product changes the coordinate of exactly one factor, so its ratio is a
    cover ratio of that factor, and the top label is the product of the
    factors' tops, 1.
    """
    try:
        p, n = index(p), index(n)
        blocks = [(index(q), index(size)) for q, size in specials]
    except TypeError:
        raise InvalidParameters("p, n and the special blocks must be integers") from None
    if p < 2 or n < 1:
        raise InvalidParameters("need p >= 2 and n >= 1")
    for q, size in blocks:
        if q < 2 or size < 1:
            raise InvalidParameters("special blocks need q >= 2 and size >= 1")
    free = n - sum(size for _, size in blocks)
    if free < 0:
        raise InvalidParameters("special blocks exceed the number of atoms")
    factors = [_block_factor(p, q, k) for q, k in blocks + [(p, free)] * (free > 0)]
    labels = factors[0]
    for factor in factors[1:]:
        # labels * f for each entry f of the factor in turn, in one C-level pass
        labels = tuple(map(mul, labels * len(factor), _spread_picker(len(factor), len(labels))(factor)))
    return BooleanInterval._trusted(n, labels)


@lru_cache(maxsize=1024)
def _block_factor(p: int, q: int, k: int) -> tuple:
    """p^(k-|t|-1) q for each mask t of a block of k atoms but its top, and 1 at the top."""
    return tuple([p ** (k - 1 - t.bit_count()) * q for t in range((1 << k) - 1)]) + (1,)


@lru_cache(maxsize=64)
def _spread_picker(size: int, times: int) -> Callable:
    """Picker of a factor of `size` entries, each repeated `times` times in turn."""
    return _picker([t for t in range(size) for _ in range(times)])


def uniform_model(p: int, n: int) -> BooleanInterval:
    """Boolean rank-n model with every cover of index p."""
    return boolean_index_model(p, n)


def pq_model(p: int, q: int, n: int, m: int) -> BooleanInterval:
    """Boolean rank-n model, all chains of type (p, ..., p, q), m coatoms of index q."""
    if not (0 <= m <= n):
        raise InvalidParameters("need 0 <= m <= n")
    if m == 0:
        return uniform_model(p, n)
    return boolean_index_model(p, n, [(q, m)])
