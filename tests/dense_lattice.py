"""Dense reference lattices for the tests: the order, meet and join as k x k tables.

`DenseLattice` validates an order relation the slow way (reflexivity,
antisymmetry, transitivity by a k^3 product, and a unique meet and join
for every pair by a k^2 loop) and reads covers, ranks, gradedness and
distributivity off its tables alone.  The bitmask lattices of
`orelat.lattice` are cross-checked against it.  `build_lattice` turns a
relation into an `orelat.lattice.FiniteLattice` through it;
`subset_lattice` builds the boolean lattice whose ids are the bitmasks, and
`members_between`, `interval`, `sub_interval`, `member_id`,
`maximal_chains` and `complement` slice, look up and walk lattices for the
tests.
"""

from functools import lru_cache
from typing import Optional

import numpy as np

from orelat import lattice as lat
from orelat.errors import NotAPartialOrder, NotALattice, NotBoolean, NotComparable
from orelat.intervals import GroupInterval, _ambient


def _order_masks(leq: np.ndarray) -> tuple:
    """Bitmask per element of its down-set and of its up-set, for fast subset logic."""
    n = leq.shape[0]
    packed_cols = np.packbits(leq, axis=0, bitorder="little")
    packed_rows = np.packbits(leq, axis=1, bitorder="little")
    down = tuple(int.from_bytes(packed_cols[:, x].tobytes(), "little") for x in range(n))
    up = tuple(int.from_bytes(packed_rows[x, :].tobytes(), "little") for x in range(n))
    return down, up


def _unique_bound(masks, candidates: int, highest_first: bool) -> Optional[int]:
    """The element of `candidates` whose mask covers all of them, if any."""
    rest = candidates
    while rest:
        x = rest.bit_length() - 1 if highest_first else (rest & -rest).bit_length() - 1
        if candidates & ~masks[x] == 0:
            return x
        rest ^= 1 << x
    return None


class DenseLattice:
    """A validated relation matrix with its meet/join tables, covers and ranks.

    Raises NotAPartialOrder for a broken order and NotALattice when some
    pair has no unique infimum or supremum.  The element ids may be in any
    order.
    """

    def __init__(self, leq):
        mat = np.asarray(leq, dtype=bool)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise NotAPartialOrder("relation must be a nonempty square matrix")
        n = mat.shape[0]
        if not mat.diagonal().all():
            raise NotAPartialOrder("relation is not reflexive")
        if (mat & mat.T & ~np.eye(n, dtype=bool)).any():
            raise NotAPartialOrder("relation is not antisymmetric")
        closure = mat @ mat
        if (closure & ~mat).any():
            raise NotAPartialOrder("relation is not transitive")

        down, up = _order_masks(mat)
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                m = _unique_bound(down, down[a] & down[b], highest_first=True)
                if m is None:
                    raise NotALattice(f"elements {a} and {b} have no unique meet")
                j = _unique_bound(up, up[a] & up[b], highest_first=False)
                if j is None:
                    raise NotALattice(f"elements {a} and {b} have no unique join")
                meet[a][b] = meet[b][a] = m
                join[a][b] = join[b][a] = j
        everything = (1 << n) - 1
        self.n = n
        self.leq = mat.copy()
        self.meet = np.array(meet, dtype=np.int32)
        self.join = np.array(join, dtype=np.int32)
        self.bottom = up.index(everything)
        self.top = down.index(everything)
        lt = mat.copy()
        np.fill_diagonal(lt, False)
        self.covers = lt & ~(lt @ lt)
        ranks = np.zeros(n, dtype=np.int64)
        for x in np.argsort(mat.sum(axis=0), kind="stable").tolist():
            below = np.flatnonzero(self.covers[:, x])
            if below.size:
                ranks[x] = int(ranks[below].max()) + 1
        self.ranks = tuple(int(r) for r in ranks)
        xs, ys = np.nonzero(self.covers)
        self.graded = bool((ranks[ys] == ranks[xs] + 1).all())

    def distributive(self, ids=None) -> bool:
        """Whether a v (b ^ c) == (a v b) ^ (a v c) on `ids` (default all), a set closed under meet and join."""
        ids = np.arange(self.n) if ids is None else np.asarray(ids)
        meet, join = self.meet, self.join
        inner = meet[ids[:, None], ids]
        for a in ids.tolist():
            row = join[a]
            outer = row[ids]
            if not np.array_equal(row[inner], meet[outer[:, None], outer]):
                return False
        return True

    def lattice(self) -> lat.FiniteLattice:
        """The bitmask lattice of the same order; the ids must be a linear extension."""
        if np.tril(self.leq, -1).any():
            raise NotAPartialOrder("element ids are not a linear extension")
        return lat.FiniteLattice([np.flatnonzero(self.covers[:, x]).tolist() for x in range(self.n)])


def build_lattice(leq) -> lat.FiniteLattice:
    """Validate a relation whose ids are a linear extension and build its bitmask lattice."""
    return DenseLattice(leq).lattice()


def leq(lattice: lat.FiniteLattice, a: int, b: int) -> bool:
    return bool(lattice._up[a] >> b & 1)


def dense(lattice: lat.FiniteLattice) -> DenseLattice:
    """The dense tables of a bitmask lattice, from its order alone."""
    n = lattice.n
    return DenseLattice([[leq(lattice, a, b) for b in range(n)] for a in range(n)])


@lru_cache(maxsize=16)
def subset_lattice(n: int) -> lat.FiniteLattice:
    """The boolean lattice of subsets of an n-set; element ids are bitmasks."""
    return lat.FiniteLattice([[s ^ 1 << i for i in lat.bits(s)] for s in range(1 << n)])


def members_between(lattice: lat.FiniteLattice, a: int, b: int) -> list:
    """Ids of the closed interval [a, b], ascending; NotComparable unless a <= b."""
    if not leq(lattice, a, b):
        raise NotComparable(f"{a} is not below {b}")
    return lat.bits(lattice._up[a] & lattice._down[b])


def interval(lattice: lat.FiniteLattice, a: int, b: int) -> lat.FiniteLattice:
    """The sublattice [a, b], its members renumbered in ascending id.

    An interval's covers are the parent's covers between its members.
    """
    ids = members_between(lattice, a, b)
    position = {x: i for i, x in enumerate(ids)}
    return lat.FiniteLattice([
        [position[c] for c in lat.bits(lattice._lower[x]) if c in position] for x in ids
    ])


def sub_interval(whole: GroupInterval, lo: int, hi: int) -> GroupInterval:
    """The interval [members[lo], members[hi]] re-rooted over members[hi], with its own labels and masks."""
    ids = members_between(whole.lattice, lo, hi)
    top = whole.members[hi]
    amb = _ambient(top)
    return GroupInterval(
        interval(whole.lattice, lo, hi),
        [top.order // whole.members[i].order for i in ids],
        amb,
        [amb.subgroup_mask(whole.members[i]) for i in ids],
    )


def member_id(whole: GroupInterval, sub) -> int:
    """The id of the member equal to the group `sub`."""
    return whole.masks.index(_ambient(whole.ambient).subgroup_mask(sub))


def maximal_chains(lattice: lat.FiniteLattice) -> list:
    """All maximal chains bottom..top as id lists."""
    chains = []
    stack = [[lattice.bottom]]
    while stack:
        chain = stack.pop()
        x = chain[-1]
        if x == lattice.top:
            chains.append(chain)
            continue
        for y in np.flatnonzero(lattice.covers[x]):
            stack.append(chain + [int(y)])
    return chains


def complement(lattice: lat.FiniteLattice, x: int) -> int:
    if not lat.is_boolean(lattice):
        raise NotBoolean("complements are only defined on boolean lattices")
    return next(
        y for y in range(lattice.n)
        if lattice.meet(x, y) == lattice.bottom and lattice.join(x, y) == lattice.top
    )
