"""Abstract finite lattices over element ids 0..n-1.

The order relation is held as a read-only boolean matrix.  Meet and join
tables are precomputed and their existence/uniqueness verified eagerly at
construction, so every downstream operation may assume the lattice axioms.
Rank is longest-path depth over the Hasse diagram.  An interval [a, b] is
boolean exactly when the joins of the subsets of its atoms are all distinct
and fill it (`boolean_elements`); the boolean and bottom-boolean flags are
that one test on [bottom, top] and on [bottom, join of the atoms].
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Optional

import numpy as np

from .errors import NotAPartialOrder, NotALattice, NotBoolean, NotComparable


class FiniteLattice:
    """Validated finite lattice: order matrix plus meet/join tables.

    Instances are immutable; the numpy arrays are marked read-only.
    """

    __slots__ = (
        "n", "leq", "meet", "join", "bottom", "top", "covers",
        "_down", "_up", "_ranks", "_graded", "_distributive", "_boolean",
    )

    def __init__(self, leq: np.ndarray, meet: np.ndarray, join: np.ndarray, bottom: int, top: int):
        self.n = leq.shape[0]
        for arr in (leq, meet, join):
            arr.flags.writeable = False
        self.leq = leq
        self.meet = meet
        self.join = join
        self.bottom = bottom
        self.top = top
        lt = leq.copy()
        np.fill_diagonal(lt, False)
        covers = lt & ~(lt @ lt)
        covers.flags.writeable = False
        self.covers = covers
        self._down, self._up = _order_masks(leq)
        ranks = np.zeros(self.n, dtype=np.int64)
        for x in np.argsort(leq.sum(axis=0), kind="stable").tolist():
            below = np.flatnonzero(covers[:, x])
            if below.size:
                ranks[x] = int(ranks[below].max()) + 1
        self._ranks = tuple(int(r) for r in ranks)
        xs, ys = np.nonzero(covers)
        self._graded = bool((ranks[ys] == ranks[xs] + 1).all())
        self._distributive: Optional[bool] = None
        self._boolean: Optional[bool] = None

    def is_graded(self) -> bool:
        return self._graded

    def ranks(self) -> tuple:
        """Longest-chain depth of every element, bottom at 0."""
        return self._ranks

    def height(self) -> int:
        return self._ranks[self.top]

    def __repr__(self) -> str:
        return f"FiniteLattice(n={self.n})"


def _order_masks(leq: np.ndarray) -> tuple:
    """Bitmask per element of its down-set and of its up-set, for fast subset logic."""
    n = leq.shape[0]
    packed_cols = np.packbits(leq, axis=0, bitorder="little")
    packed_rows = np.packbits(leq, axis=1, bitorder="little")
    down = tuple(int.from_bytes(packed_cols[:, x].tobytes(), "little") for x in range(n))
    up = tuple(int.from_bytes(packed_rows[x, :].tobytes(), "little") for x in range(n))
    return down, up


def build_lattice(leq) -> FiniteLattice:
    """Validate a relation and precompute meet/join tables.

    Raises NotAPartialOrder for a broken order and NotALattice when some
    pair has no unique infimum or supremum.
    """
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
    return FiniteLattice(mat.copy(), np.array(meet, dtype=np.int32), np.array(join, dtype=np.int32),
                         up.index(everything), down.index(everything))


def _unique_bound(masks, candidates: int, highest_first: bool) -> Optional[int]:
    """The element of `candidates` whose mask covers all of them, if any.

    Tried from the highest id down or the lowest up: in a linear extension,
    as subgroup intervals number their members, the meet is the highest
    common lower bound and the join the lowest common upper bound.
    """
    rest = candidates
    while rest:
        x = rest.bit_length() - 1 if highest_first else (rest & -rest).bit_length() - 1
        if candidates & ~masks[x] == 0:
            return x
        rest ^= 1 << x
    return None


def upper_covers(lat: FiniteLattice, a: int) -> list:
    """The elements covering a, ascending: the atoms of [a, top]."""
    return np.flatnonzero(lat.covers[a]).tolist()


def atoms(lat: FiniteLattice) -> list:
    return upper_covers(lat, lat.bottom)


def coatoms(lat: FiniteLattice) -> list:
    return [x for x in range(lat.n) if lat.covers[x, lat.top]]


def is_distributive(lat: FiniteLattice) -> bool:
    """Exhaustive check of a v (b ^ c) == (a v b) ^ (a v c); cached per lattice."""
    if lat._distributive is None:
        lat._distributive = _distributive_scan(lat, np.arange(lat.n))
    return lat._distributive


def _distributive_scan(lat: FiniteLattice, ids: np.ndarray) -> bool:
    """Whether a v (b ^ c) == (a v b) ^ (a v c) on `ids`, a set closed under meet and join."""
    meet, join = lat.meet, lat.join
    inner = meet[ids[:, None], ids]
    for a in ids.tolist():
        row = join[a]
        outer = row[ids]
        if not np.array_equal(row[inner], meet[outer[:, None], outer]):
            return False
    return True


def is_boolean(lat: FiniteLattice) -> bool:
    """Whether the lattice is boolean; cached per lattice.

    The test is `boolean_elements` on [bottom, top]: the joins of the
    subsets of the atoms must be distinct and make up the whole lattice.
    That map then preserves order both ways (join S <= join T gives
    join(S | T) = join T, so S is a subset of T), so the lattice is the
    subset lattice of its atoms.
    """
    if lat._boolean is None:
        lat._boolean = is_boolean_interval(lat, lat.bottom, lat.top)
    return lat._boolean


def complement(lat: FiniteLattice, x: int) -> int:
    if not is_boolean(lat):
        raise NotBoolean("complements are only defined on boolean lattices")
    return int(np.flatnonzero((lat.meet[x] == lat.bottom) & (lat.join[x] == lat.top))[0])


def bits(mask: int) -> list:
    """Positions of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _between_mask(lat: FiniteLattice, a: int, b: int) -> int:
    if not lat.leq[a, b]:
        raise NotComparable(f"{a} is not below {b}")
    return lat._up[a] & lat._down[b]


def members_between(lat: FiniteLattice, a: int, b: int) -> list:
    """Ids of the closed interval [a, b], ascending."""
    return bits(_between_mask(lat, a, b))


def boolean_elements(lat: FiniteLattice, a: int, b: int) -> list:
    """The elements of [a, b] indexed by atom bitmask.

    The atoms of [a, b], in ascending element id, become the bits, and each
    mask is mapped to the join of its atoms through the join table.  Raises
    NotBoolean unless that map is a bijection onto [a, b], which holds
    exactly when the interval is boolean.
    """
    between = _between_mask(lat, a, b)
    size = between.bit_count()
    if size & (size - 1):
        raise NotBoolean("operation requires a boolean interval")
    down, low = lat._down, 1 << a
    atoms = [x for x in bits(between ^ low) if down[x] & between == low | 1 << x]
    if size != 1 << len(atoms):
        raise NotBoolean("operation requires a boolean interval")
    join = lat.join
    elems = [a]
    for x in atoms:
        elems += [int(join[e, x]) for e in elems]
    if sum(1 << e for e in set(elems)) != between:
        raise NotBoolean("operation requires a boolean interval")
    return elems


def is_boolean_interval(lat: FiniteLattice, a: int, b: int) -> bool:
    """Whether [a, b] is boolean, i.e. whether `boolean_elements` succeeds on it."""
    try:
        boolean_elements(lat, a, b)
    except NotBoolean:
        return False
    return True


def interval(lat: FiniteLattice, a: int, b: int) -> FiniteLattice:
    """The induced sublattice on [a, b].

    Meet/join tables are sliced from the parent (an interval of a lattice is
    closed under both), so only closure needs re-checking here.
    """
    ids = members_between(lat, a, b)
    sel = np.array(ids)
    lookup = np.full(lat.n, -1, dtype=np.int64)
    lookup[sel] = np.arange(len(ids))
    sub_leq = lat.leq[np.ix_(sel, sel)].copy()
    sub_meet = lookup[lat.meet[np.ix_(sel, sel)]]
    sub_join = lookup[lat.join[np.ix_(sel, sel)]]
    assert (sub_meet >= 0).all() and (sub_join >= 0).all(), "interval not closed under meet/join"
    return FiniteLattice(
        sub_leq,
        sub_meet.astype(np.int32),
        sub_join.astype(np.int32),
        int(lookup[a]),
        int(lookup[b]),
    )


def top_interval_base(lat: FiniteLattice) -> int:
    return reduce(lambda u, v: int(lat.meet[u, v]), coatoms(lat), lat.top)


def covers_join(lat: FiniteLattice, a: int) -> int:
    """The join of the atoms of [a, top]."""
    return reduce(lambda u, v: int(lat.join[u, v]), upper_covers(lat, a), a)


def bottom_interval_join(lat: FiniteLattice) -> int:
    return covers_join(lat, lat.bottom)


def is_bottom_boolean(lat: FiniteLattice) -> bool:
    """Whether [bottom, b] is boolean, with b the join of all atoms."""
    return is_boolean_interval(lat, lat.bottom, bottom_interval_join(lat))


def maximal_chains(lat: FiniteLattice) -> list:
    """All maximal chains bottom..top as id lists."""
    chains = []
    stack = [[lat.bottom]]
    while stack:
        chain = stack.pop()
        x = chain[-1]
        if x == lat.top:
            chains.append(chain)
            continue
        for y in np.flatnonzero(lat.covers[x]):
            stack.append(chain + [int(y)])
    return chains


@lru_cache(maxsize=16)
def subset_lattice(n: int) -> FiniteLattice:
    """The boolean lattice of subsets of an n-set; element ids are bitmasks."""
    size = 1 << n
    ids = np.arange(size)
    leq = (ids[:, None] & ~ids[None, :]) == 0
    meet = ids[:, None] & ids[None, :]
    join = ids[:, None] | ids[None, :]
    return FiniteLattice(leq, meet.astype(np.int32), join.astype(np.int32), 0, size - 1)
