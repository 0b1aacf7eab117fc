"""Finite lattices held as bitmasks over element ids 0..n-1.

The ids are a linear extension of the order: every lower cover of x has a
smaller id, the bottom is 0 and the top n-1.  A lattice is built from each
element's lower covers, the down-sets going up the ids and the up-sets
pushed down the lower covers, so no mask is decoded.  It holds, per
element, the bitmasks of its down-set, its up-set and its upper and lower
covers, plus the ranks (longest-chain depth over the Hasse diagram) and
gradedness; the read-only `covers` matrix is built from the cover masks on
first use.  No meet or join table is kept: in a linear extension the meet
of a and b is the highest id in down[a] & down[b] and their join the
lowest id in up[a] & up[b].  An element's lower covers must be distinct
and pairwise incomparable, but the lattice axioms are not re-checked; the
callers build subgroup intervals, which are lattices by theorem.  Only
this module reads the masks, and it refuses an id outside range(n).

[a, top] is distributive exactly when its member count equals the number
of down-sets of its join-irreducibles (Birkhoff 1937): x -> {join-
irreducibles below x} embeds every finite lattice into those down-sets,
and is onto exactly when the lattice is distributive.  An interval [a, b]
is boolean exactly when the joins of the subsets of its atoms are all
distinct and fill it (`_boolean_join_table`, behind `boolean_elements`,
`is_boolean_interval` and the walk `boolean_intervals`).  [u, v] is
bottom-boolean when [u, join of its atoms] is boolean: one test, run on
[bottom, top] for the flag and by the breadth-first search of
`_bb_levels` down from the top.

`bits` is the one decoder of a bitmask into its positions, here and for
the subgroup bitsets of `intervals`: a sparse mask is walked bit by bit,
a dense one read off its binary digits in one C-level pass.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from typing import Iterable, Optional, Sequence

from .errors import NotAPartialOrder, NotALattice, NotBoolean, NotComparable, OrelatError

_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")
# 0, 1, 2, ...: `bits` picks a dense mask's positions from this tuple, and
# replaces it by one twice as long as a longer mask; never mutated, so a
# caller on another thread keeps reading the tuple it took
_POSITIONS: tuple = ()


class FiniteLattice:
    """A finite lattice from the lower covers of each element, ids in a linear extension.

    Instances are immutable.
    """

    __slots__ = (
        "n", "bottom", "top",
        "_down", "_up", "_lower", "_upper", "_ranks", "_graded", "_distributive", "_covers",
    )

    def __init__(self, lower_covers: Sequence[Iterable[int]]):
        n = len(lower_covers)
        if n == 0:
            raise NotAPartialOrder("a lattice has at least one element")
        down, lower, upper, ranks = [], [], [0] * n, []
        belows = list(map(list, lower_covers))
        graded = True
        for x, below in enumerate(belows):
            if any(not 0 <= c < x for c in below):
                raise NotAPartialOrder(f"the lower covers of {x} must have smaller ids")
            if x and not below:
                raise NotALattice(f"elements 0 and {x} are both minimal")
            bit = 1 << x
            listed = strict = rank = 0  # the covers and the OR of their strict down-sets
            for c in below:
                listed |= 1 << c
                strict |= down[c] ^ (1 << c)
                upper[c] |= bit
                rank = max(rank, ranks[c] + 1)
            if listed.bit_count() != len(below) or listed & strict:
                raise NotAPartialOrder(f"the lower covers of {x} repeat, or one lies below another")
            graded = graded and all(ranks[c] + 1 == rank for c in below)
            down.append(bit | listed | strict)
            lower.append(listed)
            ranks.append(rank)
        if down[-1] != (1 << n) - 1:
            raise NotALattice(f"element {n - 1} is not above every element")
        # up[x] is whole once every larger id has pushed its own down
        up = [1 << x for x in range(n)]
        for x in range(n - 1, 0, -1):
            mask = up[x]
            for c in belows[x]:
                up[c] |= mask
        self.n = n
        self.bottom = 0
        self.top = n - 1
        self._down = tuple(down)
        self._up = tuple(up)
        self._lower = tuple(lower)
        self._upper = tuple(upper)
        self._ranks = tuple(ranks)
        self._graded = graded
        self._distributive: Optional[bool] = None
        self._covers = None

    @property
    def covers(self):
        """Read-only n x n boolean matrix with covers[x, y] when y covers x, built once on first use."""
        if self._covers is None:
            import numpy as np
            edges = hasse_edges(self)
            covers = np.zeros((self.n, self.n), dtype=bool)
            covers[[x for x, _ in edges], [y for _, y in edges]] = True
            covers.flags.writeable = False
            self._covers = covers
        return self._covers

    def meet(self, a: int, b: int) -> int:
        """The greatest lower bound: the highest id below both."""
        if not (0 <= a < self.n and 0 <= b < self.n):
            _require_ids(self, a, b)
        return (self._down[a] & self._down[b]).bit_length() - 1

    def join(self, a: int, b: int) -> int:
        """The least upper bound: the lowest id above both."""
        if not (0 <= a < self.n and 0 <= b < self.n):  # checked inline: the bottom-boolean tests join here
            _require_ids(self, a, b)
        common = self._up[a] & self._up[b]
        return (common & -common).bit_length() - 1

    def is_graded(self) -> bool:
        return self._graded

    def ranks(self) -> tuple:
        """Longest-chain depth of every element, bottom at 0."""
        return self._ranks

    def height(self) -> int:
        return self._ranks[self.top]

    def __repr__(self) -> str:
        return f"FiniteLattice(n={self.n})"


def _require_ids(lat: FiniteLattice, *ids: int) -> None:
    """Raise NotComparable at the first id outside range(lat.n): a negative one would read the masks from the end."""
    for x in ids:
        if not 0 <= x < lat.n:
            raise NotComparable(f"{x} is not an element id in range({lat.n})")


def upper_covers(lat: FiniteLattice, a: int) -> list:
    """The elements covering a, ascending: the atoms of [a, top]."""
    _require_ids(lat, a)
    return bits(lat._upper[a])


def hasse_edges(lat: FiniteLattice) -> list:
    """Every cover as [x, y], y covering x, sorted by x and then by y."""
    return [[x, y] for x in range(lat.n) for y in bits(lat._upper[x])]


def atoms(lat: FiniteLattice) -> list:
    return upper_covers(lat, lat.bottom)


def coatoms(lat: FiniteLattice) -> list:
    return bits(lat._lower[lat.top])


def is_distributive(lat: FiniteLattice) -> bool:
    """Birkhoff's count on [bottom, top]; cached per lattice."""
    if lat._distributive is None:
        lat._distributive = _distributive_above(lat, lat.bottom)
    return lat._distributive


def _distributive_above(lat: FiniteLattice, a: int) -> bool:
    """Whether [a, top] has as many members as its join-irreducibles have down-sets.

    A join-irreducible of [a, top] is a member other than a with exactly
    one lower cover inside [a, top].  The down-sets are counted one at a
    time: with x the highest id left, those without x drop x and those with
    x drop everything below x.  Every branch ends in one down-set, so the
    count stops after |[a, top]| + 1 of them.
    """
    members = lat._up[a]
    size = members.bit_count()
    lower, down = lat._lower, lat._down
    irreducible = sum(1 << x for x in bits(members ^ 1 << a) if (lower[x] & members).bit_count() == 1)
    count = 0
    stack = [irreducible]
    while stack and count <= size:
        rest = stack.pop()
        if not rest:
            count += 1
            continue
        x = rest.bit_length() - 1
        stack.append(rest ^ 1 << x)
        stack.append(rest & ~down[x])
    return count == size


def is_boolean(lat: FiniteLattice) -> bool:
    """Whether the lattice is boolean.

    The test is `boolean_elements` on [bottom, top]: the joins of the
    subsets of the atoms must be distinct and make up the whole lattice.
    That map then preserves order both ways (join S <= join T gives
    join(S | T) = join T, so S is a subset of T), so the lattice is the
    subset lattice of its atoms.
    """
    return is_boolean_interval(lat, lat.bottom, lat.top)


def bits(mask: int) -> list:
    """Positions of the set bits of a mask, ascending.

    A sparse mask is walked bit by bit, at a cost per position found that
    grows with the bit length n, since each step rewrites an n-bit int; a
    dense one is read off its binary digits in one pass, picking from the
    shared `_POSITIONS` (a fresh `range` would make an int object for every
    position past 256).  The rule compares the two costs as timed on
    x86-64, about (2500 + n)/10 ns per position found against
    (20000 + 160·n)/10 ns per pass: the walk wins below about 10 positions
    at n = 24, 40 at n = 720 and 110 at n = 5,040.
    """
    global _POSITIONS
    if mask < 0:  # the walk below would never strip its last bit
        raise OrelatError(f"mask {mask} is negative")
    n = mask.bit_length()
    if mask.bit_count() * (2500 + n) < 20000 + 160 * n:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    positions = _POSITIONS
    if n > len(positions):
        positions = _POSITIONS = tuple(range(2 * n))
    return list(compress(positions, format(mask, "b")[::-1].encode().translate(_ZERO_ONE)))


def _between_mask(lat: FiniteLattice, a: int, b: int) -> int:
    if not (0 <= a < lat.n and 0 <= b < lat.n):  # checked inline: the boolean tests of `bbl` come here
        _require_ids(lat, a, b)
    if not lat._up[a] >> b & 1:
        raise NotComparable(f"{a} is not below {b}")
    return lat._up[a] & lat._down[b]


def boolean_elements(lat: FiniteLattice, a: int, b: int) -> list:
    """The elements of [a, b] indexed by atom bitmask.

    The atoms of [a, b], in ascending element id, become the bits, and each
    mask is mapped to the join of its atoms.  Raises NotBoolean unless that
    map is a bijection onto [a, b], which holds exactly when the interval
    is boolean (`_boolean_join_table`).
    """
    elems = _boolean_join_table(lat, a, _between_mask(lat, a, b))
    if elems is None:
        raise NotBoolean("operation requires a boolean interval")
    return elems


def _boolean_join_table(lat: FiniteLattice, a: int, between: int) -> Optional[list]:
    """The joins of a with each subset of the atoms of [a, b], by atom bitmask; None unless [a, b] is boolean.

    `between` is the member mask of [a, b].  An interval of one or two
    members is a point or a cover, so boolean at once.  Otherwise the
    popcounts refuse most intervals before any join is formed: the size
    must be a power of two and 2^|atoms|.  Four members with two atoms are
    a square, boolean at once.  Every join formed lies in [a, b], so the
    map is onto exactly when its 2^k values are distinct.
    """
    size = between.bit_count()
    if size <= 2:
        return [a] if size == 1 else [a, between.bit_length() - 1]
    atoms = lat._upper[a] & between
    if size & (size - 1) or 1 << atoms.bit_count() != size:
        return None
    if size == 4:
        return [a, *bits(atoms), between.bit_length() - 1]
    up = lat._up
    elems = [a]
    for x in bits(atoms):
        up_x = up[x]
        elems += [((common := up[e] & up_x) & -common).bit_length() - 1 for e in elems]
    return elems if len(set(elems)) == size else None


def is_boolean_interval(lat: FiniteLattice, a: int, b: int) -> bool:
    """Whether [a, b] is boolean, i.e. whether `boolean_elements` succeeds on it."""
    return _boolean_join_table(lat, a, _between_mask(lat, a, b)) is not None


def boolean_intervals(lat: FiniteLattice):
    """(lo, hi, `boolean_elements(lat, lo, hi)`) for every boolean [lo, hi], lo < hi, by lo and then hi."""
    up, down, lower = lat._up, lat._down, lat._lower
    for lo in range(lat.n):
        up_lo = up[lo]
        for hi in bits(up_lo ^ 1 << lo):
            if lower[hi] >> lo & 1:
                yield lo, hi, [lo, hi]
            elif (elems := _boolean_join_table(lat, lo, up_lo & down[hi])) is not None:
                yield lo, hi, elems


def distributive_bases(lat: FiniteLattice) -> list:
    """Every h with [h, top] distributive, ascending, tested from the top down, where the tests are cheap.

    Once [h, top] fails, every h' <= h fails untested: [h, top] is an interval of [h', top].
    """
    failed, bases = 0, []
    for h in reversed(range(lat.n)):
        if not failed >> h & 1:
            if _distributive_above(lat, h):
                bases.append(h)
            else:
                failed |= lat._down[h]
    return bases[::-1]


def top_interval_base(lat: FiniteLattice) -> int:
    return reduce(lat.meet, coatoms(lat), lat.top)


def covers_join(lat: FiniteLattice, a: int) -> int:
    """The join of the atoms of [a, top]."""
    return reduce(lat.join, upper_covers(lat, a), a)


def _is_bottom_boolean(lat: FiniteLattice, u: int, v: int) -> bool:
    """Whether [u, j] is boolean for j the join of the atoms of [u, v], the covers of u below v."""
    return is_boolean_interval(lat, u, reduce(lat.join, bits(lat._upper[u] & lat._down[v]), u))


def is_bottom_boolean(lat: FiniteLattice) -> bool:
    """Whether [bottom, j] is boolean, with j the join of all atoms."""
    return _is_bottom_boolean(lat, lat.bottom, lat.top)


def _bb_levels(lat: FiniteLattice):
    """The elements by their distance to the top in bottom-boolean steps, one list per distance.

    One breadth-first search runs down from the top over the bottom-boolean
    intervals [u, v], read backwards, so the levels come in increasing
    distance.  Every cover is such an interval, so every element is
    reached, and each v is expanded once, so no interval is tested twice.
    """
    reached = 1 << lat.top
    level = [lat.top]
    while level:
        yield level
        below = []
        for v in level:
            for u in bits(lat._down[v] & ~reached):
                if _is_bottom_boolean(lat, u, v):
                    reached |= 1 << u
                    below.append(u)
        level = below
