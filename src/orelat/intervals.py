"""Concrete overgroup intervals [H, G] and full subgroup lattices.

A subgroup is a Python-int bitset over the element indices of its ambient
group, whose multiplication table is built once per group from its
generators, or from those its walk picks for a group given none; only the
generators' rows compose permutations.  A group of
order at most 256 keeps each table row as `bytes`, one byte per entry,
since `bytes.translate` composes two such rows in one call through its
256-entry table; a larger group keeps one (n, n) `uint16` numpy array, two
bytes per entry, and hands out its rows as `memoryview`s.  Callers only
index rows or read them by `itemgetter` and `map`, which give the same
ints on either.  The overgroups
of H are enumerated breadth first by cyclic extension (Neubüser's method),
up to conjugacy by the normalizer N = N_G(H).  For a representative K and
each g outside K, <K, g> is grown from K's element list by adding whole
cosets of K (Dimino), so no member is closed again from its generators.
The closure marks the elements it reaches in a bytearray of ASCII digits,
read as a bitset once at the end.  It stops at Lagrange's bound: a proper
subgroup above K holds at most |G:K|/p cosets of K, for p the least prime
factor of |G:K|, so once <K, g> holds more it is G, and when |G:K| is
prime it is G at once.  One g is tried per double coset KgK, since
<K, kgk'> = <K, g>; the Ore search (`verify_ore`, `generating_coset_count`)
walks the double cosets HgH of the base the same way.

N permutes the members of [H, G] and their covers, since s·<K, g>·s⁻¹ =
<sKs⁻¹, sgs⁻¹>.  N is read off the multiplication table: s normalizes H
when s·h·s⁻¹ lies in H for each generator h of H, one pass over the
elements per generator.  A new <K, g> is closed under conjugation by N's
generators outside H (those in H fix every member), and each conjugate is
recorded with the member and the map that reached it: a Schreier tree of
bitsets.  Only the orbit's first member, its representative, is
extended.  Every overgroup is reached: it ends a chain H = K0 < K1 < ...
of single-element extensions K(i+1) = <Ki, g>, and if Ki = s·R·s⁻¹ for a
representative R and s in N, then K(i+1) = s·<R, s⁻¹·g·s>·s⁻¹ is in the
orbit of an extension formed over R.  N is found only once a member other
than H and G turns up; when N = H nothing is conjugated and every member
is its own representative.  A conjugation table y -> s·y·s⁻¹ is `bytes`
with byte rows, so s·K·s⁻¹ is one `bytes.translate` of K's binary digits
through the table of s⁻¹, and no element of K is decoded; a larger group
keeps it as a tuple and maps each element of K.

The same search yields the Hasse diagram: a cover L of K is <K, g> for
every g in L outside K, so the minimal <K, g> formed over a representative
(taken by size) are exactly its upper covers.  The covers of any other
member are its tree parent's covers, carried along the tree edge's map
and read back from the images the orbit search stored (N fixes G).

A `GroupInterval` is an `IndexedInterval` labelled by the indices |G:K|,
checked once when it is built; the totients and the certifier take it as is.
Its members are the bitsets `masks`, over the element ids of
`_ambient(interval.ambient)`, and nothing else: the library reads them
directly (the characters count their elements per class), and `members`
decodes them to `FiniteGroup`s only when first read.  They are numbered by
size, then by ascending element ids, an order read off each bitset's
reversed digits without decoding it.

A group's `_Ambient` is the one cache of what is derived from the group:
its table, its conjugations and its intervals.  `_ambient` keeps the last 32,
keyed by the group and its generators, since the generators build the table
and groups compare equal by their elements alone.  Each interval is
memoized on its `_Ambient` by the bitset of its base; later calls return
the same object, which is shared and must not be mutated, and the member
cap is checked on every call.  `bbl` and `cfl` read the bottom-boolean
levels from `lattice._bb_levels`; this module reads no lattice bitmask.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from operator import getitem, itemgetter
from typing import Iterable, Sequence

import numpy as np

from . import lattice as lat
from .errors import CapExceeded, InvalidParameters, NotASubgroup, NotDistributive, OreViolation
from .perm import FiniteGroup, Permutation, _picker, trivial_group

DEFAULT_MEMBER_CAP = 10_000
# element ids are stored as uint16 above order 256
_MAX_TABLE_ORDER = 1 << 16
_ZERO, _ONE = b"01"


@lru_cache(maxsize=256)
def _least_prime_factor(m: int) -> int:
    """The least prime factor of m >= 2."""
    p = 2
    while p * p <= m:
        if m % p == 0:
            return p
        p += 1
    return m


class _Subgroup:
    """A subgroup of the ambient group: its element ids, bitset and generators.

    `elems` starts with the identity; `take(row)` picks the entries of `row`
    at `elems`, so `take(mul[r])` is the left coset r·K.
    """

    __slots__ = ("elems", "mask", "gens", "take")

    def __init__(self, elems: list, mask: int, gens: tuple):
        self.elems = elems
        self.mask = mask
        self.gens = gens
        self.take = _picker(elems)


class _Ambient:
    """Multiplication table, inverses, subgroup extension and built intervals of one ambient group."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.n = group.order
        self.elems = group.elements
        images = [p.images for p in group.elements]
        self.index = index = {img: i for i, img in enumerate(images)}
        self.identity = index[group.identity.images]
        # generator ids: the group's own, else those the table's walk picks, as `generated(range(n))` would
        gens = [index[p.images] for p in group.generators]
        # `table` is the (n, n) uint16 array above order 256 and None with byte rows
        self.mul, self.inv, self.table, self.gens = _multiplication_table(images, index, gens, self.identity)
        self.bit = [1 << i for i in range(self.n)]
        self.trivial = _Subgroup([self.identity], self.bit[self.identity], ())
        # every element id, shared by each <K, g> found to be G; id 0 is the
        # identity, since the elements are sorted by their images
        self.all_ids = list(range(self.n))
        # overgroup intervals built so far, by the bitset of their base
        self.intervals: dict = {}
        # conjugation tables built so far, by element id
        self._conjugations: dict = {}

    def subgroup_mask(self, sub: FiniteGroup) -> int:
        try:
            return sum(self.bit[self.index[p.images]] for p in sub.elements)
        except KeyError as exc:
            raise NotASubgroup("subgroup has elements outside the ambient group") from exc

    def _left_cosets(self, k: _Subgroup, gens: tuple, g: int, seen: bytearray, room: int):
        """Close {g} under left multiplication by `gens`, a whole left coset r·K at a time.

        `seen` holds b"1" at the element ids already present and b"0"
        elsewhere; the cosets added are marked in it.  Returns their element
        ids, or None once a coset beyond the first `room` turns up.  One
        representative per coset is multiplied, since s·rK = (s·r)K.
        """
        mul, take = self.mul, k.take
        added = list(take(mul[g]))
        for x in added:
            seen[x] = _ONE
        reps = [g]
        for r in reps:  # grows while it is read
            for s in gens:
                t = mul[s][r]
                if seen[t] == _ZERO:
                    if len(reps) == room:
                        return None
                    coset = take(mul[t])
                    added += coset
                    for x in coset:
                        seen[x] = _ONE
                    reps.append(t)
        return added

    def extend(self, k: _Subgroup, g: int) -> _Subgroup:
        """<K, g>, as K's elements followed by whole left cosets r·K (Dimino).

        K and gK are closed under left multiplication by the generators of
        K and g, so their union with the cosets that reaches is <K, g>.
        A subgroup strictly between K and G holds at most |G:K|/p cosets of
        K, for p the least prime factor of |G:K| (Lagrange), so the closure
        stops at the first coset past that count and returns G; when |G:K|
        is prime nothing lies strictly between, and G is returned at once.
        """
        if k.mask & self.bit[g]:
            return k
        gens = k.gens + (g,)
        n = self.n
        index = n // len(k.elems)
        p = _least_prime_factor(index)
        if p < index:
            seen = bytearray(b"0") * n
            for x in k.elems:
                seen[x] = _ONE
            added = self._left_cosets(k, gens, g, seen, index // p - 1)
            if added is not None:
                return _Subgroup(k.elems + added, int(seen[::-1], 2), gens)
        return _Subgroup(self.all_ids, (1 << n) - 1, gens)

    def double_coset(self, k: _Subgroup, g: int) -> int:
        """The bitset of KgK: the left cosets of K reached from gK by left multiplication by K."""
        seen = bytearray(b"0") * self.n
        self._left_cosets(k, k.gens, g, seen, self.n)
        return int(seen[::-1], 2)

    def generated(self, ids: Iterable[int]) -> _Subgroup:
        """The subgroup generated by `ids`; its generators are those that were not yet inside."""
        k = self.trivial
        for x in ids:
            k = self.extend(k, x)
        return k

    def conjugation(self, s: int):
        """The table y -> s·y·s⁻¹ over element ids, `bytes` with byte rows and else a tuple, built once per s."""
        table = self._conjugations.get(s)
        if table is None:
            mul = self.mul
            column = map(itemgetter(self.inv[s]), mul)  # y -> y·s⁻¹
            if self.n <= 256:
                table = mul[s].translate(bytes(column).ljust(256))
            else:
                table = tuple(map(tuple(column).__getitem__, mul[s]))
            self._conjugations[s] = table
        return table

    def conjugate(self, mask: int, s: int) -> int:
        """The bitset s·K·s⁻¹ of the subgroup bitset `mask`.

        y lies in s·K·s⁻¹ exactly when s⁻¹·y·s lies in K.  With byte rows
        the image's digits are the mask's digits read through the table of
        y -> s⁻¹·y·s, one `bytes.translate`; above order 256 each element
        of K is mapped by the table of s.
        """
        n = self.n
        if n <= 256:
            digits = format(mask, f"0{n}b")[::-1].encode().ljust(256)  # digits[x] is b"1" when x is in K
            return int(self.conjugation(self.inv[s]).translate(digits)[::-1], 2)
        table, bit = self.conjugation(s), self.bit
        return sum(bit[table[x]] for x in lat.bits(mask))

    def normalizer_gens(self, k: _Subgroup) -> tuple:
        """Element ids that generate N_G(K) together with K's generators.

        N_G(K) is the set of s with s·h·s⁻¹ in K for every generator h of K,
        read for every s at once from column h of the table: one pass over
        the elements per generator.
        """
        mul = self.mul
        in_k = format(k.mask, f"0{self.n}b")[::-1]  # in_k[x] is "1" when x is in K
        inside = (1 << self.n) - 1
        for h in k.gens:
            conjugates = map(getitem, map(mul.__getitem__, map(itemgetter(h), mul)), self.inv)  # s·h·s⁻¹, by s
            inside &= int("".join(map(in_k.__getitem__, conjugates))[::-1], 2)
        normalizer = k
        for s in lat.bits(inside & ~k.mask):
            normalizer = self.extend(normalizer, s)
        return normalizer.gens[len(k.gens):]

    def core(self, mask: int) -> int:
        """The bitset of the largest normal subgroup inside the subgroup bitset `mask`.

        `mask` is intersected with its conjugates s·K·s⁻¹ under the generators
        s until it stops shrinking.  The fixed point is a subgroup normalized
        by every generator, hence normal, and no step removes an element of
        the core, so the fixed point is the core.
        """
        while True:
            before = mask
            for s in self.gens:
                mask &= self.conjugate(mask, s)
            if mask == before:
                return mask


def _multiplication_table(images: list, index: dict, gens: Sequence[int], identity: int) -> tuple:
    """Rows mul[a][b] = index of a * b, where (a * b)(x) = a(b(x)), the inverses inv[a], the array and the generators.

    Only the generators' rows compose permutations (the images of s read at
    the images of b).  Every other row follows along a breadth-first walk
    from the identity by right multiplication: (a * s) * b = a * (s * b),
    so row a*s is row a read at row s, one C call per row.  The inverses
    come along the same walk, as (a * s)^-1 = s^-1 * a^-1.  Given no
    generators, each time the walk stops short the least id it has not
    reached becomes one, and the walk resumes over every element reached:
    the ids `_Ambient.generated(range(n))` picks, at most log2(n) of them.

    A group of order n <= 256 keeps its rows as `bytes`, one byte per
    entry, and reads row a at row s with `bytes.translate`: `translate`
    maps through a 256-entry table, so row a is padded to 256 bytes.  A
    larger group fills one preallocated (n, n) `uint16` array, row a at
    row s by one `take` into the new row, and hands out its rows as
    `memoryview`s (format "H"); a group of more than 65,536 elements, whose
    ids do not fit, raises `CapExceeded` before anything is allocated.
    Either row gives the same ints when indexed or read by `itemgetter` or
    `map`, which is all any caller does.  The array is returned with the
    rows, and None in its place with byte rows.  Given generators that do
    not reach every element raise `InvalidParameters`.
    """
    n = len(images)
    table = None
    if n > _MAX_TABLE_ORDER:
        raise CapExceeded(f"group of order {n} exceeds the multiplication table's limit of {_MAX_TABLE_ORDER:,} elements")
    compose = [_picker(b) for b in images]
    mul: list = [None] * n
    inv: list = [None] * n
    inv[identity] = identity
    if n <= 256:
        pad = bytes(256 - n)

        def set_row(s, row):
            mul[s] = bytes(row)

        def reader(s):
            s_row = mul[s]
            return lambda a, b: s_row.translate(mul[a] + pad)
    else:
        table = np.empty((n, n), np.uint16)
        rows = list(table)
        views = list(map(memoryview, rows))

        def set_row(s, row):
            table[s] = row
            mul[s] = views[s]

        def reader(s):
            s_row = rows[s]

            def read(a, b):
                # every id is in range, so "clip" changes nothing and skips the bounds buffer
                rows[a].take(s_row, out=rows[b], mode="clip")
                return views[b]
            return read
    set_row(identity, range(n))
    readers: list = []

    def add_generator(s):
        row = [index[c(images[s])] for c in compose]
        set_row(s, row)
        # row s^-1 undoes row s: s^-1 * (s * x) = x
        readers.append((s, reader(s), np.argsort(row).tolist()))

    for s in dict.fromkeys(gens):
        add_generator(s)
    picked: list = []
    reached = [identity]
    while True:
        for a in reached:  # grows while it is read
            row, inverse = mul[a], inv[a]
            for s, read_s, inv_row in readers:
                b = row[s]
                if inv[b] is None:
                    inv[b] = inv_row[inverse]
                    reached.append(b)
                    if mul[b] is None:
                        mul[b] = read_s(a, b)
        if gens or len(reached) == n:
            break
        picked.append(inv.index(None))
        add_generator(picked[-1])
    if len(reached) != n:
        raise InvalidParameters(f"the generators reach {len(reached)} of the group's {n} elements")
    return mul, inv, table, tuple(gens or picked)


def _ambient(group: FiniteGroup) -> _Ambient:
    """The group's `_Ambient`, shared by every equal group with the same generators."""
    return _ambient_memo(group, group.generators)


@lru_cache(maxsize=32)
def _ambient_memo(group: FiniteGroup, generators: tuple) -> _Ambient:
    return _Ambient(group)


def integer_labels(values: Iterable, what: str = "labels") -> tuple:
    """`values` as a tuple of ints, read with `operator.index`.

    Ints and numpy integers pass.  A float, a string or a fraction is
    refused, even an integral one, where `int` would truncate or parse it.
    """
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise InvalidParameters(f"{what} must be integers") from None


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
        if idx[lattice.top] != 1:
            raise InvalidParameters("the top element must have label 1")
        if any(v <= 0 for v in idx):
            raise InvalidParameters("labels must be positive")
        for x, v in enumerate(idx):
            if any(v % idx[y] or v == idx[y] for y in lat.upper_covers(lattice, x)):
                raise InvalidParameters("labels must strictly divide downward along covers")
        self.lattice = lattice
        self.idx = idx

    @property
    def total_index(self) -> int:
        return self.idx[self.lattice.bottom]

    def __repr__(self) -> str:
        return f"IndexedInterval(n={self.lattice.n}, index={self.total_index})"


class GroupInterval(IndexedInterval):
    """The lattice of all subgroups K with H <= K <= G, labelled by the indices |G:K|.

    Member i is the bitset `masks[i]` over the element ids of the ambient
    group's `_Ambient`; the base H is member 0.
    """

    __slots__ = ("_amb", "masks", "_members")

    def __init__(self, lattice: lat.FiniteLattice, index_of: Sequence[int], amb: _Ambient, masks: Sequence[int]):
        super().__init__(lattice, index_of)
        self._amb = amb
        self.masks = tuple(masks)
        self._members = None

    @property
    def ambient(self) -> FiniteGroup:
        return self._amb.group

    @property
    def members(self) -> tuple:
        """The members as `FiniteGroup`s, decoded from `masks` on first read."""
        if self._members is None:
            degree, elems = self._amb.group.degree, self._amb.elems
            self._members = tuple(
                FiniteGroup(degree, [], [elems[x] for x in lat.bits(m)]) for m in self.masks
            )
        return self._members

    @property
    def index_of(self) -> tuple:
        """The labels |G:K| by member id; the same tuple as `idx`."""
        return self.idx

    def __len__(self) -> int:
        return len(self.masks)

    def __repr__(self) -> str:
        return f"GroupInterval(|G|={self._amb.n}, |H|={self.masks[0].bit_count()}, members={len(self)})"


def _build_interval(amb: _Ambient, covers: dict) -> GroupInterval:
    """The interval of the member bitsets `covers` maps to their upper covers.

    Members are numbered by size, then element ids: a linear extension.
    Of two members of one size, the one whose ascending element ids come
    first holds the lowest id where they differ, so it has the larger
    bit-reversed mask; members are sorted by that key, negated, and never
    decoded.
    """
    spec = f"0{amb.n}b"
    masks = sorted(covers, key=lambda m: (m.bit_count(), -int(format(m, spec)[::-1], 2)))
    ids = {m: i for i, m in enumerate(masks)}
    lower: list = [[] for _ in masks]
    for i, m in enumerate(masks):
        for c in covers[m]:
            lower[ids[c]].append(i)
    index_of = [amb.n // m.bit_count() for m in masks]
    return GroupInterval(lat.FiniteLattice(lower), index_of, amb, masks)


def _overgroups(amb: _Ambient, base: _Subgroup, cap: int) -> tuple:
    """The upper covers of every member of [base, G], by bitset, and the members extended.

    Only one representative per N_G(base)-orbit is extended; see the
    module docstring.  `found` maps each member to None for a
    representative, else to the tree edge (member, element of N) that
    reached it, by conjugation; `images` maps each (member, s) conjugated to s·member·s⁻¹.
    """
    conjugators = None  # N's generators outside H, once a member other than H and G is found
    everything = (1 << amb.n) - 1
    found: dict = {base.mask: None}
    covers: dict = {}
    images: dict = {}
    reps = [base]
    for k in reps:  # grows while it is read
        covered = k.mask
        formed = set()
        while covered != everything:
            free = everything & ~covered
            g = (free & -free).bit_length() - 1
            ext = amb.extend(k, g)
            formed.add(ext.mask)
            if ext.mask not in found:
                reps.append(ext)
                found[ext.mask] = None
                if conjugators is None and ext.mask != everything:
                    conjugators = amb.normalizer_gens(base)
                    # G, found before N was known, is never conjugated: it is fixed by every s
                    images.update(((everything, s), everything) for s in conjugators)
                orbit = [ext.mask]
                for m in orbit:  # grows while it is read
                    if len(found) > cap:
                        raise CapExceeded(f"interval has more than {cap} members")
                    for s in conjugators or ():
                        image = images[m, s] = amb.conjugate(m, s)
                        if image not in found:
                            found[image] = (m, s)
                            orbit.append(image)
            covered |= amb.double_coset(k, g)
        up = covers[k.mask] = []
        for e in sorted(formed, key=int.bit_count):
            if all(c & ~e for c in up):
                up.append(e)
    for m, edge in found.items():
        if edge is not None:
            parent, s = edge
            covers[m] = [images[c, s] for c in covers[parent]]
    return covers, reps


def overgroup_interval(group: FiniteGroup, sub: FiniteGroup, cap: int = DEFAULT_MEMBER_CAP) -> GroupInterval:
    """Every K with sub <= K <= group, as a labelled lattice, memoized on the ambient group.

    The interval is enumerated once per base for as long as `_ambient` keeps
    the group; later calls return the same object, which is shared and must
    not be mutated.  `cap` is checked on every call.
    """
    amb = _ambient(group)
    key = amb.subgroup_mask(sub)
    if key in amb.intervals:
        interval = amb.intervals[key]
        if len(interval) > cap:
            raise CapExceeded(f"interval has more than {cap} members")
        return interval
    covers, _ = _overgroups(amb, amb.generated(lat.bits(key)), cap)
    interval = amb.intervals[key] = _build_interval(amb, covers)
    return interval


def full_subgroup_lattice(group: FiniteGroup, cap: int = DEFAULT_MEMBER_CAP) -> GroupInterval:
    """The whole subgroup lattice, as the interval over the trivial subgroup."""
    return overgroup_interval(group, trivial_group(group.degree), cap)


def bbl_between(group: FiniteGroup, sub: FiniteGroup, cap: int = DEFAULT_MEMBER_CAP) -> int:
    """Minimal number of bottom-boolean steps from sub up to group: the level of `lattice._bb_levels` holding sub."""
    lattice = overgroup_interval(group, sub, cap).lattice
    return next(d for d, level in enumerate(lat._bb_levels(lattice)) if lattice.bottom in level)


def bbl(group: FiniteGroup, cap: int = DEFAULT_MEMBER_CAP) -> int:
    return bbl_between(group, trivial_group(group.degree), cap)


def cfl(group: FiniteGroup, cap: int = DEFAULT_MEMBER_CAP) -> int:
    """Minimum of bbl_between(group, H) over core-free subgroups H.

    The first level of `lattice._bb_levels` on the full lattice that holds a
    core-free member gives the minimum.  The trivial subgroup is core-free,
    so some level always does.
    """
    full = full_subgroup_lattice(group, cap)
    amb, masks = full._amb, full.masks
    trivial = amb.trivial.mask
    return next(
        d for d, level in enumerate(lat._bb_levels(full.lattice))
        if any(amb.core(masks[v]) == trivial for v in level)
    )


def _generating_double_cosets(interval: GroupInterval):
    """(least element id, size) of each double coset HgH with <H, g> = G, by ascending least id.

    <H, hgh'> = <H, g>, so one g, the least id not yet covered, decides its
    double coset.  H itself comes first, and generates only when H = G.
    """
    amb = interval._amb
    h = amb.generated(lat.bits(interval.masks[0]))
    uncovered = (1 << amb.n) - 1
    while uncovered:
        g = (uncovered & -uncovered).bit_length() - 1
        double = amb.double_coset(h, g)
        uncovered &= ~double
        if len(amb.extend(h, g).elems) == amb.n:
            yield g, double.bit_count()


def verify_ore(interval: GroupInterval) -> Permutation:
    """The least g with <H union {g}> = G; one exists for every distributive interval."""
    if not lat.is_distributive(interval.lattice):
        raise NotDistributive("the Ore property is only guaranteed on distributive intervals")
    for g, _ in _generating_double_cosets(interval):
        return interval._amb.elems[g]
    raise OreViolation("no generating coset found on a distributive interval")


def generating_coset_count(interval: GroupInterval) -> int:
    """The number of right cosets Hg with <H, g> = G: each generating double coset HgH holds |HgH|/|H| of them."""
    return sum(size for _, size in _generating_double_cosets(interval)) // interval.masks[0].bit_count()
