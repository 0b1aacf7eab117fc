"""Concrete overgroup intervals [H, G] and full subgroup lattices.

A subgroup is a Python-int bitset over the element indices of its ambient
group, whose multiplication table is built once per group: `bytes` rows up
to order 256 and one `uint16` array above (`_multiplication_table`), read
alike by index, `itemgetter` and `map`.  The overgroups of H are
enumerated breadth first by cyclic extension (Neubüser's method), up to
conjugacy by the normalizer N = N_G(H).  One g is tried per double coset
KgK of a representative K, since <K, kgk'> = <K, g>, and one walk over
whole cosets of K (Dimino), marked in a bytearray of ASCII digits, gives
KgK and then <K, g>.  It stops at Lagrange's bound: a proper subgroup
above K holds at most |G:K|/p cosets of K, p the least prime factor of
|G:K|, so once <K, g> holds more it is G; at a prime index G is the only
cover, with no walk.

Each representative walks all its double cosets (`_Ambient.double_cosets`)
before it registers what it formed, and the base's walk answers two more
questions.  N is H and the double cosets HsH of |H| elements, since
|HsH| = |H| exactly when sHs⁻¹ = H.  The Ore answers (`verify_ore`,
`generating_coset_count`), kept with the interval, are the least g with
<H, g> = G and the number of right cosets Hg generating G: |HgH|/|H| per
generating double coset, or |G:H| - 1 at a prime index, with no walk.

N permutes the members of [H, G] and their covers, since s·<K, g>·s⁻¹ =
<sKs⁻¹, sgs⁻¹>.  A new <K, g> is closed under conjugation by N's
generators outside H (those in H fix every member), and each conjugate is
recorded with the member and the map that reached it: a Schreier tree of
bitsets.  Only the orbit's first member, its representative, is
extended.  Every overgroup is reached: it ends a chain H = K0 < K1 < ...
of single-element extensions K(i+1) = <Ki, g>, and if Ki = s·R·s⁻¹ for a
representative R and s in N, then K(i+1) = s·<R, s⁻¹·g·s>·s⁻¹ is in the
orbit of an extension formed over R.  N's generators are extracted only
if the base formed a member other than G; when N = H every member is its
own representative.  A conjugation table y -> s·y·s⁻¹ is `bytes` with
byte rows, so s·K·s⁻¹ is one `bytes.translate` of K's binary digits
through the table of s⁻¹; a larger group keeps a tuple and maps each
element of K.

The same search yields the Hasse diagram: a cover L of K is <K, g> for
every g in L outside K, so the minimal <K, g> formed over a representative
(taken by size) are exactly its upper covers.  The covers of any other
member are its tree parent's covers, carried along the tree edge's map
and read back from the images the orbit search stored.

A `GroupInterval` is a `totients.IndexedInterval` labelled by the indices
|G:K|, checked once when it is built; the totients and the certifier take
it as is.  Its members are the bitsets `masks`, over the element ids of
`_ambient(interval.ambient)`, and nothing else: the library reads them
directly (the characters count their elements per class), and `members`
decodes them to `FiniteGroup`s only when first read.  They are numbered by
size, then by ascending element ids, an order read off each bitset's
reversed digits without decoding it.

A group's `_Ambient` is the one cache of what is derived from the group:
its table, its conjugations, its closed subgroups and its intervals.
`_ambient` keeps the last 32, keyed by the group and its generators, since
the generators build the table and groups compare equal by their elements
alone.  Each interval, with its Ore answers, and each closed base is
memoized on its `_Ambient` by the bitset of its base (`_searched`); later
calls return the same object, which is shared and must not be mutated, and
the member cap is checked on every call.  The Ore questions on an interval
built by hand read the search of its base, run on first use.  A base whose
elements are not closed under multiplication raises NotASubgroup, on every
call, before anything is memoized; an ambient element set that is not a
group raises InvalidParameters naming an element missing from it.  `bbl`
and `cfl` read the bottom-boolean levels from `lattice._bb_levels`; this
module reads no lattice bitmask, and it is the only reader of the table:
the characters take it whole from `_Ambient.array`.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import lattice as lat
from .errors import CapExceeded, InvalidParameters, NotASubgroup, NotDistributive, OreViolation
from .perm import FiniteGroup, Permutation, _picker, trivial_group
from .totients import IndexedInterval

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
        try:
            self.identity = index[group.identity.images]
            # generator ids: the group's own, else those the table's walk picks, as `generated(range(n))` would
            gens = [index[p.images] for p in group.generators]
        except KeyError as exc:
            raise InvalidParameters(f"{_cycles(exc.args[0])} is not among the group's elements") from None
        # `table` is the (n, n) uint16 array above order 256 and None with byte rows
        self.mul, self.inv, self.table, self.gens = _multiplication_table(images, index, gens, self.identity)
        self.bit = [1 << i for i in range(self.n)]
        self.trivial = _Subgroup([self.identity], self.bit[self.identity], ())
        # every element id, shared by each <K, g> found to be G; id 0 is the
        # identity, since the elements are sorted by their images
        self.all_ids = list(range(self.n))
        # (overgroup interval, Ore answer) built so far, by the bitset of the base
        self.intervals: dict = {}
        # closed subgroups (`_closed`) by bitset
        self.subgroups: dict = {}
        # conjugation tables built so far, by element id
        self._conjugations: dict = {}

    def array(self) -> np.ndarray:
        """The (n, n) table: the kept `uint16` array, or a `uint8` view of the byte rows joined, made per call."""
        if self.table is None:
            return np.frombuffer(b"".join(self.mul), np.uint8).reshape(self.n, self.n)
        return self.table

    def subgroup_mask(self, sub: FiniteGroup) -> int:
        try:
            return sum(self.bit[self.index[p.images]] for p in sub.elements)
        except KeyError as exc:
            raise NotASubgroup("subgroup has elements outside the ambient group") from exc

    def _cosets(self, k: _Subgroup, step: tuple, reps: list, added: list, seen: bytearray, limit: int) -> bool:
        """Close the cosets r·K, r in `reps`, under left multiplication by `step`; False past `limit` of them.

        A coset reached is marked in `seen` and its elements and its
        representative, the one multiplied (s·rK = (s·r)K), are appended.
        """
        mul, take = self.mul, k.take
        for r in reps:  # grows while it is read
            for s in step:
                t = mul[s][r]
                if seen[t] == _ZERO:
                    if len(reps) == limit:
                        return False
                    coset = take(mul[t])
                    added += coset
                    for x in coset:
                        seen[x] = _ONE
                    reps.append(t)
        return True

    def extension(self, k: _Subgroup, g: int, double: bool = True) -> tuple:
        """(<K, g>, the bitset of KgK) from one walk over left cosets r·K; (K, K) for g in K.

        gK closed under K's generators is KgK; the walk goes on with g added
        and returns G past Lagrange's bound.  Without `double`, KgK reads 0,
        the bound applies from the start and a prime index is not walked.
        """
        if k.mask & self.bit[g]:
            return k, k.mask
        gens = k.gens + (g,)
        n = self.n
        index = n // len(k.elems)
        p = _least_prime_factor(index)
        room = index // p - 1 if p < index else 0  # cosets besides K in a proper subgroup above K
        double_mask = 0
        if double or room:
            seen = bytearray(b"0") * n
            for x in k.elems:
                seen[x] = _ONE
            added = list(k.take(self.mul[g]))
            for x in added:
                seen[x] = _ONE
            reps = [g]
            if self._cosets(k, k.gens, reps, added, seen, n if double else room):
                if double:
                    double_mask = int(seen[::-1], 2) ^ k.mask
                if len(reps) <= room and self._cosets(k, gens, reps, added, seen, room):
                    return _Subgroup(k.elems + added, int(seen[::-1], 2), gens), double_mask
        return _Subgroup(self.all_ids, (1 << n) - 1, gens), double_mask

    def generated(self, ids: Iterable[int]) -> _Subgroup:
        """The subgroup generated by `ids`; its generators are those that were not yet inside."""
        k = self.trivial
        for x in ids:
            k = self.extension(k, x, False)[0]
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

    def double_cosets(self, k: _Subgroup) -> Iterator[tuple]:
        """Yield (g, <K, g>, KgK) for each double coset KgK outside K, g its least id, by ascending g.

        At a prime index G is the only subgroup above K: one g, with no walk,
        stands for every element outside K, which takes KgK's place.
        """
        everything = (1 << self.n) - 1
        index = self.n // len(k.elems)
        prime = _least_prime_factor(index) == index
        covered = k.mask
        while covered != everything:
            free = everything & ~covered
            g = (free & -free).bit_length() - 1
            ext, double = self.extension(k, g, not prime)
            double = free if prime else double
            covered |= double
            yield g, ext, double

    def normalizer_gens(self, k: _Subgroup, doubles: Iterable[int]) -> tuple:
        """Element ids that generate N_G(K) together with K's generators, from the bitsets KgK of `double_cosets(k)`.

        The index must not be prime.  |KsK| = |K| exactly when s·K·s⁻¹ = K,
        so N_G(K) is K and the double cosets of |K| elements, whose bitsets
        are disjoint and so add up to their union.
        """
        order = len(k.elems)
        normalizer = k
        for s in lat.bits(sum(double for double in doubles if double.bit_count() == order)):
            normalizer = self.extension(normalizer, s, False)[0]
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
    not reach every element raise `InvalidParameters`, and so does a
    generator row that falls outside the elements, naming the product.
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
        try:
            row = [index[c(images[s])] for c in compose]
        except KeyError as exc:
            raise InvalidParameters(
                f"the group's elements are not closed under multiplication: {_cycles(exc.args[0])} lies outside them"
            ) from None
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


def _cycles(images: tuple) -> str:
    """The permutation with these images in 0-based cycle notation, for an error message."""
    return Permutation._trusted(images).to_cycles(one_based=False)


def _ambient(group: FiniteGroup) -> _Ambient:
    """The group's `_Ambient`, shared by every equal group with the same generators."""
    return _ambient_memo(group, group.generators)


@lru_cache(maxsize=32)
def _ambient_memo(group: FiniteGroup, generators: tuple) -> _Ambient:
    return _Ambient(group)


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
            # ascending ids are sorted, distinct elements
            self._members = tuple(
                FiniteGroup._trusted(degree, (), tuple(map(elems.__getitem__, lat.bits(m)))) for m in self.masks
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
    """(covers, reps, ore): the upper covers of every member of [base, G] by bitset, the members extended, the Ore answer.

    Each representative registers what it formed, in the order formed, each
    new member with its N_G(base)-orbit; see the module docstring.  `found`
    maps each member to None for a representative, else to the tree edge
    (member, element of N) that reached it; `images` maps each (member, s)
    conjugated to s·member·s⁻¹.  `ore` is (the least id g with
    <base, g> = G, None if none; the number of cosets base·g generating G).
    """
    everything = (1 << amb.n) - 1
    found: dict = {base.mask: None}
    covers: dict = {}
    images: dict = {}
    reps = [base]
    for k in reps:  # grows while it is read
        formed: dict = {}
        walk = []  # the base's (g, <H, g> by bitset, HgH); none for H = G, which is <G, 1>
        for g, ext, double in amb.double_cosets(k):
            formed.setdefault(ext.mask, ext)
            if k is base:
                walk.append((g, ext.mask, double))
        if k is base:
            generating = [(g, d) for g, e, d in walk if e == everything] if walk else [(amb.identity, everything)]
            ore = (generating[0][0] if generating else None, sum(d for _, d in generating).bit_count() // len(base.elems))
            conjugators = amb.normalizer_gens(base, [d for _, _, d in walk]) if formed.keys() - {everything} else ()
        for mask, ext in formed.items():
            if mask in found:
                continue
            reps.append(ext)
            found[mask] = None
            orbit = [mask]
            for m in orbit:  # grows while it is read
                if len(found) > cap:
                    raise CapExceeded(f"interval has more than {cap} members")
                for s in conjugators:
                    image = images[m, s] = amb.conjugate(m, s)
                    if image not in found:
                        found[image] = (m, s)
                        orbit.append(image)
        up = covers[k.mask] = []
        for e in sorted(formed, key=int.bit_count):
            if all(c & ~e for c in up):
                up.append(e)
    for m, edge in found.items():
        if edge is not None:
            parent, s = edge
            covers[m] = [images[c, s] for c in covers[parent]]
    return covers, reps, ore


def overgroup_interval(group: FiniteGroup, sub: FiniteGroup, cap: int = DEFAULT_MEMBER_CAP) -> GroupInterval:
    """Every K with sub <= K <= group, as a labelled lattice, memoized on the ambient group by `_searched`.

    NotASubgroup when sub has elements outside group or they are not closed.
    """
    amb = _ambient(group)
    return _searched(amb, amb.subgroup_mask(sub), cap)[0]


def _searched(amb: _Ambient, mask: int, cap: int) -> tuple:
    """(interval, Ore answer) of [mask, G] from one search, kept on `amb` by the base's bitset; `cap` checked every call."""
    entry = amb.intervals.get(mask)
    if entry is None:
        covers, _, ore = _overgroups(amb, _closed(amb, mask), cap)
        entry = amb.intervals[mask] = (_build_interval(amb, covers), ore)
    elif len(entry[0]) > cap:
        raise CapExceeded(f"interval has more than {cap} members")
    return entry


def _closed(amb: _Ambient, mask: int) -> _Subgroup:
    """The subgroup with bitset `mask`, closed once per ambient group and kept by bitset.

    NotASubgroup when those elements are not closed under multiplication,
    on every call, and nothing is kept.
    """
    sub = amb.subgroups.get(mask)
    if sub is None:
        sub = amb.generated(lat.bits(mask))
        if sub.mask != mask:
            raise NotASubgroup("subgroup's elements are not closed under multiplication")
        amb.subgroups[mask] = sub
    return sub


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


def _ore(interval: GroupInterval) -> tuple:
    """(least generating id or None, generating coset count) from the search of the base, run on first use."""
    return _searched(interval._amb, interval.masks[0], len(interval))[1]


def verify_ore(interval: GroupInterval) -> Permutation:
    """The least g with <H union {g}> = G; one exists for every distributive interval."""
    if not lat.is_distributive(interval.lattice):
        raise NotDistributive("the Ore property is only guaranteed on distributive intervals")
    g = _ore(interval)[0]
    if g is None:
        raise OreViolation("no generating coset found on a distributive interval")
    return interval._amb.elems[g]


def generating_coset_count(interval: GroupInterval) -> int:
    """The number of right cosets Hg with <H, g> = G: each generating double coset HgH holds |HgH|/|H| of them."""
    return _ore(interval)[1]
