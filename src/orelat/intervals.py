"""Concrete overgroup intervals [H, G] and full subgroup lattices.

A subgroup is a Python-int bitset over the element indices of its ambient
group, whose multiplication table is built once per group.  The overgroups
of H are enumerated breadth first by cyclic extension (Neubüser's method),
up to conjugacy by the normalizer N = N_G(H).  For a representative K and
each g outside K, <K, g> is grown from K's element list by adding whole
cosets of K (Dimino), so no member is closed again from its generators.
One g is tried per double coset KgK, since <K, kgk'> = <K, g>.

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
is its own representative.

The same search yields the Hasse diagram: a cover L of K is <K, g> for
every g in L outside K, so the minimal <K, g> formed over a representative
(taken by size) are exactly its upper covers.  The covers of any other
member are its tree parent's covers, carried along the tree edge's map.

A `GroupInterval` is an `IndexedInterval` labelled by the indices |G:K|,
checked once when it is built; the totients and the certifier take it as is.

Each interval is memoized on its ambient group's `_Ambient`, by the bitset
of its base, for as long as the `_ambient` LRU (32 groups) keeps that group.
Later calls return the same object, which is shared and must not be
mutated; the member cap is checked on every call.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import getitem, itemgetter
from typing import Iterable, Sequence

from . import lattice as lat
from .errors import CapExceeded, InvalidParameters, NotASubgroup, NotComparable, NotDistributive, OreViolation
from .perm import FiniteGroup, Permutation, trivial_group

DEFAULT_MEMBER_CAP = 10_000
_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


def _element_ids(mask: int) -> list:
    """The element ids in a subgroup bitset, ascending.

    A sparse mask is walked bit by bit (`lat.bits`); a dense one is read off
    its binary digits in one pass, which is faster from about a sixth full.
    """
    n = mask.bit_length()
    if mask.bit_count() * 6 < n:
        return lat.bits(mask)
    return list(compress(range(n), format(mask, "b")[::-1].encode().translate(_ZERO_ONE)))


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
        # itemgetter of a single index returns a scalar, not a tuple
        self.take = itemgetter(*elems) if len(elems) > 1 else (lambda row, e=elems[0]: (row[e],))


class _Ambient:
    """Multiplication table, inverses, subgroup extension and built intervals of one ambient group."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.n = group.order
        self.elems = group.elements
        images = [p.images for p in group.elements]
        self.index = index = {img: i for i, img in enumerate(images)}
        self.identity = index[group.identity.images]
        gens = [index[p.images] for p in group.generators]
        self.mul = _multiplication_table(images, index, gens or range(self.n), self.identity)
        self.inv = [row.index(self.identity) for row in self.mul]
        self.bit = [1 << i for i in range(self.n)]
        self.trivial = _Subgroup([self.identity], self.bit[self.identity], ())
        # generator ids: the group's own, else a generating set picked from all elements
        self.gens = tuple(gens) or self.generated(range(self.n)).gens
        # overgroup intervals built so far, by the bitset of their base
        self.intervals: dict = {}
        # conjugation tables built so far, by element id
        self._conjugations: dict = {}

    def subgroup_mask(self, sub: FiniteGroup) -> int:
        try:
            return sum(self.bit[self.index[p.images]] for p in sub.elements)
        except KeyError as exc:
            raise NotASubgroup("subgroup has elements outside the ambient group") from exc

    def _left_cosets(self, k: _Subgroup, gens: tuple, g: int, mask: int) -> tuple:
        """Close {g} under left multiplication by `gens`, a whole left coset r·K at a time.

        `mask` holds the cosets already present.  Returns the element ids of
        the cosets added and `mask` with their bits.  One representative per
        coset is multiplied, since s·rK = (s·r)K.
        """
        mul, bit, take = self.mul, self.bit, k.take
        added = list(take(mul[g]))
        mask |= sum(map(bit.__getitem__, added))
        reps = [g]
        for r in reps:  # grows while it is read
            for s in gens:
                t = mul[s][r]
                if not mask & bit[t]:
                    coset = take(mul[t])
                    added += coset
                    mask |= sum(map(bit.__getitem__, coset))
                    reps.append(t)
        return added, mask

    def extend(self, k: _Subgroup, g: int) -> _Subgroup:
        """<K, g>, as K's elements followed by whole left cosets r·K (Dimino).

        K and gK are closed under left multiplication by the generators of
        K and g, so their union with the cosets that reaches is <K, g>.
        """
        if k.mask & self.bit[g]:
            return k
        gens = k.gens + (g,)
        added, mask = self._left_cosets(k, gens, g, k.mask)
        return _Subgroup(k.elems + added, mask, gens)

    def double_coset(self, k: _Subgroup, g: int) -> int:
        """The bitset of KgK: the left cosets of K reached from gK by left multiplication by K."""
        return self._left_cosets(k, k.gens, g, 0)[1]

    def generated(self, ids: Iterable[int]) -> _Subgroup:
        """The subgroup generated by `ids`; its generators are those that were not yet inside."""
        k = self.trivial
        for x in ids:
            k = self.extend(k, x)
        return k

    def subgroup(self, sub: FiniteGroup) -> _Subgroup:
        return self.generated(lat.bits(self.subgroup_mask(sub)))

    def conjugate(self, mask: int, s: int) -> int:
        """The bitset s·K·s⁻¹ of the subgroup bitset `mask`, by the table x -> s·x·s⁻¹ built once per s."""
        table = self._conjugations.get(s)
        if table is None:
            column = tuple(map(itemgetter(self.inv[s]), self.mul))  # y -> y·s⁻¹
            table = self._conjugations[s] = tuple(map(column.__getitem__, self.mul[s]))
        bit = self.bit
        return sum(bit[table[x]] for x in _element_ids(mask))

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


def _multiplication_table(images: list, index: dict, gens: Sequence[int], identity: int) -> list:
    """Rows mul[a][b] = index of a * b, where (a * b)(x) = a(b(x)).

    Only the generators' rows compose permutations (the images of s read at
    the images of b).  Every other row follows from a row already known:
    (s * a) * b = s * (a * b), so row s*a is row s read at row a.
    """
    n = len(images)
    if n == 1:
        # itemgetter of a single index returns a scalar, not a tuple
        return [(0,)]
    mul: list = [None] * n
    compose = [itemgetter(*b) for b in images]
    for s in gens:
        mul[s] = tuple(index[c(images[s])] for c in compose)
    mul[identity] = tuple(range(n))
    reached = [identity]
    seen = {identity}
    for a in reached:
        read_a = itemgetter(*mul[a])
        for s in gens:
            b = mul[s][a]
            if b not in seen:
                seen.add(b)
                reached.append(b)
                if mul[b] is None:
                    mul[b] = read_a(mul[s])
    assert len(reached) == n, "the generators do not generate the group"
    return mul


@lru_cache(maxsize=32)
def _ambient(group: FiniteGroup) -> _Ambient:
    return _Ambient(group)


class IndexedInterval:
    """A graded-capable lattice with a positive integer label per element.

    For concrete intervals the label of K is the index |G:K|; synthetic
    models carry abstract labels.  Labels divide along the order: the top is
    1 and every cover strictly divides downward.
    """

    __slots__ = ("lattice", "idx")

    def __init__(self, lattice: lat.FiniteLattice, idx: Sequence[int]):
        idx = tuple(int(v) for v in idx)
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

    def edge_index(self, x: int, y: int) -> int:
        """Relative index across the cover x -> y."""
        if not self.lattice._upper[x] >> y & 1:
            raise NotComparable(f"{y} does not cover {x}")
        return self.idx[x] // self.idx[y]

    def below_index(self, x: int) -> int:
        """Relative index of x over the bottom element."""
        return self.idx[self.lattice.bottom] // self.idx[x]

    def __repr__(self) -> str:
        return f"IndexedInterval(n={self.lattice.n}, index={self.total_index})"


class GroupInterval(IndexedInterval):
    """The lattice of all subgroups K with H <= K <= G, labelled by the indices |G:K|."""

    __slots__ = ("ambient", "base", "members", "_amb", "_masks", "_mask_to_id")

    def __init__(self, ambient: FiniteGroup, base: FiniteGroup, members: Sequence[FiniteGroup],
                 lattice: lat.FiniteLattice, index_of: Sequence[int],
                 amb: _Ambient, masks: Sequence[int]):
        super().__init__(lattice, index_of)
        self.ambient = ambient
        self.base = base
        self.members = tuple(members)
        self._amb = amb
        self._masks = tuple(masks)
        self._mask_to_id = {s: i for i, s in enumerate(masks)}

    @property
    def index_of(self) -> tuple:
        """The labels |G:K| by member id; the same tuple as `idx`."""
        return self.idx

    def __len__(self) -> int:
        return len(self.members)

    def member_id(self, sub: FiniteGroup) -> int:
        key = self._amb.subgroup_mask(sub)
        if key not in self._mask_to_id:
            raise NotASubgroup("group is not a member of this interval")
        return self._mask_to_id[key]

    def rank(self) -> int:
        return self.lattice.height()

    def __repr__(self) -> str:
        return (
            f"GroupInterval(|G|={self.ambient.order}, |H|={self.base.order}, "
            f"members={len(self.members)})"
        )


def _build_interval(amb: _Ambient, covers: dict) -> GroupInterval:
    """The interval of the member bitsets `covers` maps to their upper covers.

    Members are numbered by size, then element ids: a linear extension.
    """
    ordered = sorted((m.bit_count(), _element_ids(m), m) for m in covers)
    ids = {m: i for i, (_, _, m) in enumerate(ordered)}
    lower: list = [[] for _ in ordered]
    for i, (_, _, m) in enumerate(ordered):
        for c in covers[m]:
            lower[ids[c]].append(i)
    lattice = lat.FiniteLattice(lower)
    degree, elems = amb.group.degree, amb.elems
    groups = [FiniteGroup(degree, [], [elems[x] for x in ids_of]) for _, ids_of, _ in ordered]
    index_of = [amb.n // size for size, _, _ in ordered]
    masks = [m for _, _, m in ordered]
    return GroupInterval(amb.group, groups[0], groups, lattice, index_of, amb, masks)


def _overgroups(amb: _Ambient, base: _Subgroup, cap: int) -> tuple:
    """The upper covers of every member of [base, G], by bitset, and the members extended.

    Only one representative per N_G(base)-orbit is extended; see the
    module docstring.  `found` maps each member to None for a
    representative, else to the tree edge (member, element of N) that
    reached it, by conjugation.
    """
    conjugators = None  # N's generators outside H, once a member other than H and G is found
    everything = (1 << amb.n) - 1
    found: dict = {base.mask: None}
    covers: dict = {}
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
                orbit = [ext.mask]
                for m in orbit:  # grows while it is read
                    if len(found) > cap:
                        raise CapExceeded(f"interval has more than {cap} members")
                    for s in conjugators or ():
                        image = amb.conjugate(m, s)
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
            covers[m] = [amb.conjugate(c, s) for c in covers[parent]]
    return covers, reps


def overgroup_interval(group: FiniteGroup, sub: FiniteGroup, cap: int = DEFAULT_MEMBER_CAP) -> GroupInterval:
    """Every K with sub <= K <= group, as a labelled lattice, memoized on the ambient group.

    The interval is enumerated once per base for as long as `_ambient` keeps
    the group (its LRU holds 32); later calls return the same object, which
    is shared and must not be mutated.  `cap` is checked on every call.
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


def _bb_edge_table(lattice: lat.FiniteLattice):
    """Memoized test of whether [u, v] is bottom-boolean, over pairs of element ids.

    The atoms of [u, v] are the covers of u below v; [u, v] is bottom-boolean
    when [u, b] is boolean for b their join.
    """
    cache: dict = {}

    def edge(u: int, v: int) -> bool:
        key = (u, v)
        if key not in cache:
            b = u
            for a in lat.bits(lattice._upper[u] & lattice._down[v]):
                b = lattice.join(b, a)
            cache[key] = lat.is_boolean_interval(lattice, u, b)
        return cache[key]

    return edge


def _shortest_bb_chain(lattice: lat.FiniteLattice, start: int, edge) -> int:
    """Length of the shortest chain start < ... < top with bottom-boolean steps."""
    top = lattice.top
    if start == top:
        return 0
    dist = {start: 0}
    frontier = [start]
    steps = 0
    while frontier:
        steps += 1
        nxt = []
        for u in frontier:
            for v in lat.bits(lattice._up[u]):
                if v in dist:
                    continue
                if edge(u, v):
                    if v == top:
                        return steps
                    dist[v] = steps
                    nxt.append(v)
        frontier = nxt
    raise AssertionError("a maximal chain of rank-1 steps always reaches the top")


def bbl_between(group: FiniteGroup, sub: FiniteGroup, cap: int = DEFAULT_MEMBER_CAP) -> int:
    """Minimal number of bottom-boolean steps from sub up to group."""
    lattice = overgroup_interval(group, sub, cap).lattice
    return _shortest_bb_chain(lattice, lattice.bottom, _bb_edge_table(lattice))


def bbl(group: FiniteGroup, cap: int = DEFAULT_MEMBER_CAP) -> int:
    return bbl_between(group, trivial_group(group.degree), cap)


def cfl(group: FiniteGroup, cap: int = DEFAULT_MEMBER_CAP) -> int:
    """Minimum of bbl_between(group, H) over core-free subgroups H.

    One breadth-first search runs down from the top over the bottom-boolean
    edges [u, v], read backwards, so it finds every member's distance to
    the top in increasing order; the first level that holds a core-free
    member gives the minimum.  The trivial subgroup is core-free, so the
    search always ends there.
    """
    full = full_subgroup_lattice(group, cap)
    lattice, amb, masks = full.lattice, full._amb, full._masks
    trivial = amb.trivial.mask
    edge = _bb_edge_table(lattice)
    reached = 1 << lattice.top
    frontier = [lattice.top]
    steps = 0
    while frontier:
        if any(amb.core(masks[v]) == trivial for v in frontier):
            return steps
        steps += 1
        nxt = []
        for v in frontier:
            for u in lat.bits(lattice._down[v] & ~reached):
                if edge(u, v):
                    reached |= 1 << u
                    nxt.append(u)
        frontier = nxt
    raise AssertionError("a maximal chain of rank-1 steps reaches the top from every member")


def _generating_coset_reps(interval: GroupInterval):
    """Brute force: the least element id g of each right coset Hg with <H, g> = G, ascending."""
    amb = interval._amb
    h = amb.subgroup(interval.base)
    return (g for g in _coset_rep_indices(amb, h) if len(amb.extend(h, g).elems) == amb.n)


def verify_ore(interval: GroupInterval) -> Permutation:
    """A witness g with <H union {g}> = G; exists for every distributive interval."""
    if not lat.is_distributive(interval.lattice):
        raise NotDistributive("the Ore property is only guaranteed on distributive intervals")
    g = next(_generating_coset_reps(interval), None)
    if g is None:
        raise OreViolation("no generating coset found on a distributive interval")
    return interval._amb.elems[g]


def generating_coset_count(interval: GroupInterval) -> int:
    """Brute-force number of cosets Hg whose union generates the whole group."""
    return sum(1 for _ in _generating_coset_reps(interval))


def _coset_rep_indices(amb: _Ambient, h: _Subgroup) -> list:
    """The least element id of every right coset Hg, ascending."""
    mul, bit = amb.mul, amb.bit
    remaining = (1 << amb.n) - 1
    reps = []
    while remaining:
        g = (remaining & -remaining).bit_length() - 1
        reps.append(g)
        remaining &= ~sum(bit[mul[x][g]] for x in h.elems)
    return reps
