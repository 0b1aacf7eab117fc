"""Concrete overgroup intervals [H, G] and full subgroup lattices.

A subgroup is a Python-int bitset over the element indices of its ambient
group, whose multiplication table is built once per group.  The overgroups
of H are enumerated breadth first by cyclic extension (Neubüser's method):
for each member K and each g outside K, <K, g> is grown from K's element
list by adding whole cosets of K (Dimino), so no member is closed again
from its generators.  One g is tried per double coset KgK, since
<K, kgk'> = <K, g>.  Every overgroup is reached, because it is the end of
a chain of single-element extensions that starts at H.

Each interval is memoized on its ambient group's `_Ambient`, by the bitset
of its base, for as long as the `_ambient` LRU (32 groups) keeps that group.
Later calls return the same object, which is shared and must not be
mutated; the member cap is checked on every call.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from . import lattice as lat
from .errors import CapExceeded, NotASubgroup, NotDistributive, OreViolation
from .perm import FiniteGroup, Permutation, trivial_group

DEFAULT_MEMBER_CAP = 10_000


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

    def to_group(self, k: _Subgroup) -> FiniteGroup:
        return FiniteGroup(self.group.degree, [], [self.elems[i] for i in k.elems])

    def core(self, mask: int) -> int:
        """The bitset of the largest normal subgroup inside the subgroup bitset `mask`.

        `mask` is intersected with its conjugates s·K·s⁻¹ under the generators
        s until it stops shrinking.  The fixed point is a subgroup normalized
        by every generator, hence normal, and no step removes an element of
        the core, so the fixed point is the core.
        """
        mul, inv, bit = self.mul, self.inv, self.bit
        while True:
            before = mask
            for s in self.gens:
                row, s_inv = mul[s], inv[s]
                mask &= sum(bit[mul[row[x]][s_inv]] for x in lat.bits(mask))
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


class GroupInterval:
    """The lattice of all subgroups K with H <= K <= G, with index labels."""

    __slots__ = ("ambient", "base", "members", "lattice", "index_of", "_amb", "_masks", "_mask_to_id")

    def __init__(self, ambient: FiniteGroup, base: FiniteGroup, members: Sequence[FiniteGroup],
                 lattice: lat.FiniteLattice, index_of: Sequence[int],
                 amb: _Ambient, masks: Sequence[int]):
        self.ambient = ambient
        self.base = base
        self.members = tuple(members)
        self.lattice = lattice
        self.index_of = tuple(index_of)
        self._amb = amb
        self._masks = tuple(masks)
        self._mask_to_id = {s: i for i, s in enumerate(masks)}

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


def _build_interval(amb: _Ambient, subgroups: Iterable[_Subgroup]) -> GroupInterval:
    ordered = sorted(subgroups, key=lambda k: (len(k.elems), sorted(k.elems)))
    masks = [k.mask for k in ordered]
    outside = [~m for m in masks]
    leq = np.array([[not a & b for b in outside] for a in masks], dtype=bool)
    lattice = lat.build_lattice(leq)
    assert lattice.bottom == 0
    groups = [amb.to_group(k) for k in ordered]
    index_of = [amb.n // len(k.elems) for k in ordered]
    return GroupInterval(amb.group, groups[0], groups, lattice, index_of, amb, masks)


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
    base = amb.generated(lat.bits(key))
    found = {base.mask: base}
    queue = [base]
    everything = (1 << amb.n) - 1
    for k in queue:
        covered = k.mask
        while covered != everything:
            free = everything & ~covered
            g = (free & -free).bit_length() - 1
            ext = amb.extend(k, g)
            if ext.mask not in found:
                found[ext.mask] = ext
                queue.append(ext)
                if len(found) > cap:
                    raise CapExceeded(f"interval has more than {cap} members")
            covered |= amb.double_coset(k, g)
    interval = amb.intervals[key] = _build_interval(amb, found.values())
    return interval


def full_subgroup_lattice(group: FiniteGroup, cap: int = DEFAULT_MEMBER_CAP) -> GroupInterval:
    """The whole subgroup lattice, as the interval over the trivial subgroup."""
    return overgroup_interval(group, trivial_group(group.degree), cap)


def sub_interval(interval: GroupInterval, lo: int, hi: int) -> GroupInterval:
    """The interval [members[lo], members[hi]] re-rooted with its own labels."""
    ids = lat.members_between(interval.lattice, lo, hi)
    sub_lat = lat.interval(interval.lattice, lo, hi)
    top_order = interval.members[hi].order
    return GroupInterval(
        interval.members[hi],
        interval.members[lo],
        [interval.members[i] for i in ids],
        sub_lat,
        [top_order // interval.members[i].order for i in ids],
        interval._amb,
        [interval._masks[i] for i in ids],
    )


def _bb_edge_table(lattice: lat.FiniteLattice):
    """Memoized test of whether [u, v] is bottom-boolean, over pairs of element ids.

    The atoms of [u, v] are the covers of u below v; [u, v] is bottom-boolean
    when [u, b] is boolean for b their join.
    """
    covers_up = lat._order_masks(lattice.covers)[1]
    join = lattice.join
    cache: dict = {}

    def edge(u: int, v: int) -> bool:
        key = (u, v)
        if key not in cache:
            b = u
            for a in lat.bits(covers_up[u] & lattice._down[v]):
                b = int(join[b, a])
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
    """Minimum of bbl_between(group, H) over core-free subgroups H."""
    full = full_subgroup_lattice(group, cap)
    amb = full._amb
    trivial = amb.trivial.mask
    edge = _bb_edge_table(full.lattice)
    best: Optional[int] = None
    for i, mask in enumerate(full._masks):
        if amb.core(mask) != trivial:
            continue
        steps = _shortest_bb_chain(full.lattice, i, edge)
        if best is None or steps < best:
            best = steps
    assert best is not None, "the trivial subgroup is always core-free"
    return best


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
