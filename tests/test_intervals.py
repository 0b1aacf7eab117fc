import functools
import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orelat import catalog as cat
from orelat import certifier as cf
from orelat import characters as ch
from orelat import intervals as iv
from orelat import lattice as lat
from orelat import reproduce as rp
from orelat import totients as tt
from orelat.errors import CapExceeded, InvalidParameters, NotASubgroup, NotDistributive
from orelat.perm import FiniteGroup, Permutation, generate, subgroup_generated, trivial_group
from dense_lattice import DenseLattice, complement, dense, leq, member_id, members_between, sub_interval
from references import element_order
from test_lattice import (
    assert_flags_match_reference,
    assert_matches_dense,
    dense_slice,
    reference_is_bottom_boolean,
)

RANDOM_ORDER_CAP = 120


def assert_members_ordered_by_size_then_element_ids(interval):
    """The bit-reversed sort key numbers members as the decoded (size, ascending element ids) keys would."""
    keys = [(mask.bit_count(), reference_bits(mask)) for mask in interval.masks]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def reference_overgroups(group, sub):
    """Element sets of every K with sub <= K <= group, by pairwise joins.

    The single-element extensions <H, g> are closed under pairwise join,
    which yields every overgroup of H: any K >= H is the join of its
    single-element extensions.  Products come from Permutation composition,
    not from the ambient multiplication table.
    """
    elems = group.elements
    index = {p: i for i, p in enumerate(elems)}
    mul = [[index[a * b] for b in elems] for a in elems]
    identity = index[group.identity]

    def closure(gens):
        seen = {identity}
        stack = [identity]
        while stack:
            row = mul[stack.pop()]
            for g in gens:
                y = row[g]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return frozenset(seen)

    h_set = frozenset(index[p] for p in sub.elements)
    h_gens = ()
    for x in sorted(h_set):
        if x not in closure(h_gens):
            h_gens += (x,)
    found = {h_set: h_gens}
    for g in range(len(elems)):
        if g not in h_set:
            found.setdefault(closure(h_gens + (g,)), h_gens + (g,))
    ordered = list(found)
    i = 0
    while i < len(ordered):
        a = ordered[i]
        for b in ordered[:i]:
            if a >= b or a <= b:
                continue
            k = closure(found[a] + found[b])
            if k not in found:
                found[k] = found[a] + found[b]
                ordered.append(k)
        i += 1
    return {frozenset(elems[x] for x in k) for k in found}


def member_sets(interval):
    return {frozenset(m.elements) for m in interval.members}


def labelled_member_sets(interval):
    return {(frozenset(m.elements), interval.idx[i]) for i, m in enumerate(interval.members)}


@st.composite
def groups_with_base(draw):
    """A group from 2-3 random permutations of degree <= 6, order-capped, and a random subgroup."""
    degree = draw(st.integers(2, 6))
    gens = []
    for images in draw(st.lists(st.permutations(range(degree)), min_size=2, max_size=3)):
        try:
            generate(degree, gens + [Permutation(images)], cap=RANDOM_ORDER_CAP)
        except CapExceeded:
            continue
        gens.append(Permutation(images))
    group = generate(degree, gens)
    picks = draw(st.lists(st.integers(0, group.order - 1), max_size=2))
    return group, subgroup_generated(group, [group.elements[i] for i in picks])


@st.composite
def groups_above_the_cut(draw):
    """A subgroup of S7 of order 257-2,520 from 2-3 random generators, order-capped.

    Generators that fix the last point keep the group inside S6, whose
    order-360 and order-720 subgroups lie above the cut as well as A7.
    """
    degree = draw(st.sampled_from([6, 7]))
    gens = []
    for images in draw(st.lists(st.permutations(range(degree)), min_size=2, max_size=3)):
        p = Permutation(list(images) + list(range(degree, 7)))
        try:
            generate(7, gens + [p], cap=2520)
        except CapExceeded:
            continue
        gens.append(p)
    group = generate(7, gens)
    assume(group.order > 256)
    return group


def brute_force_normalizer(group, sub):
    """Elements g of group with g h g^-1 in sub for every h in sub, by Permutation arithmetic."""
    members = frozenset(sub.elements)
    return {
        g for g in group.elements
        if all(g * h * g.inverse() in members for h in sub.elements)
    }


@st.composite
def groups_with_normalized_base(draw):
    """A `groups_with_base` group and a base H with N_G(H) > H.

    H is the trivial group, the normal closure of an element, or a cyclic
    subgroup of a non-abelian group.
    """
    group, _ = draw(groups_with_base())
    x = group.elements[draw(st.integers(0, group.order - 1))]
    kind = draw(st.sampled_from(["trivial", "normal closure", "cyclic"]))
    if kind == "trivial":
        base = trivial_group(group.degree)
    elif kind == "normal closure":
        base = subgroup_generated(group, [g * x * g.inverse() for g in group.elements])
    else:
        assume(any(a * b != b * a for a in group.generators for b in group.generators))
        base = subgroup_generated(group, [x])
    assume(len(brute_force_normalizer(group, base)) > base.order)
    return group, base


def brute_force_classes(group):
    """Conjugation orbits under every element, as sorted element-id lists."""
    index = {p: i for i, p in enumerate(group.elements)}
    classes = {
        frozenset(index[g * x * g.inverse()] for g in group.elements) for x in group.elements
    }
    return sorted(sorted(c) for c in classes)


def brute_force_core(group, sub):
    """Elements h of sub with g h g^-1 in sub for every g in group, by Permutation arithmetic."""
    members = frozenset(sub.elements)
    pairs = [(g, g.inverse()) for g in group.elements]
    return {h for h in sub.elements if all(g * h * g_inv in members for g, g_inv in pairs)}


def table_core(full, i):
    """The core of member i of a full lattice, from the multiplication table, as permutations."""
    amb = full._amb
    return {amb.group.elements[x] for x in lat.bits(amb.core(full.masks[i]))}


def a3_in_s3():
    return subgroup_generated(cat.symmetric(3), [Permutation([1, 2, 0])])


class TestOvergroupInterval:
    def test_whole_group_singleton(self):
        group = cat.symmetric(3)
        assert len(iv.overgroup_interval(group, group)) == 1

    def test_a3_s3_is_a_two_chain(self):
        interval = iv.overgroup_interval(cat.symmetric(3), a3_in_s3())
        assert len(interval) == 2
        assert interval.lattice.height() == 1

    def test_interval_is_its_own_labelled_model(self):
        interval = iv.overgroup_interval(cat.symmetric(3), a3_in_s3())
        assert isinstance(interval, iv.IndexedInterval)
        assert tt.from_group_interval(interval) is interval
        assert interval.index_of is interval.idx
        assert interval.idx == (2, 1)

    def test_d8_in_psl(self):
        interval = iv.overgroup_interval(*cat.catalog_pair("psl2_7/d8"))
        assert len(interval) == 4
        assert lat.is_boolean(interval.lattice)
        assert interval.lattice.height() == 2
        atoms = lat.atoms(interval.lattice)
        assert sorted(interval.index_of[a] for a in atoms) == [7, 7]
        assert sorted(interval.members[a].order // 8 for a in atoms) == [3, 3]

    def test_s3_in_psl(self):
        interval = iv.overgroup_interval(*cat.catalog_pair("psl2_7/s3"))
        atoms = lat.atoms(interval.lattice)
        assert len(interval) == 4
        assert sorted(interval.index_of[a] for a in atoms) == [7, 7]
        assert sorted(interval.members[a].order // 6 for a in atoms) == [4, 4]

    def test_not_a_subgroup(self):
        with pytest.raises(NotASubgroup):
            iv.overgroup_interval(cat.symmetric(3), cat.cyclic(4))

    def test_elements_not_closed_are_not_a_subgroup(self):
        """{(), (0 1 2)} lies in S3 but generates A3: refused, and nothing is memoized under its bitset."""
        group = generate(3, [Permutation.from_cycles("(0 1)", 3, one_based=False),
                             Permutation.from_cycles("(0 1 2)", 3, one_based=False)])
        half = FiniteGroup(3, [], [Permutation.identity(3), Permutation.from_cycles("(0 1 2)", 3, one_based=False)])
        for call in (iv.overgroup_interval, iv.bbl_between):
            with pytest.raises(NotASubgroup, match="not closed"):
                call(group, half)
        amb = iv._ambient(group)
        assert amb.subgroup_mask(half) not in amb.intervals
        a3 = subgroup_generated(group, half.elements)
        assert len(iv.overgroup_interval(group, a3)) == 2

    @pytest.mark.parametrize("build", [iv.full_subgroup_lattice, ch.character_table], ids=["lattice", "characters"])
    def test_ambient_elements_not_closed_are_named(self, build):
        """{(), (0 1 2)} as a whole group: (0 1 2)·(0 1 2) = (0 2 1) lies outside it."""
        half = FiniteGroup(3, [], [Permutation.identity(3), Permutation([1, 2, 0])])
        with pytest.raises(InvalidParameters, match=r"not closed under multiplication: \(0 2 1\) lies outside"):
            build(half)

    def test_ambient_without_the_identity_is_named(self):
        with pytest.raises(InvalidParameters, match=r"^\(\) is not among the group's elements$"):
            iv.full_subgroup_lattice(FiniteGroup(3, [], [Permutation([1, 2, 0]), Permutation([2, 0, 1])]))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            iv.full_subgroup_lattice(cat.symmetric(4), cap=5)

    def test_index_labels_are_order_reversing(self):
        interval = cat.catalog_interval("s4")
        lattice = interval.lattice
        for x in range(lattice.n):
            for y in range(lattice.n):
                if lattice.covers[x, y]:
                    assert interval.index_of[x] > interval.index_of[y]
                    assert interval.index_of[x] % interval.index_of[y] == 0

    @settings(max_examples=40, deadline=None)
    @given(groups_with_base())
    def test_matches_reference_on_random_groups(self, pair):
        group, base = pair
        interval = iv.overgroup_interval(group, base)
        assert member_sets(interval) == reference_overgroups(group, base)
        full = iv.full_subgroup_lattice(group)
        assert member_sets(interval) == {
            frozenset(m.elements) for m in full.members if base <= m
        }

    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_matches_reference_on_scan_groups(self, name):
        group = cat.catalog_group(name)
        full = cat.catalog_interval(name)
        assert member_sets(full) == reference_overgroups(group, trivial_group(group.degree))

    @pytest.mark.parametrize("name", [*cat.SCAN_GROUP_NAMES, "s2xs3_3"])
    def test_members_ordered_by_size_then_element_ids(self, name):
        assert_members_ordered_by_size_then_element_ids(cat.catalog_interval(name))

    @settings(max_examples=30, deadline=None)
    @given(groups_with_base())
    def test_members_ordered_by_size_then_element_ids_on_random_groups(self, pair):
        group, base = pair
        assert_members_ordered_by_size_then_element_ids(iv.overgroup_interval(group, base))
        assert_members_ordered_by_size_then_element_ids(iv.full_subgroup_lattice(group))

    @settings(max_examples=20, deadline=None)
    @given(groups_with_base())
    def test_multiplication_table_matches_composition(self, pair):
        group, _ = pair
        amb = iv._ambient(group)
        elems = group.elements
        assert all(type(row) is bytes for row in amb.mul)
        for a in range(group.order):
            for b in range(group.order):
                assert elems[amb.mul[a][b]] == elems[a] * elems[b]
            assert elems[amb.inv[a]] == elems[a].inverse()

    @pytest.mark.parametrize("degree", [1, 3])
    def test_trivial_group_table(self, degree):
        amb = iv._ambient(trivial_group(degree))
        assert amb.mul == [b"\0"] and amb.inv == [0]
        assert amb.group.elements[amb.inv[0]] == amb.group.elements[0].inverse()

    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES + ("s2xs3_3",))
    def test_inverses_and_rows_match_permutations_on_scan_groups(self, name):
        # the inverses are read along the table's walk, not searched for in its rows
        group = cat.catalog_group(name)
        amb = iv._ambient(group)
        elems = group.elements
        assert [elems[amb.inv[a]] for a in range(group.order)] == [p.inverse() for p in elems]
        for a in {0, amb.identity, group.order // 2, group.order - 1}:
            assert [elems[x] for x in amb.mul[a]] == [elems[a] * b for b in elems]
            assert amb.mul[a][amb.inv[a]] == amb.mul[amb.inv[a]][a] == amb.identity

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=3)))
    def test_inverses_match_permutations_with_redundant_generators(self, images):
        # generators may repeat, be the identity or be each other's inverses
        degree = len(images[0])
        gens = []
        for image in images:
            p = Permutation(image)
            gens += [p, p.inverse(), p]
        try:
            group = generate(degree, gens, cap=RANDOM_ORDER_CAP)
        except CapExceeded:
            return
        amb = iv._ambient(group)
        assert [group.elements[x] for x in amb.inv] == [p.inverse() for p in group.elements]

    @pytest.mark.parametrize("name", ["psl2_7/d8", "s4", "s2xs3_2"])
    def test_members_decode_the_masks(self, name):
        interval = cat.catalog_interval(name)
        amb = iv._ambient(interval.ambient)
        assert amb is interval._amb
        assert len(interval.members) == len(interval.masks) == len(interval)
        for mask, member in zip(interval.masks, interval.members):
            assert frozenset(member.elements) == {amb.group.elements[x] for x in lat.bits(mask)}
            assert amb.subgroup_mask(member) == mask
        assert interval.members is interval.members

    def test_element_ids_witnesses_and_members_are_pinned(self):
        # over every scan group's full lattice and every named pair: the image
        # tuples by element id, verify_ore's witness and each member's order and
        # elements, as the table built from a list of Permutations gave them
        digest = hashlib.sha256()
        for name in cat.SCAN_GROUP_NAMES + tuple(sorted(cat._INTERVALS)):
            interval = cat.catalog_interval(name)
            amb = iv._ambient(interval.ambient)
            assert list(amb.images) == [p.images for p in interval.ambient.elements]
            try:
                witness = iv.verify_ore(interval).images
            except NotDistributive:
                witness = None
            members = [(m.order, [p.images for p in m.elements]) for m in interval.members]
            digest.update(repr((name, list(amb.images), witness, members)).encode())
        assert digest.hexdigest() == "aa65314198929fe921168373bf603ab808ec6a1b8fea890f8881d4d5c7577b51"

    def test_len_does_not_build_members(self):
        full = cat.catalog_interval("s4")
        fresh = iv.GroupInterval(full.lattice, full.idx, full._amb, full.masks)
        assert len(fresh) == 30
        assert fresh._members is None
        assert fresh.members == full.members


class TestTableRows:
    """Rows are `bytes` up to order 256, composed by `bytes.translate`; above, every entry read is an int."""

    @staticmethod
    def assert_table_matches_composition(group, row_type):
        amb = iv._ambient(group)
        elems = group.elements
        if row_type is not None:
            assert {type(row) for row in amb.mul} == {row_type}
        assert [elems[x] for x in amb.inv] == [p.inverse() for p in elems]
        for a, p in enumerate(elems):
            row = amb.mul[a]
            entries = [row[b] for b in range(group.order)]
            assert list(row) == entries
            assert {type(x) for x in [*entries, *row]} == {int}
            assert [elems[x] for x in entries] == [p * q for q in elems]

    @pytest.mark.parametrize("bare", [False, True])
    @pytest.mark.parametrize("n, row_type", [(128, bytes), (129, None)])
    def test_rows_match_composition_at_the_cut(self, n, row_type, bare):
        # dihedral(128) has order 256, so its rows are padded by 0 bytes; a
        # bare group is given no generators and picks its own from the elements
        group = cat.dihedral(n)
        if bare:
            group = FiniteGroup(n, [], group.elements)
        self.assert_table_matches_composition(group, row_type)

    @settings(max_examples=15, deadline=None)
    @given(groups_above_the_cut(), st.randoms(use_true_random=False))
    def test_rows_inverses_and_conjugates_above_the_cut(self, group, rng):
        amb = iv._ambient(group)
        elems = group.elements
        assert [elems[x] for x in amb.inv] == [p.inverse() for p in elems]
        for a in {amb.identity, *amb.gens, *rng.sample(range(amb.n), 6)}:
            row = amb.mul[a]
            assert [elems[row[b]] for b in range(amb.n)] == [elems[a] * q for q in elems]
        conjugators = [*amb.gens, *rng.sample(range(amb.n), 4)]
        subgroups = [amb.generated(rng.sample(range(amb.n), k)) for k in (1, 2)]
        masks = [*(k.mask for k in subgroups), (1 << amb.n) - 1, rng.getrandbits(amb.n) | 1]
        assert_conjugates_match_reference(amb, masks, conjugators)

    @pytest.mark.parametrize("group", [cat.symmetric(4), cat.symmetric(6), cat.dihedral(129)],
                             ids=["s4", "s6", "d129"])
    def test_bare_groups_pick_the_generators_of_the_all_rows_route(self, group):
        # a bare group's table composes only the rows of the generators it picks, each
        # outside the subgroup of those before, so at most log2(n) of them
        bare = FiniteGroup(group.degree, [], group.elements)
        amb = iv._Ambient(bare)
        images = [p.images for p in bare.elements]
        mul, inv, _, gens = iv._multiplication_table(images, amb.index, [], amb.identity)
        assert gens == amb.gens == amb.generated(range(amb.n)).gens
        assert 2 ** len(amb.gens) <= amb.n
        mul, inv, _, gens = iv._multiplication_table(images, amb.index, range(amb.n), amb.identity)
        assert gens == tuple(range(amb.n))
        assert amb.inv == inv
        assert [list(row) for row in amb.mul] == [list(row) for row in mul]

    def test_bare_s7_matches_the_table_of_its_own_generators(self):
        group = cat.symmetric(7)
        generated = iv._Ambient(group)
        bare = iv._Ambient(FiniteGroup(group.degree, [], group.elements))
        assert bare.gens == (1, 2, 6, 24, 120, 720) == bare.generated(range(bare.n)).gens
        assert bare.table.dtype == np.uint16 and np.array_equal(bare.table, generated.table)
        assert bare.inv == generated.inv

    def test_ids_past_uint16_are_refused_before_any_row_is_built(self):
        # a stand-in for a group of order 65,537: no row is composed, so nothing is read from it
        images = [(0,)] * 65_537
        with pytest.raises(CapExceeded, match="limit of 65,536 elements"):
            iv._multiplication_table(images, {}, [0], 0)

    @pytest.mark.parametrize("n", [3, 129])
    def test_generators_that_do_not_generate_are_refused(self, n):
        # the rotation alone reaches half of the dihedral group, on either side of the cut
        group = cat.dihedral(n)
        rotation = Permutation([(i + 1) % n for i in range(n)])
        partial = FiniteGroup(n, [rotation], group.elements)
        # groups are equal by their elements, so the whole group's table must not answer
        iv._ambient(group)
        assert partial == group
        for build in (iv._ambient, iv.full_subgroup_lattice, ch.conjugacy_classes):
            with pytest.raises(InvalidParameters, match=f"reach {n} of the group's {2 * n} elements"):
                build(partial)


def reference_bits(mask):
    """The bit-by-bit walk, as the reference for `lat.bits`' digit pass."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class TestElementIds:
    """Subgroup bitsets are decoded by `lat.bits`: it walks sparse masks and reads dense ones off their digits."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([4, 5, 6]),
        st.one_of(st.lists(st.integers(0, 719), max_size=60), st.integers(0, 2 ** 720 - 1)),
    )
    @example(6, 2 ** 720 - 1)
    @example(6, [])
    def test_sparse_and_dense_masks(self, degree, ids):
        amb = iv._ambient(cat.symmetric(degree))
        mask = sum({1 << x for x in ids}) if isinstance(ids, list) else ids
        mask &= (1 << amb.n) - 1
        assert lat.bits(mask) == reference_bits(mask)

    @pytest.mark.parametrize("n", [1, 24, 256, 257, 720, 5040, 11300])
    def test_both_sides_of_the_crossover(self, n):
        # the walk is taken below `crossover` set bits of an n-bit mask, the digit pass from it on
        crossover = -(-(20000 + 160 * n) // (2500 + n))
        rng = random.Random(n)
        counts = {1, 2, crossover - 1, crossover, crossover + 1, n // 2, n} & set(range(1, n + 1))
        for count in counts:
            mask = sum(1 << x for x in rng.sample(range(n - 1), count - 1)) | 1 << (n - 1)
            assert mask.bit_length() == n and mask.bit_count() == count
            assert lat.bits(mask) == reference_bits(mask), count
        assert min(counts) < crossover <= max(counts) or n < crossover
        assert lat.bits(0) == []
        assert lat.bits(1 << n) == [n]


def reference_conjugate(amb, mask, s):
    """s·K·s⁻¹ by Permutation arithmetic on each element of K, the reference for `_Ambient.conjugate`."""
    p = amb.group.elements[s]
    p_inv = p.inverse()
    return sum(1 << amb.index[(p * amb.group.elements[x] * p_inv).images] for x in reference_bits(mask))


def assert_conjugates_match_reference(amb, masks, conjugators):
    for s in conjugators:
        for mask in masks:
            assert amb.conjugate(mask, s) == reference_conjugate(amb, mask, s), (mask, s)


class TestConjugate:
    """`conjugate` translates the digits of a byte-row group's mask and maps each element of a larger group's."""

    @settings(max_examples=40, deadline=None)
    @given(groups_with_base(), st.randoms(use_true_random=False))
    def test_matches_per_element_conjugation(self, pair, rng):
        group, base = pair
        amb = iv._ambient(group)
        masks = [amb.subgroup_mask(base), (1 << amb.n) - 1, rng.getrandbits(amb.n) | 1]
        assert_conjugates_match_reference(amb, masks, range(amb.n))

    @pytest.mark.parametrize("sides, row_type", [(128, bytes), (129, tuple)])
    def test_dihedral_groups_on_both_sides_of_byte_rows(self, sides, row_type):
        # D128 has order 256, the largest with byte rows; D129 has order 258
        amb = iv._ambient(cat.dihedral(sides))
        rng = random.Random(sides)
        conjugators = [0, 1, amb.n - 1, *amb.gens, *rng.sample(range(amb.n), 8)]
        assert all(type(amb.conjugation(s)) is row_type for s in conjugators)
        rotations = amb.generated(amb.gens[:1])
        masks = [amb.trivial.mask, rotations.mask, (1 << amb.n) - 1, *(rng.getrandbits(amb.n) for _ in range(4))]
        assert_conjugates_match_reference(amb, masks, conjugators)


class TestFullLattices:
    def test_s3_has_six_subgroups(self):
        assert len(cat.catalog_interval("s3")) == 6

    def test_z12_divisor_lattice(self):
        full = cat.catalog_interval("z12")
        assert len(full) == 6
        assert lat.is_distributive(full.lattice)
        assert not lat.is_boolean(full.lattice)

    def test_v4_is_a_diamond(self):
        full = cat.catalog_interval("v4")
        assert len(full) == 5
        assert not lat.is_distributive(full.lattice)

    def test_known_subgroup_counts(self):
        assert len(cat.catalog_interval("s4")) == 30
        assert len(cat.catalog_interval("a5")) == 59
        assert len(cat.catalog_interval("s5")) == 156
        assert len(cat.catalog_interval("psl2_7")) == 179
        assert len(cat.catalog_interval("s2xs3_2")) == 206

    def test_sub_interval_matches_direct_enumeration(self):
        # every slice [lo, hi]; one below the top is the interval over
        # members[hi], so it counts generating cosets with |members[hi]|
        for name in ("s3", "d4", "s4"):
            full = cat.catalog_interval(name)
            members = full.members
            for lo in range(full.lattice.n):
                for hi in members_between(full.lattice, lo, full.lattice.top):
                    part = sub_interval(full, lo, hi)
                    direct = iv.overgroup_interval(members[hi], members[lo])
                    assert part.ambient == direct.ambient == members[hi]
                    assert labelled_member_sets(part) == labelled_member_sets(direct), (name, lo, hi)
                    assert iv.generating_coset_count(part) == iv.generating_coset_count(direct), (name, lo, hi)


@pytest.fixture
def cold_intervals():
    """Forget every ambient group, and with them every memoized interval."""
    iv._ambient_memo.cache_clear()
    yield
    iv._ambient_memo.cache_clear()


class TestIntervalMemo:
    def test_repeated_call_returns_the_same_interval(self):
        group = cat.psl2_7()
        first = iv.overgroup_interval(group, cat.catalog_pair("psl2_7/d8")[1])
        assert iv.overgroup_interval(group, cat.catalog_pair("psl2_7/d8")[1]) is first

    def test_equal_groups_from_other_generators_give_the_same_interval(self):
        # each generating set builds its own table; the element ids, and so the masks, agree
        s4 = generate(4, [Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])])
        again = generate(4, [Permutation([1, 2, 0, 3]), Permutation([0, 2, 3, 1]),
                             Permutation([3, 1, 2, 0])])
        assert again == s4 and again.generators != s4.generators
        first, second = iv.full_subgroup_lattice(s4), iv.full_subgroup_lattice(again)
        assert (second.masks, second.idx) == (first.masks, first.idx)
        assert lat.hasse_edges(second.lattice) == lat.hasse_edges(first.lattice)
        assert iv.overgroup_interval(again, trivial_group(4)) is second

    def test_other_base_gets_its_own_interval(self):
        group = cat.symmetric(3)
        full = iv.full_subgroup_lattice(group)
        above = iv.overgroup_interval(group, a3_in_s3())
        assert above is not full
        assert (len(full), len(above)) == (6, 2)
        assert above.members[0].order == 3 and full.members[0].order == 1
        assert iv.overgroup_interval(group, a3_in_s3()) is above
        # two transposition subgroups: same order, different intervals
        for images in ([1, 0, 2], [0, 2, 1]):
            base = subgroup_generated(group, [Permutation(images)])
            assert iv.overgroup_interval(group, base).members[0] == base

    def test_cap_is_checked_on_a_hit(self):
        group = cat.symmetric(4)
        full = iv.full_subgroup_lattice(group)
        assert len(full) == 30
        with pytest.raises(CapExceeded, match="^interval has more than 29 members$"):
            iv.full_subgroup_lattice(group, cap=29)
        assert iv.full_subgroup_lattice(group, cap=30) is full

    def test_capped_call_stores_nothing(self, cold_intervals):
        group = cat.dihedral(6)
        with pytest.raises(CapExceeded, match="^interval has more than 5 members$"):
            iv.full_subgroup_lattice(group, cap=5)
        assert iv._ambient(group).intervals == {}
        full = iv.full_subgroup_lattice(group)
        assert len(full) == 16
        # D6 has no single generator, so its Ore answer is (None, 0)
        assert list(iv._ambient(group).intervals.values()) == [(full, (None, 0))]

    def test_bbl_and_cfl_share_one_full_lattice(self, cold_intervals, monkeypatch):
        built = []
        init = lat.FiniteLattice.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(lat.FiniteLattice, "__init__", counting_init)
        group = cat.symmetric(4)
        assert (iv.bbl(group), iv.cfl(group)) == (2, 1)
        assert len(built) == 1

    def test_catalog_scans_build_each_group_once(self, cold_intervals, monkeypatch):
        # rank2-table and catalog-primitivity read the 22 scan groups' full
        # lattices, and the latter the three s2xs3_n/base intervals; s2xs3_3
        # is the one group outside the scan
        ambients, intervals = [], []
        init, build = iv._Ambient.__init__, iv._build_interval

        def counting_init(self, group):
            ambients.append(group)
            init(self, group)

        def counting_build(amb, covers):
            intervals.append(amb.group)
            return build(amb, covers)

        monkeypatch.setattr(iv._Ambient, "__init__", counting_init)
        monkeypatch.setattr(iv, "_build_interval", counting_build)
        for target in ("rank2-table", "catalog-primitivity"):
            _, claims = rp.run_target(target)
            assert all(c["pass"] for c in claims), target
        assert (len(ambients), len(intervals)) == (23, 25)
        assert len(set(ambients)) == 23


def atom_orders(interval):
    return [interval.members[a].order for a in lat.atoms(interval.lattice)]


class TestMinimalOvergroups:
    def test_two_chain(self):
        interval = iv.overgroup_interval(cat.symmetric(3), a3_in_s3())
        assert atom_orders(interval) == [6]

    def test_d8_psl(self):
        interval = iv.overgroup_interval(*cat.catalog_pair("psl2_7/d8"))
        assert atom_orders(interval) == [24, 24]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_product_interval_has_n_plus_one_atoms(self, n):
        interval = cat.catalog_interval(f"s2xs3_{n}/base")
        assert len(atom_orders(interval)) == n + 1
        assert len(interval) == 2 ** (n + 1)
        assert lat.is_boolean(interval.lattice)


class TestBblCfl:
    def test_prime_cyclic(self):
        assert iv.bbl(cat.cyclic(5)) == 1
        assert iv.cfl(cat.cyclic(5)) == 1

    def test_z12_distributive_hence_one(self):
        assert iv.bbl(cat.cyclic(12)) == 1

    def test_s3(self):
        # [1, S3] is not bottom-boolean (4 atoms joining to the top but only
        # 6 subgroups), so two steps are needed; a transposition subgroup is
        # core-free with a rank-1 interval above it.
        full = cat.catalog_interval("s3")
        assert not lat.is_bottom_boolean(full.lattice)
        assert iv.bbl(cat.symmetric(3)) == 2
        assert iv.cfl(cat.symmetric(3)) == 1

    def test_bbl_between_equals_bbl_from_trivial(self):
        group = cat.symmetric(3)
        assert iv.bbl_between(group, trivial_group(3)) == iv.bbl(group)

    @pytest.mark.parametrize("name", ["v4", "s3", "d4", "a4", "s4", "d6", "s3xs3"])
    def test_edge_table_matches_sliced_lattices(self, name):
        lattice = cat.catalog_interval(name).lattice
        ref = dense(lattice)
        for u in range(lattice.n):
            for v in members_between(lattice, u, lattice.top):
                if v != u:
                    assert lat._is_bottom_boolean(lattice, u, v) == reference_is_bottom_boolean(dense_slice(ref, u, v))

    @pytest.mark.parametrize("name", ["z2", "z4", "z6", "z8", "z12", "v4", "s3", "d4", "a4"])
    def test_cfl_at_most_bbl(self, name):
        group = cat.catalog_group(name)
        assert iv.cfl(group) <= iv.bbl(group)

    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_cfl_matches_one_search_per_start_on_scan_groups(self, name):
        group = cat.catalog_group(name)
        assert iv.cfl(group) == reference_cfl(group)

    @settings(max_examples=40, deadline=None)
    @given(groups_with_base())
    def test_cfl_matches_one_search_per_start_on_random_groups(self, pair):
        group, _ = pair
        assert iv.cfl(group) == reference_cfl(group)

    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_bbl_between_matches_a_forward_search_from_every_base_on_scan_groups(self, name):
        assert_bbl_between_matches_forward_search(cat.catalog_group(name))

    @settings(max_examples=25, deadline=None)
    @given(groups_with_base())
    def test_bbl_between_matches_a_forward_search_from_every_base_on_random_groups(self, pair):
        group, _ = pair
        assert_bbl_between_matches_forward_search(group)


def bb_edge(lattice):
    """`lattice._is_bottom_boolean` on `lattice`, memoized: the forward searches below ask an edge once per start."""
    return functools.cache(functools.partial(lat._is_bottom_boolean, lattice))


def shortest_bb_chain(lattice, start, edge):
    """Length of the shortest chain start < ... < top with bottom-boolean steps, searched forward from start."""
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


def reference_cfl(group):
    """Minimum over the core-free members of a forward search from each of them."""
    full = iv.full_subgroup_lattice(group)
    edge = bb_edge(full.lattice)
    return min(
        shortest_bb_chain(full.lattice, i, edge)
        for i, member in enumerate(full.members)
        if brute_force_core(group, member) == {group.identity}
    )


def assert_bbl_between_matches_forward_search(group):
    """`bbl_between` from every member of the full lattice against one forward search from it."""
    full = iv.full_subgroup_lattice(group)
    edge = bb_edge(full.lattice)
    for i, member in enumerate(full.members):
        assert iv.bbl_between(group, member) == shortest_bb_chain(full.lattice, i, edge), i


class TestCore:
    @settings(max_examples=40, deadline=None)
    @given(groups_with_base())
    def test_table_core_matches_conjugation_on_random_groups(self, pair):
        group, _ = pair
        full = iv.full_subgroup_lattice(group)
        for i, member in enumerate(full.members):
            assert table_core(full, i) == brute_force_core(group, member)

    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_table_core_matches_conjugation_on_scan_groups(self, name):
        group = cat.catalog_group(name)
        full = cat.catalog_interval(name)
        for i, member in enumerate(full.members):
            assert table_core(full, i) == brute_force_core(group, member)


class TestNormalizerOrbits:
    """Members and covers reached by conjugation under N_G(H) instead of by extension."""

    @settings(max_examples=40, deadline=None)
    @given(groups_with_normalized_base())
    def test_matches_reference(self, pair):
        group, base = pair
        interval = iv.overgroup_interval(group, base)
        assert member_sets(interval) == reference_overgroups(group, base)
        assert_matches_subgroup_inclusion(interval)

    @settings(max_examples=40, deadline=None)
    @given(groups_with_normalized_base())
    def test_normalizer_matches_conjugation(self, pair):
        group, base = pair
        amb = iv._ambient(group)
        k = amb.generated(lat.bits(amb.subgroup_mask(base)))
        walk = list(amb.double_cosets(k))
        index = amb.n // len(k.elems)
        if iv._least_prime_factor(index) == index:
            # at a prime index one g stands for every element outside H, and N is never asked for
            assert [(ext.mask, double) for _, ext, double in walk] == [((1 << amb.n) - 1, ((1 << amb.n) - 1) & ~k.mask)]
            return
        normalizer = amb.generated(k.gens + amb.normalizer_gens(k, [double for _, _, double in walk]))
        assert {amb.group.elements[x] for x in normalizer.elems} == brute_force_normalizer(group, base)

    @settings(max_examples=30, deadline=None)
    @given(groups_with_normalized_base(), st.randoms(use_true_random=False))
    def test_normalizer_elements_permute_members_and_covers(self, pair, rng):
        group, base = pair
        interval = iv.overgroup_interval(group, base)
        upper = interval.lattice._upper
        outside = sorted(brute_force_normalizer(group, base) - frozenset(base.elements))
        for s in rng.sample(outside, min(3, len(outside))):
            s_inv = s.inverse()
            image = [
                member_id(interval, FiniteGroup(group.degree, [], [s * p * s_inv for p in m.elements]))
                for m in interval.members
            ]
            assert sorted(image) == list(range(len(interval)))
            for x in range(len(interval)):
                assert {image[y] for y in lat.bits(upper[x])} == set(lat.bits(upper[image[x]]))

    @pytest.mark.parametrize("name, classes", [("psl2_7", 15), ("s5", 19), ("s2xs3_2", 69)])
    def test_one_representative_per_conjugacy_class(self, name, classes):
        amb = iv._ambient(cat.catalog_group(name))
        covers, reps, _ = iv._overgroups(amb, amb.trivial, iv.DEFAULT_MEMBER_CAP)
        assert len(reps) == classes
        assert sorted(covers) == sorted(cat.catalog_interval(name).masks)

    @pytest.mark.parametrize("name", ["a5", "s5"])
    def test_covers_carried_to_the_whole_group_found_before_the_normalizer(self, name):
        # The first extension <H, g> is G, formed before any other member;
        # its orbit is {G}, and the covers carried to a conjugate of a proper
        # member outside N_G(H) still include G.
        group = cat.catalog_group(name)
        amb = iv._Ambient(group)
        everything = (1 << amb.n) - 1
        checked = 0
        for mask in cat.catalog_interval(name).masks:
            k = amb.generated(lat.bits(mask))
            outside = everything & ~mask
            if not outside or amb.extension(k, (outside & -outside).bit_length() - 1, False)[0].mask != everything:
                continue
            normalizer = amb.generated(k.gens + amb.normalizer_gens(k, [d for _, _, d in amb.double_cosets(k)])).mask
            covers, reps, _ = iv._overgroups(amb, k, iv.DEFAULT_MEMBER_CAP)
            extended = {r.mask for r in reps}
            carried = [m for m in covers if m not in extended and everything in covers[m]]
            if not any(m & ~normalizer for m in carried):
                continue
            interval = iv._build_interval(amb, covers)
            base = FiniteGroup(group.degree, [], [amb.group.elements[x] for x in lat.bits(mask)])
            assert member_sets(interval) == reference_overgroups(group, base)
            assert interval.idx == tuple(amb.n // m.bit_count() for m in interval.masks)
            assert_matches_subgroup_inclusion(interval)
            checked += 1
        assert checked

    def test_self_normalizing_base_extends_every_member(self):
        amb = iv._ambient(cat.psl2_7())
        base = amb.generated(lat.bits(amb.subgroup_mask(cat.catalog_pair("psl2_7/d8")[1])))
        assert amb.normalizer_gens(base, [d for _, _, d in amb.double_cosets(base)]) == ()
        covers, reps, _ = iv._overgroups(amb, base, iv.DEFAULT_MEMBER_CAP)
        assert len(reps) == len(covers) == 4

    @pytest.mark.parametrize("name, members", [("s4", 30), ("psl2_7", 179)])
    def test_cap_counts_conjugates_on_a_build(self, cold_intervals, name, members):
        group = cat.catalog_group(name)
        with pytest.raises(CapExceeded, match=f"^interval has more than {members - 1} members$"):
            iv.full_subgroup_lattice(group, cap=members - 1)
        assert len(iv.full_subgroup_lattice(group, cap=members)) == members


def reference_closure(amb, gens):
    """The bitset of <gens>: the identity closed under left multiplication by `gens`, with no early exit."""
    reached = {amb.identity}
    frontier = [amb.identity]
    for x in frontier:  # grows while it is read
        for s in gens:
            y = amb.mul[s][x]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return sum(1 << x for x in reached)


def reference_extend(amb, mask, gens, g):
    """(bitset, generators) of <K, g> for K = <gens> with bitset `mask`, as `extension` gives them."""
    if mask >> g & 1:
        return mask, gens
    return reference_closure(amb, gens + (g,)), gens + (g,)


def reference_extend_all(amb, mask, gens, ids):
    """`reference_extend` by each id in turn: (bitset, generators)."""
    for x in ids:
        mask, gens = reference_extend(amb, mask, gens, x)
    return mask, gens


def assert_extends_like_the_reference(amb, k):
    for g in range(amb.n):
        ext = amb.extension(k, g, False)[0]
        assert (ext.mask, ext.gens) == reference_extend(amb, k.mask, k.gens, g)
        assert ext.elems[0] == amb.identity
        assert sorted(ext.elems) == lat.bits(ext.mask)


def no_closure(*args):
    raise AssertionError("the coset closure ran")


def brute_force_double_coset(amb, k, g):
    """The bitset of KgK: every a·g·b for a, b in K."""
    return sum({1 << amb.mul[amb.mul[a][g]][b] for a in k.elems for b in k.elems})


class TestLagrangeStop:
    """`extension` returns G once <K, g> holds more than |G:K|/p cosets of K, p the least prime factor of |G:K|."""

    @settings(max_examples=60, deadline=None)
    @given(groups_with_base())
    def test_extend_matches_a_closure_with_no_early_exit(self, pair):
        group, base = pair
        amb = iv._ambient(group)
        k = amb.generated(lat.bits(amb.subgroup_mask(base)))
        assert (k.mask, k.gens) == reference_extend_all(amb, amb.trivial.mask, (), lat.bits(amb.subgroup_mask(base)))
        assert_extends_like_the_reference(amb, k)
        assert_extends_like_the_reference(amb, amb.trivial)

    @settings(max_examples=60, deadline=None)
    @given(groups_with_base())
    def test_one_walk_gives_the_extension_and_the_double_coset(self, pair):
        group, base = pair
        amb = iv._ambient(group)
        k = amb.generated(lat.bits(amb.subgroup_mask(base)))
        for g in range(amb.n):
            ext, double = amb.extension(k, g)
            assert (ext.mask, ext.gens) == reference_extend_all(amb, k.mask, k.gens, [g])
            assert sorted(ext.elems) == lat.bits(ext.mask)
            assert double == brute_force_double_coset(amb, k, g)

    @settings(max_examples=40, deadline=None)
    @given(groups_with_base())
    def test_generators_and_normalizer_generators_are_unchanged(self, pair):
        group, base = pair
        # with no generators given, the ambient group picks its own from all elements
        amb = iv._Ambient(FiniteGroup(group.degree, [], group.elements))
        assert amb.gens == reference_extend_all(amb, amb.trivial.mask, (), range(amb.n))[1]
        k = amb.generated(lat.bits(amb.subgroup_mask(base)))
        normalizing = [
            s for s in range(amb.n)
            if all(k.mask >> amb.mul[amb.mul[s][h]][amb.inv[s]] & 1 for h in k.gens)
        ]
        expected = reference_extend_all(amb, k.mask, k.gens, normalizing)[1][len(k.gens):]
        index = amb.n // len(k.elems)
        if iv._least_prime_factor(index) < index:
            assert amb.normalizer_gens(k, [d for _, _, d in amb.double_cosets(k)]) == expected

    @pytest.mark.parametrize("group, sub", [
        (cat.symmetric(3), a3_in_s3()),
        (cat.symmetric(5), subgroup_generated(cat.symmetric(5), [p for p in cat.symmetric(5).elements if p(4) == 4])),
    ], ids=["a3 in s3", "s4 in s5"])
    def test_prime_index_base_gives_the_whole_group_with_no_closure(self, group, sub, monkeypatch):
        amb = iv._Ambient(group)
        k = amb.generated(lat.bits(amb.subgroup_mask(sub)))
        assert amb.n // len(k.elems) in (2, 5)
        monkeypatch.setattr(amb, "_cosets", no_closure)
        for g in lat.bits(((1 << amb.n) - 1) & ~k.mask):
            ext = amb.extension(k, g, False)[0]
            assert (ext.mask, ext.gens, ext.elems) == ((1 << amb.n) - 1, k.gens + (g,), list(range(amb.n)))
        # the overgroup search finds G as the base's only cover with no walk
        # either, and every element outside H generates G with it
        covers, _, ore = iv._overgroups(amb, k, iv.DEFAULT_MEMBER_CAP)
        assert covers == {k.mask: [(1 << amb.n) - 1], (1 << amb.n) - 1: []}
        outside = ((1 << amb.n) - 1) & ~k.mask
        assert ore == ((outside & -outside).bit_length() - 1, amb.n // len(k.elems) - 1)

    def test_trivial_subgroup_of_a_prime_cyclic_group(self, monkeypatch):
        amb = iv._Ambient(cat.cyclic(7))
        monkeypatch.setattr(amb, "_cosets", no_closure)
        for g in range(1, 7):
            ext = amb.extension(amb.trivial, g, False)[0]
            assert (ext.mask, ext.gens, ext.elems) == (0b1111111, (g,), list(range(7)))
        assert amb.extension(amb.trivial, amb.identity, False)[0] is amb.trivial

    @pytest.mark.parametrize("degree", [1, 3])
    def test_order_one_group(self, degree):
        amb = iv._Ambient(trivial_group(degree))
        assert amb.extension(amb.trivial, 0, False)[0] is amb.trivial
        assert amb.generated([0]) is amb.trivial
        assert amb.extension(amb.trivial, 0) == (amb.trivial, 1)
        assert list(amb.double_cosets(amb.trivial)) == []
        assert amb.normalizer_gens(amb.trivial, []) == ()
        assert len(iv.full_subgroup_lattice(trivial_group(degree))) == 1

    def test_double_coset_covering_most_of_the_group_does_not_stop_early(self):
        # S5 is 2-transitive, so K g K = G minus K for the stabilizer K of a point and any g moving it
        group = cat.symmetric(5)
        amb = iv._Ambient(group)
        stabilizer = [amb.index[p.images] for p in group.elements if p(4) == 4]
        k = amb.generated(stabilizer)
        assert len(k.elems) == 24
        for g in lat.bits(((1 << amb.n) - 1) & ~k.mask):
            ext, double = amb.extension(k, g)
            assert ext.mask == (1 << amb.n) - 1
            assert double == ((1 << amb.n) - 1) & ~k.mask
            assert double == brute_force_double_coset(amb, k, g)


class TestOre:
    def test_a3_s3_witness_is_a_transposition(self):
        interval = iv.overgroup_interval(cat.symmetric(3), a3_in_s3())
        witness = iv.verify_ore(interval)
        assert element_order(witness) == 2

    def test_z12_witness_count_is_euler_phi(self):
        full = cat.catalog_interval("z12")
        iv.verify_ore(full)
        brute = sum(1 for k in range(12) if math.gcd(k, 12) == 1)
        assert iv.generating_coset_count(full) == brute == 4

    def test_d8_psl_witness_found(self):
        interval = iv.overgroup_interval(*cat.catalog_pair("psl2_7/d8"))
        witness = iv.verify_ore(interval)
        regen = subgroup_generated(
            interval.ambient, list(interval.members[0].elements) + [witness]
        )
        assert regen.order == 168

    def test_requires_distributive(self):
        with pytest.raises(NotDistributive):
            iv.verify_ore(cat.catalog_interval("v4"))

    @pytest.mark.parametrize("group, sub", [
        (cat.symmetric(3), a3_in_s3()),
        (cat.symmetric(5), subgroup_generated(cat.symmetric(5), [p for p in cat.symmetric(5).elements if p(4) == 4])),
        (cat.cyclic(7), trivial_group(7)),
    ], ids=["a3 in s3", "s4 in s5", "1 in z7"])
    def test_prime_index_answers(self, group, sub):
        # every element outside H generates G with it: |G:H| - 1 cosets, the least element outside H first
        interval = iv.overgroup_interval(group, sub)
        assert iv.generating_coset_count(interval) == group.order // sub.order - 1
        assert iv.verify_ore(interval) == next(g for g in group.elements if g not in sub)

    @pytest.mark.parametrize("group", [cat.symmetric(4), cat.cyclic(5), trivial_group(3)], ids=["s4", "z5", "1"])
    def test_whole_group_is_generated_by_the_identity(self, group):
        interval = iv.overgroup_interval(group, group)
        assert len(interval) == 1
        assert iv.generating_coset_count(interval) == 1
        assert iv.verify_ore(interval) == group.identity

    @settings(max_examples=40, deadline=None)
    @given(groups_with_base())
    @example((cat.symmetric(4), trivial_group(4)))
    @example((cat.symmetric(4), cat.symmetric(4)))
    def test_generating_cosets_match_the_permutation_route(self, pair):
        # the elements g with <H, g> = G, closed on permutations, fill whole right cosets Hg
        group, base = pair
        interval = iv.overgroup_interval(group, base)
        generating = [
            g for g in group.elements
            if subgroup_generated(group, [*base.generators, g]).order == group.order
        ]
        assert len(generating) % base.order == 0
        count = iv.generating_coset_count(interval)
        assert count == len(generating) // base.order
        if lat.is_distributive(interval.lattice):
            # the elements are sorted as their ids are, so the least id comes first
            assert iv.verify_ore(interval) == generating[0]
            assert count == tt.euler_totient_distributive(interval)


def counting_extensions(monkeypatch):
    """A list that records each `_Ambient.extension` call from now on."""
    calls = []
    extension = iv._Ambient.extension

    def counting(self, *args):
        calls.append(args)
        return extension(self, *args)
    monkeypatch.setattr(iv._Ambient, "extension", counting)
    return calls


# `_Ambient.extension` calls per build of each catalog interval, its base
# closed beforehand: the counts made when the Ore answers had a walk of
# their own, which the search must not exceed
EXTENSION_CALLS = {"a4": 27, "a5": 152, "d4": 24, "d5": 20, "d6": 40, "psl2_7": 458, "s2xs3": 40, "s2xs3_2": 654, "s2xs3_3": 13915, "s3": 12, "s3xs3": 165, "s4": 74, "s5": 381, "trivial": 0, "v4": 9, "z12": 32, "z2": 1, "z3": 1, "z4": 7, "z5": 1, "z6": 12, "z7": 1, "z8": 18, "z9": 17, "psl2_7/d8": 7, "psl2_7/s3": 8, "s2xs3_1/base": 7, "s2xs3_2/base": 23, "s2xs3_3/base": 73, "s3/a3": 1}


class TestOneOreWalk:
    """The Ore answers come from the search that built the interval, with no walk of their own."""

    @pytest.mark.parametrize("name", sorted(EXTENSION_CALLS))
    def test_ore_questions_after_a_build_walk_nothing(self, cold_intervals, monkeypatch, name):
        group, base = cat.catalog_pair(name)
        amb = iv._ambient(group)
        iv._closed(amb, amb.subgroup_mask(base))
        calls = counting_extensions(monkeypatch)
        interval = iv.overgroup_interval(group, base)
        assert len(calls) == EXTENSION_CALLS[name]
        calls.clear()
        count = iv.generating_coset_count(interval)
        if lat.is_distributive(interval.lattice):
            witness = iv.verify_ore(interval)
            assert subgroup_generated(group, [*base.elements, witness]).order == group.order
            assert count > 0
        assert calls == []

    def test_s2xs3_3_base_has_one_generating_double_coset(self, cold_intervals):
        # H of order 8; 16 double cosets, only the last generating, with 64 elements
        interval = cat.catalog_interval("s2xs3_3/base")
        assert iv.generating_coset_count(interval) == 8
        assert iv.verify_ore(interval).to_cycles(one_based=False) == "(0 1)(3 4)(6 7)(9 10)"

    @pytest.mark.parametrize("name", ["s4", "z12", "s2xs3"])
    def test_hand_built_interval_answers_as_the_searched_one(self, cold_intervals, monkeypatch, name):
        # sub_interval builds each [h, G] by hand, over an ambient group with no
        # generators; its first Ore question runs the search of its base once
        full = cat.catalog_interval(name)
        top = full.lattice.top
        calls = counting_extensions(monkeypatch)
        for h in range(len(full)):
            part = sub_interval(full, h, top)
            searched = iv.overgroup_interval(full.ambient, full.members[h])
            assert part is not searched and part._amb is not searched._amb
            assert iv.generating_coset_count(part) == iv.generating_coset_count(searched)
            if lat.is_distributive(part.lattice):
                calls.clear()
                assert iv.verify_ore(part) == iv.verify_ore(searched)
                assert calls == []
            assert set(iv._searched(part._amb, part.masks[0], len(part))[0].masks) == set(part.masks)

    def test_a_set_that_is_not_closed_is_refused_every_time_and_kept_nowhere(self, cold_intervals):
        amb = iv._ambient(cat.symmetric(3))
        half = amb.subgroup_mask(FiniteGroup(3, [], [Permutation.identity(3), Permutation([1, 2, 0])]))
        before = dict(amb.subgroups)
        for _ in range(2):
            with pytest.raises(NotASubgroup, match="not closed"):
                iv._closed(amb, half)
        assert amb.subgroups == before
        a3 = iv._closed(amb, amb.subgroup_mask(a3_in_s3()))
        assert iv._closed(amb, a3.mask) is a3


def boolean_top_intervals(names):
    """(interval, name) for boolean [H, G] over the given scan groups."""
    out = []
    for name in names:
        full = cat.catalog_interval(name)
        top = full.lattice.top
        for h in range(full.lattice.n):
            part = sub_interval(full, h, top)
            if lat.is_boolean(part.lattice):
                out.append((part, f"{name}[{h}]"))
    return out


SMALL_SCAN = ["z6", "z12", "v4", "d4", "s3", "a4", "s4", "d6", "s2xs3"]


class TestStructureLemmas:
    def test_rank_two_never_two_two(self):
        # no rank-2 boolean interval has both coatom indices 2 or both
        # atom-over-base indices 2
        for interval, name in boolean_top_intervals(SMALL_SCAN + ["s5"]):
            if interval.lattice.height() != 2:
                continue
            k, ell = lat.atoms(interval.lattice)
            top_pair = (interval.index_of[k], interval.index_of[ell])
            base = interval.members[0].order
            bottom_pair = (
                interval.members[k].order // base,
                interval.members[ell].order // base,
            )
            assert top_pair != (2, 2), name
            assert bottom_pair != (2, 2), name

    def test_rank_two_edge_two_equivalence(self):
        # |K:H| = 2 on one side iff |G:L| = 2 on the other
        for interval, name in boolean_top_intervals(SMALL_SCAN + ["s5"]):
            if interval.lattice.height() != 2:
                continue
            k, ell = lat.atoms(interval.lattice)
            base = interval.members[0].order
            assert (interval.members[k].order // base == 2) == (
                interval.index_of[ell] == 2
            ), name
            assert (interval.members[ell].order // base == 2) == (
                interval.index_of[k] == 2
            ), name

    def test_cover_index_monotone_along_complement_face(self):
        for interval, name in boolean_top_intervals(SMALL_SCAN):
            lattice = interval.lattice
            sizes = [m.order for m in interval.members]
            for a in lat.atoms(lattice):
                comp = complement(lattice, a)
                face = members_between(lattice, lattice.bottom, comp)
                face.sort(key=lambda x: sizes[x])
                ratios = [
                    sizes[lattice.join(k, a)] // sizes[k] for k in face
                ]
                for k1 in face:
                    for k2 in face:
                        if leq(lattice, k1, k2):
                            r1 = sizes[lattice.join(k1, a)] // sizes[k1]
                            r2 = sizes[lattice.join(k2, a)] // sizes[k2]
                            assert r1 <= r2, name
                if interval.index_of[comp] == 2:
                    assert set(ratios) == {2}, name

    def test_prime_factor_chain_entries(self):
        # when the interval index factors into rank-many primes, every cover
        # index is one of those primes
        for interval, name in boolean_top_intervals(SMALL_SCAN + ["s5", "psl2_7"]):
            rank = interval.lattice.height()
            if rank < 2:
                continue
            total = interval.index_of[interval.lattice.bottom]
            primes = _prime_multiset(total)
            if len(primes) != rank:
                continue
            lattice = interval.lattice
            sizes = [m.order for m in interval.members]
            for x in range(lattice.n):
                for y in range(lattice.n):
                    if lattice.covers[x, y]:
                        assert sizes[y] // sizes[x] in primes, name

    def test_index_two_edge_forces_index_two_coatom(self):
        for interval, name in boolean_top_intervals(SMALL_SCAN):
            lattice = interval.lattice
            sizes = [m.order for m in interval.members]
            for x in range(lattice.n):
                for y in range(lattice.n):
                    if not lattice.covers[x, y] or sizes[y] // sizes[x] != 2:
                        continue
                    atoms_below_y = [
                        a for a in lat.atoms(lattice)
                        if lattice.join(x, a) == y
                    ]
                    assert any(
                        interval.index_of[complement(lattice, a)] == 2
                        for a in atoms_below_y
                    ), name


class TestBooleanReference:
    @pytest.mark.parametrize("name", SMALL_SCAN)
    def test_flags_match_the_complement_scan(self, name):
        assert_flags_match_reference(cat.catalog_interval(name).lattice)


def assert_matches_subgroup_inclusion(interval):
    """The interval's lattice, and the Hasse edges read off its cover masks, against a dense reference.

    The reference's order is subgroup inclusion.
    """
    masks = interval.masks
    ref = DenseLattice([[a & ~b == 0 for b in masks] for a in masks])
    assert lat.hasse_edges(interval.lattice) == np.argwhere(ref.covers).tolist()
    assert_matches_dense(interval.lattice, ref)
    assert_flags_match_reference(interval.lattice, ref)


class TestDenseReference:
    """Covers from the enumeration, meet/join from masks and Birkhoff's count, against dense tables."""

    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_scan_groups(self, name):
        assert_matches_subgroup_inclusion(cat.catalog_interval(name))

    @settings(max_examples=25, deadline=None)
    @given(groups_with_base())
    def test_random_groups(self, pair):
        group, base = pair
        assert_matches_subgroup_inclusion(iv.overgroup_interval(group, base))
        assert_matches_subgroup_inclusion(iv.full_subgroup_lattice(group))


def _prime_multiset(n):
    out = []
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


class TestConjugacyClasses:
    @settings(max_examples=40, deadline=None)
    @given(groups_with_base())
    def test_generator_orbits_match_all_element_orbits(self, pair):
        group, _ = pair
        expected = brute_force_classes(group)
        assert [list(c) for c in ch.conjugacy_classes(group).classes] == expected
        bare = FiniteGroup(group.degree, [], group.elements)
        assert [list(c) for c in ch.conjugacy_classes(bare).classes] == expected

    @settings(max_examples=40, deadline=None)
    @given(groups_with_base())
    def test_conjugation_tables_match_permutations(self, pair):
        group, _ = pair
        amb = iv._ambient(group)
        elems = group.elements
        for s in {0, group.order - 1, *amb.gens}:
            p, p_inv = elems[s], elems[s].inverse()
            assert [elems[z] for z in amb.conjugation(s)] == [p * y * p_inv for y in elems]

    def test_classes_read_the_conjugation_tables(self):
        # `conjugacy_classes` builds the generators' tables that `core` reads
        group = cat.dihedral(7)
        amb = iv._ambient(group)
        amb._conjugations.clear()
        ch.conjugacy_classes(group)
        assert set(amb._conjugations) == set(amb.gens)


def sliced_top_verdicts(full, table) -> dict:
    """{h: (certificate, (verdict, witness row))} for each distributive [h, G], sliced out one by one."""
    top = full.lattice.top
    verdicts = {}
    for h in range(full.lattice.n):
        interval = sub_interval(full, h, top)
        if lat.is_distributive(interval.lattice):
            verdicts[h] = (cf.certify(interval).to_dict(), ch.is_linearly_primitive(interval, table))
    return verdicts


def assert_top_scan_matches_slices(full, table):
    """`reproduce._top_intervals` reads [h, G] off the full lattice; each h is sliced as the reference."""
    expected = sliced_top_verdicts(full, table)
    scanned = list(rp._top_intervals(full, table))
    assert [h for h, _, _ in scanned] == sorted(expected)
    for h, cert, witness in scanned:
        reference_cert, reference_primitive = expected[h]
        assert cert.to_dict() == reference_cert, h
        assert witness == (reference_primitive[1] if cert.is_primitive else None), h
        covers = [full.masks[k] for k in lat.upper_covers(full.lattice, h)]
        assert ch.linear_witness(table, full.masks[h], covers) == reference_primitive, h


class TestTopIntervalScan:
    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_matches_sliced_intervals_on_scan_groups(self, name):
        assert_top_scan_matches_slices(cat.catalog_interval(name), ch.character_table(cat.catalog_group(name)))

    @settings(max_examples=25, deadline=None)
    @given(groups_with_base())
    def test_matches_sliced_intervals_on_random_groups(self, pair):
        group, _ = pair
        assert_top_scan_matches_slices(iv.full_subgroup_lattice(group), ch.character_table(group))

    def test_witness_rows_of_the_certified_catalog_intervals_are_pinned(self):
        # [name, h, witness row] of the 467 certified [h, G], as the per-mask
        # fixed_dim loop found them before the one matrix per lattice
        rows = []
        for name, group in cat.scan_groups(200):
            for h, cert, witness in rp._top_intervals(cat.catalog_interval(name), ch.character_table(group)):
                if cert.is_primitive:
                    rows.append([name, h, witness])
        assert len(rows) == 467
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "5b45df231dfde43d59d4e9c6cdaabc987fa516243004b914870722114abf91fb"
