import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orelat import catalog as cat
from orelat import certifier as cf
from orelat import characters as ch
from orelat import intervals as iv
from orelat import lattice as lat
from orelat import reproduce as rp
from orelat import totients as tt
from orelat.errors import CapExceeded, NotASubgroup, NotDistributive
from orelat.perm import FiniteGroup, Permutation, generate, subgroup_generated, trivial_group
from dense_lattice import DenseLattice, complement, dense, leq, sub_interval
from test_lattice import (
    assert_flags_match_reference,
    assert_matches_dense,
    dense_slice,
    reference_is_bottom_boolean,
)

RANDOM_ORDER_CAP = 120


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
    return {m.element_set() for m in interval.members}


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


def brute_force_normalizer(group, sub):
    """Elements g of group with g h g^-1 in sub for every h in sub, by Permutation arithmetic."""
    members = sub.element_set()
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
    members = sub.element_set()
    pairs = [(g, g.inverse()) for g in group.elements]
    return {h for h in sub.elements if all(g * h * g_inv in members for g, g_inv in pairs)}


def table_core(full, i):
    """The core of member i of a full lattice, from the multiplication table, as permutations."""
    amb = full._amb
    return {amb.elems[x] for x in lat.bits(amb.core(full._masks[i]))}


def a3_in_s3():
    return subgroup_generated(cat.symmetric(3), [Permutation([1, 2, 0])])


class TestOvergroupInterval:
    def test_whole_group_singleton(self):
        group = cat.symmetric(3)
        assert len(iv.overgroup_interval(group, group)) == 1

    def test_a3_s3_is_a_two_chain(self):
        interval = iv.overgroup_interval(cat.symmetric(3), a3_in_s3())
        assert len(interval) == 2
        assert interval.rank() == 1

    def test_interval_is_its_own_labelled_model(self):
        interval = iv.overgroup_interval(cat.symmetric(3), a3_in_s3())
        assert isinstance(interval, iv.IndexedInterval)
        assert tt.from_group_interval(interval) is interval
        assert interval.index_of is interval.idx
        assert interval.idx == (2, 1)

    def test_d8_in_psl(self):
        interval = iv.overgroup_interval(cat.psl2_7(), cat.psl2_7_d8())
        assert len(interval) == 4
        assert lat.is_boolean(interval.lattice)
        assert interval.rank() == 2
        atoms = lat.atoms(interval.lattice)
        assert sorted(interval.index_of[a] for a in atoms) == [7, 7]
        assert sorted(interval.members[a].order // 8 for a in atoms) == [3, 3]

    def test_s3_in_psl(self):
        interval = iv.overgroup_interval(cat.psl2_7(), cat.psl2_7_s3())
        atoms = lat.atoms(interval.lattice)
        assert len(interval) == 4
        assert sorted(interval.index_of[a] for a in atoms) == [7, 7]
        assert sorted(interval.members[a].order // 6 for a in atoms) == [4, 4]

    def test_not_a_subgroup(self):
        with pytest.raises(NotASubgroup):
            iv.overgroup_interval(cat.symmetric(3), cat.cyclic(4))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            iv.full_subgroup_lattice(cat.symmetric(4), cap=5)

    def test_index_labels_are_order_reversing(self):
        interval = cat.cached_full_lattice("s4")
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
            m.element_set() for m in full.members if base <= m
        }

    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_matches_reference_on_scan_groups(self, name):
        group = cat.catalog_group(name)
        full = cat.cached_full_lattice(name)
        assert member_sets(full) == reference_overgroups(group, trivial_group(group.degree))

    def test_members_ordered_by_size_then_element_ids(self):
        full = cat.cached_full_lattice("s4")
        elems = full.ambient.elements
        keys = [
            (m.order, sorted(elems.index(p) for p in m.elements)) for m in full.members
        ]
        assert keys == sorted(keys)

    @settings(max_examples=20, deadline=None)
    @given(groups_with_base())
    def test_multiplication_table_matches_composition(self, pair):
        group, _ = pair
        amb = iv._ambient(group)
        elems = group.elements
        for a in range(group.order):
            for b in range(group.order):
                assert elems[amb.mul[a][b]] == elems[a] * elems[b]
            assert elems[amb.inv[a]] == elems[a].inverse()

    @pytest.mark.parametrize("degree", [1, 3])
    def test_trivial_group_table(self, degree):
        amb = iv._ambient(trivial_group(degree))
        assert amb.mul == [(0,)] and amb.inv == [0]

    def test_member_id_roundtrip(self):
        interval = iv.overgroup_interval(cat.psl2_7(), cat.psl2_7_d8())
        for i, member in enumerate(interval.members):
            assert interval.member_id(member) == i


class TestFullLattices:
    def test_s3_has_six_subgroups(self):
        assert len(cat.cached_full_lattice("s3")) == 6

    def test_z12_divisor_lattice(self):
        full = cat.cached_full_lattice("z12")
        assert len(full) == 6
        assert lat.is_distributive(full.lattice)
        assert not lat.is_boolean(full.lattice)

    def test_v4_is_a_diamond(self):
        full = cat.cached_full_lattice("v4")
        assert len(full) == 5
        assert not lat.is_distributive(full.lattice)

    def test_known_subgroup_counts(self):
        assert len(cat.cached_full_lattice("s4")) == 30
        assert len(cat.cached_full_lattice("a5")) == 59
        assert len(cat.cached_full_lattice("s5")) == 156
        assert len(cat.cached_full_lattice("psl2_7")) == 179
        assert len(cat.cached_full_lattice("s2xs3_2")) == 206

    def test_sub_interval_matches_direct_enumeration(self):
        full = cat.cached_full_lattice("s4")
        top = full.lattice.top
        for lo in (0, 3, 7):
            part = sub_interval(full, lo, top)
            direct = iv.overgroup_interval(full.ambient, full.members[lo])
            assert {m.element_set() for m in part.members} == {
                m.element_set() for m in direct.members
            }


@pytest.fixture
def cold_intervals():
    """Forget every ambient group, and with them every memoized interval."""
    iv._ambient.cache_clear()
    yield
    iv._ambient.cache_clear()


class TestIntervalMemo:
    def test_repeated_call_returns_the_same_interval(self):
        group = cat.psl2_7()
        first = iv.overgroup_interval(group, cat.psl2_7_d8())
        assert iv.overgroup_interval(group, cat.psl2_7_d8()) is first

    def test_equal_group_from_other_generators_hits_the_memo(self):
        s4 = generate(4, [Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])])
        again = generate(4, [Permutation([1, 2, 0, 3]), Permutation([0, 2, 3, 1]),
                             Permutation([3, 1, 2, 0])])
        assert again == s4 and again.generators != s4.generators
        first = iv.full_subgroup_lattice(s4)
        assert iv.full_subgroup_lattice(again) is first
        assert iv.overgroup_interval(again, trivial_group(4)) is first

    def test_other_base_gets_its_own_interval(self):
        group = cat.symmetric(3)
        full = iv.full_subgroup_lattice(group)
        above = iv.overgroup_interval(group, a3_in_s3())
        assert above is not full
        assert (len(full), len(above)) == (6, 2)
        assert above.base.order == 3 and full.base.order == 1
        assert iv.overgroup_interval(group, a3_in_s3()) is above
        # two transposition subgroups: same order, different intervals
        for images in ([1, 0, 2], [0, 2, 1]):
            base = subgroup_generated(group, [Permutation(images)])
            assert iv.overgroup_interval(group, base).base == base

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
        assert list(iv._ambient(group).intervals.values()) == [full]

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


def atom_orders(interval):
    return [interval.members[a].order for a in lat.atoms(interval.lattice)]


class TestMinimalOvergroups:
    def test_two_chain(self):
        interval = iv.overgroup_interval(cat.symmetric(3), a3_in_s3())
        assert atom_orders(interval) == [6]

    def test_d8_psl(self):
        interval = iv.overgroup_interval(cat.psl2_7(), cat.psl2_7_d8())
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
        full = cat.cached_full_lattice("s3")
        assert not lat.is_bottom_boolean(full.lattice)
        assert iv.bbl(cat.symmetric(3)) == 2
        assert iv.cfl(cat.symmetric(3)) == 1

    def test_bbl_between_equals_bbl_from_trivial(self):
        group = cat.symmetric(3)
        assert iv.bbl_between(group, trivial_group(3)) == iv.bbl(group)

    @pytest.mark.parametrize("name", ["v4", "s3", "d4", "a4", "s4", "d6", "s3xs3"])
    def test_edge_table_matches_sliced_lattices(self, name):
        lattice = cat.cached_full_lattice(name).lattice
        ref = dense(lattice)
        edge = iv._bb_edge_table(lattice)
        for u in range(lattice.n):
            for v in lat.members_between(lattice, u, lattice.top):
                if v != u:
                    assert edge(u, v) == reference_is_bottom_boolean(dense_slice(ref, u, v))

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


def reference_cfl(group):
    """Minimum over the core-free members of a forward search from each of them."""
    full = iv.full_subgroup_lattice(group)
    edge = iv._bb_edge_table(full.lattice)
    return min(
        iv._shortest_bb_chain(full.lattice, i, edge)
        for i, member in enumerate(full.members)
        if brute_force_core(group, member) == {group.identity}
    )


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
        full = cat.cached_full_lattice(name)
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
        k = amb.subgroup(base)
        normalizer = amb.generated(k.gens + amb.normalizer_gens(k))
        assert {amb.elems[x] for x in normalizer.elems} == brute_force_normalizer(group, base)

    @settings(max_examples=30, deadline=None)
    @given(groups_with_normalized_base(), st.randoms(use_true_random=False))
    def test_normalizer_elements_permute_members_and_covers(self, pair, rng):
        group, base = pair
        interval = iv.overgroup_interval(group, base)
        upper = interval.lattice._upper
        outside = sorted(brute_force_normalizer(group, base) - base.element_set())
        for s in rng.sample(outside, min(3, len(outside))):
            s_inv = s.inverse()
            image = [
                interval.member_id(FiniteGroup(group.degree, [], [s * p * s_inv for p in m.elements]))
                for m in interval.members
            ]
            assert sorted(image) == list(range(len(interval)))
            for x in range(len(interval)):
                assert {image[y] for y in lat.bits(upper[x])} == set(lat.bits(upper[image[x]]))

    @pytest.mark.parametrize("name, classes", [("psl2_7", 15), ("s5", 19), ("s2xs3_2", 69)])
    def test_one_representative_per_conjugacy_class(self, name, classes):
        amb = iv._ambient(cat.catalog_group(name))
        covers, reps = iv._overgroups(amb, amb.trivial, iv.DEFAULT_MEMBER_CAP)
        assert len(reps) == classes
        assert sorted(covers) == sorted(cat.cached_full_lattice(name)._masks)

    def test_self_normalizing_base_extends_every_member(self):
        amb = iv._ambient(cat.psl2_7())
        base = amb.subgroup(cat.psl2_7_d8())
        assert amb.normalizer_gens(base) == ()
        covers, reps = iv._overgroups(amb, base, iv.DEFAULT_MEMBER_CAP)
        assert len(reps) == len(covers) == 4

    @pytest.mark.parametrize("name, members", [("s4", 30), ("psl2_7", 179)])
    def test_cap_counts_conjugates_on_a_build(self, cold_intervals, name, members):
        group = cat.catalog_group(name)
        with pytest.raises(CapExceeded, match=f"^interval has more than {members - 1} members$"):
            iv.full_subgroup_lattice(group, cap=members - 1)
        assert len(iv.full_subgroup_lattice(group, cap=members)) == members


class TestOre:
    def test_a3_s3_witness_is_a_transposition(self):
        interval = iv.overgroup_interval(cat.symmetric(3), a3_in_s3())
        witness = iv.verify_ore(interval)
        assert witness.order() == 2

    def test_z12_witness_count_is_euler_phi(self):
        full = cat.cached_full_lattice("z12")
        iv.verify_ore(full)
        brute = sum(1 for k in range(12) if math.gcd(k, 12) == 1)
        assert iv.generating_coset_count(full) == brute == 4

    def test_d8_psl_witness_found(self):
        interval = iv.overgroup_interval(cat.psl2_7(), cat.psl2_7_d8())
        witness = iv.verify_ore(interval)
        regen = subgroup_generated(
            interval.ambient, list(interval.base.elements) + [witness]
        )
        assert regen.order == 168

    def test_requires_distributive(self):
        with pytest.raises(NotDistributive):
            iv.verify_ore(cat.cached_full_lattice("v4"))


def boolean_top_intervals(names):
    """(interval, name) for boolean [H, G] over the given scan groups."""
    out = []
    for name in names:
        full = cat.cached_full_lattice(name)
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
            if interval.rank() != 2:
                continue
            k, ell = lat.atoms(interval.lattice)
            top_pair = (interval.index_of[k], interval.index_of[ell])
            base = interval.base.order
            bottom_pair = (
                interval.members[k].order // base,
                interval.members[ell].order // base,
            )
            assert top_pair != (2, 2), name
            assert bottom_pair != (2, 2), name

    def test_rank_two_edge_two_equivalence(self):
        # |K:H| = 2 on one side iff |G:L| = 2 on the other
        for interval, name in boolean_top_intervals(SMALL_SCAN + ["s5"]):
            if interval.rank() != 2:
                continue
            k, ell = lat.atoms(interval.lattice)
            base = interval.base.order
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
                face = lat.members_between(lattice, lattice.bottom, comp)
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
            rank = interval.rank()
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
        assert_flags_match_reference(cat.cached_full_lattice(name).lattice)


def assert_matches_subgroup_inclusion(interval):
    """The interval's lattice, and the Hasse edges read off its cover masks, against a dense reference.

    The reference's order is subgroup inclusion.
    """
    masks = interval._masks
    ref = DenseLattice([[a & ~b == 0 for b in masks] for a in masks])
    assert lat.hasse_edges(interval.lattice) == np.argwhere(ref.covers).tolist()
    assert_matches_dense(interval.lattice, ref)
    assert_flags_match_reference(interval.lattice, ref)


class TestDenseReference:
    """Covers from the enumeration, meet/join from masks and Birkhoff's count, against dense tables."""

    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_scan_groups(self, name):
        assert_matches_subgroup_inclusion(cat.cached_full_lattice(name))

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
        covers = [full.members[k] for k in lat.upper_covers(full.lattice, h)]
        assert ch.linear_witness(table, full.members[h], covers) == reference_primitive, h


class TestTopIntervalScan:
    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_matches_sliced_intervals_on_scan_groups(self, name):
        assert_top_scan_matches_slices(cat.cached_full_lattice(name), rp._cached_table(name))

    @settings(max_examples=25, deadline=None)
    @given(groups_with_base())
    def test_matches_sliced_intervals_on_random_groups(self, pair):
        group, _ = pair
        assert_top_scan_matches_slices(iv.full_subgroup_lattice(group), ch.character_table(group))
