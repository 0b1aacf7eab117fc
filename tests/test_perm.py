from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orelat.errors import (
    CapExceeded,
    DegreeMismatch,
    ElementOutsideGroup,
    InvalidParameters,
    NotASubgroup,
    ParseError,
)
from orelat.perm import FiniteGroup, Permutation, _picker, generate, subgroup_generated
from orelat import catalog as cat
from orelat import characters as ch
from orelat import intervals as iv
from orelat import lattice as lat
from dense_lattice import member_id
from references import element_order


def s3():
    return cat.symmetric(3)


def a3_in(group):
    return subgroup_generated(group, [Permutation([1, 2, 0])])


class TestPermutation:
    def test_identity_and_composition(self):
        e = Permutation.identity(4)
        p = Permutation.from_cycles("(1 2 3)", 4)
        assert p * e == p
        assert p * p.inverse() == e
        assert element_order(p) == 3

    def test_composition_applies_right_factor_first(self):
        p = Permutation.from_cycles("(1 2)", 3)
        q = Permutation.from_cycles("(2 3)", 3)
        assert (p * q)(1) == 2  # q: 1->2 (0-based), p fixes 2

    def test_cycle_parsing(self):
        assert Permutation.from_cycles("(1 2)(3 4)", 4).images == (1, 0, 3, 2)
        assert Permutation.from_cycles("()", 5) == Permutation.identity(5)
        assert Permutation.from_cycles("(1,2,3)", 3).images == (1, 2, 0)

    @pytest.mark.parametrize("bad", ["(1 2", "(0 1)", "(1 2)(2 3)", "(1 1)", "(1 9)"])
    def test_cycle_parse_errors(self, bad):
        with pytest.raises(ParseError):
            Permutation.from_cycles(bad, 4)

    def test_cycle_roundtrip(self):
        p = Permutation.from_cycles("(1 2 3)(4 5)", 6)
        assert Permutation.from_cycles(p.to_cycles(), 6) == p

    def test_not_a_bijection(self):
        with pytest.raises(ParseError):
            Permutation([0, 0, 1])

    @pytest.mark.parametrize("bad", [[1.9, 0.3, 2.5], [1.0, 0.0], ["1", "0"], [b"\x01", 0]])
    def test_non_integer_images_are_refused(self, bad):
        # int() would truncate [1.9, 0.3, 2.5] to (0 1) and parse ["1", "0"]
        with pytest.raises(ParseError, match="must be integers"):
            Permutation(bad)

    def test_numpy_integer_images_pass_as_ints(self):
        p = Permutation(np.array([1, 0, 2], dtype=np.int64))
        assert p == Permutation.from_cycles("(1 2)", 3)
        assert {type(x) for x in p.images} == {int}

    @given(st.permutations(list(range(5))), st.permutations(list(range(5))),
           st.permutations(list(range(5))))
    @settings(max_examples=50, deadline=None)
    def test_associativity(self, a, b, c):
        pa, pb, pc = Permutation(a), Permutation(b), Permutation(c)
        assert (pa * pb) * pc == pa * (pb * pc)

    @given(st.permutations(list(range(6))))
    @settings(max_examples=50, deadline=None)
    def test_inverse_cancels(self, imgs):
        p = Permutation(imgs)
        assert p * p.inverse() == Permutation.identity(6)
        assert p.inverse() * p == Permutation.identity(6)


class TestGenerate:
    def test_s3(self):
        assert s3().order == 6

    def test_trivial(self):
        assert generate(1, []).order == 1

    def test_psl_2_7_order_matches_formula(self):
        group = cat.psl2_7()
        assert group.order == (7 ** 3 - 7) // 2 == 168

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            generate(3, [Permutation.identity(4)])

    def test_cap(self):
        with pytest.raises(CapExceeded):
            generate(5, list(cat.symmetric(5).generators), cap=10)

    def test_idempotent_on_closed_set(self):
        group = s3()
        again = generate(3, list(group.elements))
        assert frozenset(again.elements) == frozenset(group.elements)

    def test_element_orders_psl(self):
        # orders 1,2,3,4,7 with classical multiplicities
        counts = Counter(element_order(g) for g in cat.psl2_7().elements)
        assert counts == {1: 1, 2: 21, 3: 56, 4: 42, 7: 48}


def reference_closure(degree, generators):
    """Every product of the generators, by breadth-first `Permutation` multiplication."""
    ident = Permutation.identity(degree)
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = x * g
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(elements)


@st.composite
def generating_sets(draw):
    """1-3 random permutations of degree 1-7."""
    degree = draw(st.integers(1, 7))
    images = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return degree, [Permutation(i) for i in images]


class TestTupleClosure:
    @settings(max_examples=60, deadline=None)
    @given(generating_sets())
    def test_matches_permutation_products(self, case):
        degree, gens = case
        group = generate(degree, gens)
        ref = reference_closure(degree, gens)
        assert list(group.elements) == ref
        assert group.generators == tuple(gens)
        for p in group.elements:
            assert type(p) is Permutation
            checked = Permutation(p.images)
            assert p == checked and hash(p) == hash(checked)

    @settings(max_examples=40, deadline=None)
    @given(generating_sets())
    def test_cap_boundary(self, case):
        degree, gens = case
        order = len(reference_closure(degree, gens))
        assert generate(degree, gens, cap=order).order == order
        if order > 1:
            with pytest.raises(CapExceeded, match=f"^group closure exceeded cap of {order - 1} elements$"):
                generate(degree, gens, cap=order - 1)

    @pytest.mark.parametrize("name", ["s4", "a5", "s5", "psl2_7", "s2xs3_2"])
    def test_catalog_groups_match_permutation_products(self, name):
        group = cat.catalog_group(name)
        assert list(group.elements) == reference_closure(group.degree, list(group.generators))

    def test_subgroup_generated_closes_tuples_too(self):
        group = cat.psl2_7()
        seed = [group.elements[5], group.elements[40]]
        assert list(subgroup_generated(group, seed).elements) == reference_closure(8, seed)

    def test_degree_zero_and_one(self):
        assert generate(1, [Permutation([0])], cap=1).elements == (Permutation([0]),)
        assert generate(0, [Permutation([])]).elements == (Permutation([]),)


class TestTrustedGroups:
    """`generate` builds its groups by `FiniteGroup._trusted`, which must answer as the public constructor does."""

    @settings(max_examples=60, deadline=None)
    @given(generating_sets(), st.data())
    def test_trusted_and_public_groups_agree(self, case, data):
        degree, gens = case
        trusted = generate(degree, gens)
        public = FiniteGroup(degree, gens, reversed(reference_closure(degree, gens)))
        below = subgroup_generated(trusted, gens[:1])
        below_public = FiniteGroup(degree, [], reference_closure(degree, gens[:1]))
        assert public == trusted and trusted == public and hash(public) == hash(trusted)
        assert below == below_public and hash(below) == hash(below_public)
        # nothing above wrapped an element; the first read of `elements` does
        assert trusted._elements is None and below._elements is None
        assert public.elements == trusted.elements and public.order == trusted.order
        assert below_public.elements == below.elements and below_public.order == below.order
        others = [Permutation(i) for i in data.draw(st.lists(st.permutations(range(degree)), max_size=5))]
        public_images = {q.images for q in public.elements}
        for p in list(trusted.elements) + others:
            assert (p in trusted) == (p in public) == (p.images in public_images)
        assert below <= trusted and below_public <= public
        assert (trusted <= below) == (public <= below_public) == (below.order == trusted.order)
        assert (trusted == below) == (public == below_public) == (below.order == trusted.order)

    @pytest.mark.parametrize("name", ["s5", "psl2_7", "s2xs3_2"])
    def test_reading_a_closed_group_wraps_no_element(self, name, monkeypatch):
        source = cat.catalog_group(name)
        gens = list(source.generators)
        inside, outside = source.elements[3], Permutation.identity(source.degree + 1)
        wrapped = []
        trusted = Permutation._trusted
        monkeypatch.setattr(Permutation, "_trusted", staticmethod(lambda images: wrapped.append(images) or trusted(images)))
        group = generate(source.degree, gens)
        sub = subgroup_generated(group, gens[:1])
        assert group.order == source.order and 1 < sub.order < group.order
        assert inside in group and outside not in group and (inside in sub) == (inside.images in sub._set)
        assert group == source and sub <= group and not group <= sub and sub != group
        assert hash(group) == hash(source) and len({group, sub, source}) == 2
        assert wrapped == []
        assert group.elements == source.elements and len(wrapped) == group.order
        assert group.elements is group.elements and len(wrapped) == group.order

    @pytest.mark.parametrize("outsider", [(0, 1, 2), [0, 1, 2], "s3", None, 0])
    def test_only_a_permutation_is_a_member(self, outsider):
        group = cat.catalog_group("s3")
        assert Permutation(range(3)) in group
        assert outsider not in group

    def test_repeated_element_is_refused(self):
        group = s3()
        with pytest.raises(InvalidParameters, match="repeat: 7 given, 6 distinct"):
            FiniteGroup(3, [], list(group.elements) + [group.elements[1]])

    @pytest.mark.parametrize("degree, gens, elements, message", [
        (3, [], [[0, 1, 2], [1, 0]], "^element of degree 2 in a degree-3 group$"),
        (2, [[1, 0, 2]], [[0, 1, 2], [1, 0, 2]], "^generator of degree 3 in a degree-2 group$"),
        (2, [], [[0, 1], [1, 0], [0, 2, 1]], "^element of degree 3 in a degree-2 group$"),
    ], ids=["short-element", "long-generator", "long-element"])
    def test_a_permutation_of_another_degree_is_refused(self, degree, gens, elements, message):
        # before, the first case raised a bare IndexError in the subgroup lattice, and the
        # second "() is not among the group's elements"
        with pytest.raises(DegreeMismatch, match=message):
            FiniteGroup(degree, [Permutation(g) for g in gens], [Permutation(e) for e in elements])

    def test_identity_counts_against_the_cap(self):
        with pytest.raises(CapExceeded, match="^group closure exceeded cap of 0 elements$"):
            generate(3, [], cap=0)
        assert generate(3, [], cap=1).order == 1


class TestPicker:
    @pytest.mark.parametrize("keys", [(), (2,), (4, 0, 2)], ids=["0-keys", "1-key", "3-keys"])
    @pytest.mark.parametrize("row", [(7, 8, 9, 10, 11), bytes([7, 8, 9, 10, 11])], ids=["tuple", "bytes"])
    def test_returns_a_tuple_of_ints(self, keys, row):
        picked = _picker(keys)(row)
        assert type(picked) is tuple
        assert picked == tuple(7 + k for k in keys)
        assert all(type(x) is int for x in picked)


class TestSubgroups:
    def test_subgroup_generated(self):
        group = s3()
        assert a3_in(group).order == 3
        assert subgroup_generated(group, []).order == 1

    def test_seed_outside(self):
        with pytest.raises(ElementOutsideGroup):
            subgroup_generated(a3_in(s3()), [Permutation.from_cycles("(1 2)", 3)])

    def test_sylow_two_of_psl(self):
        # |G| = 168 = 8 * 21, so a Sylow 2-subgroup has order 8
        assert cat.catalog_pair("psl2_7/d8")[1].order == 8

    def test_intersect(self):
        full = iv.full_subgroup_lattice(s3())
        a = member_id(full, subgroup_generated(s3(), [Permutation.from_cycles("(1 2)", 3)]))
        b = member_id(full, subgroup_generated(s3(), [Permutation.from_cycles("(1 3)", 3)]))
        assert full.lattice.meet(a, a) == a
        assert full.members[full.lattice.meet(a, b)].order == 1

    def test_intersect_psl_overgroups(self):
        interval = iv.overgroup_interval(*cat.catalog_pair("psl2_7/d8"))
        lattice = interval.lattice
        k, ell = lat.atoms(lattice)
        assert interval.members[lattice.meet(k, ell)].order == 8
        assert interval.members[lattice.join(k, ell)].order == 168

    def test_join(self):
        full = iv.full_subgroup_lattice(s3())
        a = member_id(full, subgroup_generated(s3(), [Permutation.from_cycles("(1 2)", 3)]))
        a3 = member_id(full, a3_in(s3()))
        assert full.lattice.join(a, full.lattice.bottom) == a
        assert full.members[full.lattice.join(a, a3)].order == 6

    def test_index(self):
        interval = iv.overgroup_interval(s3(), a3_in(s3()))
        assert interval.index_of == (2, 1)
        psl = iv.overgroup_interval(*cat.catalog_pair("psl2_7/d8"))
        assert psl.index_of[psl.lattice.bottom] == 168 // 8 == 21

    def test_index_multiplicative(self):
        group = cat.symmetric(4)
        a4 = subgroup_generated(group, [Permutation([1, 2, 0, 3]), Permutation([0, 2, 3, 1])])
        v4 = subgroup_generated(group, [Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])])
        interval = iv.overgroup_interval(group, v4)
        lower = iv.overgroup_interval(a4, v4)
        assert interval.index_of[interval.lattice.bottom] == (
            interval.index_of[member_id(interval, a4)] * lower.index_of[lower.lattice.bottom]
        )

    def test_not_a_subgroup(self):
        with pytest.raises(NotASubgroup):
            iv.overgroup_interval(a3_in(s3()), s3())


class TestNormality:
    def test_core_of_normal_subgroup(self):
        full = iv.full_subgroup_lattice(s3())
        a3 = member_id(full, a3_in(s3()))
        assert full._amb.core(full.masks[a3]) == full.masks[a3]

    def test_core_free(self):
        full = iv.full_subgroup_lattice(s3())
        z2 = member_id(full, subgroup_generated(s3(), [Permutation.from_cycles("(1 2)", 3)]))
        assert full._amb.core(full.masks[z2]) == full.masks[full.lattice.bottom]

    def test_psl_is_simple_so_core_trivial(self):
        group = cat.psl2_7()
        # independent simplicity check: the conjugates of any single
        # nontrivial element already generate the whole group
        g = group.elements[1]
        conjugates = {x * g * x.inverse() for x in group.elements}
        assert subgroup_generated(group, sorted(conjugates)).order == group.order
        full = cat.catalog_interval("psl2_7")
        trivial = full.masks[full.lattice.bottom]
        d8 = member_id(full, cat.catalog_pair("psl2_7/d8")[1])
        assert full._amb.core(full.masks[d8]) == trivial
        assert [i for i, m in enumerate(full.masks) if full._amb.core(m) != trivial] == [full.lattice.top]

    def test_conjugate(self):
        classes = ch.conjugacy_classes(s3())
        elems = s3().elements
        moved = Permutation.from_cycles("(2 3)", 3) * Permutation.from_cycles("(1 2)", 3) \
            * Permutation.from_cycles("(2 3)", 3).inverse()
        assert moved == Permutation.from_cycles("(1 3)", 3)
        t12 = elems.index(Permutation.from_cycles("(1 2)", 3))
        t13 = elems.index(moved)
        assert classes.class_of[t12] == classes.class_of[t13]


class TestProductFormula:
    @pytest.mark.parametrize("name", ["s3", "d4", "a4", "z12"])
    def test_product_formula(self, name):
        full = cat.catalog_interval(name)
        members, lattice = full.members, full.lattice
        for i, a in enumerate(members):
            for j, b in enumerate(members):
                lhs = a.order * b.order
                meet = members[lattice.meet(i, j)].order
                assert lhs == len({x * y for x in a.elements for y in b.elements}) * meet
                assert lhs <= members[lattice.join(i, j)].order * meet
