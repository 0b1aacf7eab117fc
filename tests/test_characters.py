import numpy as np
import pytest

from orelat import catalog as cat
from orelat import characters as ch
from orelat import intervals as iv
from orelat import lattice as lat
from orelat.errors import NotASubgroup
from orelat.perm import FiniteGroup, Permutation, generate, trivial_group
from dense_lattice import leq, sub_interval

CLASSICAL_DEGREES = {
    "z5": [1, 1, 1, 1, 1],
    "z6": [1, 1, 1, 1, 1, 1],
    "s3": [1, 1, 2],
    "d4": [1, 1, 1, 1, 2],
    "a4": [1, 1, 1, 3],
    "s4": [1, 1, 2, 3, 3],
    "a5": [1, 3, 3, 4, 5],
    "s5": [1, 1, 4, 4, 5, 5, 6],
    "psl2_7": [1, 3, 3, 6, 7, 8],
}


class TestConjugacyClasses:
    def test_abelian_groups_have_singleton_classes(self):
        cc = ch.conjugacy_classes(cat.cyclic(6))
        assert len(cc) == 6
        assert set(cc.sizes) == {1}

    def test_s3_class_sizes(self):
        cc = ch.conjugacy_classes(cat.symmetric(3))
        assert sorted(cc.sizes) == [1, 2, 3]

    def test_psl_has_six_classes(self):
        cc = ch.conjugacy_classes(cat.psl2_7())
        assert len(cc) == 6
        assert sum(cc.sizes) == 168
        assert sorted(cc.sizes) == [1, 21, 24, 24, 42, 56]

    def test_identity_class_first(self):
        cc = ch.conjugacy_classes(cat.symmetric(4))
        assert cc.sizes[0] == 1


class TestCharacterTable:
    @pytest.mark.parametrize("name,expected", sorted(CLASSICAL_DEGREES.items()))
    def test_classical_degree_multisets(self, name, expected):
        table = ch.character_table(cat.catalog_group(name))
        assert list(table.degrees) == expected

    @pytest.mark.parametrize("name", ["s3", "s4", "a5", "psl2_7", "s2xs3_2", "s3xs3", "z12"])
    def test_sum_of_squared_degrees(self, name):
        group = cat.catalog_group(name)
        table = ch.character_table(group)
        assert sum(d * d for d in table.degrees) == group.order

    def test_row_orthogonality_within_tolerance(self):
        table = ch.character_table(cat.psl2_7())
        sizes = np.array(table.classes.sizes, dtype=float)
        gram = (table.values * sizes / 168) @ table.values.conj().T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-6

    def test_column_orthogonality_within_tolerance(self):
        table = ch.character_table(cat.symmetric(4))
        sizes = np.array(table.classes.sizes, dtype=float)
        col = table.values.conj().T @ table.values
        assert np.max(np.abs(col - np.diag(24 / sizes))) < 1e-6

    def test_deterministic_for_fixed_seed(self):
        a = ch.character_table(cat.symmetric(4))
        b = ch.character_table(cat.symmetric(4))
        assert np.array_equal(a.values, b.values)
        assert a.degrees == b.degrees


class TestFixedDim:
    def test_trivial_character_fixes_one_dimension(self):
        group = cat.symmetric(4)
        table = ch.character_table(group)
        trivial_row = next(
            i for i in range(len(table))
            if table.degrees[i] == 1 and np.allclose(table.values[i], 1)
        )
        full = iv.full_subgroup_lattice(group)
        for member in full.members:
            assert ch.fixed_dim(table, trivial_row, member) == 1

    def test_nontrivial_irreducible_has_no_invariants_on_g(self):
        group = cat.symmetric(4)
        table = ch.character_table(group)
        for row in range(len(table)):
            expected = 1 if np.allclose(table.values[row], 1) else 0
            assert ch.fixed_dim(table, row, group) == expected

    def test_fixed_dim_of_trivial_subgroup_is_degree(self):
        group = cat.psl2_7()
        table = ch.character_table(group)
        for row in range(len(table)):
            assert ch.fixed_dim(table, row, trivial_group(8)) == table.degrees[row]

    def test_non_subgroup_raises_cold_and_after_caching(self):
        table = ch.character_table(cat.alternating(4))
        transposition = generate(4, [Permutation.from_cycles("(1 2)", 4)])
        with pytest.raises(NotASubgroup):
            ch.fixed_dim(table, 0, transposition)
        double = generate(4, [Permutation.from_cycles("(1 2)(3 4)", 4)])
        dims = [ch.fixed_dim(table, row, double) for row in range(len(table))]
        copy = FiniteGroup(4, [], double.elements)
        assert [ch.fixed_dim(table, row, copy) for row in range(len(table))] == dims
        with pytest.raises(NotASubgroup):
            ch.fixed_dim(table, 0, transposition)
        with pytest.raises(NotASubgroup):
            ch.fixed_dim(table, 0, trivial_group(5))

    @pytest.mark.parametrize("name", ["s3", "d4", "a4", "s4", "z12", "psl2_7"])
    def test_index_identity(self, name):
        group = cat.catalog_group(name)
        table = ch.character_table(group)
        for member in cat.cached_full_lattice(name).members:
            assert ch.index_identity_holds(table, member)

    def test_monotone_under_inclusion(self):
        group = cat.symmetric(4)
        table = ch.character_table(group)
        full = cat.cached_full_lattice("s4")
        lattice = full.lattice
        for x in range(lattice.n):
            for y in range(lattice.n):
                if leq(lattice, x, y):
                    for row in range(len(table)):
                        assert ch.fixed_dim(table, row, full.members[y]) <= ch.fixed_dim(
                            table, row, full.members[x]
                        )


class TestLinearPrimitivity:
    @pytest.mark.parametrize("n", [2, 3, 5, 6, 8, 12])
    def test_cyclic_groups_are_linearly_primitive(self, n):
        interval = iv.full_subgroup_lattice(cat.cyclic(n))
        primitive, _ = ch.is_linearly_primitive(interval)
        assert primitive

    def test_klein_four_is_not(self):
        interval = iv.full_subgroup_lattice(cat.klein_four())
        primitive, witness = ch.is_linearly_primitive(interval)
        assert not primitive and witness is None

    def test_d8_psl_with_reciprocal_sum_below_two(self):
        interval = iv.overgroup_interval(cat.psl2_7(), cat.psl2_7_d8())
        base = interval.base.order
        total = sum(
            1 / (interval.members[a].order / base)
            for a in lat.atoms(interval.lattice)
        )
        assert total == pytest.approx(2 / 3)
        primitive, _ = ch.is_linearly_primitive(interval)
        assert primitive

    def test_rank_one_intervals_are_primitive(self):
        # maximal subgroups of a few catalog groups
        for name in ("s3", "d4", "a4", "s4"):
            group = cat.catalog_group(name)
            table = ch.character_table(group)
            full = cat.cached_full_lattice(name)
            top = full.lattice.top
            for co in lat.coatoms(full.lattice):
                interval = sub_interval(full, co, top)
                primitive, _ = ch.is_linearly_primitive(interval, table)
                assert primitive

    def test_at_most_two_minimal_overgroups_primitive(self):
        for name in ("s4", "d6", "z12", "a4"):
            group = cat.catalog_group(name)
            table = ch.character_table(group)
            full = cat.cached_full_lattice(name)
            top = full.lattice.top
            for h in range(full.lattice.n):
                interval = sub_interval(full, h, top)
                if 1 <= len(lat.atoms(interval.lattice)) <= 2:
                    primitive, _ = ch.is_linearly_primitive(interval, table)
                    assert primitive, (name, h)

    def test_index_two_coatom_extension(self):
        # boolean [H, G] with an index-2 coatom L: primitivity of [H, L]
        # lifts to [H, G] on every catalog instance
        for name in ("z6", "z12", "d4", "d6", "s4", "s2xs3"):
            group = cat.catalog_group(name)
            table = ch.character_table(group)
            full = cat.cached_full_lattice(name)
            top = full.lattice.top
            for h in range(full.lattice.n):
                interval = sub_interval(full, h, top)
                if not lat.is_boolean(interval.lattice):
                    continue
                for co in lat.coatoms(interval.lattice):
                    if interval.index_of[co] != 2:
                        continue
                    lower = sub_interval(full, h, full.member_id(interval.members[co]))
                    lower_prim, _ = ch.is_linearly_primitive(
                        lower, ch.character_table(lower.ambient))
                    if lower_prim:
                        outer_prim, _ = ch.is_linearly_primitive(interval, table)
                        assert outer_prim, (name, h)
