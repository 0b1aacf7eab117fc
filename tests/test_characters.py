import random

import numpy as np
import pytest
from hypothesis import given, settings

from orelat import catalog as cat
from orelat import characters as ch
from orelat import intervals as iv
from orelat import lattice as lat
from orelat.errors import InvalidParameters, NotAnInteger, NotASubgroup, ValidationFailed
from orelat.perm import FiniteGroup, Permutation, generate, trivial_group
from dense_lattice import leq, member_id, sub_interval
from test_intervals import groups_with_base, reference_bits

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


def fixed_dim(table, row, mask):
    """dim V^K of one row for the subgroup bitset `mask`, read off the table's fixed-dimension matrix."""
    return ch._fixed_dims(table, (mask,))[0][row]


def mask_of(group, sub):
    """The bitset of `sub` over the element ids of `group`, as a character table reads subgroups."""
    return iv._ambient(group).subgroup_mask(sub)


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
        for mask in full.masks:
            assert fixed_dim(table, trivial_row, mask) == 1

    def test_nontrivial_irreducible_has_no_invariants_on_g(self):
        group = cat.symmetric(4)
        table = ch.character_table(group)
        for row in range(len(table)):
            expected = 1 if np.allclose(table.values[row], 1) else 0
            assert fixed_dim(table, row, mask_of(group, group)) == expected

    def test_fixed_dim_of_trivial_subgroup_is_degree(self):
        group = cat.psl2_7()
        table = ch.character_table(group)
        for row in range(len(table)):
            assert fixed_dim(table, row, mask_of(group, trivial_group(8))) == table.degrees[row]

    def test_non_subgroup_raises_cold_and_after_caching(self):
        table = ch.character_table(cat.alternating(4))
        transposition = generate(4, [Permutation.from_cycles("(1 2)", 4)])
        with pytest.raises(NotASubgroup):
            ch.index_identity_holds(table, transposition)
        double = generate(4, [Permutation.from_cycles("(1 2)(3 4)", 4)])
        assert ch.index_identity_holds(table, double)
        assert list(table._dims) == [mask_of(table.group, double)]
        assert ch.index_identity_holds(table, FiniteGroup(4, [], double.elements))
        with pytest.raises(NotASubgroup):
            ch.index_identity_holds(table, transposition)
        with pytest.raises(NotASubgroup):
            ch.index_identity_holds(table, trivial_group(5))

    def test_elements_not_closed_are_not_a_subgroup(self):
        """{(), (0 1 2)} lies in S3 but is not closed: NotASubgroup, not a fixed dimension of 1/2."""
        table = ch.character_table(cat.symmetric(3))
        half = FiniteGroup(3, [], [Permutation.identity(3), Permutation.from_cycles("(0 1 2)", 3, one_based=False)])
        with pytest.raises(NotASubgroup, match="not closed"):
            ch.index_identity_holds(table, half)
        assert ch.index_identity_holds(table, generate(3, half.elements))

    @pytest.mark.parametrize("name", ["s3", "d4", "a4", "s4", "z12", "psl2_7"])
    def test_index_identity(self, name):
        group = cat.catalog_group(name)
        table = ch.character_table(group)
        for member in cat.catalog_interval(name).members:
            assert ch.index_identity_holds(table, member)

    def test_monotone_under_inclusion(self):
        group = cat.symmetric(4)
        table = ch.character_table(group)
        full = cat.catalog_interval("s4")
        lattice = full.lattice
        for x in range(lattice.n):
            for y in range(lattice.n):
                if leq(lattice, x, y):
                    for row in range(len(table)):
                        assert fixed_dim(table, row, full.masks[y]) <= fixed_dim(
                            table, row, full.masks[x]
                        )


class TestLinearPrimitivity:
    @pytest.mark.parametrize("n", [2, 3, 5, 6, 8, 12])
    def test_cyclic_groups_are_linearly_primitive(self, n):
        interval = iv.full_subgroup_lattice(cat.cyclic(n))
        primitive, _ = ch.is_linearly_primitive(interval, ch.character_table(interval.ambient))
        assert primitive

    def test_klein_four_is_not(self):
        interval = iv.full_subgroup_lattice(cat.catalog_group("v4"))
        primitive, witness = ch.is_linearly_primitive(interval, ch.character_table(interval.ambient))
        assert not primitive and witness is None

    def test_d8_psl_with_reciprocal_sum_below_two(self):
        interval = iv.overgroup_interval(*cat.catalog_pair("psl2_7/d8"))
        base = interval.members[0].order
        total = sum(
            1 / (interval.members[a].order / base)
            for a in lat.atoms(interval.lattice)
        )
        assert total == pytest.approx(2 / 3)
        primitive, _ = ch.is_linearly_primitive(interval, ch.character_table(interval.ambient))
        assert primitive

    def test_table_of_another_group_is_refused(self):
        interval = iv.full_subgroup_lattice(cat.symmetric(4))
        with pytest.raises(InvalidParameters):
            ch.is_linearly_primitive(interval, ch.character_table(cat.alternating(4)))
        with pytest.raises(InvalidParameters):
            ch.is_linearly_primitive(interval, ch.character_table(cat.cyclic(24)))
        bare = FiniteGroup(4, [], cat.symmetric(4).elements)
        own = ch.is_linearly_primitive(interval, ch.character_table(interval.ambient))
        assert ch.is_linearly_primitive(interval, ch.character_table(bare)) == own

    def test_rank_one_intervals_are_primitive(self):
        # maximal subgroups of a few catalog groups
        for name in ("s3", "d4", "a4", "s4"):
            group = cat.catalog_group(name)
            table = ch.character_table(group)
            full = cat.catalog_interval(name)
            top = full.lattice.top
            for co in lat.coatoms(full.lattice):
                interval = sub_interval(full, co, top)
                primitive, _ = ch.is_linearly_primitive(interval, table)
                assert primitive

    def test_at_most_two_minimal_overgroups_primitive(self):
        for name in ("s4", "d6", "z12", "a4"):
            group = cat.catalog_group(name)
            table = ch.character_table(group)
            full = cat.catalog_interval(name)
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
            full = cat.catalog_interval(name)
            top = full.lattice.top
            for h in range(full.lattice.n):
                interval = sub_interval(full, h, top)
                if not lat.is_boolean(interval.lattice):
                    continue
                for co in lat.coatoms(interval.lattice):
                    if interval.index_of[co] != 2:
                        continue
                    lower = sub_interval(full, h, member_id(full, interval.members[co]))
                    lower_prim, _ = ch.is_linearly_primitive(
                        lower, ch.character_table(lower.ambient))
                    if lower_prim:
                        outer_prim, _ = ch.is_linearly_primitive(interval, table)
                        assert outer_prim, (name, h)


# -- the per-scalar formulas the table code replaced, kept as references -------


def reference_class_matrices(classes, amb):
    """(A_i)[j, k] = #{x in C_i : x^-1 z_k in C_j}, one numpy scalar at a time."""
    mul, inv = amb.mul, amb.inv
    r = len(classes)
    mats = []
    for i in range(r):
        mat = np.zeros((r, r), dtype=np.int64)
        for k in range(r):
            zk = classes.representatives[k]
            for x in classes.classes[i]:
                mat[classes.class_of[mul[inv[x]][zk]], k] += 1
        mats.append(mat)
    return mats


def reference_row_sort_key(chi):
    return tuple((round(z.real, 6), round(z.imag, 6)) for z in chi)


def reference_rows(classes, vecs, sizes, order):
    """(degrees, values) normalized one eigenvector at a time and sorted by `reference_row_sort_key`."""
    rows = []
    for j in range(len(classes)):
        v = vecs[:, j]
        if abs(v[0]) < 1e-9:
            raise ValidationFailed("eigenvector vanishes at the identity class")
        omega = v / v[0]
        deg = (order / float(np.sum(np.abs(omega) ** 2 / sizes).real)) ** 0.5
        deg_int = round(deg)
        if abs(deg - deg_int) > ch.TOLERANCE or deg_int < 1:
            raise ValidationFailed("degree is not a positive integer")
        rows.append((deg_int, deg_int * omega / sizes))
    if sum(d * d for d, _ in rows) != order:
        raise ValidationFailed("sum of squared degrees does not match the group order")
    rows.sort(key=lambda item: (item[0], reference_row_sort_key(item[1])))
    values = np.array([chi for _, chi in rows])
    gram = (values * (sizes / order)) @ values.conj().T
    col = values.conj().T @ values
    if (np.max(np.abs(gram - np.eye(len(rows)))) > ch.TOLERANCE
            or np.max(np.abs(col - np.diag(order / sizes))) > ch.TOLERANCE):
        raise ValidationFailed("orthogonality failed")
    return [d for d, _ in rows], values


def reference_table(group):
    """(degrees, values) by the same seeded draws as `character_table`."""
    classes = ch.conjugacy_classes(group)
    mats = reference_class_matrices(classes, iv._ambient(group))
    sizes = np.array(classes.sizes, dtype=np.float64)
    rng = random.Random(0)
    for _ in range(12):
        coeffs = [rng.gauss(0.0, 1.0) for _ in range(len(classes))]
        combo = sum(c * m for c, m in zip(coeffs, mats)).astype(np.complex128)
        try:
            return reference_rows(classes, np.linalg.eig(combo)[1], sizes, group.order)
        except ValidationFailed:
            continue
    raise AssertionError("no draw passed validation")


def reference_fixed_dim(table, row, sub):
    """One np.dot per call over the subgroup's numpy class counts."""
    counts = np.zeros(len(table.classes), dtype=np.int64)
    for p in sub.elements:
        counts[table.classes.class_of[table.group.elements.index(p)]] += 1
    value = complex(np.dot(counts, table.values[row])) / sub.order
    assert abs(value.imag) <= ch.TOLERANCE
    nearest = round(value.real)
    assert abs(value.real - nearest) <= ch.TOLERANCE and nearest >= 0
    return int(nearest)


def assert_table_matches_reference(group, full):
    table = ch.character_table(group)
    degrees, values = reference_table(group)
    assert list(table.degrees) == degrees
    assert table.values.dtype == values.dtype and np.array_equal(table.values, values)
    for mask, member in zip(full.masks, full.members):
        for row in range(len(table)):
            assert fixed_dim(table, row, mask) == reference_fixed_dim(table, row, member)


def assert_class_counts_match_reference(group, full):
    """A subgroup's elements per class, one popcount per class, against counting them one by one."""
    table = ch.character_table(group)
    classes = table.classes
    assert classes.masks == tuple(sum(1 << x for x in c) for c in classes.classes)
    for mask in full.masks:
        counts = [0] * len(classes)
        for x in reference_bits(mask):
            counts[classes.class_of[x]] += 1
        assert [(mask & c).bit_count() for c in classes.masks] == counts


def reference_fixed_dims(table, mask):
    """dim V^K of every row as (1/|K|) times the sum of chi over the elements of K, one element at a time."""
    class_of = table.classes.class_of
    elements = reference_bits(mask)
    dims = []
    for chi in table.values.tolist():
        value = sum(chi[class_of[x]] for x in elements) / len(elements)
        nearest = round(value.real)
        assert abs(value.imag) <= ch.TOLERANCE and abs(value.real - nearest) <= ch.TOLERANCE and nearest >= 0
        dims.append(nearest)
    return dims


def assert_fixed_dim_matrix_matches_reference(group, full):
    """The matrix of one product over every member against the per-element sums, and each mask asked alone."""
    table = ch.character_table(group)
    matrix = ch._fixed_dims(table, full.masks)
    assert matrix == [reference_fixed_dims(table, mask) for mask in full.masks]
    assert all(type(d) is int for dims in matrix for d in dims)
    assert list(table._dims) == list(dict.fromkeys(full.masks))
    alone = ch.CharacterTable(group, table.classes, table.values, table.degrees)
    assert [ch._fixed_dims(alone, (mask,))[0] for mask in full.masks] == matrix


class TestAgainstPerScalarFormulas:
    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_scan_groups(self, name):
        assert_table_matches_reference(cat.catalog_group(name), cat.catalog_interval(name))

    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_class_counts_on_scan_groups(self, name):
        assert_class_counts_match_reference(cat.catalog_group(name), cat.catalog_interval(name))

    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_fixed_dim_matrix_on_scan_groups(self, name):
        assert_fixed_dim_matrix_matches_reference(cat.catalog_group(name), cat.catalog_interval(name))

    @settings(max_examples=30, deadline=None)
    @given(groups_with_base())
    def test_fixed_dim_matrix_on_random_groups(self, pair):
        group, _ = pair
        assert_fixed_dim_matrix_matches_reference(group, iv.full_subgroup_lattice(group))

    def test_a_value_off_the_integers_is_refused_and_nothing_kept(self):
        group = cat.symmetric(4)
        table = ch.character_table(group)
        full = cat.catalog_interval("s4")
        for values, message in ((table.values / 2, "not a nonnegative integer"),
                                (table.values * 1j, "imaginary part")):
            halved = ch.CharacterTable(group, table.classes, values, table.degrees)
            with pytest.raises(NotAnInteger, match=message):
                ch._fixed_dims(halved, full.masks)
            assert halved._dims == {}

    @settings(max_examples=30, deadline=None)
    @given(groups_with_base())
    def test_class_counts_on_random_groups(self, pair):
        group, _ = pair
        assert_class_counts_match_reference(group, iv.full_subgroup_lattice(group))

    @settings(max_examples=30, deadline=None)
    @given(groups_with_base())
    def test_random_groups(self, pair):
        group, _ = pair
        assert_table_matches_reference(group, iv.full_subgroup_lattice(group))

    # s2xs3_3 has order 432, so its table is the uint16 array and not byte rows
    @pytest.mark.parametrize("name", ["s3", "a5", "psl2_7", "s2xs3_3"])
    def test_class_matrices(self, name):
        group = cat.catalog_group(name)
        classes = ch.conjugacy_classes(group)
        got = ch._class_matrices(classes, iv._ambient(group))
        ref = reference_class_matrices(classes, iv._ambient(group))
        assert len(got) == len(ref)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, ref))

    def test_trivial_group(self):
        group = trivial_group(3)
        assert_table_matches_reference(group, iv.full_subgroup_lattice(group))
        assert ch.character_table(group).degrees == (1,)

    def test_rounding_uses_numpy_not_python_floats(self):
        # Python's round gives 2.500001 and 1.000001 here, numpy's 2.5 and 1.000002
        chi = np.array([[2.5000005 + 1.0000015j, 1.0000005 - 0.0000005j]])
        assert ch._row_sort_keys(chi) == [reference_row_sort_key(chi[0])]
        assert ch._row_sort_keys(chi)[0][0] == (2.5, 1.000002)
        assert (round(2.5000005, 6), round(1.0000015, 6)) == (2.500001, 1.000001)
