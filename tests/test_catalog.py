import pytest

from orelat import catalog as cat
from orelat.errors import ParseError
from orelat.perm import Permutation
from references import catalog_bases, klein_four


class TestIntervalRows:
    def test_every_row_has_a_reference(self):
        # the PSL(2,7) rows are checked against an element search in test_acceptance
        assert sorted(cat._INTERVALS) == sorted([*catalog_bases(), "psl2_7/d8", "psl2_7/s3"])

    @pytest.mark.parametrize("name", sorted(catalog_bases()))
    def test_row_gives_the_reference_base(self, name):
        group_name, build = catalog_bases()[name]
        ambient, base = cat.catalog_pair(name)
        assert ambient is cat.catalog_group(group_name)
        reference = build(cat.catalog_group(group_name))
        assert frozenset(base.elements) == frozenset(reference.elements)
        assert base.generators == reference.generators

    def test_v4_is_the_klein_four_group(self):
        v4 = cat.catalog_group("v4")
        reference = klein_four()
        assert frozenset(v4.elements) == frozenset(reference.elements)
        assert v4.generators == reference.generators


class TestResolver:
    @pytest.mark.parametrize("name", ["psl2_7", "s3/a3", "s2xs3_2/base", "s4/a4", "s4/1"])
    def test_one_object_per_normalized_name(self, name):
        assert cat.catalog_pair(name) is cat.catalog_pair(f"  {name.upper()} ")
        assert cat.catalog_interval(name) is cat.catalog_interval(name.upper())

    def test_group_names_stand_for_the_group_over_its_trivial_subgroup(self):
        ambient, base = cat.catalog_pair("a4")
        assert ambient is cat.catalog_group("A4")
        assert base.order == 1 and base.degree == ambient.degree
        assert cat.catalog_pair("a4/trivial") == (ambient, base)

    def test_a_named_subgroup_of_the_same_degree(self):
        ambient, base = cat.catalog_pair("s4/a4")
        assert ambient is cat.catalog_group("s4") and base is cat.catalog_group("a4")

    def test_unknown_group_is_named_as_given(self):
        with pytest.raises(ParseError, match=r"^unknown catalog group ' Nope'; known: a4, a5, "):
            cat.catalog_group(" Nope")

    @pytest.mark.parametrize("name, shown", [(" Nope", "nope"), ("Nope/z2", "nope")])
    def test_unknown_ambient_of_a_pair_is_named_normalized(self, name, shown):
        with pytest.raises(ParseError, match=f"^unknown catalog group '{shown}'; known: "):
            cat.catalog_pair(name)

    @pytest.mark.parametrize("name", ["S3/Z4", "s3/", "v4/z2", "s3/a3/x", "z2/s3"])
    def test_unknown_interval_is_named_as_given(self, name):
        with pytest.raises(ParseError, match=f"^unknown catalog interval '{name}'$"):
            cat.catalog_pair(name)


class TestProducts:
    @pytest.mark.parametrize("names", [
        ("s3",), ("z2", "z3"), ("trivial", "z2"), ("z2", "s3", "s3"), ("z3", "trivial", "z2", "s3"),
    ])
    def test_many_factors_are_the_iterated_two_factor_product(self, names):
        factors = [cat.catalog_group(name) for name in names]
        reference = factors[0]
        for factor in factors[1:]:
            reference = cat.direct_product(reference, factor)
        group = cat.direct_product(*factors)
        assert group.generators == reference.generators
        assert group.elements == reference.elements

    @pytest.mark.parametrize("name, n, generators", [
        ("s2xs3", 1, ["(0 1)", "(2 3)", "(2 3 4)"]),
        ("s2xs3_2", 2, ["(0 1)", "(2 3)", "(2 3 4)", "(5 6)", "(5 6 7)"]),
        ("s2xs3_3", 3, ["(0 1)", "(2 3)", "(2 3 4)", "(5 6)", "(5 6 7)", "(8 9)", "(8 9 10)"]),
    ])
    def test_s2_s3n_keeps_its_generators(self, name, n, generators):
        group = cat.catalog_group(name)
        assert (group.degree, group.order) == (2 + 3 * n, 2 * 6 ** n)
        assert group.generators == tuple(Permutation.from_cycles(c, group.degree, one_based=False) for c in generators)
