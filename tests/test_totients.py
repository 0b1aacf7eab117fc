import math

import numpy as np
import pytest

from orelat import catalog as cat
from orelat import intervals as iv
from orelat import lattice as lat
from orelat import totients as tt
from orelat.errors import (
    InvalidParameters,
    NotACoatom,
    NotDistributive,
    NotGraded,
    SplitConditionFails,
)
from dense_lattice import build_lattice, subset_lattice, sub_interval
from references import allsplit_model, label_vector


def group_model(name):
    return tt.from_group_interval(cat.catalog_interval(name))


def interval_model(name):
    return tt.from_group_interval(cat.catalog_interval(name))


def pentagon_model():
    # non-graded: 0 < a < b < top and 0 < c < top, with divisible labels
    leq = np.eye(5, dtype=bool)
    for x, y in [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)]:
        leq[x, y] = True
    lattice = build_lattice(leq)
    return tt.IndexedInterval(lattice, [8, 4, 2, 2, 1])


class TestDualTotient:
    def test_two_chain(self):
        assert tt.dual_totient(tt.pq_model(3, 7, 1, 1)) == 6

    def test_rank_two_index_nine(self):
        assert tt.dual_totient(tt.uniform_model(3, 2)) == 4

    def test_d8_psl_direct_sum(self):
        assert tt.dual_totient(interval_model("psl2_7/d8")) == 21 - 7 - 7 + 1 == 8

    def test_requires_graded(self):
        with pytest.raises(NotGraded):
            tt.dual_totient(pentagon_model())


class TestEulerTotient:
    def test_two_chain_a3_s3(self):
        model = tt.from_group_interval(
            iv.overgroup_interval(cat.symmetric(3), cat.catalog_pair("s3/a3")[1])
        )
        assert tt.euler_totient(model) == 2 - 1 == 1

    def test_boolean_interval_counts_generating_cosets(self):
        for name in ("psl2_7/d8", "psl2_7/s3", "s2xs3_2/base"):
            interval = cat.catalog_interval(name)
            model = tt.from_group_interval(interval)
            assert tt.euler_totient(model) == iv.generating_coset_count(interval)

    def test_direct_sum_on_z12_differs_from_the_totient(self):
        # the direct alternating sum is 12 - 6 - 4 + 3 + 2 - 1 = 6 on the
        # divisor lattice; only the top-interval extension counts cosets
        model = group_model("z12")
        assert tt.euler_totient(model) == 6
        assert tt.euler_totient_distributive(model) == 4


class TestDistributiveExtensions:
    def test_z12_euler_is_classical_phi(self):
        brute = sum(1 for k in range(12) if math.gcd(k, 12) == 1)
        assert tt.euler_totient_distributive(group_model("z12")) == brute == 4

    def test_boolean_interval_agrees_with_direct_sum(self):
        model = interval_model("psl2_7/d8")
        assert tt.euler_totient_distributive(model) == tt.euler_totient(model)
        assert tt.dual_totient_distributive(model) == tt.dual_totient(model)

    def test_z8_chain(self):
        model = group_model("z8")
        assert tt.euler_totient_distributive(model) == 4
        assert tt.dual_totient_distributive(model) == (8 // 2) * (2 - 1) == 4

    def test_requires_distributive(self):
        with pytest.raises(NotDistributive):
            tt.euler_totient_distributive(group_model("v4"))
        with pytest.raises(NotDistributive):
            tt.dual_totient_distributive(group_model("v4"))

    @pytest.mark.parametrize("name", ["z2", "z4", "z6", "z8", "z9", "z12"])
    def test_cyclic_groups_recover_the_classical_totient(self, name):
        group = cat.catalog_group(name)
        brute = sum(1 for k in range(group.order) if math.gcd(k, group.order) == 1)
        assert tt.euler_totient_distributive(group_model(name)) == brute


class TestClosedForms:
    def test_uniform(self):
        assert tt.closed_form_p_n(3, 2) == 4
        assert tt.closed_form_p_n(2, 1) == 1
        assert tt.closed_form_p_n(3, 7) == 128
        assert tt.dual_totient(tt.uniform_model(3, 7)) == 128

    def test_pnq_base_case(self):
        for q in (3, 5, 7, 11):
            assert tt.closed_form_p_n_q(2, q, 1, 1) == q - 1
            assert tt.closed_form_p_n_q(q, q, 1, 1) == q - 1

    def test_pnq_examples(self):
        assert tt.closed_form_p_n_q(3, 5, 2, 1) == 15 - 3 - 5 + 1 == 8
        assert tt.closed_form_p_n_q(3, 7, 2, 2) == 21 - 7 - 7 + 1 == 8

    def test_pnq_matches_models_across_the_sweep(self):
        for p in range(2, 14):
            for q in range(p, 14):
                for n in range(1, 6):
                    for m in range(0, n + 1):
                        assert tt.closed_form_p_n_q(p, q, n, m) == tt.dual_totient(
                            tt.pq_model(p, q, n, m)
                        )

    def test_pnq_parameter_validation(self):
        with pytest.raises(InvalidParameters):
            tt.closed_form_p_n_q(5, 3, 2, 1)
        with pytest.raises(InvalidParameters):
            tt.closed_form_p_n_q(3, 5, 2, 3)

    def test_p_squared_form(self):
        assert tt.closed_form_p_n_p2(3, 1, 1) == 8
        assert tt.closed_form_p_n_p2(3, 2, 2) == 10

    def test_p_squared_matches_models(self):
        for p in (2, 3):
            for n in range(1, 7):
                for m in range(1, n + 1):
                    assert tt.closed_form_p_n_p2(p, n, m) == tt.dual_totient(
                        tt.pq_model(p, p * p, n, m)
                    )

    def test_p_squared_lower_bound(self):
        for p in (3, 4, 5):
            for n in range(1, 7):
                for m in range(1, n + 1):
                    assert tt.closed_form_p_n_p2(p, n, m) >= (p - 1) ** (n + 1)

    def test_p_squared_validation(self):
        with pytest.raises(InvalidParameters):
            tt.closed_form_p_n_p2(3, 2, 0)
        with pytest.raises(InvalidParameters):
            tt.closed_form_p_n_p2(3, 2, 3)

    # a float used to pass the range checks: closed_form_p_n(2.5, 3) was 3.375
    @pytest.mark.parametrize("args", [(2.5, 3), (3, 2.0), (3.0, 2), ("3", 2)])
    def test_uniform_refuses_floats(self, args):
        with pytest.raises(InvalidParameters):
            tt.closed_form_p_n(*args)

    @pytest.mark.parametrize("args", [(3.0, 5, 2, 1), (3, 5.5, 2, 1), (3, 5, 2.0, 1), (3, 5, 2, 1.0)])
    def test_pnq_refuses_floats(self, args):
        with pytest.raises(InvalidParameters):
            tt.closed_form_p_n_q(*args)

    @pytest.mark.parametrize("args", [(3.0, 2, 1), (3, 2.0, 1), (3, 2, 1.0)])
    def test_p_squared_refuses_floats(self, args):
        with pytest.raises(InvalidParameters):
            tt.closed_form_p_n_p2(*args)

    def test_integer_types_are_read_as_ints(self):
        assert tt.closed_form_p_n(np.int64(3), True) == 2
        assert type(tt.closed_form_p_n_q(np.int32(3), 5, 2, 1)) is int
        assert tt.closed_form_p_n_p2(np.int64(3), 1, 1) == 8


class TestCoatomSplit:
    def test_rank_one(self):
        model = tt.pq_model(3, 9, 1, 1)
        (coatom,) = model.coatoms()
        assert tt.dual_totient_coatom_split(model, coatom) == 9 - 1

    def test_d8_psl_both_coatoms(self):
        model = label_vector(interval_model("psl2_7/d8"))
        for co in model.coatoms():
            assert tt.dual_totient_coatom_split(model, co) == 8

    def test_identity_on_models_up_to_rank_four(self):
        for p in (2, 3, 4):
            for q in range(p, 11, 2):
                for n in range(1, 5):
                    for m in range(0, n + 1):
                        model = tt.pq_model(p, q, n, m)
                        expected = tt.dual_totient(model)
                        for co in model.coatoms():
                            assert tt.dual_totient_coatom_split(model, co) == expected

    def test_labels_of_hundreds_of_bits_stay_exact(self):
        # labels up to (2^41 + 3) * 2^240, 282 bits: a float rounding anywhere would show
        p, q = 2 ** 40, 2 ** 41 + 3
        for n in range(1, 8):
            for m in range(0, n + 1):
                model = tt.pq_model(p, q, n, m)
                direct = tt.dual_totient(model)
                assert direct == tt.closed_form_p_n_q(p, q, n, m)
                for co in model.coatoms():
                    assert tt.dual_totient_coatom_split(model, co) == direct
        assert tt.pq_model(p, q, 7, 7).total_index.bit_length() == 282

    def test_requires_a_coatom_mask(self):
        with pytest.raises(NotACoatom):
            tt.dual_totient_coatom_split(tt.uniform_model(3, 3), 0)


class TestAllSplit:
    def test_uniform_model(self):
        assert tt.dual_totient_allsplit(tt.uniform_model(3, 4)) == 16

    def test_product_interval(self):
        model = interval_model("s2xs3_2/base")
        assert tt.dual_totient_allsplit(label_vector(model)) == 1 * 2 * 2 == 4
        assert tt.dual_totient(model) == 4

    def test_mixed_atom_values(self):
        model = allsplit_model([2, 3, 5])
        assert tt.dual_totient_allsplit(model) == 1 * 2 * 4
        assert tt.dual_totient(model) == 8

    def test_split_condition_fails_on_d8_psl(self):
        with pytest.raises(SplitConditionFails):
            tt.dual_totient_allsplit(label_vector(interval_model("psl2_7/d8")))


def boolean_top_intervals(names):
    out = []
    for name in names:
        full = cat.catalog_interval(name)
        top = full.lattice.top
        for h in range(full.lattice.n):
            part = sub_interval(full, h, top)
            if lat.is_boolean(part.lattice):
                out.append((tt.from_group_interval(part), f"{name}[{h}]"))
    return out


SMALL_SCAN = ["z6", "z8", "z12", "v4", "d4", "s3", "a4", "s4", "d6", "s2xs3", "psl2_7"]


class TestCatalogInvariants:
    def test_coatom_split_identity_on_catalog_booleans(self):
        for model, name in boolean_top_intervals(SMALL_SCAN):
            expected = tt.dual_totient(model)
            boolean = label_vector(model)
            for co in boolean.coatoms():
                assert tt.dual_totient_coatom_split(boolean, co) == expected, name

    def test_prime_power_index_gives_the_uniform_closed_form(self):
        for model, name in boolean_top_intervals(SMALL_SCAN):
            n = model.lattice.height()
            if n < 1:
                continue
            idx = model.total_index
            for p in range(2, idx + 1):
                if p ** n == idx:
                    assert tt.dual_totient(model) == (p - 1) ** n, name
                if p ** n > idx:
                    break

    def test_single_divergent_type_matches_formula_with_actual_m(self):
        from orelat.certifier import chain_types
        hits = 0
        for model, name in boolean_top_intervals(SMALL_SCAN):
            n = model.lattice.height()
            if n < 2:
                continue
            types = chain_types(label_vector(model))
            if len(types) != 1:
                continue
            (t,) = types
            vals = sorted(set(t))
            if len(vals) != 2 or t.count(vals[1]) != 1:
                continue
            p, q = vals
            m = sum(1 for co in lat.coatoms(model.lattice) if model.idx[co] == q)
            assert tt.dual_totient(model) == tt.closed_form_p_n_q(p, q, n, m), name
            hits += 1
        assert hits > 0

    def test_direct_euler_sum_positive_on_distributive_catalog_intervals(self):
        for name in SMALL_SCAN:
            full = cat.catalog_interval(name)
            top = full.lattice.top
            for h in range(full.lattice.n):
                part = sub_interval(full, h, top)
                if lat.is_distributive(part.lattice):
                    assert tt.euler_totient(tt.from_group_interval(part)) > 0


class TestModelValidation:
    def test_top_label_must_be_one(self):
        with pytest.raises(InvalidParameters):
            tt.IndexedInterval(subset_lattice(1), [4, 2])

    def test_labels_divide_along_covers(self):
        with pytest.raises(InvalidParameters):
            tt.IndexedInterval(subset_lattice(2), [6, 3, 4, 1])
        with pytest.raises(InvalidParameters):
            tt.IndexedInterval(subset_lattice(1), [2, 2])

    def test_chain_type_of_two_block_model(self):
        from orelat.certifier import chain_types
        model = tt.boolean_index_model(3, 7, [(4, 1), (10, 1)])
        assert chain_types(model) == {(3, 3, 3, 3, 3, 4, 10)}
        assert model.total_index == 9720


class TestOneModelTypePerRoutine:
    """The label-vector routines take a BooleanInterval only, the lattice routines an IndexedInterval only."""

    @pytest.mark.parametrize("name", ["psl2_7/d8", "s2xs3_2/base", "z12"])
    def test_label_vector_routines_refuse_group_intervals(self, name):
        # boolean or not, a group interval has labels `idx` too: it is refused, never summed
        interval = group_model(name)
        refusal = "takes a model of type BooleanInterval, not GroupInterval"
        with pytest.raises(InvalidParameters, match=f"dual_totient_coatom_split {refusal}"):
            tt.dual_totient_coatom_split(interval, lat.coatoms(interval.lattice)[0])
        with pytest.raises(InvalidParameters, match=f"dual_totient_allsplit {refusal}"):
            tt.dual_totient_allsplit(interval)

    @pytest.mark.parametrize("routine", [
        lambda model: tt.boolean_between(model, 0, model.top),
        tt.euler_totient_distributive,
        tt.dual_totient_distributive,
    ])
    def test_lattice_routines_refuse_label_vectors(self, routine):
        refusal = "takes a model of type IndexedInterval, not BooleanInterval"
        with pytest.raises(InvalidParameters, match=refusal):
            routine(tt.uniform_model(3, 2))
