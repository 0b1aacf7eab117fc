import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orelat import catalog as cat
from orelat import certifier as cf
from orelat import characters as ch
from orelat import intervals as iv
from orelat import lattice as lat
from orelat import totients as tt
from orelat.errors import InvalidParameters, NotBoolean, NotDistributive
from dense_lattice import sub_interval

SEVEN_FACTOR_NUMBERS = [
    2187, 2916, 3645, 3888, 4374, 4860, 5103, 5184, 5832, 6075, 6480, 6561,
    6804, 6912, 7290, 7776, 8019, 8100, 8505, 8640, 8748, 9072, 9216, 9477,
    9720,
]


def recursive_factorizations(number, parts, min_factor=3):
    """The one-call-per-factor enumeration, as a reference for the explicit-stack walk."""
    result = []

    def rec(remaining, count, lowest, acc):
        if count == 0:
            if remaining == 1:
                result.append(acc)
            return
        f = lowest
        while f ** count <= remaining:
            if remaining % f == 0:
                rec(remaining // f, count - 1, f, acc + (f,))
            f += 1

    rec(number, parts, min_factor, ())
    return result


class TestFactorEnumeration:
    def test_factorizations_basic(self):
        assert cf.factorizations(36, 2) == [(3, 12), (4, 9), (6, 6)]
        assert cf.factorizations(8748, 7) == [
            (3, 3, 3, 3, 3, 3, 12),
            (3, 3, 3, 3, 3, 4, 9),
            (3, 3, 3, 3, 3, 6, 6),
        ]

    def test_seven_factor_table(self):
        entries = cf.factor_products(10125, 3, 7)
        seven = sorted(n for n, by in entries if 7 in by)
        assert seven == SEVEN_FACTOR_NUMBERS
        eight = sorted(n for n, by in entries if 8 in by)
        assert eight == [6561, 8748]
        assert not any(any(k > 8 for k in by) for _, by in entries)

    def test_strict_limit_boundary(self):
        assert cf.factor_products(2187, 3, 7) == []

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5000), st.integers(0, 6), st.integers(1, 5))
    def test_factorizations_match_recursive_reference(self, number, parts, min_factor):
        assert cf.factorizations(number, parts, min_factor) == recursive_factorizations(number, parts, min_factor)

    @pytest.mark.parametrize("number,parts", [(3 ** 12, 6), (2 ** 10 * 3 ** 4, 5), (9720, 7), (1, 0), (7, 1)])
    def test_factorizations_match_recursive_reference_on_fixed_cases(self, number, parts):
        for min_factor in (1, 2, 3):
            assert cf.factorizations(number, parts, min_factor) == recursive_factorizations(number, parts, min_factor)

    def test_factorizations_deeper_than_the_recursion_limit(self):
        parts = sys.getrecursionlimit() + 500
        assert cf.factorizations(3 ** parts, parts) == [(3,) * parts]
        assert cf.factorizations(3 ** (parts - 1) * 4, parts) == [(3,) * (parts - 1) + (4,)]

    def test_witness_factorizations_present(self):
        entries = dict(cf.factor_products(10125, 3, 7))
        assert (3, 3, 3, 3, 3, 4, 10) in entries[9720][7]
        assert (3, 3, 3, 3, 3, 3, 12) in entries[8748][7]
        assert (3, 3, 3, 3, 3, 3, 3, 4) in entries[8748][8]


class TestChainTypes:
    def test_uniform_model_single_type(self):
        assert cf.chain_types(tt.uniform_model(3, 3)) == {(3, 3, 3)}

    def test_d8_psl(self):
        interval = cat.catalog_interval("psl2_7/d8")
        assert cf.chain_types(interval) == {(3, 7)}

    def test_requires_boolean(self):
        with pytest.raises(NotBoolean):
            cf.chain_types(tt.from_group_interval(cat.cached_full_lattice("z12")))


class TestAllsplitSmall:
    def test_all_threes(self):
        assert cf.check_allsplit_small(tt.uniform_model(3, 5))

    def test_four_ten_chain_fails(self):
        model = tt.boolean_index_model(3, 7, [(4, 1), (10, 1)])
        assert not cf.check_allsplit_small(model)

    def test_chain_containing_seven_fails(self):
        assert not cf.check_allsplit_small(cat.catalog_interval("psl2_7/d8"))


class TestLemmaScan:
    def test_example_case(self):
        res = cf.lemma_check_scan(3, 4, 5, 5)
        assert res.passed and res.minimum >= res.bound == 2 ** 7

    def test_all_equal_is_tight(self):
        res = cf.lemma_check_scan(3, 3, 3, 2)
        assert res.minimum == res.bound == 2 ** 4

    @pytest.mark.parametrize("args", [(2, 3, 4, 1), (3, 4, 5, 0), (3, 4, 5, 7),
                                      (3, 4, 13, 2), (4, 3, 5, 2)])
    def test_out_of_range(self, args):
        with pytest.raises(InvalidParameters):
            cf.lemma_check_scan(*args)

    def test_minimum_is_exact_over_branch_enumeration(self):
        # independent oracle: enumerate the recursion directly with explicit
        # value sets instead of interval envelopes
        def prop_values(p, q, n):
            if p == q:
                return {Fraction((p - 1) ** n)}
            return {
                Fraction((p - 1) ** n)
                * (1 + Fraction(q - p, p) * (1 - Fraction(1, (1 - p) ** m)))
                for m in range(1, n + 1)
            }

        def values(t):
            t = tuple(sorted(t))
            if len(t) == 0:
                return {Fraction(1)}
            if len(set(t)) == 1:
                return {Fraction((t[0] - 1) ** len(t))}
            if len(set(t)) == 2 and t.count(t[-1]) == 1:
                return prop_values(t[0], t[-1], len(t))
            c = t[-1]
            rest = t[:-1]
            out = set()
            xs = values(rest)
            out |= {(c - 1) * x for x in xs}
            for v in sorted(set(t)):
                if v == c:
                    continue
                sub = list(t)
                sub.remove(v)
                ys = values(tuple(sub))
                out |= {c * x - y for x in xs for y in ys}
            return out

        for args in [(3, 4, 5, 2), (3, 5, 7, 2), (4, 6, 9, 1), (3, 3, 8, 3)]:
            a, b, c, n = args
            res = cf.lemma_check_scan(a, b, c, n)
            assert res.minimum == min(values((a,) * n + (b, c)))


class TestConcreteCertificates:
    def test_two_chain_fires_rank_one(self):
        interval = iv.overgroup_interval(*cat.catalog_pair("s3/a3"))
        cert = cf.certify(interval)
        assert cert.is_primitive
        assert "R2-rank-one" in cert.rules_fired()

    def test_d8_psl_fires_reciprocal_sum(self):
        cert = cf.certify(cat.catalog_interval("psl2_7/d8"))
        assert cert.is_primitive
        assert cert.rules_fired() == ["R3-reciprocal-sum-1"]
        assert cert.steps[0].evidence["sum"] == "2/3"

    def test_z12_reduces_to_bottom_interval(self):
        cert = cf.certify(cat.cached_full_lattice("z12"))
        assert cert.is_primitive
        assert cert.rules_fired()[0] == "R1-bottom-interval"

    def test_uniform_rank_seven_model_uses_dual_totient(self):
        cert = cf.certify(tt.uniform_model(3, 7))
        assert cert.is_primitive
        assert cert.rules_fired()[-1] == "R7-dual-totient"
        assert cert.steps[-1].evidence["phihat"] == 128

    def test_index_two_reduction_fires(self):
        model = tt.boolean_index_model(3, 7, [(2, 1)])
        cert = cf.certify(model)
        assert cert.is_primitive
        assert "R5-index-two-reduction" in cert.rules_fired()

    def test_requires_distributive(self):
        with pytest.raises(NotDistributive):
            cf.certify(cat.cached_full_lattice("v4"))

    def test_rank_below_seven_rule(self):
        model = tt.boolean_index_model(5, 5)
        cert = cf.certify(model)
        assert cert.is_primitive
        # reciprocal sum is 5/5 = 1, so the cheap rule fires before rank
        assert cert.rules_fired() == ["R3-reciprocal-sum-1"]

    def test_rank_six_with_large_sum(self):
        model = tt.uniform_model(3, 6)
        cert = cf.certify(model)
        assert cert.is_primitive
        assert cert.rules_fired() == ["R4-reciprocal-sum-2"]


class TestScenarioCertificates:
    def test_all_seven_factor_indices(self):
        for number in SEVEN_FACTOR_NUMBERS:
            cert = cf.certify(cf.IndexedModel(7, number))
            if number == 9720:
                assert not cert.is_primitive
            else:
                assert cert.is_primitive, number

    def test_9720_frontier(self):
        cert = cf.certify(cf.IndexedModel(7, 9720))
        assert cert.frontier == [(3, 3, 3, 3, 3, 4, 10), (3, 3, 3, 3, 3, 5, 8)]

    def test_declared_type_is_recorded_but_not_trusted(self):
        cert = cf.certify(cf.IndexedModel(7, 9720, ((3, 3, 3, 3, 3, 4, 10),)))
        assert not cert.is_primitive
        assert cert.steps[0].rule == "scenario-declared-types"

    def test_case_rules_match_the_published_proof(self):
        fired = {
            n: cf.certify(cf.IndexedModel(7, n)).rules_fired()
            for n in (5103, 4860, 7290, 8748, 7776)
        }
        assert "R8-single-divergent-type" in fired[5103]
        assert "R8-allsplit-small" in fired[4860]
        assert "R8-allsplit-small" in fired[7290]
        assert "R8-trusted-two-case" in fired[8748]
        assert "R8-allsplit-extended" in fired[8748]
        assert "R8-allsplit-small" in fired[7776]
        assert "R8-iterative-bound" in fired[7776]

    def test_rank_eight_indices(self):
        assert cf.certify(cf.IndexedModel(8, 6561)).is_primitive
        assert cf.certify(cf.IndexedModel(8, 8748)).is_primitive

    def test_rank_below_seven_scenario(self):
        cert = cf.certify(cf.IndexedModel(5, 9720))
        assert cert.is_primitive
        assert cert.rules_fired() == ["R6-rank-below-seven"]

    def test_invalid_scenarios(self):
        with pytest.raises(InvalidParameters):
            cf.IndexedModel(0, 10)
        with pytest.raises(InvalidParameters):
            cf.IndexedModel(3, 27, ((3, 3),))
        with pytest.raises(InvalidParameters):
            cf.IndexedModel(2, 10, ((3, 3),))

    def test_certificates_serialize(self):
        cert = cf.certify(cf.IndexedModel(7, 9720))
        blob = json.dumps(cert.to_dict(), sort_keys=True)
        assert "frontier" in blob


def recursive_certify_scenario(scenario):
    """The scenario certifier as it was written first: one recursive call per R5 halving."""
    steps = []
    if scenario.known_types:
        steps.append(cf.CertStep(
            "scenario-declared-types",
            "chain types asserted to occur; recorded only, never assumed exhaustive",
            {"types": [list(t) for t in scenario.known_types]},
        ))
    if scenario.rank < 7:
        steps.append(cf.CertStep(
            "R6-rank-below-seven", "boolean of rank below seven", {"rank": scenario.rank}))
        return cf.Certificate("primitive", steps)
    if scenario.index % 2 == 0:
        halved = cf.IndexedModel(scenario.rank - 1, scenario.index // 2)
        inner = recursive_certify_scenario(halved)
        steps.append(cf.CertStep(
            "R5-index-two-reduction",
            "if any edge has index 2, an index-2 coatom exists and the smaller interval decides",
            {"reduced_rank": halved.rank, "reduced_index": halved.index,
             "reduced_verdict": inner.verdict},
        ))
        if not inner.is_primitive:
            return cf.Certificate("undecided", steps, inner.frontier)
    possible = cf.factorizations(scenario.index, scenario.rank, min_factor=3)
    if not possible:
        steps.append(cf.CertStep(
            "R8-chain-type-analysis",
            "no chain type without index-2 edges is arithmetically possible",
            {"possible_types": []},
        ))
        return cf.Certificate("primitive", steps)
    return cf._certify_types(scenario.index, scenario.rank, possible, steps, exact_types=False)


def scenarios_of_rank(rank):
    """Scenarios whose halving chains end in R6, an odd index, a frontier or a trusted case."""
    yield cf.IndexedModel(rank, 2 ** (rank + 1))
    yield cf.IndexedModel(rank, 5 * 2 ** (rank + 1))
    yield cf.IndexedModel(rank, 3 ** rank)
    yield cf.IndexedModel(rank, 8 * 3 ** rank, ((3,) * (rank - 3) + (6, 6, 6),))
    yield cf.IndexedModel(rank, 9720 * 2 ** (rank - 7))
    yield cf.IndexedModel(rank, 8748 * 2 ** (rank - 7))
    yield cf.IndexedModel(rank, 12096 * 2 ** (rank - 7))


class TestScenarioLoop:
    @pytest.mark.parametrize("rank", range(7, 61))
    def test_matches_the_recursive_certifier(self, rank):
        for scenario in scenarios_of_rank(rank):
            want = recursive_certify_scenario(scenario)
            got = cf.certify(scenario)
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict()), scenario
            assert got.frontier == want.frontier

    def test_the_chains_reach_every_kind_of_end(self):
        verdicts = {
            scenario.index: cf.certify(scenario).verdict
            for rank in (7, 20) for scenario in scenarios_of_rank(rank)
        }
        assert verdicts[9720 * 2 ** 13] == "undecided"
        assert verdicts[8748 * 2 ** 13] == "primitive"
        assert verdicts[3 ** 20] == "primitive"


class TestVanishingDualTotient:
    def test_zero_totient_model_still_certified_structurally(self):
        # smallest boolean labelling with vanishing dual totient:
        # 12 - (6+6+6) + (2+2+3) - 1 = 0; the reciprocal-sum rule still fires
        labels = [12, 6, 6, 2, 6, 2, 3, 1]
        model = tt.IndexedInterval(lat.subset_lattice(3), labels)
        assert tt.dual_totient(model) == 0
        cert = cf.certify(model)
        assert cert.is_primitive
        assert "R4-reciprocal-sum-2" in cert.rules_fired()

    def test_exact_type_sets_need_only_one_covered_type(self):
        # with a computed (exact) type set, one split-covered type decides
        cert = cf._certify_types(12, 3, [(2, 2, 3)], [], exact_types=True)
        assert cert.is_primitive
        assert cert.rules_fired()[0] == "R8-allsplit-small"

    def test_abstract_type_sets_need_every_type_covered(self):
        # the same single uncovered type in an abstract set falls through to
        # the forced-type rules
        cert = cf._certify_types(9720, 7, [(3, 3, 3, 3, 3, 4, 10),
                                           (3, 3, 3, 3, 3, 5, 8)], [],
                                 exact_types=False)
        assert not cert.is_primitive


class TestSoundness:
    @pytest.mark.parametrize("name", ["s3", "d4", "z12", "a4", "s4", "d6", "s2xs3"])
    def test_certified_intervals_have_witnesses(self, name):
        group = cat.catalog_group(name)
        table = ch.character_table(group)
        full = cat.cached_full_lattice(name)
        top = full.lattice.top
        for h in range(full.lattice.n):
            interval = sub_interval(full, h, top)
            if not lat.is_distributive(interval.lattice):
                continue
            cert = cf.certify(interval)
            if cert.is_primitive:
                primitive, _ = ch.is_linearly_primitive(interval, table)
                assert primitive, (name, h)


class TestRank2Table:
    def test_small_catalog_scan_is_clean(self):
        rows = cf.rank2_index_table(32, groups=[
            ("s4", cat.catalog_group("s4")),
            ("d6", cat.catalog_group("d6")),
            ("z12", cat.catalog_group("z12")),
        ])
        assert rows
        for (a, b, c, d), _ in rows:
            assert (a, b) == (c, d)

    def test_psl_realizes_both_exceptions(self):
        rows = cf.rank2_index_table(32, groups=[("psl2_7", cat.psl2_7())])
        quads = {quad for quad, _ in rows}
        assert (7, 7, 3, 3) in quads
        assert (7, 7, 4, 4) in quads
