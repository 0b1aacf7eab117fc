import hashlib
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orelat import catalog as cat
from orelat import certifier as cf
from orelat import characters as ch
from orelat import intervals as iv
from orelat import lattice as lat
from orelat import reproduce as rp
from orelat import totients as tt
from orelat.errors import CapExceeded, InvalidParameters, NotBoolean, NotDistributive
from dense_lattice import subset_lattice, sub_interval
from references import allsplit_model, label_vector
from test_boolean import model_parameters

SEVEN_FACTOR_NUMBERS = [
    2187, 2916, 3645, 3888, 4374, 4860, 5103, 5184, 5832, 6075, 6480, 6561,
    6804, 6912, 7290, 7776, 8019, 8100, 8505, 8640, 8748, 9072, 9216, 9477,
    9720,
]


def recursive_factorizations(number, parts, min_factor=3):
    """The one-call-per-factor enumeration, as a reference for the explicit-stack walk."""
    result = []

    def rec(remaining, count, lowest, acc):
        if count == 1:
            # the last factor is what remains, as counting up to it would find
            if remaining >= lowest:
                result.append(acc + (remaining,))
            return
        f = lowest
        while f ** count <= remaining:
            if remaining % f == 0:
                rec(remaining // f, count - 1, f, acc + (f,))
            f += 1

    rec(number, parts, min_factor, ())
    return result


def per_count_factor_products(limit, min_factor, min_count):
    """The enumeration as one walk per number of parts, as a reference for the single walk."""
    per_number = {}
    parts = min_count
    while min_factor ** parts < limit:
        stack = [(1, min_factor, ())]
        while stack:
            product, lowest, acc = stack.pop()
            if len(acc) == parts:
                per_number.setdefault(product, {}).setdefault(parts, []).append(acc)
                continue
            f = lowest
            while product * f ** (parts - len(acc)) < limit:
                stack.append((product * f, f, acc + (f,)))
                f += 1
        parts += 1
    return [(n, {k: sorted(v) for k, v in sorted(per_number[n].items())}) for n in sorted(per_number)]


def old_single_divergent_shape(chain_type):
    """The (p, ..., p, q) test as it was written first, on the set of values and the count of q."""
    values = sorted(set(chain_type))
    if len(values) != 2:
        return None
    p, q = values
    return (p, q) if list(chain_type).count(q) == 1 else None


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestMillerRabin:
    def test_matches_trial_division_below_ten_to_the_fifth(self):
        assert [n for n in range(10 ** 5) if cf._miller_rabin(n)] == [n for n in range(10 ** 5) if trial_division_is_prime(n)]

    def test_refuses_a_strong_pseudoprime_to_the_first_nine_prime_bases(self):
        n = 3825123056546413051
        assert n % 149491 == 0
        assert not cf._miller_rabin(n) and not cf._is_prime(n)

    @pytest.mark.parametrize("n, prime", [
        (10 ** 16 + 61, True), (10 ** 18 + 3, True), (2 ** 61 - 1, True), (2 ** 64 + 1, False),
        ((10 ** 9 + 7) * (10 ** 9 + 9), False),
    ])
    def test_large_inputs(self, n, prime):
        assert cf._is_prime(n) is prime

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rho_splits_products_of_two_or_three_large_primes(self, data):
        # each prime in (10**6, 10**12) with a drawn number of digits, the
        # product below the exact test's bound; no prime gap here reaches 1,000
        primes = []
        count = data.draw(st.sampled_from([2, 3]))
        for i in range(count):
            top = min(10 ** 12, (cf._MR_LIMIT - 1) // (math.prod(primes) * (2 * 10 ** 6) ** (count - 1 - i)))
            digits = data.draw(st.integers(7, len(str(top))))
            high = min(10 ** digits, top) - 1000
            start = data.draw(st.integers(min(max(10 ** (digits - 1), 10 ** 6 + 1), high), high))
            primes.append(next(n for n in range(start, top) if cf._miller_rabin(n)))
        parts = cf._rho_primes(math.prod(primes))
        assert math.prod(parts) == math.prod(primes)
        assert all(cf._miller_rabin(f) for f in parts)

    def test_rho_stops_at_its_step_cap(self, monkeypatch):
        monkeypatch.setattr(cf, "_RHO_STEP_CAP", 1000)
        with pytest.raises(CapExceeded, match="no factor of the cofactor .* in 1,000 steps"):
            cf._rho_primes(10_000_000_019 * 10_000_000_033)

    def test_is_prime_divides_by_trial_above_the_bound(self, monkeypatch):
        monkeypatch.setattr(cf, "_miller_rabin", None)
        assert cf._is_prime(cf._MR_LIMIT + 1) is False
        assert cf._is_prime(999_983 * (10 ** 25 + 13)) is False

    def test_is_prime_stops_at_the_trial_division_limit(self):
        # past the exact test's bound with no prime factor up to 10**6: trial division
        # up to the root would count to about 3 * 10**12
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="no prime factor up to 1,000,000"):
            cf._is_prime(10 ** 25 + 13)
        assert time.perf_counter() - start < 1


def enumerated_leaf_bounds(p, q, n):
    """(min, max) of the closed form for (p, ..., p, q) over every coatom count m = 1..n."""
    values = [tt.closed_form_p_n_q(p, q, n, m) for m in range(1, n + 1)]
    return (min(values), max(values))


def recursive_phihat_bounds(chain_type, memo=None):
    """The bounds walk as it was written first: one recursive call per sub-type, with its own memo."""
    memo = {} if memo is None else memo
    key = tuple(sorted(chain_type))
    if key in memo:
        return memo[key]
    if len(key) == 0:
        result = (1, 1)
    elif len(set(key)) == 1:
        v = (key[0] - 1) ** len(key)
        result = (v, v)
    else:
        shape = old_single_divergent_shape(key)
        if shape is not None:
            result = enumerated_leaf_bounds(*shape, len(key))
        else:
            c = max(key)
            rest = list(key)
            rest.remove(c)
            x_lo, x_hi = recursive_phihat_bounds(tuple(rest), memo)
            lows = [(c - 1) * x_lo]
            highs = [(c - 1) * x_hi]
            for v in sorted(set(key)):
                if v == c:
                    continue
                sub = list(key)
                sub.remove(v)
                y_lo, y_hi = recursive_phihat_bounds(tuple(sub), memo)
                lows.append(c * x_lo - y_hi)
                highs.append(c * x_hi - y_lo)
            result = (min(lows), max(highs))
    memo[key] = result
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
    @given(st.integers(1, 5000), st.integers(1, 6), st.integers(2, 5))
    def test_factorizations_match_recursive_reference(self, number, parts, min_factor):
        assert cf.factorizations(number, parts, min_factor) == recursive_factorizations(number, parts, min_factor)

    @pytest.mark.parametrize("number,parts", [(3 ** 12, 6), (2 ** 10 * 3 ** 4, 5), (9720, 7), (1, 1), (7, 1)])
    def test_factorizations_match_recursive_reference_on_fixed_cases(self, number, parts):
        for min_factor in (2, 3):
            assert cf.factorizations(number, parts, min_factor) == recursive_factorizations(number, parts, min_factor)

    @pytest.mark.parametrize("number,parts", [
        (3 ** 4 * 1_000_003, 5), (2 * 3 * 5 * 7 * 1_000_003, 3), (3 ** 6 * 999_983, 7), (4 * 999_983 ** 2, 3),
        (1_000_003, 1), (1_000_003, 2), (9 * 1_000_003 * 999_983, 3),
        (1_000_003 * 1_000_033, 2), (1_000_003 ** 2, 2), (9 * 1_000_003 * 1_000_033, 3),
    ])
    def test_factorizations_with_a_large_prime_cofactor_match_the_reference(self, number, parts):
        for min_factor in (2, 3):
            assert cf.factorizations(number, parts, min_factor) == recursive_factorizations(number, parts, min_factor)

    def test_factorizations_deeper_than_the_recursion_limit(self):
        parts = sys.getrecursionlimit() + 500
        assert cf.factorizations(3 ** parts, parts) == [(3,) * parts]
        assert cf.factorizations(3 ** (parts - 1) * 4, parts) == [(3,) * (parts - 1) + (4,)]

    # a float used to run: factorizations(24.0, 2) was [(3.0, 8.0), (4, 6.0)]
    @pytest.mark.parametrize("args", [(24.0, 2), (24, 2.0), (24, 2, 3.0), ("24", 2)])
    def test_factorizations_refuse_floats(self, args):
        with pytest.raises(InvalidParameters):
            cf.factorizations(*args)

    # each used to run forever or to answer: factor_products(100, 1, 2) never stopped,
    # factorizations(12, 2, 0) gave factors of 1 and factorizations(0, 2) gave []
    @pytest.mark.parametrize("args", [(12, 2, 0), (12, 2, 1), (0, 2), (-12, 2), (10, -1), (10, 0)])
    def test_factorizations_refuse_what_they_cannot_enumerate(self, args):
        with pytest.raises(InvalidParameters, match="need number >= 1, parts >= 1 and min_factor >= 2"):
            cf.factorizations(*args)

    @pytest.mark.parametrize("args", [(100, 1, 2), (100, 0, 2), (100, 3, -1), (100, 3, 0), (100.0, 3, 2)])
    def test_factor_products_refuse_what_they_cannot_enumerate(self, args):
        with pytest.raises(InvalidParameters):
            cf.factor_products(*args)

    # each used to form 2 ** count first: 10**8 parts took 0.3-0.4 s, 10**10 would need 1.25 GB
    @pytest.mark.parametrize("count", [10 ** 8, 10 ** 10])
    def test_part_counts_past_the_number_end_at_once(self, count):
        start = time.perf_counter()
        assert cf.factor_products(10, 2, count) == []
        assert cf.factorizations(3, count) == []
        assert cf.factorizations(3 ** 40, count, 2) == []
        assert time.perf_counter() - start < 0.5

    def test_factorizations_stop_past_the_chain_type_cap(self, monkeypatch):
        assert len(cf.factorizations(3 ** 40, 7)) == 2738  # the most that any scenario in the tests lists
        monkeypatch.setattr(cf, "MAX_CHAIN_TYPES", 2737)
        with pytest.raises(CapExceeded, match=f"^the index {3 ** 40} has more than 2,737 chain types of 7 entries$"):
            cf.factorizations(3 ** 40, 7)
        monkeypatch.setattr(cf, "MAX_CHAIN_TYPES", 2738)
        assert len(cf.factorizations(3 ** 40, 7)) == 2738

    def test_factor_products_match_the_walk_per_number_of_parts(self):
        grid = []
        for limit in (1, 2, 3, 10, 64, 100, 1000, 2188):
            for min_factor in (2, 3, 4, 5):
                for min_count in (1, 2, 3, 7):
                    entries = cf.factor_products(limit, min_factor, min_count)
                    assert entries == per_count_factor_products(limit, min_factor, min_count)
                    grid.append([limit, min_factor, min_count, entries])
        # the grid's entries as factor_products gave them before it became one walk
        digest = hashlib.sha256(json.dumps(grid).encode()).hexdigest()
        assert digest == "a724953ddbfa971dc8e2e3a52550c684e5f0ed7d228c4648d2c13b181f62da46"

    def test_witness_factorizations_present(self):
        entries = dict(cf.factor_products(10125, 3, 7))
        assert (3, 3, 3, 3, 3, 4, 10) in entries[9720][7]
        assert (3, 3, 3, 3, 3, 3, 12) in entries[8748][7]
        assert (3, 3, 3, 3, 3, 3, 3, 4) in entries[8748][8]


class TestChainTypes:
    def test_uniform_model_single_type(self):
        assert cf.chain_types(tt.uniform_model(3, 3)) == {(3, 3, 3)}

    def test_d8_psl(self):
        assert cf.chain_types(label_vector(cat.catalog_interval("psl2_7/d8"))) == {(3, 7)}

    @pytest.mark.parametrize("name", ["psl2_7/d8", "z12"])
    def test_takes_label_vectors_only(self, name):
        # a group interval has labels `idx` too, boolean or not: it is refused, never summed
        with pytest.raises(InvalidParameters, match="chain_types takes a model of type BooleanInterval"):
            cf.chain_types(cat.catalog_interval(name))

    def test_non_boolean_intervals_have_no_label_vector(self):
        with pytest.raises(NotBoolean):
            label_vector(cat.catalog_interval("z12"))


def some_chain_allsplit_small(model):
    return any(cf.allsplit_small_ok(t) for t in cf.chain_types(model))


class TestAllsplitSmall:
    def test_all_threes(self):
        assert some_chain_allsplit_small(tt.uniform_model(3, 5))

    def test_four_ten_chain_fails(self):
        model = tt.boolean_index_model(3, 7, [(4, 1), (10, 1)])
        assert not some_chain_allsplit_small(model)

    def test_chain_containing_seven_fails(self):
        assert not some_chain_allsplit_small(label_vector(cat.catalog_interval("psl2_7/d8")))


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

    # a float used to pass the range check: (3, 3, 3.5, 1) gave ScanResult(9.0, 8, True)
    @pytest.mark.parametrize("args", [(3.0, 4, 5, 1), (3, 4.0, 5, 1), (3, 3, 3.5, 1), (3, 4, 5, 1.0)])
    def test_floats_are_refused(self, args):
        with pytest.raises(InvalidParameters):
            cf.lemma_check_scan(*args)

    def test_bounds_match_the_recursive_walk_on_every_lemma_check_type(self, monkeypatch):
        # an empty memo, so the explicit-stack walk computes every sub-type itself
        monkeypatch.setattr(cf, "_BOUNDS_MEMO", {})
        types = [(a,) * n + (b, c) for a in range(3, 13) for b in range(a, 13) for c in range(b, 13)
                 for n in range(1, 7)]
        assert len(types) == 1320
        reference: dict = {}
        for chain_type in types:
            assert cf._phihat_bounds(chain_type) == recursive_phihat_bounds(chain_type, reference)
        assert cf._BOUNDS_MEMO == reference

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(2, 12), max_size=9))
    def test_bounds_match_the_recursive_walk_on_random_types(self, chain_type):
        saved = dict(cf._BOUNDS_MEMO)
        cf._BOUNDS_MEMO.clear()
        try:
            assert cf._phihat_bounds(tuple(chain_type)) == recursive_phihat_bounds(chain_type)
        finally:
            cf._BOUNDS_MEMO.clear()
            cf._BOUNDS_MEMO.update(saved)

    @pytest.mark.parametrize("chain_type", [(3, 5, 5), (3, 3, 4, 5, 5), (4, 4, 4)])
    def test_bounds_match_the_recursive_walk_on_types_with_repeated_values(self, monkeypatch, chain_type):
        # a repeated value is where a leaf test or a sub-type cut at the wrong index shows
        monkeypatch.setattr(cf, "_BOUNDS_MEMO", {})
        reference: dict = {}
        assert cf._phihat_bounds(chain_type) == recursive_phihat_bounds(chain_type, reference)
        assert cf._BOUNDS_MEMO == reference

    def test_leaf_bounds_match_the_enumeration_over_coatom_counts(self):
        for p in range(2, 8):
            for q in range(p + 1, 12):
                for n in range(1, 12):
                    assert cf._leaf_bounds((p,) * (n - 1) + (q,)) == enumerated_leaf_bounds(p, q, n), (p, q, n)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 14), st.integers(1, 25), st.integers(1, 39))
    def test_leaf_bounds_match_the_enumeration_on_random_types(self, p, gap, n):
        q = p + gap
        assert cf._leaf_bounds((p,) * (n - 1) + (q,)) == enumerated_leaf_bounds(p, q, n)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(2, 6), max_size=7).map(sorted))
    @example([])
    @example([3, 3, 4])
    @example([3, 4, 4])
    def test_single_divergent_shape_matches_the_set_and_count_test(self, key):
        assert cf._single_divergent_shape(tuple(key)) == old_single_divergent_shape(key)

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
        cert = cf.certify(cat.catalog_interval("z12"))
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

    def test_index_two_reductions_are_pinned(self):
        """Label-vector models of rank 2 to 7 with index-2 atoms or coatoms, atoms tried first, pinned."""
        certs = []
        for p in (2, 3, 4, 5):
            for n in range(2, 8):
                blocks = [[(q, m)] for q in (2, 3, 6) for m in range(1, n + 1)] + [[(2, 1), (3, 1)], [(3, 2), (2, 2)]]
                for specials in [()] + blocks:
                    if sum(m for _, m in specials) <= n:
                        certs.append(cf.certify(tt.boolean_index_model(p, n, specials)).to_dict())
        reductions = [
            key for c in certs for step in c["steps"] if step["rule"] == "R5-index-two-reduction"
            for key in step["evidence"] if key != "sub_steps"
        ]
        assert (len(certs), reductions.count("atom_index"), reductions.count("coatom_index")) == (388, 68, 7)
        digest = hashlib.sha256(json.dumps(certs).encode()).hexdigest()
        assert digest == "5c37ace0d275b1fe1f4a3aa97083ce971ff0992c2e8bab936a2617a7a6eaf595"

    def test_requires_distributive(self):
        with pytest.raises(NotDistributive):
            cf.certify(cat.catalog_interval("v4"))

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


def reference_reciprocal_rule(model):
    """(rule, "sum" evidence) of R3/R4 by a `Fraction` sum of the reciprocal atom indices; None when neither fires."""
    total = sum((Fraction(1, model.below_index(a)) for a in model.atoms()), Fraction(0))
    if total <= 1:
        return "R3-reciprocal-sum-1", str(total)
    if total <= 2:
        return "R4-reciprocal-sum-2", str(total)
    return None


class TestReciprocalSumRules:
    """R3/R4 compare an integer numerator with the product of the atom indices, as a `Fraction` sum would decide."""

    @settings(max_examples=150, deadline=None)
    @given(model_parameters(max_rank=6))
    # reciprocal sums of exactly 1 and 2: R3 and R4 fire on their boundaries
    @example((2, 2, [(2, 1), (2, 1)]))
    @example((2, 3, [(3, 1), (3, 1), (3, 1)]))
    @example((2, 3, [(2, 1), (3, 1), (6, 1)]))
    @example((2, 4, [(2, 1), (2, 1), (2, 1), (2, 1)]))
    def test_rule_and_sum_match_a_fraction_reference(self, params):
        model = tt.boolean_index_model(*params)
        first = cf.certify(model).steps[0]
        expected = reference_reciprocal_rule(model)
        if model.n <= 1:
            assert first.rule == "R2-rank-one"
        elif expected is None:
            assert not first.rule.startswith(("R3", "R4"))
        else:
            assert (first.rule, first.evidence["sum"]) == expected

    @pytest.mark.parametrize("indices, rule, total", [
        ((2, 2), "R3-reciprocal-sum-1", "1"),
        ((3, 3, 3), "R3-reciprocal-sum-1", "1"),
        ((2, 3, 6), "R3-reciprocal-sum-1", "1"),
        ((2, 2, 2, 2), "R4-reciprocal-sum-2", "2"),
    ])
    def test_boundary_sums(self, indices, rule, total):
        model = allsplit_model(indices)
        cert = cf.certify(model)
        assert reference_reciprocal_rule(model) == (rule, total)
        assert (cert.rules_fired(), cert.steps[0].evidence) == ([rule], {"sum": total})


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

    @pytest.mark.parametrize("args", [
        (7, 9720.0), (7.0, 9720), (7, Fraction(9720)), (7, "9720"),
    ], ids=repr)
    def test_non_integer_scenarios_are_refused(self, args):
        # each would read as a valid scenario if it were truncated by int
        with pytest.raises(InvalidParameters, match="must be integers"):
            cf.IndexedModel(*args)

    def test_scenario_fields_are_exact_ints(self):
        scenario = cf.IndexedModel(np.int64(7), np.int64(9720))
        assert (scenario.rank, scenario.index) == (7, 9720)
        assert all(type(v) is int for v in (scenario.rank, scenario.index))

    def test_certificates_serialize(self):
        cert = cf.certify(cf.IndexedModel(7, 9720))
        blob = json.dumps(cert.to_dict(), sort_keys=True)
        assert "frontier" in blob


def recursive_certify_scenario(scenario):
    """The scenario certifier as it was written first: one recursive call per R5 halving."""
    steps = []
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
    yield cf.IndexedModel(rank, 8 * 3 ** rank)
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


def prime_factor_count(n):
    """The number of prime factors of n counted with multiplicity, by trial division."""
    count, p = 0, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count + (n > 1)


class TestScenarioSweep:
    """Every scenario of rank 7 to 9 with index below 40,000 that has at least rank prime factors, pinned."""

    def test_certificates_are_pinned(self):
        certs = [
            cf.certify(cf.IndexedModel(rank, index)).to_dict()
            for rank in (7, 8, 9)
            for index in range(2 ** rank, 40000)
            if prime_factor_count(index) >= rank
        ]
        verdicts = [c["verdict"] for c in certs]
        assert (len(certs), verdicts.count("primitive"), verdicts.count("undecided")) == (3381, 3252, 129)
        rules = {step["rule"] for c in certs for step in c["steps"]}
        assert rules == {
            "R5-index-two-reduction", "R8-chain-type-analysis", "R8-forced-type", "R8-allsplit-small",
            "R8-single-divergent-type", "R8-iterative-bound", "R8-trusted-two-case", "R8-allsplit-extended",
        }
        digest = hashlib.sha256(json.dumps(certs).encode()).hexdigest()
        assert digest == "0bacad69740aca8640bb7c24a3ec0717572ae9c39cda402dec9ae79463c9c6f7"


class TestVanishingDualTotient:
    def test_zero_totient_model_still_certified_structurally(self):
        # smallest boolean labelling with vanishing dual totient:
        # 12 - (6+6+6) + (2+2+3) - 1 = 0; the reciprocal-sum rule still fires
        labels = [12, 6, 6, 2, 6, 2, 3, 1]
        model = tt.IndexedInterval(subset_lattice(3), labels)
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
        full = cat.catalog_interval(name)
        top = full.lattice.top
        for h in range(full.lattice.n):
            interval = sub_interval(full, h, top)
            if not lat.is_distributive(interval.lattice):
                continue
            cert = cf.certify(interval)
            if cert.is_primitive:
                primitive, _ = ch.is_linearly_primitive(interval, table)
                assert primitive, (name, h)


def rank2_rows_of(names, limit=32):
    """The rows of `rank2_index_table` whose group, the name before "[", is in `names`."""
    return [(quad, where) for quad, where in rp.rank2_index_table(limit) if where.split("[")[0] in names]


def reference_rank2_rows(limit):
    """Every comparable pair of every scan group through `boolean_between`, kept when boolean of rank 2."""
    rows = []
    for name, _ in cat.scan_groups(200):
        full = cat.catalog_interval(name)
        lattice, idx = full.lattice, full.idx
        for lo in range(lattice.n):
            for hi in range(lo, lattice.n):
                if not lattice._up[lo] >> hi & 1 or idx[lo] // idx[hi] >= limit:
                    continue
                try:
                    sub = tt.boolean_between(full, lo, hi)
                except NotBoolean:
                    continue
                if sub.n == 2:
                    over_k, over_ell, total = sub.idx[1], sub.idx[2], sub.total_index
                    rows.append(((over_k, over_ell, total // over_ell, total // over_k), f"{name}[{lo},{hi}]"))
    return rows


class TestRank2Table:
    @pytest.mark.parametrize("limit", [32, 10 ** 6])
    def test_rows_match_the_all_pairs_reference(self, limit):
        assert rp.rank2_index_table(limit) == reference_rank2_rows(limit)

    def test_small_catalog_scan_is_clean(self):
        rows = rank2_rows_of({"s4", "d6", "z12"})
        assert {where.split("[")[0] for _, where in rows} == {"s4", "d6", "z12"}
        for (a, b, c, d), _ in rows:
            assert (a, b) == (c, d)

    def test_psl_realizes_both_exceptions(self):
        rows = rank2_rows_of({"psl2_7"})
        quads = {quad for quad, _ in rows}
        assert (7, 7, 3, 3) in quads
        assert (7, 7, 4, 4) in quads
