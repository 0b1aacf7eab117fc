"""Boolean label vectors cross-checked against the generic lattice route.

The reference for every quantity is an `IndexedInterval` over
`dense_lattice.subset_lattice(n)` or over a catalog group's interval lattice, with
sub-intervals sliced by `dense_lattice.interval` and chain types read off
`dense_lattice.maximal_chains`.  The label-vector arithmetic runs over
cached mask tables: the dual totient sums the signed labels
(-1)^|s| idx[s] a vector keeps, and its first coatom split folds them into
every split at once.  It is also compared against the plain
per-mask loops kept here as `reference_*` functions, which sign each label
by its popcount and slice sub-intervals with `BooleanInterval.sub`.
"""

from fractions import Fraction
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orelat import catalog as cat
from orelat import certifier as cf
from orelat import intervals as iv
from orelat import lattice as lat
from orelat import reproduce as rp
from orelat import totients as tt
from orelat.errors import InvalidParameters, NotACoatom, NotBoolean, NotComparable
from dense_lattice import (
    build_lattice, complement, interval, maximal_chains, members_between, sub_interval, subset_lattice,
)
from references import allsplit_model, label_vector
from test_intervals import groups_with_base

SMALL_SCAN = ["z6", "z8", "z12", "v4", "d4", "s3", "a4", "s4", "d6", "s2xs3", "psl2_7"]


def reference_sub(model, a, b):
    """[a, b] of an IndexedInterval on the sliced lattice, relabelled by b."""
    labels = [model.idx[x] // model.idx[b] for x in members_between(model.lattice, a, b)]
    return tt.IndexedInterval(interval(model.lattice, a, b), labels)


def reference_split(model, coatom):
    """q * phihat(H, L) - phihat(A, G) on sliced sub-intervals: `sub` for a label vector."""
    if isinstance(model, tt.BooleanInterval):
        top = model.top
        lower, upper = model.sub(0, coatom), model.sub(top ^ coatom, top)
        return model.idx[coatom] * reference_dual(lower.idx) - reference_dual(upper.idx)
    lattice = model.lattice
    lower = reference_sub(model, lattice.bottom, coatom)
    upper = reference_sub(model, complement(lattice, coatom), lattice.top)
    return model.idx[coatom] * tt.dual_totient(lower) - tt.dual_totient(upper)


def reference_types(model):
    return {
        tuple(sorted(model.idx[x] // model.idx[y] for x, y in zip(chain, chain[1:])))
        for chain in maximal_chains(model.lattice)
    }


def assert_routes_agree(boolean, reference, pairs):
    """`boolean.element` maps each mask to its element id in `reference`."""
    assert boolean.total_index == reference.total_index
    assert tt.dual_totient(boolean) == tt.dual_totient(reference)
    assert tt.euler_totient(boolean) == tt.euler_totient(reference)
    assert [boolean.element(x) for x in boolean.atoms()] == lat.atoms(reference.lattice)
    assert [boolean.element(co) for co in boolean.coatoms()] == lat.coatoms(reference.lattice)
    for co in boolean.coatoms():
        expected = reference_split(reference, boolean.element(co))
        assert tt.dual_totient_coatom_split(boolean, co) == expected
    assert cf.chain_types(boolean) == reference_types(reference)
    for a, b in pairs:
        sub = boolean.sub(a, b)
        ref = reference_sub(reference, boolean.element(a), boolean.element(b))
        # in ascending source id the masks are the sliced lattice's element ids
        order = sorted(range(len(sub.idx)), key=sub.element)
        position = {t: i for i, t in enumerate(order)}
        assert [sub.idx[t] for t in order] == list(ref.idx)
        assert sub.n == ref.lattice.height()
        assert [position[x] for x in sub.atoms()] == lat.atoms(ref.lattice)
        assert [position[co] for co in sub.coatoms()] == lat.coatoms(ref.lattice)


@st.composite
def label_vectors(draw):
    if draw(st.booleans()):
        return allsplit_model(draw(st.lists(st.integers(2, 13), min_size=1, max_size=6)))
    p = draw(st.integers(2, 13))
    n = draw(st.integers(1, 6))
    specials = []
    left = n
    for q, size in draw(st.lists(st.tuples(st.integers(2, 13), st.integers(1, 6)), max_size=3)):
        if size <= left:
            specials.append((q, size))
            left -= size
    return tt.boolean_index_model(p, n, specials)


class TestSyntheticModels:
    @given(label_vectors(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_label_vector_route_equals_subset_lattice_route(self, model, rng):
        reference = tt.IndexedInterval(subset_lattice(model.n), model.idx)
        top = model.top
        pairs = []
        for _ in range(8):
            b = rng.randint(0, top)
            pairs.append((b & rng.randint(0, top), b))
        assert_routes_agree(model, reference, pairs)

    @given(st.integers(0, 3).flatmap(
        lambda n: st.lists(st.integers(1, 24), min_size=1 << n, max_size=1 << n)))
    @settings(max_examples=200, deadline=None)
    def test_validation_matches_indexed_interval(self, labels):
        n = len(labels).bit_length() - 1
        try:
            tt.IndexedInterval(subset_lattice(n), labels)
            valid = True
        except InvalidParameters:
            valid = False
        if valid:
            assert tt.BooleanInterval(n, labels).idx == tuple(labels)
        else:
            with pytest.raises(InvalidParameters):
                tt.BooleanInterval(n, labels)

    def test_wrong_length_is_rejected(self):
        with pytest.raises(InvalidParameters):
            tt.BooleanInterval(2, [4, 2, 1])

    @pytest.mark.parametrize("coatom", [-1, 0, 3, 7])
    def test_non_coatoms_are_refused(self, coatom):
        with pytest.raises(NotACoatom):
            tt.dual_totient_coatom_split(tt.uniform_model(3, 2), coatom)

    @given(label_vectors().filter(lambda m: m.n <= 5), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_shuffled_element_ids_keep_the_source_order(self, model, rng):
        # the conversion must visit atoms and coatoms, of the interval and of
        # its sub-intervals, in the source lattice's element order; a lattice
        # numbers its elements in a linear extension, so the ids are a random one
        reference = _relabelled(model, _random_linear_extension(model.n, rng))
        top = model.top
        pairs = [(a, b) for b in range(top + 1) for a in range(b + 1) if a & ~b == 0]
        assert_routes_agree(label_vector(reference), reference, rng.sample(pairs, min(12, len(pairs))))


def catalog_boolean_top_intervals():
    for name in SMALL_SCAN:
        full = cat.catalog_interval(name)
        top = full.lattice.top
        for h in range(full.lattice.n):
            part = sub_interval(full, h, top)
            if lat.is_boolean(part.lattice):
                yield tt.from_group_interval(part), f"{name}[{h}]"


class TestCatalogIntervals:
    def test_label_vector_route_equals_group_lattice_route(self):
        checked = 0
        for reference, name in catalog_boolean_top_intervals():
            boolean = label_vector(reference)
            assert boolean.n == reference.lattice.height(), name
            top = boolean.top
            pairs = [(a, b) for b in range(top + 1) for a in range(b + 1) if a & ~b == 0]
            assert_routes_agree(boolean, reference, pairs)
            checked += 1
        assert checked > 50

    def test_atoms_become_bits_in_ascending_element_id(self):
        reference = tt.from_group_interval(cat.catalog_interval("s2xs3_2/base"))
        boolean = label_vector(reference)
        assert [boolean.element(1 << i) for i in range(boolean.n)] == lat.atoms(reference.lattice)

    @pytest.mark.parametrize("name", ["z12", "v4", "psl2_7"])
    def test_non_boolean_lattices_are_refused(self, name):
        with pytest.raises(NotBoolean):
            label_vector(tt.from_group_interval(cat.catalog_interval(name)))


def reference_phihats(full):
    """(lo, hi, rank, phihat) for every boolean [lo, hi], lo < hi, by a label vector per comparable pair."""
    rows = []
    lattice = full.lattice
    for lo in range(lattice.n):
        for hi in lat.bits(lattice._up[lo] ^ 1 << lo):
            try:
                sub = tt.boolean_between(full, lo, hi)
            except NotBoolean:
                continue
            rows.append((lo, hi, sub.n, tt.dual_totient(sub)))
    return rows


class TestConjectureMonitor:
    """`reproduce._boolean_phihats` reads each dual totient off the labels, with no label vector."""

    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_scan_lattices(self, name):
        full = cat.catalog_interval(name)
        assert list(rp._boolean_phihats(full)) == reference_phihats(full)

    @settings(max_examples=25, deadline=None)
    @given(groups_with_base())
    def test_random_groups(self, pair):
        full = iv.full_subgroup_lattice(pair[0])
        assert list(rp._boolean_phihats(full)) == reference_phihats(full)

    def test_a_monitor_without_the_sign_flip_fails(self, monkeypatch):
        full = cat.catalog_interval("s4")
        expected = reference_phihats(full)
        monkeypatch.setattr(tt, "_signs", lambda n: (1,) * (1 << n))
        assert list(rp._boolean_phihats(full)) != expected


def _random_linear_extension(n, rng):
    """ids[s] for every mask s of rank n: a random numbering with each subset before its supersets."""
    size = 1 << n
    ids = [0] * size
    missing = [s.bit_count() for s in range(size)]  # lower covers not yet numbered
    ready = [0]
    for i in range(size):
        s = ready.pop(rng.randrange(len(ready)))
        ids[s] = i
        for j in range(n):
            t = s | 1 << j
            if t != s:
                missing[t] -= 1
                if not missing[t]:
                    ready.append(t)
    return ids


def _relabelled(model, ids):
    """The boolean model on a lattice whose element ids[s] is mask s."""
    size = len(model.idx)
    leq = np.zeros((size, size), dtype=bool)
    labels = [0] * size
    for s in range(size):
        labels[ids[s]] = model.idx[s]
        for t in range(size):
            leq[ids[s], ids[t]] = s & ~t == 0
    return tt.IndexedInterval(build_lattice(leq), labels)


# -- per-mask references for the mask-table arithmetic of `totients` ----------


def reference_refusal(n, labels):
    """The per-cover validation loop: None when the labels are valid, else the refusal."""
    idx = tuple(int(v) for v in labels)
    if n < 0 or len(idx) != 1 << n:
        return "one label per atom bitmask"
    if idx[-1] != 1:
        return "the top element must have label 1"
    if any(v <= 0 for v in idx):
        return "labels must be positive"
    top = len(idx) - 1
    for s, v in enumerate(idx):
        rest = top & ~s
        while rest:
            bit = rest & -rest
            rest ^= bit
            w = idx[s | bit]
            if v % w or v == w:
                return "labels must strictly divide downward along covers"
    return None


def per_coatom_split_mismatches():
    """[p, q, n, m, coatom] wherever a split differs from the direct sum, one coatom at a time over the totient-formulas grid."""
    found = []
    for p in range(2, 14):
        for q in range(p, 14):
            for n in range(1, 8):
                for m in range(0, n + 1):
                    model = tt.pq_model(p, q, n, m) if m else tt.uniform_model(p, n)
                    direct = tt.dual_totient(model)
                    for co in model.coatoms():
                        if tt.dual_totient_coatom_split(model, co) != direct:
                            found.append([p, q, n, m, co])
    return found


def reference_dual(idx):
    return sum(-v if s.bit_count() & 1 else v for s, v in enumerate(idx))


def reference_euler(n, idx):
    total = idx[0]
    return sum(-(total // v) if (n - s.bit_count()) & 1 else total // v for s, v in enumerate(idx))


def reference_sub_labels(idx, a, b):
    masks = [a]
    free = b & ~a
    while free:
        bit = free & -free
        free ^= bit
        masks += [m | bit for m in masks]
    return [idx[m] // idx[b] for m in masks], masks


def reference_model_labels(p, n, specials):
    """The per-mask label loop of `boolean_index_model`, without its parameter checks."""
    blocks = []
    start = 0
    for q, size in specials:
        blocks.append((q, ((1 << size) - 1) << start))
        start += size
    labels = []
    for s in range(1 << n):
        incomplete = [q for q, block in blocks if block & ~s]
        labels.append(p ** (n - s.bit_count() - len(incomplete)) * prod(incomplete))
    return labels


def reference_closed_form(p, q, n, m):
    value = (p - 1) ** n * (1 + Fraction(q - p, p) * (1 - Fraction(1, (1 - p) ** m)))
    assert value.denominator == 1
    return int(value)


@st.composite
def valid_vectors(draw, max_rank=7):
    """(n, labels): each label a multiple of the lcm of its upper covers' labels, strictly above each."""
    n = draw(st.integers(0, max_rank))
    top = (1 << n) - 1
    labels = [0] * (top + 1)
    labels[top] = 1
    for s in sorted(range(top), key=lambda s: -s.bit_count()):
        upper = [labels[s | 1 << i] for i in range(n) if not s >> i & 1]
        v = lcm(*upper) * draw(st.sampled_from((1, 1, 2, 3, 5)))
        labels[s] = 2 * v if v in upper else v
    return n, labels


class TestMaskTablesMatchPerMaskLoops:
    @given(valid_vectors(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_validation_matches_the_per_cover_loop(self, vector, data):
        n, labels = vector
        assert reference_refusal(n, labels) is None
        assert tt.BooleanInterval(n, labels).idx == tuple(labels)
        s = data.draw(st.integers(0, len(labels) - 1))
        neighbours = [labels[s ^ 1 << i] for i in range(n)]
        labels[s] = data.draw(st.one_of(
            st.integers(-3, 40),
            st.sampled_from(neighbours or [0]),
            st.sampled_from((2, 3, 6)).map(lambda k: labels[s] * k),
            st.sampled_from((2, 3, 6)).map(lambda k: labels[s] // k),
        ))
        refusal = reference_refusal(n, labels)
        if refusal is None:
            assert tt.BooleanInterval(n, labels).idx == tuple(labels)
        else:
            with pytest.raises(InvalidParameters, match=refusal):
                tt.BooleanInterval(n, labels)

    @pytest.mark.parametrize("n, labels, refusal", [
        (1, [2, 1, 1], "one label per atom bitmask"),
        (-1, [1], "one label per atom bitmask"),
        (0, [2], "the top element must have label 1"),
        (1, [2, 3], "the top element must have label 1"),
        (1, [0, 1], "labels must be positive"),
        (2, [4, 2, -2, 1], "labels must be positive"),
        (1, [1, 1], "labels must strictly divide downward along covers"),
        (1, [3, 1], None),
        (2, [6, 3, 4, 1], "labels must strictly divide downward along covers"),
        (2, [6, 3, 3, 1], None),
        (2, [6, 6, 2, 1], "labels must strictly divide downward along covers"),
        (3, [8, 4, 4, 2, 4, 2, 2, 1], None),
        (3, [8, 4, 4, 2, 4, 2, 1, 1], "labels must strictly divide downward along covers"),
    ])
    def test_every_refusal_is_reached(self, n, labels, refusal):
        assert reference_refusal(n, labels) == refusal
        if refusal is None:
            assert tt.BooleanInterval(n, labels).idx == tuple(labels)
        else:
            with pytest.raises(InvalidParameters, match=refusal):
                tt.BooleanInterval(n, labels)

    @given(valid_vectors(max_rank=4))
    @settings(max_examples=100, deadline=None)
    def test_sums_and_sub_intervals_match_the_per_mask_loops(self, vector):
        n, labels = vector
        model = tt.BooleanInterval(n, labels, [3 * s + 1 for s in range(len(labels))])
        assert tt.dual_totient(model) == reference_dual(labels)
        assert tt.euler_totient(model) == reference_euler(n, labels)
        for b in range(len(labels)):
            for a in range(b + 1):
                if a & ~b:
                    with pytest.raises(NotComparable):
                        model.sub(a, b)
                    continue
                sub = model.sub(a, b)
                expected, masks = reference_sub_labels(labels, a, b)
                assert sub.idx == tuple(expected)
                assert sub.ids == tuple(3 * m + 1 for m in masks)
                assert sub.n == (b & ~a).bit_count()
                assert tt.dual_totient(sub) == reference_dual(expected)
                assert tt.euler_totient(sub) == reference_euler(sub.n, expected)

    @given(valid_vectors(), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_signed_sums_match_the_per_mask_loops(self, vector, relabelled, data):
        n, labels = vector
        ids = data.draw(st.permutations(range(len(labels)))) if relabelled else None
        model = tt.BooleanInterval(n, labels, ids)
        assert tt.dual_totient(model) == reference_dual(labels)
        assert tt.euler_totient(model) == reference_euler(n, labels)
        for co in model.coatoms():
            assert tt.dual_totient_coatom_split(model, co) == reference_split(model, co)

    def test_sign_table_matches_popcount_parity(self):
        for n in range(8):
            assert tt._signs(n) == tuple(-1 if s.bit_count() & 1 else 1 for s in range(1 << n))

    @given(valid_vectors(), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    # rank 0 has no coatom; rank 1 has one, whose lower half is the bottom alone
    @example((0, [1]), False, None)
    @example((1, [3, 1]), True, None)
    def test_coatom_splits_in_any_order_match_the_sliced_sub_intervals(self, vector, relabelled, data):
        n, labels = vector
        top = len(labels) - 1
        ids = list(reversed(range(top + 1))) if relabelled else None
        model = tt.BooleanInterval(n, labels, ids)
        coatoms = model.coatoms()
        if data is not None:
            coatoms = data.draw(st.permutations(coatoms))
        for co in coatoms:
            expected = model.idx[co] * tt.dual_totient(model.sub(0, co)) - tt.dual_totient(model.sub(top ^ co, top))
            assert tt.dual_totient_coatom_split(model, co) == expected
        assert len(model.coatom_splits()) == n

    def test_totient_formulas_catch_a_fold_that_drops_the_upper_halves(self, monkeypatch):
        # on valid labels the split equals the direct sum by algebra, so the
        # coatom-split claim is a self-check of the fold: it must fail on a faulty one
        def lower_halves_only(model):
            idx, top, folded = model.idx, model.top, model.signed()
            splits = [0] * model.n
            for i in reversed(range(model.n)):
                half = 1 << i
                lower, upper = folded[:half], folded[half:]
                label = idx[top ^ half]
                splits[i] = label * (sum(lower) // label) + sum(upper)
                folded = lower
            return tuple(splits)

        monkeypatch.setattr(tt.BooleanInterval, "coatom_splits", lower_halves_only)
        _, claims = rp.run_totient_formulas()
        verdicts = {claim["id"]: claim for claim in claims}
        assert verdicts["closed-forms-match-direct-sums"]["pass"]
        split = verdicts["coatom-split-equals-direct-sum"]
        assert not split["pass"] and len(split["actual"]) == 10_374
        assert split["actual"] == per_coatom_split_mismatches()

    def test_totient_formulas_name_the_coatoms_of_a_fold_wrong_at_bit_zero(self, monkeypatch):
        # the claim compares each model's splits at once; its entries must be
        # those a walk over every coatom of every model finds, in the same order
        fold = tt.BooleanInterval.coatom_splits

        def wrong_at_bit_zero(model):
            splits = fold(model)
            return splits if model.n < 2 else (splits[0] + 1,) + splits[1:]

        monkeypatch.setattr(tt.BooleanInterval, "coatom_splits", wrong_at_bit_zero)
        expected = per_coatom_split_mismatches()
        assert expected and all(entry[2] >= 2 for entry in expected)
        _, claims = rp.run_totient_formulas()
        verdicts = {claim["id"]: claim for claim in claims}
        assert verdicts["closed-forms-match-direct-sums"]["pass"]
        assert verdicts["coatom-split-equals-direct-sum"]["actual"] == expected

    def test_models_match_over_the_totient_formulas_grid(self):
        for p in range(2, 14):
            for n in range(1, 8):
                assert tt.uniform_model(p, n).idx == tuple(reference_model_labels(p, n, []))
            for q in range(p, 14):
                for n in range(1, 8):
                    for m in range(1, n + 1):
                        expected = tuple(reference_model_labels(p, n, [(q, m)]))
                        assert tt.pq_model(p, q, n, m).idx == expected
        for p in (2, 3):
            for n in range(1, 7):
                for m in range(1, n + 1):
                    expected = tuple(reference_model_labels(p, n, [(p * p, m)]))
                    assert tt.pq_model(p, p * p, n, m).idx == expected

    @given(st.integers(-1, 13), st.integers(-1, 7),
           st.lists(st.tuples(st.integers(0, 13), st.integers(0, 7)), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_models_with_several_blocks_match_the_per_mask_loop(self, p, n, specials):
        valid = (p >= 2 and n >= 1 and all(q >= 2 and size >= 1 for q, size in specials)
                 and sum(size for _, size in specials) <= n)
        if not valid:
            with pytest.raises(InvalidParameters):
                tt.boolean_index_model(p, n, specials)
            return
        expected = reference_model_labels(p, n, specials)
        assert tt.boolean_index_model(p, n, specials).idx == tuple(expected)

    def test_integer_closed_form_equals_the_fraction_form(self):
        for p in range(2, 14):
            for q in range(p, 14):
                for n in range(1, 8):
                    for m in range(0, n + 1):
                        assert tt.closed_form_p_n_q(p, q, n, m) == reference_closed_form(p, q, n, m)


@st.composite
def model_parameters(draw, max_rank=8):
    """(p, n, specials) that `boolean_index_model` accepts: disjoint blocks and any free atoms left over."""
    p = draw(st.integers(2, 13))
    n = draw(st.integers(1, max_rank))
    specials = []
    left = n
    for q, size in draw(st.lists(st.tuples(st.integers(2, 13), st.integers(1, max_rank)), max_size=4)):
        size = min(size, left)
        if size:
            specials.append((q, size))
            left -= size
    return p, n, specials


def sub_pairs(n):
    """(a, b) with a below b: the masks of [a, b] are drawn from the masks of rank n."""
    top = (1 << n) - 1
    return st.tuples(st.integers(0, top), st.integers(0, top)).map(lambda ab: (ab[0] & ab[1], ab[1]))


class TestLabelVectorKernels:
    """The model build, the signed sums, the trusted sub-intervals and the atom order against plain loops."""

    @given(model_parameters())
    @settings(max_examples=150, deadline=None)
    @example((2, 8, []))
    @example((13, 8, [(13, 8)]))
    @example((3, 8, [(5, 1)] * 8))
    @example((2, 8, [(7, 3), (2, 2)]))
    def test_model_labels_match_the_per_mask_formula(self, params):
        p, n, specials = params
        model = tt.boolean_index_model(p, n, specials)
        assert model.n == n
        assert model.idx == tuple(reference_model_labels(p, n, specials))
        assert all(type(v) is int for v in model.idx)

    @given(valid_vectors(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_signed_sums_match_the_per_term_quotients(self, vector, data):
        n, labels = vector
        model = tt.BooleanInterval(n, labels)
        for a, b in data.draw(st.lists(sub_pairs(n), min_size=1, max_size=6)):
            expected = sum(
                -(labels[s] // labels[b]) if (s & ~a).bit_count() & 1 else labels[s] // labels[b]
                for s in range(len(labels)) if s & a == a and s & ~b == 0
            )
            assert tt.dual_totient(model.sub(a, b)) == expected

    @pytest.mark.parametrize("name", ["s4", "d6", "s2xs3", "psl2_7", "s2xs3_2/base"])
    def test_trusted_sub_intervals_equal_the_validated_ones(self, name):
        full = cat.catalog_interval(name)
        lattice = full.lattice
        checked = 0
        for lo in range(lattice.n):
            for hi in lat.bits(lattice._up[lo]):
                try:
                    elems = lat.boolean_elements(lattice, lo, hi)
                except NotBoolean:
                    with pytest.raises(NotBoolean):
                        tt.boolean_between(full, lo, hi)
                    continue
                trusted = tt.boolean_between(full, lo, hi)
                checked_labels = tt.BooleanInterval(trusted.n, [full.idx[e] // full.idx[hi] for e in elems], elems)
                assert (trusted.n, trusted.idx, trusted.ids) == (checked_labels.n, checked_labels.idx, checked_labels.ids)
                assert type(trusted.idx) is tuple
                checked += 1
        assert checked > lattice.n

    @given(st.integers(0, 7).flatmap(lambda n: st.tuples(st.just(n), st.none() | st.permutations(range(1 << n)))))
    @settings(max_examples=100, deadline=None)
    @example((0, None))
    @example((3, None))
    def test_atoms_and_coatoms_follow_the_element_order(self, drawn):
        n, ids = drawn
        top = (1 << n) - 1
        model = tt.BooleanInterval._trusted(n, tuple(range(top + 1))[::-1], ids)
        element = (lambda s: s) if ids is None else ids.__getitem__
        assert model.atoms() == sorted((1 << i for i in range(n)), key=element)
        assert model.coatoms() == sorted((top ^ 1 << i for i in range(n)), key=element)


NON_INTEGERS = [2.7, 2.0, np.float64(3.9), np.float64(3.0), "3", Fraction(3), Fraction(5, 2)]


class TestLabelsAreExactIntegers:
    """Each value below would pass as a valid label if it were truncated by `int`."""

    @pytest.mark.parametrize("value", NON_INTEGERS, ids=repr)
    def test_non_integers_are_refused(self, value):
        with pytest.raises(InvalidParameters, match="labels must be integers"):
            tt.BooleanInterval(1, [value, 1])
        with pytest.raises(InvalidParameters, match="labels must be integers"):
            tt.IndexedInterval(subset_lattice(1), [value, 1])
        with pytest.raises(InvalidParameters, match="the special blocks must be integers"):
            tt.boolean_index_model(3, 2, [(value, 1)])
        # as a rank, int(value) would be 2 or 3: the labels would be taken or refused by their number alone
        with pytest.raises(InvalidParameters, match="the rank and the labels must be integers"):
            tt.BooleanInterval(value, [6, 3, 2, 1])

    @pytest.mark.parametrize("kind", [np.int8, np.int64, np.uint32])
    def test_numpy_integers_are_accepted_as_python_ints(self, kind):
        labels = np.array([6, 3, 2, 1], dtype=kind)
        for model in (tt.BooleanInterval(2, labels), tt.IndexedInterval(subset_lattice(2), labels)):
            assert model.idx == (6, 3, 2, 1)
            assert all(type(v) is int for v in model.idx)
        assert allsplit_model(np.array([3, 2], dtype=kind)).idx == allsplit_model([3, 2]).idx
        assert tt.boolean_index_model(3, 2, [(kind(5), 1)]).idx == tt.boolean_index_model(3, 2, [(5, 1)]).idx


class TestModelsAreValidByConstruction:
    """`boolean_index_model` checks its parameters and builds its labels without the full checks."""

    def test_every_totient_formulas_model_passes_the_full_checks(self):
        models = []
        for p in range(2, 14):
            models += [tt.uniform_model(p, n) for n in range(1, 8)]
            models += [tt.pq_model(p, q, n, m) for q in range(p, 14) for n in range(1, 8) for m in range(n + 1)]
        models += [tt.pq_model(p, p * p, n, m) for p in (2, 3) for n in range(1, 7) for m in range(1, n + 1)]
        for model in models:
            checked = tt.BooleanInterval(model.n, model.idx)
            assert (checked.n, checked.idx, checked.ids) == (model.n, model.idx, model.ids)

    @given(label_vectors())
    @settings(max_examples=100, deadline=None)
    def test_random_models_pass_the_full_checks(self, model):
        assert tt.BooleanInterval(model.n, model.idx).idx == model.idx

    @pytest.mark.parametrize("args", [
        (1, 2), (3, 0), (3, 2, [(1, 1)]), (3, 2, [(5, 0)]), (3, 2, [(5, -1)]), (3, 2, [(5, 2), (7, 1)]),
    ])
    def test_invalid_parameters_are_refused(self, args):
        with pytest.raises(InvalidParameters):
            tt.boolean_index_model(*args)

    @pytest.mark.parametrize("args", [
        (3.0, 2), (2.5, 2), (3, 2.0), (3, 2, [(5.0, 1)]), (3, 2, [(5, 1.0)]), (Fraction(3), 2),
    ], ids=repr)
    def test_non_integer_parameters_are_refused(self, args):
        with pytest.raises(InvalidParameters, match="must be integers"):
            tt.boolean_index_model(*args)
