"""Boolean label vectors cross-checked against the generic lattice route.

The reference for every quantity is an `IndexedInterval` over
`lattice.subset_lattice(n)` or over a catalog group's interval lattice, with
sub-intervals sliced by `dense_lattice.interval` and chain types read off
`dense_lattice.maximal_chains`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orelat import catalog as cat
from orelat import certifier as cf
from orelat import lattice as lat
from orelat import totients as tt
from orelat.errors import InvalidParameters, NotACoatom, NotBoolean
from dense_lattice import build_lattice, complement, interval, maximal_chains, sub_interval

SMALL_SCAN = ["z6", "z8", "z12", "v4", "d4", "s3", "a4", "s4", "d6", "s2xs3", "psl2_7"]


def reference_sub(model, a, b):
    """[a, b] of an IndexedInterval on the sliced lattice, relabelled by b."""
    labels = [model.idx[x] // model.idx[b] for x in lat.members_between(model.lattice, a, b)]
    return tt.IndexedInterval(interval(model.lattice, a, b), labels)


def reference_split(model, coatom):
    lattice = model.lattice
    lower = reference_sub(model, lattice.bottom, coatom)
    upper = reference_sub(model, complement(lattice, coatom), lattice.top)
    return model.idx[coatom] * tt.dual_totient(lower) - tt.dual_totient(upper)


def reference_types(model):
    return {
        tuple(sorted(model.edge_index(x, y) for x, y in zip(chain, chain[1:])))
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
        assert tt.dual_totient_coatom_split(reference, boolean.element(co)) == expected
    assert cf.chain_types(boolean) == cf.chain_types(reference) == reference_types(reference)
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
        return tt.allsplit_model(draw(st.lists(st.integers(2, 13), min_size=1, max_size=6)))
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
        reference = tt.IndexedInterval(lat.subset_lattice(model.n), model.idx)
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
            tt.IndexedInterval(lat.subset_lattice(n), labels)
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

    def test_lattice_is_the_subset_lattice(self):
        assert tt.uniform_model(3, 3).lattice is lat.subset_lattice(3)

    @given(label_vectors().filter(lambda m: m.n <= 5), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_shuffled_element_ids_keep_the_source_order(self, model, rng):
        # the conversion must visit atoms and coatoms, of the interval and of
        # its sub-intervals, in the source lattice's element order; a lattice
        # numbers its elements in a linear extension, so the ids are a random one
        reference = _relabelled(model, _random_linear_extension(model.n, rng))
        top = model.top
        pairs = [(a, b) for b in range(top + 1) for a in range(b + 1) if a & ~b == 0]
        assert_routes_agree(tt.to_boolean(reference), reference, rng.sample(pairs, min(12, len(pairs))))


def catalog_boolean_top_intervals():
    for name in SMALL_SCAN:
        full = cat.cached_full_lattice(name)
        top = full.lattice.top
        for h in range(full.lattice.n):
            part = sub_interval(full, h, top)
            if lat.is_boolean(part.lattice):
                yield tt.from_group_interval(part), f"{name}[{h}]"


class TestCatalogIntervals:
    def test_label_vector_route_equals_group_lattice_route(self):
        checked = 0
        for reference, name in catalog_boolean_top_intervals():
            boolean = tt.to_boolean(reference)
            assert boolean.n == reference.lattice.height(), name
            top = boolean.top
            pairs = [(a, b) for b in range(top + 1) for a in range(b + 1) if a & ~b == 0]
            assert_routes_agree(boolean, reference, pairs)
            checked += 1
        assert checked > 50

    def test_atoms_become_bits_in_ascending_element_id(self):
        reference = tt.from_group_interval(cat.catalog_interval("s2xs3_2/base"))
        boolean = tt.to_boolean(reference)
        assert [boolean.element(1 << i) for i in range(boolean.n)] == lat.atoms(reference.lattice)

    @pytest.mark.parametrize("name", ["z12", "v4", "psl2_7"])
    def test_non_boolean_lattices_are_refused(self, name):
        with pytest.raises(NotBoolean):
            tt.to_boolean(tt.from_group_interval(cat.cached_full_lattice(name)))


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
