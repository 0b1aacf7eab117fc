from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orelat import catalog as cat
from orelat import lattice as lat
from orelat.errors import NotALattice, NotAPartialOrder, NotBoolean, NotComparable, OrelatError
from dense_lattice import (
    DenseLattice,
    build_lattice,
    complement,
    dense,
    interval,
    maximal_chains,
    members_between,
    subset_lattice,
)


def reference_is_boolean(ref):
    """Boolean by complements: distributive, and every element has a complement.

    Distributivity and the complements are read off the meet and join
    tables of the `DenseLattice` `ref`, independently of the atom-bitmask
    test behind `lat.is_boolean`.  When the lattice is boolean the
    complement is unique, the size is a power of two and every element is
    the join of the atoms below it; these are asserted.
    """
    if not ref.distributive():
        return False
    comps = (ref.meet == ref.bottom) & (ref.join == ref.top)
    counts = comps.sum(axis=1)
    if not (counts >= 1).all():
        return False
    assert (counts == 1).all(), "complement not unique in a distributive lattice"
    ats = np.flatnonzero(ref.covers[ref.bottom]).tolist()
    assert ref.n == 1 << len(ats)
    for x in range(ref.n):
        below = [a for a in ats if ref.leq[a, x]]
        joined = reduce(lambda u, v: int(ref.join[u, v]), below, ref.bottom)
        assert joined == x, "element is not the join of the atoms below it"
    return True


def dense_slice(ref, lo, hi):
    """[lo, hi] of a `DenseLattice`, sliced from its order matrix."""
    sel = np.flatnonzero(ref.leq[lo] & ref.leq[:, hi])
    return DenseLattice(ref.leq[np.ix_(sel, sel)])


def reference_is_bottom_boolean(ref):
    """`reference_is_boolean` on [bottom, join of the atoms], all from the dense tables."""
    ats = np.flatnonzero(ref.covers[ref.bottom]).tolist()
    top = reduce(lambda u, v: int(ref.join[u, v]), ats, ref.bottom)
    return reference_is_boolean(dense_slice(ref, ref.bottom, top))


def assert_flags_match_reference(lattice, ref=None):
    """On every [lo, hi]: the flags agree with the dense reference `ref` (default `dense(lattice)`).

    is_boolean, is_bottom_boolean and is_distributive of the sliced lattice,
    and is_boolean_interval on the whole one, are compared.
    """
    ref = dense(lattice) if ref is None else ref
    for lo in range(lattice.n):
        for hi in members_between(lattice, lo, lattice.top):
            sub = interval(lattice, lo, hi)
            sub_ref = dense_slice(ref, lo, hi)
            boolean = reference_is_boolean(sub_ref)
            assert lat.is_boolean(sub) == boolean, (lo, hi)
            assert lat.is_boolean_interval(lattice, lo, hi) == boolean, (lo, hi)
            assert lat.is_bottom_boolean(sub) == reference_is_bottom_boolean(sub_ref), (lo, hi)
            assert lat.is_distributive(sub) == sub_ref.distributive(), (lo, hi)


def assert_matches_dense(lattice, ref):
    """The bitmask lattice against a `DenseLattice` of the same order and ids.

    Covers, meet and join on all pairs, ranks, gradedness, and the
    distributivity of every [h, top], one at a time and by the top-down
    walk `distributive_bases`, are compared.
    """
    n = lattice.n
    assert (ref.bottom, ref.top) == (lattice.bottom, lattice.top)
    assert np.array_equal(lattice.covers, ref.covers)
    assert [[lattice.meet(a, b) for b in range(n)] for a in range(n)] == ref.meet.tolist()
    assert [[lattice.join(a, b) for b in range(n)] for a in range(n)] == ref.join.tolist()
    assert lattice.ranks() == ref.ranks
    assert lattice.is_graded() == ref.graded
    distributive = [h for h in range(n) if ref.distributive(np.flatnonzero(ref.leq[h]))]
    for h in range(n):
        assert lat._distributive_above(lattice, h) == (h in distributive), h
    assert lat.distributive_bases(lattice) == distributive


def chain(n):
    leq = np.triu(np.ones((n, n), dtype=bool))
    return build_lattice(leq)


def diamond_m3():
    # bottom, three incomparable middles, top
    leq = np.eye(5, dtype=bool)
    for x in (1, 2, 3):
        leq[0, x] = leq[x, 4] = True
    leq[0, 4] = True
    return build_lattice(leq)


def pentagon_n5():
    # 0 < a(1) < b(2) < top(4), 0 < c(3) < top; not graded, not distributive
    leq = np.eye(5, dtype=bool)
    for x, y in [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)]:
        leq[x, y] = True
    return build_lattice(leq)


def eight_with_three_atoms():
    # 8 elements and 3 atoms a(1), b(2), c(3), yet not boolean: d(4) sits
    # between a and a v b(5), and b v c is the top(7); a v c is 6
    leq = np.eye(8, dtype=bool)
    for x, y in [(1, 4), (1, 5), (1, 6), (2, 5), (3, 6), (4, 5)]:
        leq[x, y] = True
    leq[0, :] = leq[:, 7] = True
    return build_lattice(leq)


def divisor_lattice(n):
    divs = [d for d in range(1, n + 1) if n % d == 0]
    k = len(divs)
    leq = np.zeros((k, k), dtype=bool)
    for i, d in enumerate(divs):
        for j, e in enumerate(divs):
            leq[i, j] = e % d == 0
    return build_lattice(leq)


class TestBuild:
    def test_two_chain(self):
        two = chain(2)
        assert two.bottom == 0 and two.top == 1

    def test_bowtie_is_not_a_lattice(self):
        leq = np.eye(4, dtype=bool)
        for a in (0, 1):
            for b in (2, 3):
                leq[a, b] = True
        with pytest.raises(NotALattice):
            build_lattice(leq)

    def test_not_transitive(self):
        leq = np.eye(3, dtype=bool)
        leq[0, 1] = leq[1, 2] = True
        with pytest.raises(NotAPartialOrder):
            build_lattice(leq)

    def test_not_antisymmetric(self):
        leq = np.ones((2, 2), dtype=bool)
        with pytest.raises(NotAPartialOrder):
            build_lattice(leq)

    def test_subset_lattice_is_b3(self):
        b3 = subset_lattice(3)
        assert b3.n == 8
        assert len(lat.atoms(b3)) == 3
        assert len(lat.coatoms(b3)) == 3


class TestAtomsCoatoms:
    def test_chain(self):
        three = chain(3)
        assert lat.atoms(three) == [1]
        assert lat.coatoms(three) == [1]

    def test_singleton(self):
        one = chain(1)
        assert lat.atoms(one) == [] and lat.coatoms(one) == []

    def test_ids_outside_the_lattice_are_refused(self):
        # -1 used to give no covers and a join of -1; n a bare IndexError
        lattice = cat.catalog_interval("s3").lattice
        for a in (-1, lattice.n):
            with pytest.raises(NotComparable, match=f"{a} is not an element id in range"):
                lat.upper_covers(lattice, a)
            with pytest.raises(NotComparable, match=f"{a} is not an element id in range"):
                lat.covers_join(lattice, a)
        assert lat.upper_covers(lattice, lattice.top) == []
        assert lat.covers_join(lattice, lattice.top) == lattice.top


class TestBits:
    @pytest.mark.parametrize("mask", [0, 1, 0b1011, (1 << 300) - 1, 1 << 5000 | 1])
    def test_positions_ascending(self, mask):
        assert lat.bits(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]

    @pytest.mark.parametrize("mask", [-1, -2, -(1 << 300)])
    def test_negative_mask_is_refused(self, mask):
        # the bit-by-bit walk never ends on a negative mask; only run against the guard
        with pytest.raises(OrelatError, match="negative"):
            lat.bits(mask)


class TestDistributive:
    def test_chain_distributive(self):
        assert lat.is_distributive(chain(5))

    def test_m3_not_distributive(self):
        assert not lat.is_distributive(diamond_m3())

    def test_n5_not_distributive(self):
        assert not lat.is_distributive(pentagon_n5())

    def test_divisor_lattice_of_12(self):
        assert lat.is_distributive(divisor_lattice(12))

    def test_intervals_inherit_distributivity(self):
        b4 = subset_lattice(4)
        for a in range(b4.n):
            for b in members_between(b4, a, b4.top):
                assert lat.is_distributive(interval(b4, a, b))


class TestBoolean:
    def test_b3(self):
        assert lat.is_boolean(subset_lattice(3))

    def test_chain_of_length_two_is_not(self):
        assert not lat.is_boolean(chain(3))

    def test_divisor_lattice_of_12_is_not(self):
        assert not lat.is_boolean(divisor_lattice(12))

    def test_complement_in_b3(self):
        b3 = subset_lattice(3)
        assert complement(b3, 0b001) == 0b110
        assert complement(b3, b3.bottom) == b3.top

    def test_complement_is_involutive_and_swaps_atoms_coatoms(self):
        b4 = subset_lattice(4)
        for x in range(b4.n):
            assert complement(b4, complement(b4, x)) == x
        for a in lat.atoms(b4):
            assert complement(b4, a) in lat.coatoms(b4)

    def test_complement_requires_boolean(self):
        with pytest.raises(NotBoolean):
            complement(chain(3), 1)


class TestIntervals:
    def test_whole_interval(self):
        b3 = subset_lattice(3)
        assert interval(b3, b3.bottom, b3.top).n == b3.n

    def test_upper_interval_of_b3_is_b2(self):
        b3 = subset_lattice(3)
        sub = interval(b3, 0b001, b3.top)
        assert sub.n == 4 and lat.is_boolean(sub) and sub.height() == 2

    def test_not_comparable(self):
        b3 = subset_lattice(3)
        with pytest.raises(NotComparable):
            interval(b3, 0b001, 0b110)


SMALL_LATTICES = pytest.mark.parametrize("lattice", [
    diamond_m3(), pentagon_n5(), chain(1), chain(2), chain(4),
    divisor_lattice(12), divisor_lattice(30), divisor_lattice(36),
    subset_lattice(3), eight_with_three_atoms(),
], ids=["m3", "n5", "chain1", "chain2", "chain4", "div12", "div30", "div36", "b3", "eight"])


class TestBooleanReference:
    @SMALL_LATTICES
    def test_flags_match_the_complement_scan(self, lattice):
        assert_flags_match_reference(lattice)

    @SMALL_LATTICES
    def test_masks_match_the_dense_tables(self, lattice):
        assert_matches_dense(lattice, dense(lattice))


class TestMaskLattice:
    def test_subset_lattice_meet_and_join_are_and_and_or(self):
        b4 = subset_lattice(4)
        for a in range(b4.n):
            for b in range(b4.n):
                assert (b4.meet(a, b), b4.join(a, b)) == (a & b, a | b)

    def test_meet_and_join_refuse_ids_outside_the_lattice(self):
        # a negative id used to read the masks from the end: join(-1, 0) was the top
        lattice = cat.catalog_interval("s3").lattice
        n = lattice.n
        for a, b in [(-1, 0), (0, -1), (n, 0), (0, n), (-1, n)]:
            with pytest.raises(NotComparable):
                lattice.meet(a, b)
            with pytest.raises(NotComparable):
                lattice.join(a, b)

    def test_covers_are_read_only(self):
        with pytest.raises(ValueError):
            subset_lattice(2).covers[0, 3] = True

    def test_covers_are_built_once(self):
        lattice = lat.FiniteLattice([[], [0], [0], [1, 2]])
        assert lattice.covers is lattice.covers
        edges = [[0, 1], [0, 2], [1, 3], [2, 3]]
        assert np.argwhere(lattice.covers).tolist() == lat.hasse_edges(lattice) == edges

    @pytest.mark.parametrize("lower, error", [
        ([], NotAPartialOrder),
        ([[1], []], NotAPartialOrder),
        ([[], [1]], NotAPartialOrder),
        ([[], [], [0, 1]], NotALattice),
        ([[], [0], [0]], NotALattice),
        # a square whose top lists 1 twice, and a 3-chain whose top also lists the bottom
        ([[], [0], [0], [1, 2, 1]], NotAPartialOrder),
        ([[], [0], [0, 1]], NotAPartialOrder),
    ], ids=["empty", "cover-above", "self-cover", "two-bottoms", "two-tops", "repeated-cover", "redundant-cover"])
    def test_lower_covers_are_checked(self, lower, error):
        with pytest.raises(error):
            lat.FiniteLattice(lower)

    def test_shuffled_ids_are_refused_by_the_reference(self):
        leq = np.eye(3, dtype=bool)
        leq[0, :] = leq[2, 1] = True
        with pytest.raises(NotAPartialOrder):
            build_lattice(leq)


class TestTopBottomIntervals:
    def test_boolean_bottom_interval_is_everything(self):
        b3 = subset_lattice(3)
        assert lat.covers_join(b3, b3.bottom) == b3.top
        assert len(lat.boolean_elements(b3, b3.bottom, b3.top)) == b3.n

    def test_chain_bottom_interval(self):
        three = chain(3)
        b = lat.covers_join(three, three.bottom)
        assert lat.boolean_elements(three, three.bottom, b) == [0, 1]

    def test_distributive_has_boolean_top_and_bottom(self):
        for n in (12, 30, 8, 36):
            lattice = divisor_lattice(n)
            lat.boolean_elements(lattice, lat.top_interval_base(lattice), lattice.top)
            lat.boolean_elements(lattice, lattice.bottom, lat.covers_join(lattice, lattice.bottom))

    def test_bottom_boolean(self):
        assert lat.is_bottom_boolean(subset_lattice(2))
        assert lat.is_bottom_boolean(divisor_lattice(12))
        assert not lat.is_bottom_boolean(pentagon_n5())


class TestRank:
    def test_rank_of_top_in_bn(self):
        for n in (1, 2, 3, 4):
            bn = subset_lattice(n)
            assert bn.is_graded()
            assert bn.ranks()[bn.top] == n
            assert bn.ranks() == tuple(x.bit_count() for x in range(bn.n))

    def test_graded_flags(self):
        assert subset_lattice(3).is_graded()
        assert not pentagon_n5().is_graded()

    def test_maximal_chains_of_b3(self):
        assert len(maximal_chains(subset_lattice(3))) == 6

    def test_boolean_maximal_chains_have_equal_length(self):
        b4 = subset_lattice(4)
        lengths = {len(c) for c in maximal_chains(b4)}
        assert lengths == {5}


@st.composite
def closure_lattices(draw):
    """The lattice of a random family of subsets of a k-set closed under intersection, the k-set included.

    Meets are intersections and joins the least member over a union, so
    the family is a lattice; ids run by size and then by value, a linear
    extension of inclusion.  The order goes through `build_lattice`, which
    validates it densely.
    """
    k = draw(st.integers(1, 5))
    family = {(1 << k) - 1} | set(draw(st.lists(st.integers(0, (1 << k) - 1), min_size=k, max_size=12)))
    while True:
        closed = family | {a & b for a in family for b in family}
        if closed == family:
            break
        family = closed
    sets = sorted(family, key=lambda s: (s.bit_count(), s))
    return build_lattice([[a & ~b == 0 for b in sets] for a in sets])


def assert_up_sets_transpose_down_sets(lattice):
    """up[x] holds exactly the y whose down-set holds x."""
    down = lattice._down
    assert list(lattice._up) == [sum(1 << y for y in range(lattice.n) if down[y] >> x & 1) for x in range(lattice.n)]


class TestUpSets:
    """The up-sets pushed down the lower covers, against the down-sets."""

    @settings(max_examples=60, deadline=None)
    @given(closure_lattices())
    def test_random_lattices(self, lattice):
        assert_up_sets_transpose_down_sets(lattice)

    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_scan_lattices(self, name):
        assert_up_sets_transpose_down_sets(cat.catalog_interval(name).lattice)


def assert_boolean_elements_match_the_test(lattice):
    """On every comparable pair, `boolean_elements` returns exactly when `is_boolean_interval` holds; the count of those pairs.

    Its list is indexed by atom bitmask: entry s is the join of lo with the
    atoms of [lo, hi] whose positions, in ascending id, are the bits of s,
    and the entries are the members of [lo, hi].  The walk
    `boolean_intervals` yields exactly those pairs with lo < hi, in order,
    with the same lists.
    """
    boolean = 0
    walk = []
    for lo in range(lattice.n):
        for hi in lat.bits(lattice._up[lo]):
            if not lat.is_boolean_interval(lattice, lo, hi):
                with pytest.raises(NotBoolean):
                    lat.boolean_elements(lattice, lo, hi)
                continue
            ats = [a for a in lat.upper_covers(lattice, lo) if lattice._down[hi] >> a & 1]
            expected = [
                reduce(lattice.join, (a for i, a in enumerate(ats) if s >> i & 1), lo)
                for s in range(1 << len(ats))
            ]
            assert lat.boolean_elements(lattice, lo, hi) == expected, (lo, hi)
            assert sorted(expected) == members_between(lattice, lo, hi), (lo, hi)
            boolean += 1
            if lo < hi:
                walk.append((lo, hi, expected))
    assert list(lat.boolean_intervals(lattice)) == walk
    return boolean


def assert_four_member_intervals_match_dense_reference(lattice):
    """Every four-member [lo, hi] against the dense tables; the count of the boolean ones.

    Such an interval is boolean exactly when the complement scan says so,
    and then `boolean_elements`, which forms no join for it, gives lo, its
    two covers in [lo, hi] by ascending id, and hi, their join in the dense
    table.
    """
    ref = dense(lattice)
    squares = 0
    for lo in range(lattice.n):
        for hi in members_between(lattice, lo, lattice.top):
            if len(members_between(lattice, lo, hi)) != 4:
                continue
            boolean = reference_is_boolean(dense_slice(ref, lo, hi))
            assert lat.is_boolean_interval(lattice, lo, hi) == boolean, (lo, hi)
            if boolean:
                k, ell = [x for x in np.flatnonzero(ref.covers[lo]).tolist() if ref.leq[x, hi]]
                assert ref.join[k, ell] == hi
                assert lat.boolean_elements(lattice, lo, hi) == [lo, k, ell, hi], (lo, hi)
                squares += 1
    return squares


class TestBooleanPairs:
    def test_ids_outside_the_lattice_are_refused(self):
        # a negative id used to index the up-sets from the end: [-1, top] passed as a boolean point
        lattice = cat.catalog_interval("s3").lattice
        top, n = lattice.top, lattice.n
        for a, b in [(-1, top), (top, -1), (0, -1), (-1, -1), (0, n), (n, n)]:
            with pytest.raises(NotComparable):
                lat.is_boolean_interval(lattice, a, b)
            with pytest.raises(NotComparable):
                lat.boolean_elements(lattice, a, b)

    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_scan_lattices(self, name):
        lattice = cat.catalog_interval(name).lattice
        assert assert_boolean_elements_match_the_test(lattice) >= lattice.n

    @pytest.mark.parametrize("name", cat.SCAN_GROUP_NAMES)
    def test_four_member_intervals_of_scan_lattices(self, name):
        assert_four_member_intervals_match_dense_reference(cat.catalog_interval(name).lattice)

    def test_four_member_squares_and_chains(self):
        assert assert_four_member_intervals_match_dense_reference(subset_lattice(3)) == 6
        assert assert_four_member_intervals_match_dense_reference(chain(4)) == 0

    @settings(max_examples=60, deadline=None)
    @given(closure_lattices())
    def test_random_lattices(self, lattice):
        assert_boolean_pairs_match_dense_reference(lattice)

    @SMALL_LATTICES
    def test_small_lattices(self, lattice):
        assert_boolean_pairs_match_dense_reference(lattice)


def assert_boolean_pairs_match_dense_reference(lattice):
    """`assert_boolean_elements_match_the_test`, the four-member intervals, and the boolean [lo, hi] are those of the complement scan."""
    assert_boolean_elements_match_the_test(lattice)
    assert_four_member_intervals_match_dense_reference(lattice)
    ref = dense(lattice)
    for lo in range(lattice.n):
        comparable = members_between(lattice, lo, lattice.top)
        found = {hi for hi in comparable if lat.is_boolean_interval(lattice, lo, hi)}
        assert found == {hi for hi in comparable if reference_is_boolean(dense_slice(ref, lo, hi))}, lo
