"""Built-in groups and named intervals used by the verification suites.

The catalog is an artifact choice: cyclic and dihedral groups, symmetric and
alternating groups through degree 5, a few direct products, the order-168
projective group on 8 points, and the products S2 x S3^n.  Each product is
one `direct_product` call over the catalog's own factor groups.  A
named interval is one row of `_INTERVALS`: the name of its group and the
pinned generators of its base, as with the D8 and the S3 inside the
order-168 group and the base of S2 x S3^n, whose interval realizes the
conjectured lower bound.  One cache, keyed by the normalized name, builds
each group and each pair once; the intervals are memoized with their
multiplication table in `intervals`, so `catalog_interval` returns the same
object on every call.  Construction is deterministic.
"""

from __future__ import annotations

from functools import lru_cache
from .errors import ParseError
from .perm import FiniteGroup, Permutation, generate, subgroup_generated, trivial_group
from .intervals import GroupInterval, overgroup_interval


def cyclic(n: int) -> FiniteGroup:
    if n == 1:
        return trivial_group(1)
    return generate(n, [Permutation([(i + 1) % n for i in range(n)])])


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n acting on n points, n >= 3."""
    rot = Permutation([(i + 1) % n for i in range(n)])
    flip = Permutation([(n - i) % n for i in range(n)])
    return generate(n, [rot, flip])


def symmetric(n: int) -> FiniteGroup:
    if n == 1:
        return trivial_group(1)
    gens = [Permutation([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(Permutation([(i + 1) % n for i in range(n)]))
    return generate(n, gens)


def alternating(n: int) -> FiniteGroup:
    if n <= 2:
        return trivial_group(n)
    three = Permutation([1, 2, 0] + list(range(3, n)))
    if n == 3:
        return generate(n, [three])
    if n % 2 == 1:
        big = Permutation([(i + 1) % n for i in range(n)])
    else:
        big = Permutation([0] + [1 + (i % (n - 1)) for i in range(1, n)])
    return generate(n, [three, big])


def direct_product(*factors: FiniteGroup) -> FiniteGroup:
    """Product on the disjoint union of the factors' point sets, closed once.

    Each factor's generators, or its elements if it has none, move onto its block of points.
    """
    degree, start, gens = sum(f.degree for f in factors), 0, []
    for f in factors:
        head, tail = list(range(start)), list(range(start + f.degree, degree))
        gens += [Permutation(head + [x + start for x in g.images] + tail) for g in f.generators or f.elements]
        start += f.degree
    return generate(degree, gens)


def psl2_7() -> FiniteGroup:
    """Order-168 simple group: Moebius maps z -> z+1 and z -> -1/z on P1(F7).

    Point 7 plays the role of infinity; the order matches (7^3 - 7)/2.
    """
    shift = Permutation([1, 2, 3, 4, 5, 6, 0, 7])

    def neg_inv(z: int) -> int:
        if z == 7:
            return 0
        if z == 0:
            return 7
        return (-pow(z, -1, 7)) % 7

    group = generate(8, [shift, Permutation([neg_inv(z) for z in range(8)])])
    assert group.order == (7 ** 3 - 7) // 2
    return group


_GROUPS = {
    "trivial": lambda: trivial_group(1),
    "z2": lambda: cyclic(2),
    "z3": lambda: cyclic(3),
    "z4": lambda: cyclic(4),
    "z5": lambda: cyclic(5),
    "z6": lambda: cyclic(6),
    "z7": lambda: cyclic(7),
    "z8": lambda: cyclic(8),
    "z9": lambda: cyclic(9),
    "z12": lambda: cyclic(12),
    "v4": lambda: direct_product(catalog_group("z2"), catalog_group("z2")),
    "d4": lambda: dihedral(4),
    "d5": lambda: dihedral(5),
    "d6": lambda: dihedral(6),
    "s3": lambda: symmetric(3),
    "s4": lambda: symmetric(4),
    "s5": lambda: symmetric(5),
    "a4": lambda: alternating(4),
    "a5": lambda: alternating(5),
    "s3xs3": lambda: direct_product(catalog_group("s3"), catalog_group("s3")),
    "s2xs3": lambda: direct_product(catalog_group("z2"), catalog_group("s3")),
    "s2xs3_2": lambda: direct_product(catalog_group("z2"), *[catalog_group("s3")] * 2),
    "s2xs3_3": lambda: direct_product(catalog_group("z2"), *[catalog_group("s3")] * 3),
    "psl2_7": psl2_7,
}

# Named intervals [H, G]: the name of G and the generators of H as 0-based cycles.
_INTERVALS = {
    # A Sylow 2-subgroup, dihedral of order 8: an element of order 4 and an involution inverting it.
    "psl2_7/d8": ("psl2_7", ("(0 1 2 7)(3 5 4 6)", "(0 3)(1 6)(2 4)(5 7)")),
    # A nonabelian subgroup of order 6: an element of order 3 and an involution inverting it.
    "psl2_7/s3": ("psl2_7", ("(2 6 7)(3 5 4)", "(0 1)(2 3)(4 6)(5 7)")),
    # The base 1 x S2^n of S2 x S3^n: one transposition inside each S3 factor.
    "s2xs3_1/base": ("s2xs3", ("(2 3)",)),
    "s2xs3_2/base": ("s2xs3_2", ("(2 3)", "(5 6)")),
    "s2xs3_3/base": ("s2xs3_3", ("(2 3)", "(5 6)", "(8 9)")),
    "s3/a3": ("s3", ("(0 1 2)",)),
}


def catalog_names() -> list:
    return sorted(_GROUPS)


def catalog_group(name: str) -> FiniteGroup:
    """The named group, built once per normalized name."""
    key = name.strip().lower()
    if key not in _GROUPS:
        raise ParseError(f"unknown catalog group {name!r}; known: {', '.join(catalog_names())}")
    return _resolve(key)[0]


def catalog_pair(name: str):
    """Resolve 'group' or 'group/subgroup' to an (ambient, base) pair."""
    pair = _resolve(name.strip().lower())
    if pair is None:
        raise ParseError(f"unknown catalog interval {name!r}")
    return pair


@lru_cache(maxsize=None)
def _resolve(key: str):
    """The (ambient, base) pair of a normalized name, or None for an unknown 'group/subgroup'.

    A group stands over its trivial subgroup; a 'group/subgroup' outside
    `_INTERVALS` takes a named group of the same degree, '1' or 'trivial'.
    """
    if key in _GROUPS:
        group = _GROUPS[key]()
        return group, trivial_group(group.degree)
    if key in _INTERVALS:
        group_name, cycles = _INTERVALS[key]
        group = catalog_group(group_name)
        gens = [Permutation.from_cycles(c, group.degree, one_based=False) for c in cycles]
        return group, subgroup_generated(group, gens)
    amb_name, _, sub_name = key.partition("/")
    ambient = catalog_group(amb_name)
    if sub_name in ("1", "trivial"):
        return _resolve(amb_name)
    if sub_name in _GROUPS:
        base = catalog_group(sub_name)
        if base.degree == ambient.degree and base <= ambient:
            return ambient, base
    return None


def catalog_interval(name: str) -> GroupInterval:
    ambient, base = catalog_pair(name)
    return overgroup_interval(ambient, base)


SCAN_GROUP_NAMES = (
    "z2", "z3", "z4", "z5", "z6", "z7", "z8", "z9", "z12",
    "v4", "d4", "d5", "d6",
    "s3", "a4", "s4", "a5", "s5",
    "s2xs3", "s3xs3", "s2xs3_2",
    "psl2_7",
)


def scan_groups(max_order: int = 200) -> tuple:
    """(name, group) pairs used by whole-catalog scans, order-capped."""
    pairs = []
    for name in SCAN_GROUP_NAMES:
        group = catalog_group(name)
        if group.order <= max_order:
            pairs.append((name, group))
    return tuple(pairs)
