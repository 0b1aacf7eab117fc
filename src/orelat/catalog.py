"""Built-in groups and named intervals used by the verification suites.

The catalog is an artifact choice: cyclic and dihedral groups, symmetric and
alternating groups through degree 5, a few direct products, the order-168
projective group on 8 points, and the wreath-like products S2 x S3^n whose
base interval realizes the conjectured lower bound.  Everything is cached;
construction is deterministic.
"""

from __future__ import annotations

from functools import lru_cache
from .errors import ParseError
from .perm import FiniteGroup, Permutation, generate, subgroup_generated, trivial_group
from .intervals import GroupInterval, full_subgroup_lattice, overgroup_interval


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


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Product acting on the disjoint union of the two point sets."""
    d = a.degree + b.degree
    gens = [Permutation(list(g.images) + list(range(a.degree, d))) for g in a.generators or a.elements]
    gens += [
        Permutation(list(range(a.degree)) + [x + a.degree for x in g.images])
        for g in b.generators or b.elements
    ]
    return generate(d, gens)


def klein_four() -> FiniteGroup:
    return generate(4, [Permutation([1, 0, 2, 3]), Permutation([0, 1, 3, 2])])


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def psl2_7_d8() -> FiniteGroup:
    """A Sylow-2 subgroup (dihedral of order 8) of the order-168 group."""
    group = psl2_7()
    u = next(g for g in group.elements if g.order() == 4)
    powers = {u, u * u, u * u * u}
    u_inv = u.inverse()
    t = next(
        g for g in group.elements
        if g.order() == 2 and g * u * g.inverse() == u_inv and g not in powers
    )
    sub = subgroup_generated(group, [u, t])
    assert sub.order == 8
    return sub


@lru_cache(maxsize=None)
def psl2_7_s3() -> FiniteGroup:
    """A nonabelian order-6 subgroup of the order-168 group."""
    group = psl2_7()
    a = next(g for g in group.elements if g.order() == 3)
    a_inv = a.inverse()
    b = next(g for g in group.elements if g.order() == 2 and g * a * g.inverse() == a_inv)
    sub = subgroup_generated(group, [a, b])
    assert sub.order == 6
    return sub


@lru_cache(maxsize=None)
def s2_s3n(n: int) -> FiniteGroup:
    """The product S2 x S3^n on 2 + 3n points."""
    group = symmetric(2)
    for _ in range(n):
        group = direct_product(group, symmetric(3))
    return group


@lru_cache(maxsize=None)
def s2_s3n_base(n: int) -> FiniteGroup:
    """The subgroup 1 x S2^n: one transposition inside each S3 factor."""
    group = s2_s3n(n)
    gens = []
    for i in range(n):
        lo = 2 + 3 * i
        images = list(range(group.degree))
        images[lo], images[lo + 1] = images[lo + 1], images[lo]
        gens.append(Permutation(images))
    return subgroup_generated(group, gens)


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
    "v4": klein_four,
    "d4": lambda: dihedral(4),
    "d5": lambda: dihedral(5),
    "d6": lambda: dihedral(6),
    "s3": lambda: symmetric(3),
    "s4": lambda: symmetric(4),
    "s5": lambda: symmetric(5),
    "a4": lambda: alternating(4),
    "a5": lambda: alternating(5),
    "s3xs3": lambda: direct_product(symmetric(3), symmetric(3)),
    "s2xs3": lambda: s2_s3n(1),
    "s2xs3_2": lambda: s2_s3n(2),
    "s2xs3_3": lambda: s2_s3n(3),
    "psl2_7": psl2_7,
}

_INTERVALS = {
    "psl2_7/d8": lambda: (psl2_7(), psl2_7_d8()),
    "psl2_7/s3": lambda: (psl2_7(), psl2_7_s3()),
    "s2xs3_1/base": lambda: (s2_s3n(1), s2_s3n_base(1)),
    "s2xs3_2/base": lambda: (s2_s3n(2), s2_s3n_base(2)),
    "s2xs3_3/base": lambda: (s2_s3n(3), s2_s3n_base(3)),
    "s3/a3": lambda: (symmetric(3), subgroup_generated(symmetric(3), [Permutation([1, 2, 0])])),
}


def catalog_names() -> list:
    return sorted(_GROUPS)


def catalog_group(name: str) -> FiniteGroup:
    """The named group, built once per normalized name."""
    key = name.strip().lower()
    if key not in _GROUPS:
        raise ParseError(f"unknown catalog group {name!r}; known: {', '.join(catalog_names())}")
    return _named_group(key)


@lru_cache(maxsize=None)
def _named_group(key: str) -> FiniteGroup:
    return _GROUPS[key]()


def catalog_pair(name: str):
    """Resolve 'group' or 'group/subgroup' to an (ambient, base) pair."""
    key = name.strip().lower()
    if key in _INTERVALS:
        return _INTERVALS[key]()
    if "/" in key:
        amb_name, sub_name = key.split("/", 1)
        ambient = catalog_group(amb_name)
        if sub_name in ("1", "trivial"):
            return ambient, trivial_group(ambient.degree)
        if sub_name in _GROUPS:
            base = _named_group(sub_name)
            if base.degree == ambient.degree and base <= ambient:
                return ambient, base
        raise ParseError(f"unknown catalog interval {name!r}")
    group = catalog_group(key)
    return group, trivial_group(group.degree)


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


@lru_cache(maxsize=None)
def scan_groups(max_order: int = 200) -> tuple:
    """(name, group) pairs used by whole-catalog scans, order-capped."""
    pairs = []
    for name in SCAN_GROUP_NAMES:
        group = catalog_group(name)
        if group.order <= max_order:
            pairs.append((name, group))
    return tuple(pairs)


def rank2_scan_groups() -> tuple:
    return scan_groups(200)


@lru_cache(maxsize=None)
def cached_full_lattice(name: str) -> GroupInterval:
    return full_subgroup_lattice(catalog_group(name))
