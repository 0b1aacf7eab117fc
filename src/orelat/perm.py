"""Exact permutation-group arithmetic at desk scale.

Groups are stored with their full element sets (every target here has small
order), canonically sorted, so subgroup equality is plain set equality and
lattice deduplication is deterministic.  Points are 0-based; cycle notation
is accepted only at the I/O boundary (`Permutation.from_cycles`).  This
module builds groups; subgroup arithmetic (intersections, joins, cores) runs
on bitsets over the ambient multiplication table in `intervals`.  A group is
closed on plain image tuples, one `itemgetter` call per product, and its
elements become `Permutation` objects only once, at the end.
"""

from __future__ import annotations

import operator
import re
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

from .errors import CapExceeded, DegreeMismatch, ElementOutsideGroup, ParseError

DEFAULT_CAP = 100_000

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A bijection on {0, ..., degree-1}, stored as its tuple of images."""

    __slots__ = ("images", "_hash")

    def __init__(self, images: Sequence[int]):
        try:
            # operator.index refuses a float or a string, where int would truncate or parse it
            imgs = tuple(map(operator.index, images))
        except TypeError:
            raise ParseError("permutation images must be integers") from None
        n = len(imgs)
        if sorted(imgs) != list(range(n)):
            raise ParseError(f"images {imgs} are not a bijection on 0..{n - 1}")
        self.images = imgs
        self._hash = hash(imgs)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(x) = p(q(x))."""
        if len(self.images) != len(other.images):
            raise DegreeMismatch("cannot compose permutations of different degree")
        s = self.images
        return Permutation._trusted(tuple(s[x] for x in other.images))

    @staticmethod
    def _trusted(images: tuple) -> "Permutation":
        """Wrap an image tuple already known to be a bijection, without checking it."""
        p = Permutation.__new__(Permutation)
        p.images = images
        p._hash = hash(images)
        return p

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(range(degree))

    @staticmethod
    def from_cycles(text: str, degree: int, one_based: bool = True) -> "Permutation":
        """Parse whitespace-separated cycles like ``(1 2 3)(4 5)``.

        Entries may be separated by spaces or commas; 1-based by default,
        matching the notation groups are usually published in.
        """
        stripped = text.strip()
        if stripped in ("", "()"):
            return Permutation.identity(degree)
        if not re.fullmatch(r"(\s*\([^()]*\)\s*)+", stripped):
            raise ParseError(f"malformed cycle string: {text!r}")
        images = list(range(degree))
        offset = 1 if one_based else 0
        for body in _CYCLE_RE.findall(stripped):
            entries = [e for e in re.split(r"[\s,]+", body.strip()) if e]
            if not entries:
                continue
            try:
                points = [int(e) - offset for e in entries]
            except ValueError as exc:
                raise ParseError(f"non-integer entry in cycle {body!r}") from exc
            if any(p < 0 or p >= degree for p in points):
                raise ParseError(f"cycle {body!r} out of range for degree {degree}")
            if len(set(points)) != len(points):
                raise ParseError(f"repeated point in cycle {body!r}")
            for a, b in zip(points, points[1:] + points[:1]):
                if images[a] != a:
                    raise ParseError(f"point {a + offset} occurs in two cycles")
                images[a] = b
        return Permutation(images)

    def to_cycles(self, one_based: bool = True) -> str:
        """Render in cycle notation, fixed points omitted; ``()`` for identity."""
        offset = 1 if one_based else 0
        seen = [False] * self.degree
        parts = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            parts.append("(" + " ".join(str(p + offset) for p in cyc) + ")")
        return "".join(parts) if parts else "()"

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation({self.to_cycles(one_based=False)!r} deg={self.degree})"


class FiniteGroup:
    """A permutation group given by its full, lexicographically sorted element set."""

    __slots__ = ("degree", "generators", "elements", "order", "_element_set")

    def __init__(self, degree: int, generators: Sequence[Permutation], elements: Iterable[Permutation]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements, key=attrgetter("images")))
        self.order = len(self.elements)
        self._element_set = frozenset(self.elements)

    def __contains__(self, perm: Permutation) -> bool:
        return perm in self._element_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteGroup)
            and self.degree == other.degree
            and self._element_set == other._element_set
        )

    def __hash__(self) -> int:
        return hash((self.degree, self._element_set))

    def __le__(self, other: "FiniteGroup") -> bool:
        return self.degree == other.degree and self._element_set <= other._element_set

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree}, order={self.order})"

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)


def _picker(keys: Sequence[int]):
    """`itemgetter(*keys)`, but a tuple for any number of keys, on tuples, bytes and memoryviews alike."""
    if len(keys) > 1:
        return itemgetter(*keys)
    if keys:
        key = keys[0]
        return lambda row: (row[key],)  # itemgetter(key) would return the bare item
    return lambda row: ()


def _closure(degree: int, generators: Sequence[Permutation], cap: int) -> list:
    """Every product of the generators, closed breadth first on image tuples.

    Right multiplication by g reads x at g's images, one `itemgetter` call;
    a product of bijections is a bijection, so the tuples are wrapped
    without being checked again.
    """
    ident = tuple(range(degree))
    times = [_picker(g.images) for g in generators]
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in times:
                y = g(x)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
                    if len(elements) > cap:
                        raise CapExceeded(
                            f"group closure exceeded cap of {cap} elements"
                        )
        frontier = nxt
    return [Permutation._trusted(x) for x in elements]


def generate(degree: int, generators: Sequence[Permutation], cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Close a generating set into a full group, deterministically ordered."""
    gens = list(generators)
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatch(
                f"generator of degree {g.degree} in a degree-{degree} group"
            )
    return FiniteGroup(degree, gens, _closure(degree, gens, cap))


def subgroup_generated(group: FiniteGroup, seed: Sequence[Permutation], cap: int = DEFAULT_CAP) -> FiniteGroup:
    """The subgroup of `group` generated by `seed` elements."""
    for s in seed:
        if s not in group:
            raise ElementOutsideGroup(f"seed element {s} lies outside the group")
    return FiniteGroup(group.degree, list(seed), _closure(group.degree, list(seed), cap))


def trivial_group(degree: int) -> FiniteGroup:
    return FiniteGroup(degree, [], [Permutation.identity(degree)])
