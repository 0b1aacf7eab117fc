"""Exact permutation-group arithmetic at desk scale.

Groups are stored with their full element sets (every target here has small
order), so subgroup equality is plain set equality.  Points are 0-based;
cycle notation is accepted only at the I/O boundary
(`Permutation.from_cycles`).  This module builds groups; subgroup
arithmetic (intersections, joins, cores) runs on bitsets over the ambient
multiplication table in `intervals`.  A group is closed on plain image
tuples by Dimino's method, whole right cosets at a time: one `itemgetter`
call per element and one membership test per coset.  A closed group keeps
the frozenset of those tuples, which `order`, `in`, `==`, `<=` and `hash`
read; the tuples are sorted on the first read of the sorted images (the
ambient table's element ids) or of `elements`, and wrapped as
`Permutation`s only when `elements` is first read.
"""

from __future__ import annotations

import math
import operator
import re
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

from .errors import CapExceeded, DegreeMismatch, ElementOutsideGroup, InvalidParameters, ParseError

DEFAULT_CAP = 100_000

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A bijection on {0, ..., degree-1}, stored as its tuple of images."""

    __slots__ = ("images",)

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
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.to_cycles(one_based=False)!r} deg={self.degree})"


class FiniteGroup:
    """A permutation group given by its full element set.

    A group keeps its elements as image tuples: a frozenset, read by
    `order`, `in`, `==`, `<=` and `hash`, and the same tuples sorted, from
    which `elements` wraps each as a `Permutation` on its first read.  The
    constructor sorts the elements and refuses a generator or element of
    another degree (DegreeMismatch) and a repeat (InvalidParameters);
    `_trusted` takes the images as a frozenset, or as a tuple sorted and free
    of repeats, checks nothing, and builds the other form on first need.
    """

    __slots__ = ("degree", "generators", "order", "_set", "_sorted", "_elements")

    def __init__(self, degree: int, generators: Sequence[Permutation], elements: Iterable[Permutation]):
        self.degree = degree
        self.generators = tuple(generators)
        _require_degree(degree, "generator", self.generators)
        self._elements = tuple(sorted(elements, key=attrgetter("images")))
        _require_degree(degree, "element", self._elements)
        self._sorted = tuple(p.images for p in self._elements)
        self.order = len(self._sorted)
        self._set = frozenset(self._sorted)
        if len(self._set) != self.order:
            raise InvalidParameters(f"the group's elements repeat: {self.order} given, {len(self._set)} distinct")

    @classmethod
    def _trusted(cls, degree: int, generators: Sequence[Permutation], images) -> "FiniteGroup":
        """The group of `images`, a frozenset of image tuples or a tuple of them sorted and distinct, taken as is."""
        group = cls.__new__(cls)
        group.degree = degree
        group.generators = tuple(generators)
        group.order = len(images)
        group._set, group._sorted = (images, None) if isinstance(images, frozenset) else (None, images)
        group._elements = None
        return group

    @property
    def _element_set(self) -> frozenset:
        if self._set is None:
            self._set = frozenset(self._sorted)
        return self._set

    @property
    def _sorted_images(self) -> tuple:
        """The elements' image tuples in ascending order, sorted on first read."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._set))
        return self._sorted

    @property
    def elements(self) -> tuple:
        """The elements as `Permutation`s sorted by images, wrapped on first read."""
        if self._elements is None:
            self._elements = tuple(map(Permutation._trusted, self._sorted_images))
        return self._elements

    def __contains__(self, perm: Permutation) -> bool:
        return isinstance(perm, Permutation) and perm.images in self._element_set

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


def _require_degree(degree: int, kind: str, perms: Iterable[Permutation]) -> None:
    """DegreeMismatch naming the first of `perms` whose degree is not `degree`."""
    for p in perms:
        if p.degree != degree:
            raise DegreeMismatch(f"{kind} of degree {p.degree} in a degree-{degree} group")


def _picker(keys: Sequence[int]):
    """`itemgetter(*keys)`, but a tuple for any number of keys, on tuples, bytes and memoryviews alike."""
    if len(keys) > 1:
        return itemgetter(*keys)
    if keys:
        key = keys[0]
        return lambda row: (row[key],)  # itemgetter(key) would return the bare item
    return lambda row: ()


def _element_order(images: tuple) -> int:
    """The order of the permutation with these images: the lcm of its cycle lengths."""
    order, seen = 1, bytearray(len(images))
    for start in range(len(images)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = 1
            x = images[x]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def _closure(degree: int, generators: Sequence[Permutation], cap: int) -> frozenset:
    """The image tuples of every product of the generators, by Dimino's method, neither sorted nor wrapped.

    Adding g to the group H closes H ∪ Hg under right multiplication by
    every generator so far; Ht·s = H(t·s), so the set stays a union of right
    cosets of H, each tested once by its representative t and entered whole
    (h·t reads h at t's images, one `itemgetter` call per element).  The
    generators are taken by descending element order, which leaves the
    fewest cosets to the last ones: S8 from its 8-cycle walks 5,040 cosets
    of eight where its transposition would walk 20,160 of two.  The identity
    counts against `cap`, and a coset that would pass it is never built.
    """
    if cap < 1:
        raise CapExceeded(f"group closure exceeded cap of {cap} elements")
    ident = tuple(range(degree))
    elements = [ident]
    members = {ident}
    times: list = []
    for g in sorted(generators, key=lambda g: _element_order(g.images), reverse=True):
        if g.images in members:
            continue
        times.append(_picker(g.images))  # x -> x·g
        previous = elements[:]
        reps = [ident]
        for r in reps:  # grows while it is read
            for s in times:
                t = s(r)
                if t not in members:
                    if len(elements) + len(previous) > cap:
                        raise CapExceeded(f"group closure exceeded cap of {cap} elements")
                    coset = list(map(_picker(t), previous))
                    elements += coset
                    members.update(coset)
                    reps.append(t)
    return frozenset(members)


def generate(degree: int, generators: Sequence[Permutation], cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Close a generating set into a full group; its generators keep the order given."""
    gens = list(generators)
    _require_degree(degree, "generator", gens)
    return FiniteGroup._trusted(degree, gens, _closure(degree, gens, cap))


def subgroup_generated(group: FiniteGroup, seed: Sequence[Permutation], cap: int = DEFAULT_CAP) -> FiniteGroup:
    """The subgroup of `group` generated by `seed` elements."""
    for s in seed:
        if s not in group:
            raise ElementOutsideGroup(f"seed element {s} lies outside the group")
    return FiniteGroup._trusted(group.degree, list(seed), _closure(group.degree, list(seed), cap))


def trivial_group(degree: int) -> FiniteGroup:
    return FiniteGroup._trusted(degree, (), (tuple(range(degree)),))
