"""Exact conjugacy classes, character tables and linear-primitivity decisions.

Tables are computed by splitting the common eigenvectors of the class-sum
multiplication matrices.  The linear algebra is numeric, but every quantity
consumed downstream (degrees, fixed-space dimensions, orthogonality sums)
must pass an exact-integer validation gate; the table is rejected otherwise.
Splitting is deterministically seeded so runs are reproducible.

Each per-group step works on whole rows: the class matrices are one
`bincount` over the group's products with the class representatives, the
eigenvectors are normalized to characters as one array, and their sort
keys are rounded by numpy a row at a time.

A subgroup is the bitset of its element ids in the group's `_Ambient`, as
an interval's `masks` hold it, and so is each conjugacy class.  The
dimensions dim V^K for many bitsets K are one validated integer matrix
(`_fixed_dims`), built in one product of per-class popcounts with the
table and kept per bitset; `linear_witness` and `index_identity_holds`
read it, and a whole-lattice scan asks for it once over every member.  `index_identity_holds` is the one entry point that
takes a `FiniteGroup` and turns it into a bitset.
"""

from __future__ import annotations

import operator
import random
from typing import Optional, Sequence

import numpy as np

from . import lattice as lat
from .errors import InvalidParameters, NotAnInteger, ValidationFailed
from .intervals import GroupInterval, _ambient, _closed
from .perm import FiniteGroup

TOLERANCE = 1e-6


class ConjugacyClasses:
    """Partition of a group into conjugation orbits, identity class first."""

    __slots__ = ("group", "classes", "representatives", "sizes", "class_of", "masks")

    def __init__(self, group: FiniteGroup, classes: Sequence, class_of: Sequence[int]):
        self.group = group
        self.classes = tuple(tuple(c) for c in classes)
        self.representatives = tuple(c[0] for c in self.classes)
        self.sizes = tuple(len(c) for c in self.classes)
        self.class_of = tuple(class_of)
        # each class as a bitset over element ids, as subgroups are held
        self.masks = tuple(sum(1 << x for x in c) for c in self.classes)

    def __len__(self) -> int:
        return len(self.classes)


def conjugacy_classes(group: FiniteGroup) -> ConjugacyClasses:
    """Conjugation orbits over element indices, ordered by first representative.

    An orbit is closed under conjugation by the group's generators only,
    which generate every conjugation; each generator's table y -> g·y·g⁻¹
    is the one `_Ambient.conjugation` builds and keeps.
    """
    amb = _ambient(group)
    n = amb.n
    tables = [amb.conjugation(g) for g in amb.gens]
    class_of = [-1] * n
    classes = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        orbit = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for table in tables:
                z = table[y]
                if z not in orbit:
                    orbit.add(z)
                    stack.append(z)
        cid = len(classes)
        members = sorted(orbit)
        classes.append(members)
        for y in members:
            class_of[y] = cid
    assert sum(len(c) for c in classes) == n
    assert classes[0] == [amb.identity] and len(classes[0]) == 1
    return ConjugacyClasses(group, classes, class_of)


class CharacterTable:
    """Irreducible character values per conjugacy class, rows sorted by degree."""

    __slots__ = ("group", "classes", "values", "degrees", "_dims")

    def __init__(self, group: FiniteGroup, classes: ConjugacyClasses, values: np.ndarray, degrees: Sequence[int]):
        self.group = group
        self.classes = classes
        values.flags.writeable = False
        self.values = values
        self.degrees = tuple(int(d) for d in degrees)
        self._dims: dict = {}  # subgroup bitset -> dim V^K of every row, validated ints

    def __len__(self) -> int:
        return len(self.degrees)

    def __repr__(self) -> str:
        return f"CharacterTable(|G|={self.group.order}, degrees={self.degrees})"


def _class_matrices(classes: ConjugacyClasses, amb) -> list:
    """Matrices A_i with (A_i)[j, k] = #{x in C_i : x^-1 z_k in C_j}.

    The products x^-1·z_k, for every x in G and class representative z_k,
    are one gather from the table as an (n, n) array (`_Ambient.array`).
    All r matrices are counted by one `bincount` over the flat keys
    (i·r + j)·r + k.
    """
    r = len(classes)
    class_of = np.array(classes.class_of)
    products = amb.array()[np.ix_(amb.inv, classes.representatives)]  # x^-1·z_k, by x and k
    keys = (class_of[:, None] * r + class_of[products]) * r + np.arange(r)
    return list(np.bincount(keys.ravel(), minlength=r ** 3).reshape(r, r, r))


def character_table(group: FiniteGroup) -> CharacterTable:
    """Burnside-style table from common eigenvectors of the class matrices.

    The eigenvectors come from one random combination of the class matrices,
    drawn by `random.Random(0).gauss` (numpy's generator would load
    `numpy.random`, several MB); a degenerate combination fails validation
    and the next of 12 draws is tried.
    """
    classes = conjugacy_classes(group)
    amb = _ambient(group)
    r = len(classes)
    mats = _class_matrices(classes, amb)
    sizes = np.array(classes.sizes, dtype=np.float64)
    order = group.order
    rng = random.Random(0)
    last_error: Optional[str] = None
    for _ in range(12):
        coeffs = [rng.gauss(0.0, 1.0) for _ in range(r)]
        combo = sum(c * m for c, m in zip(coeffs, mats)).astype(np.complex128)
        _, vecs = np.linalg.eig(combo)
        try:
            table = _table_from_eigenvectors(group, classes, vecs, sizes, order)
        except ValidationFailed as exc:
            last_error = str(exc)
            continue
        return table
    raise ValidationFailed(
        f"character table of a group of order {order} failed validation: {last_error}"
    )


def _table_from_eigenvectors(group, classes, vecs, sizes, order) -> CharacterTable:
    """Normalize every eigenvector column to a character at once; validate degrees and orthogonality."""
    r = len(classes)
    if np.min(np.abs(vecs[0])) < 1e-9:
        raise ValidationFailed("eigenvector vanishes at the identity class")
    omega = (vecs / vecs[0]).T  # one row per eigenvector, 1 at the identity class
    denom = np.sum(np.abs(omega) ** 2 / sizes, axis=1).real
    if np.min(denom) <= 0:
        raise ValidationFailed("nonpositive norm in degree computation")
    deg = (order / denom) ** 0.5
    deg_int = np.rint(deg)
    bad = (np.abs(deg - deg_int) > TOLERANCE) | (deg_int < 1)
    if bad.any():
        raise ValidationFailed(f"degree {deg[bad.argmax()]} is not a positive integer")
    degrees = deg_int.astype(np.int64).tolist()
    if sum(d * d for d in degrees) != order:
        raise ValidationFailed("sum of squared degrees does not match the group order")
    chi = deg_int[:, None] * omega / sizes
    keys = _row_sort_keys(chi)
    rows = sorted(range(r), key=lambda j: (degrees[j], keys[j]))
    degrees = [degrees[j] for j in rows]
    values = chi[rows]
    weights = sizes / order
    gram = (values * weights) @ values.conj().T
    if np.max(np.abs(gram - np.eye(r))) > TOLERANCE:
        raise ValidationFailed("row orthogonality failed")
    col = values.conj().T @ values
    expected = np.diag(order / sizes)
    if np.max(np.abs(col - expected)) > TOLERANCE:
        raise ValidationFailed("column orthogonality failed")
    return CharacterTable(group, classes, values, degrees)


def _row_sort_keys(chi: np.ndarray) -> list:
    """Per row, its (real, imaginary) pairs rounded to 6 decimals by numpy, as Python floats."""
    return [tuple(zip(re, im)) for re, im in zip(np.round(chi.real, 6).tolist(), np.round(chi.imag, 6).tolist())]


def _fixed_dims(table: CharacterTable, masks: Sequence[int]) -> list:
    """dim V^K = (1/|K|) sum of chi over K, by row, for each subgroup bitset K of `masks`; kept per table.

    The bitsets not yet kept are counted per class, one popcount of each
    meet with a class bitset, and one product with the table sums every
    character over each.  Divided by |K|, every value must pass the gate to
    a nonnegative integer, or NotAnInteger is raised and nothing is kept.
    """
    dims = table._dims
    new = [m for m in masks if m not in dims]
    if new:
        classes = table.classes.masks
        counts = np.array([[(m & c).bit_count() for c in classes] for m in new], np.float64)
        values = (counts @ table.values.T) / np.array([m.bit_count() for m in new], np.float64)[:, None]
        nearest = np.rint(values.real)
        bad = np.abs(values.imag) > TOLERANCE
        if bad.any():
            raise NotAnInteger(f"fixed dimension has imaginary part {values.imag[bad][0]}")
        bad = (np.abs(values.real - nearest) > TOLERANCE) | (nearest < 0)
        if bad.any():
            raise NotAnInteger(f"fixed dimension {values.real[bad][0]} is not a nonnegative integer")
        dims.update(zip(new, nearest.astype(np.int64).tolist()))
    return [dims[m] for m in masks]


def index_identity_holds(table: CharacterTable, sub: FiniteGroup) -> bool:
    """|G:H| == sum of deg_i * dim V_i^H, exactly; NotASubgroup when H has elements outside G or is not closed."""
    amb = _ambient(table.group)
    (dims,) = _fixed_dims(table, (_closed(amb, amb.subgroup_mask(sub)).mask,))
    return sum(map(operator.mul, table.degrees, dims)) == table.group.order // sub.order


def is_linearly_primitive(interval: GroupInterval, table: CharacterTable):
    """Decide whether some irreducible has pointwise stabilizer exactly the base (`linear_witness`).

    `table` must be of the interval's ambient group, whose element ids the
    member bitsets use.
    """
    if table.group != interval.ambient:
        raise InvalidParameters("the character table is not of the interval's ambient group")
    masks = interval.masks
    return linear_witness(table, masks[0], [masks[a] for a in lat.atoms(interval.lattice)])


def linear_witness(table: CharacterTable, base: int, overgroups: Sequence[int]):
    """(verdict, witness_row) for a base H and its minimal overgroups, as subgroup bitsets; the row is None when not primitive.

    A row is a witness iff every minimal overgroup strictly drops dim V^H.
    """
    base_dims, *over = _fixed_dims(table, (base, *overgroups))
    for row, base_dim in enumerate(base_dims):
        if base_dim == 0 and over:
            continue
        if all(dims[row] < base_dim for dims in over):
            return True, row
    return False, None
