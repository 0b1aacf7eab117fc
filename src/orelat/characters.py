"""Exact conjugacy classes, character tables and linear-primitivity decisions.

Tables are computed by splitting the common eigenvectors of the class-sum
multiplication matrices.  The linear algebra is numeric, but every quantity
consumed downstream (degrees, fixed-space dimensions, orthogonality sums)
must pass an exact-integer validation gate; the table is rejected otherwise.
Splitting is deterministically seeded so runs are reproducible.

Each per-group step works on whole rows: the class matrices are one
`bincount` over the group's products with the class representatives, the
eigenvectors are normalized to characters as one array, and their sort
keys are rounded by numpy a row at a time.  A table caches, per subgroup,
the sum of every character over it (one matrix-vector product), which is
all `fixed_dim` reads.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from . import lattice as lat
from .errors import NotAnInteger, ValidationFailed
from .intervals import GroupInterval, _ambient
from .perm import FiniteGroup

TOLERANCE = 1e-6


class ConjugacyClasses:
    """Partition of a group into conjugation orbits, identity class first."""

    __slots__ = ("group", "classes", "representatives", "sizes", "class_of")

    def __init__(self, group: FiniteGroup, classes: Sequence, class_of: Sequence[int]):
        self.group = group
        self.classes = tuple(tuple(c) for c in classes)
        self.representatives = tuple(c[0] for c in self.classes)
        self.sizes = tuple(len(c) for c in self.classes)
        self.class_of = tuple(class_of)

    def __len__(self) -> int:
        return len(self.classes)


def conjugacy_classes(group: FiniteGroup) -> ConjugacyClasses:
    """Conjugation orbits over element indices, ordered by first representative.

    An orbit is closed under conjugation by the group's generators only,
    which generate every conjugation.
    """
    amb = _ambient(group)
    n = amb.n
    mul, inv, gens = amb.mul, amb.inv, amb.gens
    class_of = [-1] * n
    classes = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        orbit = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for g in gens:
                z = mul[mul[g][y]][inv[g]]
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

    __slots__ = ("group", "classes", "values", "degrees", "_sums")

    def __init__(self, group: FiniteGroup, classes: ConjugacyClasses, values: np.ndarray, degrees: Sequence[int]):
        self.group = group
        self.classes = classes
        values.flags.writeable = False
        self.values = values
        self.degrees = tuple(int(d) for d in degrees)
        self._sums: dict = {}

    def __len__(self) -> int:
        return len(self.degrees)

    def _subgroup_sums(self, sub: FiniteGroup) -> list:
        """Sum over the subgroup of every irreducible character, by row; cached per subgroup, checked on a miss.

        The subgroup's elements are counted per conjugacy class, and one
        matrix-vector product sums every row at once.
        """
        sums = self._sums.get(sub)
        if sums is None:
            counts = [0] * len(self.classes)
            for c in map(self.classes.class_of.__getitem__, lat.bits(_ambient(self.group).subgroup_mask(sub))):
                counts[c] += 1
            sums = self._sums[sub] = (self.values @ np.array(counts, dtype=np.float64)).tolist()
        return sums

    def __repr__(self) -> str:
        return f"CharacterTable(|G|={self.group.order}, degrees={self.degrees})"


def _class_matrices(classes: ConjugacyClasses, amb) -> list:
    """Matrices A_i with (A_i)[j, k] = #{x in C_i : x^-1 z_k in C_j}.

    Every x in G is read once, at the class representatives z_k of its
    inverse's row, and all r matrices are counted by one `bincount` over
    the flat keys (i·r + j)·r + k.
    """
    mul, inv = amb.mul, amb.inv
    r = len(classes)
    reps = classes.representatives
    # itemgetter of a single index returns a scalar, not a tuple
    at_reps = itemgetter(*reps) if r > 1 else (lambda row, z=reps[0]: (row[z],))
    class_of = np.array(classes.class_of)
    products = np.array(list(map(at_reps, map(mul.__getitem__, inv))))  # x^-1·z_k, by x and k
    keys = (class_of[:, None] * r + class_of[products]) * r + np.arange(r)
    return list(np.bincount(keys.ravel(), minlength=r ** 3).reshape(r, r, r))


def character_table(group: FiniteGroup) -> CharacterTable:
    """Burnside-style table from common eigenvectors of the class matrices.

    The eigenvectors come from one random combination of the class matrices,
    drawn from a generator seeded with 0; a degenerate combination fails
    validation and the next of 12 draws is tried.
    """
    classes = conjugacy_classes(group)
    amb = _ambient(group)
    r = len(classes)
    mats = _class_matrices(classes, amb)
    sizes = np.array(classes.sizes, dtype=np.float64)
    order = group.order
    rng = np.random.default_rng(0)
    last_error: Optional[str] = None
    for _ in range(12):
        coeffs = rng.normal(size=r)
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


def fixed_dim(table: CharacterTable, row: int, sub: FiniteGroup) -> int:
    """dim V^K = (1/|K|) sum over K of chi, validated to a nonnegative integer."""
    value = table._subgroup_sums(sub)[row] / sub.order
    if abs(value.imag) > TOLERANCE:
        raise NotAnInteger(f"fixed dimension has imaginary part {value.imag}")
    nearest = round(value.real)
    if abs(value.real - nearest) > TOLERANCE or nearest < 0:
        raise NotAnInteger(f"fixed dimension {value.real} is not a nonnegative integer")
    return int(nearest)


def index_identity_holds(table: CharacterTable, sub: FiniteGroup) -> bool:
    """|G:H| == sum of deg_i * dim V_i^H, exactly."""
    total = sum(
        table.degrees[i] * fixed_dim(table, i, sub) for i in range(len(table))
    )
    return total == table.group.order // sub.order


def is_linearly_primitive(interval: GroupInterval, table: Optional[CharacterTable] = None):
    """Decide whether some irreducible has pointwise stabilizer exactly the base (`linear_witness`)."""
    if table is None:
        table = character_table(interval.ambient)
    atoms = [interval.members[a] for a in lat.atoms(interval.lattice)]
    return linear_witness(table, interval.base, atoms)


def linear_witness(table: CharacterTable, base: FiniteGroup, overgroups: Sequence[FiniteGroup]):
    """(verdict, witness_row) for a base H and its minimal overgroups; the row is None when not primitive.

    A row is a witness iff every minimal overgroup strictly drops dim V^H.
    """
    for row in range(len(table)):
        base_dim = fixed_dim(table, row, base)
        if base_dim == 0 and overgroups:
            continue
        if all(fixed_dim(table, row, k) < base_dim for k in overgroups):
            return True, row
    return False, None
