"""Exact conjugacy classes, character tables and linear-primitivity decisions.

Tables are computed by splitting the common eigenvectors of the class-sum
multiplication matrices.  The linear algebra is numeric, but every quantity
consumed downstream (degrees, fixed-space dimensions, orthogonality sums)
must pass an exact-integer validation gate; the table is rejected otherwise.
Splitting is deterministically seeded so runs are reproducible.
"""

from __future__ import annotations

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

    __slots__ = ("group", "classes", "values", "degrees", "_fixed_counts")

    def __init__(self, group: FiniteGroup, classes: ConjugacyClasses, values: np.ndarray, degrees: Sequence[int]):
        self.group = group
        self.classes = classes
        values.flags.writeable = False
        self.values = values
        self.degrees = tuple(int(d) for d in degrees)
        self._fixed_counts: dict = {}

    def __len__(self) -> int:
        return len(self.degrees)

    def _class_counts(self, sub: FiniteGroup) -> np.ndarray:
        """Elements of the subgroup per conjugacy class; cached per subgroup, checked on a miss."""
        counts = self._fixed_counts.get(sub)
        if counts is None:
            counts = np.zeros(len(self.classes), dtype=np.int64)
            for i in lat.bits(_ambient(self.group).subgroup_mask(sub)):
                counts[self.classes.class_of[i]] += 1
            self._fixed_counts[sub] = counts
        return counts

    def __repr__(self) -> str:
        return f"CharacterTable(|G|={self.group.order}, degrees={self.degrees})"


def _class_matrices(classes: ConjugacyClasses, amb) -> list:
    """Matrices A_i with (A_i)[j, k] = #{x in C_i : x^-1 z_k in C_j}."""
    mul, inv = amb.mul, amb.inv
    r = len(classes)
    reps = classes.representatives
    mats = []
    for i in range(r):
        mat = np.zeros((r, r), dtype=np.int64)
        for k in range(r):
            zk = reps[k]
            for x in classes.classes[i]:
                mat[classes.class_of[mul[inv[x]][zk]], k] += 1
        mats.append(mat)
    return mats


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
    r = len(classes)
    rows = []
    for j in range(r):
        v = vecs[:, j]
        if abs(v[0]) < 1e-9:
            raise ValidationFailed("eigenvector vanishes at the identity class")
        omega = v / v[0]
        denom = float(np.sum(np.abs(omega) ** 2 / sizes).real)
        if denom <= 0:
            raise ValidationFailed("nonpositive norm in degree computation")
        deg = (order / denom) ** 0.5
        deg_int = round(deg)
        if abs(deg - deg_int) > TOLERANCE or deg_int < 1:
            raise ValidationFailed(f"degree {deg} is not a positive integer")
        chi = deg_int * omega / sizes
        rows.append((deg_int, chi))
    if sum(d * d for d, _ in rows) != order:
        raise ValidationFailed("sum of squared degrees does not match the group order")
    rows.sort(key=lambda item: (item[0], _row_sort_key(item[1])))
    degrees = [d for d, _ in rows]
    values = np.array([chi for _, chi in rows])
    weights = sizes / order
    gram = (values * weights) @ values.conj().T
    if np.max(np.abs(gram - np.eye(r))) > TOLERANCE:
        raise ValidationFailed("row orthogonality failed")
    col = values.conj().T @ values
    expected = np.diag(order / sizes)
    if np.max(np.abs(col - expected)) > TOLERANCE:
        raise ValidationFailed("column orthogonality failed")
    return CharacterTable(group, classes, values, degrees)


def _row_sort_key(chi: np.ndarray) -> tuple:
    return tuple((round(z.real, 6), round(z.imag, 6)) for z in chi)


def fixed_dim(table: CharacterTable, row: int, sub: FiniteGroup) -> int:
    """dim V^K = (1/|K|) sum over K of chi, validated to a nonnegative integer."""
    counts = table._class_counts(sub)
    value = complex(np.dot(counts, table.values[row])) / sub.order
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
