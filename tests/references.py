"""Reference builders the tests compare the library against.

`allsplit_model` builds a fully multiplicative label vector and
`label_vector` converts a whole boolean labelled lattice into one.
`element_order` finds the order of a permutation by repeated composition,
and `psl2_7_subgroups_by_search` finds a D8 and an S3 inside the order-168
group by searching its elements: the reference for the generators the
catalog pins.
"""

from orelat import totients as tt
from orelat.errors import InvalidParameters
from orelat.intervals import integer_labels
from orelat.perm import FiniteGroup, Permutation, subgroup_generated


def allsplit_model(values) -> tt.BooleanInterval:
    """Fully multiplicative model: atom i contributes factor values[i]."""
    vals = integer_labels(values, "atom values")
    if any(v < 2 for v in vals):
        raise InvalidParameters("atom values must be at least 2")
    return tt.boolean_index_model(2, len(vals), [(v, 1) for v in vals])


def element_order(p: Permutation) -> int:
    """The least k >= 1 with p^k the identity."""
    k, power, identity = 1, p, Permutation.identity(p.degree)
    while power != identity:
        power, k = power * p, k + 1
    return k


def psl2_7_subgroups_by_search(group: FiniteGroup) -> tuple:
    """(D8, S3) of the order-168 group: the first order-4 u and order-3 a, each with an inverting involution."""
    u = next(g for g in group.elements if element_order(g) == 4)
    u_inv = u.inverse()
    powers = {u, u * u, u_inv}
    t = next(g for g in group.elements
             if element_order(g) == 2 and g * u * g.inverse() == u_inv and g not in powers)
    a = next(g for g in group.elements if element_order(g) == 3)
    b = next(g for g in group.elements
             if element_order(g) == 2 and g * a * g.inverse() == a.inverse())
    return subgroup_generated(group, [u, t]), subgroup_generated(group, [a, b])


def label_vector(model) -> tt.BooleanInterval:
    """The whole of a boolean labelled lattice as a label vector."""
    return tt.boolean_between(model, model.lattice.bottom, model.lattice.top)
