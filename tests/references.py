"""Reference builders the tests compare the library against.

`allsplit_model` builds a fully multiplicative label vector and
`label_vector` converts a whole boolean labelled lattice into one.
`element_order` finds the order of a permutation by repeated composition,
and `psl2_7_subgroups_by_search` finds a D8 and an S3 inside the order-168
group by searching its elements: the reference for the generators the
catalog pins.  `catalog_bases` builds the base of every other named
catalog interval the way the catalog once did, one builder per subgroup,
and `klein_four` the Klein four-group from its two transpositions.
"""

from orelat import totients as tt
from orelat.errors import InvalidParameters
from orelat.perm import FiniteGroup, Permutation, generate, subgroup_generated
from orelat.totients import integer_labels


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


def klein_four() -> FiniteGroup:
    return generate(4, [Permutation([1, 0, 2, 3]), Permutation([0, 1, 3, 2])])


def s2_s3n_base(group: FiniteGroup, n: int) -> FiniteGroup:
    """The subgroup 1 x S2^n of S2 x S3^n: one transposition inside each S3 factor."""
    gens = []
    for i in range(n):
        lo = 2 + 3 * i
        images = list(range(group.degree))
        images[lo], images[lo + 1] = images[lo + 1], images[lo]
        gens.append(Permutation(images))
    return subgroup_generated(group, gens)


def catalog_bases() -> dict:
    """Named interval -> (ambient name, builder of the base from the ambient group).

    The two PSL(2,7) intervals are left to `psl2_7_subgroups_by_search`.
    """
    return {
        "s2xs3_1/base": ("s2xs3", lambda g: s2_s3n_base(g, 1)),
        "s2xs3_2/base": ("s2xs3_2", lambda g: s2_s3n_base(g, 2)),
        "s2xs3_3/base": ("s2xs3_3", lambda g: s2_s3n_base(g, 3)),
        "s3/a3": ("s3", lambda g: subgroup_generated(g, [Permutation([1, 2, 0])])),
    }
