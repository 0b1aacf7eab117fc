"""Interval analysis for finite-group subgroup lattices.

Classify intervals (distributive, boolean, bottom-boolean), compute Euler
and dual Euler totients, decide linear primitivity through exact character
theory, and certify primitivity by chaining structural reduction rules.
"""

from .errors import (
    CapExceeded,
    DegreeMismatch,
    ElementOutsideGroup,
    InvalidParameters,
    NotACoatom,
    NotALattice,
    NotAnInteger,
    NotAPartialOrder,
    NotBoolean,
    NotComparable,
    NotDistributive,
    NotGraded,
    NotASubgroup,
    OreViolation,
    OrelatError,
    ParseError,
    SplitConditionFails,
    ValidationFailed,
)
from .perm import (
    FiniteGroup,
    Permutation,
    generate,
    subgroup_generated,
    trivial_group,
)
from .lattice import (
    FiniteLattice,
    atoms,
    coatoms,
    is_bottom_boolean,
    is_boolean,
    is_distributive,
    subset_lattice,
)
from .intervals import (
    GroupInterval,
    bbl,
    bbl_between,
    cfl,
    full_subgroup_lattice,
    generating_coset_count,
    overgroup_interval,
    verify_ore,
)
from .totients import (
    IndexedInterval,
    allsplit_model,
    boolean_index_model,
    closed_form_p_n,
    closed_form_p_n_p2,
    closed_form_p_n_q,
    dual_totient,
    dual_totient_allsplit,
    dual_totient_coatom_split,
    dual_totient_distributive,
    euler_totient,
    euler_totient_distributive,
    from_group_interval,
    pq_model,
    uniform_model,
)
from .characters import (
    CharacterTable,
    ConjugacyClasses,
    character_table,
    conjugacy_classes,
    fixed_dim,
    index_identity_holds,
    is_linearly_primitive,
)
from .certifier import (
    Certificate,
    IndexedModel,
    certify,
    chain_types,
    check_allsplit_small,
    factor_products,
    factorizations,
    lemma_check_scan,
    rank2_index_table,
)

__version__ = "0.1.0"
