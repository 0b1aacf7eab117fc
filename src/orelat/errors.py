"""Exception types shared across the package."""


class OrelatError(Exception):
    """Base class for all errors raised by this package."""


class CapExceeded(OrelatError):
    """A closure or enumeration grew past the configured cap."""


class DegreeMismatch(OrelatError):
    """Permutations or groups act on different point sets."""


class ElementOutsideGroup(OrelatError):
    """A seed element does not belong to the ambient group."""


class NotASubgroup(OrelatError):
    """The alleged subgroup is not contained in the ambient group, or is not closed under multiplication."""


class ParseError(OrelatError):
    """Malformed cycle notation or group specification."""


class NotAPartialOrder(OrelatError):
    """The input relation is not reflexive, antisymmetric and transitive."""


class NotALattice(OrelatError):
    """Some pair of elements lacks a unique meet or join."""


class NotComparable(OrelatError):
    """Interval endpoints are not ordered."""


class NotGraded(OrelatError):
    """The operation needs a graded lattice and this one is not."""


class NotBoolean(OrelatError):
    """The operation needs a boolean lattice and this one is not."""


class NotDistributive(OrelatError):
    """The operation needs a distributive lattice and this one is not."""


class NotACoatom(OrelatError):
    """The designated element is not a coatom."""


class InvalidParameters(OrelatError):
    """Arguments a routine does not accept: out of range, not integers, or the wrong kind of model."""


class SplitConditionFails(OrelatError):
    """The all-split hypothesis does not hold for some atom."""


class ValidationFailed(OrelatError):
    """A numerically computed table failed its exactness gates."""


class NotAnInteger(OrelatError):
    """A quantity that must be a nonnegative integer failed rounding validation."""


class OreViolation(OrelatError):
    """No generating coset exists for a distributive interval; signals a bug."""
