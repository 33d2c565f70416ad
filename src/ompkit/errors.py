"""Exception hierarchy shared across the package."""


class OmpkitError(Exception):
    """Base class for every error raised by this library."""


class BlochOutOfBall(OmpkitError):
    """A Bloch vector has norm above 1 beyond the positivity tolerance."""


class BadPriors(OmpkitError):
    """Prior probabilities are non-positive or do not sum to one."""


class TooFewStates(OmpkitError):
    """An ensemble needs at least two states."""


class IndexOutOfRange(OmpkitError):
    """A state index does not exist in the ensemble."""


class WrongArity(OmpkitError):
    """An operation restricted to two-state ensembles got a different size."""


class ConvergenceFailure(OmpkitError):
    """The discrimination solver could not certify an optimum."""


class InfeasibleCompleteness(OmpkitError):
    """No nonnegative weights complete the requested measurement to identity."""


class BadParameter(OmpkitError):
    """A channel constructor received an argument outside its domain."""


class PairSetTooSmall(OmpkitError):
    """Preservation checks need at least two identified states."""


class ChannelNotCPTP(OmpkitError):
    """The supplied map is not completely positive and trace preserving."""


class NotEquiprobable(OmpkitError):
    """The equiprobable specialization requires equal priors."""


class DominatedState(OmpkitError):
    """One weighted state dominates the other, so no measurement is performed."""


class NotUnitary(OmpkitError):
    """The channel is not a rotation of the Bloch ball."""


class MissingComplementaryState(OmpkitError):
    """A requested index has no complementary state in the solution."""


class WrongLength(OmpkitError):
    """A vector has the wrong number of entries: a Bloch vector not 3, a
    weight vector not one per state, a packed unknown vector not 13."""


class DeltaUnreachable(OmpkitError):
    """The requested slice value is not attained anywhere in the family."""


class NotOmpInput(OmpkitError):
    """A convex-mixture check requires both endpoint channels to preserve the measurement."""


class ConsistencyError(OmpkitError):
    """Two independent computations of the same quantity disagreed beyond tolerance."""


class FormatError(OmpkitError):
    """An input file does not match the documented JSON schema."""
