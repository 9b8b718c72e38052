"""Exception types shared across the library.

Every error raised on a violated precondition derives from FiltrationLabError,
so callers can catch one base class at the CLI boundary.
"""


class FiltrationLabError(Exception):
    """Base class for all library errors."""


# tree construction and filtrations

class NonPositiveProbability(FiltrationLabError):
    """A branch probability is zero or negative."""


class ProbabilitySumNotOne(FiltrationLabError):
    """Sibling branch probabilities do not sum to one."""


class DanglingNode(FiltrationLabError):
    """Structural defect: missing parent, unreachable node, or a

    non-terminal node without children."""


class TimeOutOfRange(FiltrationLabError):
    """A time index falls outside 0..horizon."""


class NotARefinement(FiltrationLabError):
    """An enlarged partition does not refine the base partition."""


class NotMonotone(FiltrationLabError):
    """Enlarged partitions lose information as time advances."""


class NotAStoppingTime(FiltrationLabError):
    """{tau <= t} is not a union of time-t atoms."""


class NotMeasurable(FiltrationLabError):
    """A random variable is not measurable for the required sigma-algebra."""


# processes and calculus

class DimensionMismatch(FiltrationLabError):
    """Process dimensions disagree where they must match."""


class NotPredictable(FiltrationLabError):
    """An integrand is not constant on the conditioning atoms."""


class NotAMartingale(FiltrationLabError):
    """Conditional increment means do not vanish."""


class IncompleteFunctionTable(FiltrationLabError):
    """A jump-function table lacks an entry for a charged point."""


# constraint systems and conversions

class ConstraintMismatch(FiltrationLabError):
    """A jump value does not match any constraint slot of its atom."""


class PartitionNotMeasurable(FiltrationLabError):
    """A slot partition is not measurable at its stopping time."""


class VanishingWeight(FiltrationLabError):
    """A slot weight vanishes where the slot is active."""


class NotOrthogonal(FiltrationLabError):
    """Columns fail the required orthogonality to the probability vector."""


class SpanDeficient(FiltrationLabError):
    """The span hypothesis fails; carries the unreachable residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class RankDeficient(FiltrationLabError):
    """A matrix does not have the full row rank the construction needs."""


# representation

class NoRepresentation(FiltrationLabError):
    """A martingale cannot be written as an integral against the basis."""

    def __init__(self, message, time=None, atom=None, witness=None):
        super().__init__(message)
        self.time = time
        self.atom = atom
        self.witness = witness


# enlargement

class NotStrictlyPositive(FiltrationLabError):
    """A process required to stay strictly positive does not."""


class NotADeflator(FiltrationLabError):
    """The candidate fails the deflator axioms."""


class NotIncreasing(FiltrationLabError):
    """A process required to be nondecreasing has a negative increment."""


class DegeneratePartition(FiltrationLabError):
    """A slot partition carries no mass at all."""


# cli / serialization

class ParseError(FiltrationLabError):
    """Bad input: a malformed scenario, an unusable path or argument."""


class UnknownCheck(FiltrationLabError):
    """A requested check name is not registered."""
