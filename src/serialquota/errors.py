"""Error types raised by the library.

Each name corresponds to one failure mode of the public API; callers that
want to catch everything can catch SerialQuotaError.  Messages show an
offending input through `brief`, so one bad value gives one short line.
"""


def brief(value) -> str:
    """repr(value), or its first 20 characters and its length when it runs
    past 40."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} chars)"


class SerialQuotaError(Exception):
    pass


class IdenticalSets(SerialQuotaError):
    """compare() was asked to order a set against itself."""


class QuotaExceedsPool(SerialQuotaError):
    """demand() with k larger than the pool."""


class InvalidPartition(SerialQuotaError):
    """Blocks overlap or fail to cover the universe."""


class EnumerationTooLarge(SerialQuotaError):
    """Class enumeration above the supported size cap."""


class NotEnumerable(SerialQuotaError):
    """Operation needs an enumerable preference class."""


class QuotaOverflow(SerialQuotaError):
    """Quotas sum to more than the number of goods."""


class InvalidOrdering(SerialQuotaError):
    """Picking order is not a permutation of the agents."""


class DomainError(SerialQuotaError):
    """Profile contains a preference outside the mechanism's domain."""


class TooSmall(SerialQuotaError):
    """Construction needs more agents or goods than given."""


class TieDetected(SerialQuotaError):
    """Valuation has a subset-sum collision, so it is not strict."""


class NotInClass(SerialQuotaError):
    """Preference is not a member of the given class."""


class InvalidDomain(SerialQuotaError):
    """Preference class violates a closure requirement."""


class TooLarge(SerialQuotaError):
    """Brute-force search space above the supported cap."""

