"""Exception hierarchy shared across the package."""
from __future__ import annotations


class EventPosetError(Exception):
    """Base class for every error raised by this package."""


class InvalidIdError(EventPosetError):
    """An event id is not an int in the poset's 0..N-1 range."""


class InvalidArgumentError(EventPosetError, ValueError):
    """An argument of the wrong kind or out of range; also a ValueError."""


class CycleDetectedError(EventPosetError):
    """The input relations contain a directed cycle.

    The offending path is kept in ``cycle`` as a sequence of event ids whose
    first and last entries coincide.
    """

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"relation cycle through events {self.cycle}")


class NotAChainError(EventPosetError):
    """Consecutive elements are not strictly increasing in the poset order."""


class NotIsotonicError(EventPosetError):
    """Chain values decrease somewhere along the chain."""


class NotAdjacentError(EventPosetError):
    """Closed intervals do not share exactly the required endpoint."""


class DifferentChainsError(EventPosetError):
    """Operands live on different chains, or chains on different posets."""


class MissingProjectionError(EventPosetError):
    """A projection required by the operation does not exist."""


class NotQuantifiableError(MissingProjectionError):
    """The event lacks a forward or backward projection onto the chain.

    A MissingProjectionError: every operation that needs an event's
    projections in both directions raises it.
    """


class NotProperlyCollinearError(EventPosetError):
    """An endpoint is not properly collinear with the chain pair."""


class NotBetweenError(EventPosetError):
    """An element or chain is not situated between the given chains."""


class NotCompatibleError(EventPosetError):
    """Chain projections are not bijective over the inspected ranges."""


class NotCoordinatedError(EventPosetError):
    """Chains are not coordinated over the inspected ranges."""


class NotLinearlyRelatedError(EventPosetError):
    """Unit steps do not project with constant lengths."""


class SideUnknownError(EventPosetError):
    """One-chain quantification needs a side for each endpoint."""


class NoSharedEndpointError(EventPosetError):
    """Joined intervals must share the middle endpoint."""


class BasisMismatchError(EventPosetError):
    """Interval pairs quantified in different bases cannot be combined."""


class OutOfRangeError(EventPosetError):
    """An element lies outside the coordinated or chain range."""


class NotOrthogonalError(EventPosetError):
    """A Pythagorean join without asserted orthogonality or with a pair that
    is not pure antisymmetric, or a spherical split whose squares do not
    add to the radial extent."""


class DegenerateTransformError(EventPosetError):
    """Pair transform with a vanishing component (the |beta| = 1 limit)."""


class CoincidentChainsError(EventPosetError):
    """Subspace projection needs two chains at nonzero separation."""


class EmptyWindowError(InvalidArgumentError):
    """Lattice window contains no events."""


class ChainEscapesWindowError(InvalidArgumentError):
    """A lattice chain starts outside the window."""


class FormatError(EventPosetError):
    """Malformed poset text input, or a malformed or oversized rational string."""


class FloatRangeError(EventPosetError):
    """An inexact result is outside the normal float range, or a float is not finite."""


class FrozenRecordError(EventPosetError, AttributeError):
    """A field of an immutable record was assigned or deleted; also an AttributeError."""
