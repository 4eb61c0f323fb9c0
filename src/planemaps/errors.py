"""Exception hierarchy for the plane map library.

Construction errors are raised while validating raw permutation data,
surgery errors while cutting and sewing, bijection errors when a
decorated input violates the preconditions of a mapping, and counting
errors for inadmissible degree tuples.
"""


class PlaneMapError(Exception):
    """Base class for all library errors."""


# construction / serialization

class NotPermutation(PlaneMapError):
    pass


class NotInvolution(PlaneMapError):
    pass


class FaceMismatch(PlaneMapError):
    pass


class BadMark(PlaneMapError):
    pass


class Disconnected(PlaneMapError):
    pass


class WrongGenus(PlaneMapError):
    pass


class ParseError(PlaneMapError):
    pass


# surgery

class InvalidWalk(PlaneMapError):
    pass


class CornerMismatch(PlaneMapError):
    pass


class NotDangling(PlaneMapError):
    pass


class NotDigon(PlaneMapError):
    pass


# enumeration

class TooManyEdges(PlaneMapError, ValueError):
    """The type is larger than the enumerator's edge bound."""


# bijections

class BadFace(PlaneMapError):
    pass


class SameFace(PlaneMapError):
    pass


class BadParity(PlaneMapError):
    """A type off the side of the identity a call realises."""


class NotBipartite(BadParity):
    pass


class DegreeTooSmall(BadParity):
    pass


class NoDegreeOneFace(BadParity):
    pass


class BadDecoration(PlaneMapError, ValueError):
    """A decoration that is not an integer or lies outside its range."""


class BadArgument(PlaneMapError, ValueError):
    """A keyword outside its fixed set, a table that does not fit the call,
    or a number outside the domain of a formula."""


# counting

class BadType(PlaneMapError, ValueError):
    """A degree tuple that is empty or has an entry that is not a positive int."""


class OddSum(PlaneMapError):
    pass


class NonPositiveV(PlaneMapError):
    pass


class TooManyOddFaces(PlaneMapError):
    pass


# sampler

class BadSchedule(PlaneMapError):
    pass


class BadSeed(PlaneMapError, ValueError):
    """A seed that is neither an int nor a random.Random instance."""
