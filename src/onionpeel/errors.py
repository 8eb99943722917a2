"""Exception hierarchy.

Every domain failure raises a named subclass of :class:`OnionPeelError` so
callers (and the CLI) can report the variant by name.  The classes grouped
under "bug certificates" signal violated theorems or construction
invariants: they are never expected on valid inputs, and a raise means the
library itself is wrong, not the caller.
"""


class OnionPeelError(Exception):
    """Base class for all library errors."""


class FormatError(OnionPeelError):
    """Malformed EPG text or JSON artifact."""


# -- embedding construction ------------------------------------------------

class SelfLoop(OnionPeelError):
    """A rotation lists its own vertex as a neighbor."""


class ParallelEdge(OnionPeelError):
    """A rotation lists the same neighbor twice."""


class AsymmetricAdjacency(OnionPeelError):
    """u lists v but v does not list u (or v is not a known vertex)."""


class EulerViolation(OnionPeelError):
    """Dart/face counts inconsistent with a sphere embedding."""


class NestedComponent(OnionPeelError):
    """A component's region is not the shared outer region (unsupported)."""


# -- peeling / forest ------------------------------------------------------

class UnreachableVertex(OnionPeelError):
    """A vertex has no forest path to the outer face."""


class BoundViolated(OnionPeelError):
    """A certified inequality failed (bug certificate)."""


# -- triangulation pipeline ------------------------------------------------

class RepairStuck(OnionPeelError):
    """Every occurrence of every repeated vertex has adjacent flankers."""


class TooSmall(OnionPeelError):
    """Triangulation requires at least three vertices."""


# -- branch decomposition --------------------------------------------------

class NotADisk(OnionPeelError):
    """Input embedding is not a triangulated disk."""


class NotATree(OnionPeelError):
    """Dual-tree construction produced a non-tree (bug certificate)."""


class DegreeOverflow(OnionPeelError):
    """Branch-decomposition tree exceeded degree 3 (bug certificate)."""


# -- generators / oracles --------------------------------------------------

class BadParameter(OnionPeelError):
    """Generator or builder argument out of range."""


class BudgetExceeded(OnionPeelError):
    """Brute-force oracle input exceeds the configured budget."""


class NotPlanar(OnionPeelError):
    """No rotation system of the graph achieves genus zero."""


class InvariantViolation(OnionPeelError):
    """Internal construction invariant failed (bug certificate)."""
