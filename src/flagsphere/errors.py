"""Exception hierarchy shared by all flagsphere modules."""


class FlagsphereError(Exception):
    """Base class for all domain errors raised by this package."""


class NotASphere(FlagsphereError):
    """Input faces do not describe a triangulation of the 2-sphere.

    ``reason`` is one of the machine-readable codes: ``bad-index``,
    ``duplicate-face``, ``edge-degree``, ``link-not-cycle``, ``euler-fail``,
    ``disconnected``.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class BadVertex(FlagsphereError):
    """Vertex argument that is not an int in range for the sphere."""


class NotAnEdge(FlagsphereError):
    """Vertex pair is not an edge of the sphere."""


class NotFlag(FlagsphereError):
    """Operation requires a flag sphere."""


class LinkConditionViolated(FlagsphereError):
    """Contracting this edge would not yield a simplicial sphere."""


class BadSplitSpec(FlagsphereError):
    """Vertex-split specification is inconsistent with the sphere."""


class BudgetTooSmall(FlagsphereError):
    """Vertex budget below the smallest admissible value."""


class BudgetTooLarge(FlagsphereError):
    """Vertex budget exceeds the brute-force guard."""


class TooLarge(FlagsphereError):
    """Instance exceeds the factorial guard of a brute-force routine."""


class InternalMinimalityViolation(FlagsphereError):
    """A non-octahedron flag sphere had no contractible edge.

    This cannot happen for valid inputs; every flag sphere above the
    octahedron keeps a belt-free edge, so the reducer aborts loudly
    instead of looping.
    """


class FormatError(FlagsphereError):
    """Malformed .tri text, corpus dump, certificate JSON, or graph JSON."""
