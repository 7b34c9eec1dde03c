"""Exception hierarchy shared by all flagsphere modules."""


class FlagsphereError(Exception):
    """Base class for all domain errors raised by this package.

    ``code`` is the ``<CODE>`` of the CLI's ``ERR <CODE>: <detail>`` line.
    """

    code = "ERROR"


class NotASphere(FlagsphereError):
    """Input faces do not describe a triangulation of the 2-sphere.

    ``reason`` is one of the machine-readable codes: ``bad-index``,
    ``duplicate-face``, ``edge-degree``, ``link-not-cycle``, ``euler-fail``,
    ``disconnected``.
    """

    code = "NOT_A_SPHERE"

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class BadVertex(FlagsphereError):
    """Vertex argument that is not an int in range for the sphere."""

    code = "BAD_VERTEX"


class NotAnEdge(FlagsphereError):
    """Vertex pair is not an edge of the sphere."""

    code = "NOT_AN_EDGE"


class NotFlag(FlagsphereError):
    """Operation requires a flag sphere."""

    code = "NOT_FLAG"


class LinkConditionViolated(FlagsphereError):
    """Contracting this edge would not yield a simplicial sphere."""

    code = "LINK_CONDITION"


class BadSplitSpec(FlagsphereError):
    """Vertex-split specification is inconsistent with the sphere."""

    code = "BAD_SPLIT"


class BudgetTooSmall(FlagsphereError):
    """Vertex budget below the smallest admissible value."""

    code = "BUDGET_TOO_SMALL"


class BudgetTooLarge(FlagsphereError):
    """Vertex budget exceeds the brute-force guard."""

    code = "BUDGET_TOO_LARGE"


class TooLarge(FlagsphereError):
    """Instance exceeds the factorial guard of a brute-force routine."""

    code = "TOO_LARGE"


class InternalMinimalityViolation(FlagsphereError):
    """A non-octahedron flag sphere had no contractible edge.

    This cannot happen for valid inputs; every flag sphere above the
    octahedron keeps a belt-free edge, so the reducer aborts loudly
    instead of looping.
    """

    code = "MINIMALITY"


class FormatError(FlagsphereError):
    """Malformed .tri text, corpus dump, certificate JSON, or graph JSON."""

    code = "FORMAT"
