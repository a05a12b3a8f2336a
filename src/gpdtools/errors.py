"""Exception types shared across the package."""

__all__ = [
    "GpdError",
    "InvalidSpec",
    "LimitsTooLarge",
    "MalformedInput",
    "NotDetermined",
    "NotInverse",
    "NotInvolution",
    "PreconditionViolated",
    "TheoremViolation",
]


class GpdError(Exception):
    """Base class for every library-specific error."""


class MalformedInput(GpdError):
    """A text input (.gpd, .map or .cspec) could not be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LimitsTooLarge(GpdError):
    """An order or a construction-family limit exceeds the cap of its
    brute-force enumeration."""


class NotInvolution(GpdError):
    """A mapping expected to be a self-inverse bijection is not one."""


class NotInverse(GpdError):
    """An element has zero or several inverses, so no inverse table exists."""

    def __init__(self, element: int, count: int):
        self.element = element
        self.count = count
        super().__init__(f"element {element} has {count} inverses, expected exactly 1")


class PreconditionViolated(GpdError):
    """A checked precondition of a verification routine does not hold."""


class InvalidSpec(GpdError):
    """A construction spec failed validation."""


class NotDetermined(GpdError):
    """A groupoid lacks the structure needed to decompose it."""


class TheoremViolation(GpdError):
    """Two provably-equivalent decision routes disagreed.

    This is an alarm, never an expected outcome: it means either the
    implementation or the underlying theory is wrong for the given input.
    """
