"""Exception types shared across the package."""

from __future__ import annotations


class PdSyntaxError(ValueError):
    """Input text does not match the PD grammar."""


class PdStructureError(ValueError):
    """PD text parses but the arc labels are inconsistent."""


class PlanarityError(ValueError):
    """Rotation data does not describe a sphere diagram."""


class PreconditionError(ValueError):
    """An operation was called on data that fails its validation precondition.

    Attributes:
        report: the failing diagram ValidationReport when diagram validation
            was the precondition, else None.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class EulerInconsistencyError(ValueError):
    """A configuration breaks the Euler identity its genus requires."""


class GuardAbort(RuntimeError):
    """Enumeration exceeded its cap on visited walks and selections.

    Partial results are unreliable.

    Attributes:
        visited: partial walks and word selections counted before the abort.
        cap: the configured cap.
    """

    def __init__(self, visited: int, cap: int):
        super().__init__(f"enumeration guard tripped: {visited} partial walks and selections "
                         f"visited (cap {cap})")
        self.visited = visited
        self.cap = cap
