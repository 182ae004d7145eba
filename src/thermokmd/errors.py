"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ToolkitError):
    """A file could not be parsed (missing, malformed, or non-numeric cells)."""


class UniformityError(ParseError):
    """Timestamps in a snapshot file are not uniformly spaced."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class TooShortError(ParseError):
    """A snapshot record has fewer rows than the analysis requires."""


class DuplicateError(ParseError):
    """A channel identifier appears more than once."""


class GeometryError(ToolkitError):
    """Sensor geometry is unusable (coincident points, degenerate stencils, ...)."""


class ArgumentError(ToolkitError):
    """An argument is out of its documented range."""


class LayoutFileError(ParseError, GeometryError):
    """A layout file's sensors cannot form a layout (two at one point, off its grid)."""


class LayoutError(ArgumentError):
    """A sensor layout does not fit the domain it is used in (a sensor outside the room)."""


class PeriodError(ArgumentError):
    """A phase-averaging period is out of range for the record length."""


class DegenerateDataError(ToolkitError):
    """The snapshot matrix has too little numerical rank to fit dynamics."""


class NumericalError(ToolkitError):
    """A numerical routine (eigensolver, least squares) failed to converge."""


class StabilityError(ArgumentError):
    """An explicit integration step would be unstable: its arguments are out of range."""
