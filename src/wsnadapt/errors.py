"""Exception types shared across the package."""


class WsnAdaptError(Exception):
    """Base class for all package errors."""


class NotPositiveDefinite(WsnAdaptError):
    """A matrix required to be SPD has a (numerically) non-positive pivot,
    in column ``column`` (None where no one pivot is named)."""

    def __init__(self, message: str, column: int | None = None):
        self.column = column
        super().__init__(message)

    def naming(self, node_ids) -> "NotPositiveDefinite":
        """This error naming its column's node, the rows being ``node_ids``."""
        message = f"covariance is degenerate at node {node_ids[self.column]}: {self}"
        return NotPositiveDefinite(message, self.column)


class NoConvergence(WsnAdaptError):
    """An iterative routine exhausted its iteration budget."""


class NonFinite(WsnAdaptError):
    """An input holds a NaN or infinite entry where only finite ones make sense."""


class StepSizeOutOfRange(WsnAdaptError):
    """Step size violates the stability bound 0 < mu <= 2/lambda_max."""


class DimensionMismatch(WsnAdaptError):
    """Operands have incompatible shapes."""


class InvalidParameter(WsnAdaptError, ValueError):
    """A config value lies outside its range.

    ``field`` is the value's path in the config file, e.g. ``field/theta``,
    or ``field/sigma_u/9`` with the ``index`` of an array entry; ``reason``
    says what is wrong with it.  ``point`` is the index of the sweep value
    whose point it refuses (None for any other value).
    """

    point: int | None = None

    def __init__(self, field: str, reason: str, index: int | None = None):
        self.field = field if index is None else f"{field}/{index}"
        self.reason = reason
        super().__init__(f"{self.field}: {reason}")


class InvalidArgument(WsnAdaptError, ValueError):
    """A Python caller's argument lies outside its range where no config key
    holds it; ``InvalidParameter`` names the key where one does."""


class UnknownNode(WsnAdaptError):
    """A node id was referenced that does not exist in the layout/stream."""


class InsufficientHistory(WsnAdaptError):
    """Fewer weight snapshots than needed to estimate a variance."""


class TargetUnreachable(WsnAdaptError):
    """Requested accuracy target exceeds what all nodes together achieve."""


class Diverged(WsnAdaptError):
    """A protocol round produced a non-finite value; names the round and node.

    ``point`` is the index of the engine point it happened in (0 for a
    single run).
    """

    def __init__(self, message: str, point: int = 0):
        self.point = point
        super().__init__(message)


class SchemaError(WsnAdaptError):
    """Config file failed validation; message carries a JSON-pointer path."""

    def __init__(self, pointer: str, reason: str):
        self.pointer = pointer
        self.reason = reason
        super().__init__(f"{pointer}: {reason}")


class CsvFormatError(WsnAdaptError):
    """Malformed row in an ingested CSV; message carries the line number."""
