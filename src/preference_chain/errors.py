"""Exception hierarchy.

The families below map onto the CLI exit codes: ConfigError -> 2,
DataError (and graph-construction errors) -> 3, ProviderError and
EmbeddingError (embeddings that cannot be compared) -> 4.
"""


class PreferenceChainError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PreferenceChainError):
    """Invalid or incomplete run configuration."""


class DataError(PreferenceChainError):
    """Invalid input data (CSV rows, specs, sample lists)."""


class SchemaViolation(DataError):
    def __init__(self, row: int, column: str, value: object, reason: str = ""):
        self.row = row
        self.column = column
        self.value = value
        msg = f"row {row}, column {column!r}: invalid value {value!r}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class MissingColumn(DataError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"missing required column {column!r}")


class NotEnoughRecords(DataError):
    pass


class EmptyReference(DataError):
    pass


class EmptySamples(DataError):
    pass


class UnknownKey(DataError):
    pass


class InvalidSpec(DataError):
    pass


class UnknownCategory(DataError):
    pass


class GraphError(PreferenceChainError):
    """Behavior-graph construction or lookup failure."""


class UnknownNode(GraphError):
    pass


class WeightOutOfRange(GraphError):
    pass


class KindMismatch(GraphError):
    pass


class EmptyGraph(GraphError):
    pass


class EmbeddingError(PreferenceChainError):
    pass


class DimensionMismatch(EmbeddingError):
    pass


class ZeroVector(EmbeddingError):
    pass


class EmptyText(EmbeddingError):
    pass


class AxisMismatch(PreferenceChainError):
    """Joint distributions with different group/choice axes."""


class ProviderError(PreferenceChainError):
    """Remote embedding/LLM provider failure (network, HTTP, bad payload)."""


class ParseFailure(PreferenceChainError):
    """LLM response could not be turned into a valid distribution."""
