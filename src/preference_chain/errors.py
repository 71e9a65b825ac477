"""Exception hierarchy.

The families below map onto the CLI exit codes: ConfigError -> 2,
DataError (and graph-construction errors) -> 3, ProviderError and
EmbeddingError (embeddings that cannot be compared) -> 4.
"""


class PreferenceChainError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PreferenceChainError):
    """Invalid or incomplete run configuration."""


def check_config(checks) -> None:
    """Raise ConfigError with the message of the first failed ``(ok, message)``.

    ``checks`` is a function returning the pairs. It is called here, so a
    comparison against a value of the wrong type (a string in a numeric
    field), or an integer too large for a float, raises ConfigError too.
    """
    try:
        failed = [message for ok, message in checks() if not ok]
    except (TypeError, OverflowError) as exc:
        raise ConfigError(f"config value has the wrong type or size: {exc}") from exc
    if failed:
        raise ConfigError(failed[0])


def not_booleans(section: str, obj, names) -> list[tuple[bool, str]]:
    """One ``check_config`` pair per number field of ``obj`` that must not be true or false."""
    return [(type(getattr(obj, n)) is not bool, f"{section}.{n} must not be a boolean") for n in names]


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
    def __init__(self, reason: str):
        super().__init__(f"invalid synthetic spec: {reason}")


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


class FrozenGraph(GraphError):
    """An edit to a behavior graph after its first query."""


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
