"""Exception hierarchy shared across the toolkit.

Every error carries an `exit_code` so the CLI can map failures onto the
documented process exit codes (see README).
"""


class ChidsError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ConfigError(ChidsError):
    """Malformed configuration file, key, or override."""

    exit_code = 2


class IoError(ChidsError):
    """Missing or unreadable input file, unwritable output."""

    exit_code = 3


class DataError(ChidsError):
    """Malformed record data."""

    exit_code = 4


class FieldCountMismatch(DataError):
    pass


class NumericParseError(DataError):
    def __init__(self, index: int, raw: str):
        super().__init__(f"feature {index}: not a finite number: {raw!r}")
        self.index = index
        self.raw = raw


class UnknownNominalSymbol(DataError):
    pass


class UnknownLabel(DataError):
    pass


class DatasetParseError(DataError):
    """Aggregated per-line parse failures; raised once the error budget is spent."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__(bad_lines(self.errors))


def bad_lines(errors) -> str:
    """`N bad line(s): line a: reason; ...` for (line, reason) pairs, naming
    the first five lines and counting the rest as `(+k more)`."""
    head = "; ".join(f"line {ln}: {msg}" for ln, msg in errors[:5])
    more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
    return f"{len(errors)} bad line(s): {head}{more}"


class MissingArtifact(ChidsError):
    """A prerequisite artifact (cache, model) does not exist yet."""

    exit_code = 5

    def __init__(self, path, hint: str):
        super().__init__(f"missing artifact {path}; run `{hint}` first")
        self.path = path
        self.hint = hint


class InvalidOperation(ChidsError):
    """Operation preconditions violated."""

    exit_code = 6


class InfeasibleSplit(InvalidOperation):
    pass


class UnknownFeatureName(InvalidOperation):
    pass


class SchemaMismatch(InvalidOperation):
    pass


class UnorderedStream(InvalidOperation):
    pass


class UnpairedStream(InvalidOperation):
    """An event stream whose event count is not its record file's: then the
    two were not captured together, and event k need not be record k's."""

    def __init__(self, events_path, n_events: int, input_path, n_records: int):
        super().__init__(f"{events_path}: {n_events} events, but {input_path} holds {n_records} "
                         "records; event k flags record k")


class UnknownScenario(InvalidOperation):
    pass


class EmptyTestSet(InvalidOperation):
    pass
