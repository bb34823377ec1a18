"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes, so raising the right family matters
more than the message text: ConfigError -> 2, SourceError -> 3,
StoreError -> 4, AnalysisError -> 5.
"""


class TweetCorpusError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TweetCorpusError):
    """Invalid configuration file, schema violation, or bad parameters."""


class ParseError(ConfigError):
    """Input text is not well-formed (bad JSON, bad line syntax)."""


class SchemaError(ParseError):
    """A record or document is missing mandatory attributes."""


class SourceError(TweetCorpusError):
    """The stream source failed or refused an operation."""


class SourceDisconnected(SourceError):
    """The live subscription dropped; carries the disconnect time."""

    def __init__(self, at):
        super().__init__(f"stream disconnected at {at.isoformat()}")
        self.at = at


class SourceUnavailable(SourceError):
    """A (re)subscription attempt failed because the source is down."""


class StoreError(TweetCorpusError):
    """Persistence failure or a bad request against the corpus store."""


class UnknownCorpusError(StoreError):
    """Request names a corpus the store does not hold."""

    def __init__(self, name):
        super().__init__(f"unknown corpus: {name!r}")
        self.corpus = name


class AnalysisError(TweetCorpusError):
    """A verification or analysis step cannot produce a defined result."""
