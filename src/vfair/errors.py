"""Exception types shared across the package.

Four failure classes are distinguished so callers (and the CLI) can map
them to exit codes: bad configuration, bad data, numeric breakdown, and
violated internal contracts (plain ``ValueError`` / ``AssertionError``).
"""


class ConfigError(ValueError):
    """A config value or combination of values is invalid."""


class DataError(ValueError):
    """Input data violates the declared schema or shape contracts."""


class NumericError(ArithmeticError):
    """A computation left the domain where its result is meaningful.  One
    that stops a training run carries the run, `run` ((method, seed)), and
    its step trace up to the failing step, `trace` (column -> values; empty
    for a method that traces nothing)."""

    def __init__(self, message, run=None, trace=None):
        super().__init__(message)
        self.run, self.trace = run, trace
