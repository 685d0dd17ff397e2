"""Shared exception types.

ConfigError marks bad user input (CLI exit code 2); NumericalError marks a
solver or invariant failure at runtime (CLI exit code 3). Plain ValueError
from library functions is treated as a config problem by the CLI.
"""

__all__ = ["ConfigError", "NumericalError"]


class ConfigError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass
