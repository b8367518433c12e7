"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` (used by the CLI) and
an optional source location for errors raised while reading text files.
Here too are the two helpers that text readers share: quoting what they
refuse, and reading a finite number.
"""

from __future__ import annotations

import math


class KahnetsError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str, *, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(self.format())

    def format(self) -> str:
        loc = ""
        if self.line is not None:
            loc = f" (line {self.line}" + (f", col {self.col}" if self.col is not None else "") + ")"
        return f"{self.code}: {self.message}{loc}"


class ArityMismatch(KahnetsError):
    code = "arity-mismatch"


class ArityTooSmall(KahnetsError):
    code = "arity-too-small"


class UnknownSymbol(KahnetsError):
    code = "unknown-symbol"


class UnknownKind(KahnetsError):
    code = "unknown-kind"


class StaleRedex(KahnetsError):
    code = "stale-redex"


class MissingBinding(KahnetsError):
    code = "missing-binding"


class MonotonicityViolation(KahnetsError):
    code = "monotonicity-violation"


class OutOfDomain(KahnetsError):
    code = "out-of-domain"


class NonProductive(KahnetsError):
    code = "non-productive"


class DslSyntaxError(KahnetsError):
    code = "syntax-error"


class UndeclaredPort(KahnetsError):
    code = "undeclared-port"


class ConfigError(KahnetsError):
    code = "config-error"


#: How many characters of an expression or a token an error message echoes.
_ECHO_LIMIT = 40


def _echo(text: str) -> str:
    """``text`` quoted, cut to ``_ECHO_LIMIT`` characters."""
    return repr(text) if len(text) <= _ECHO_LIMIT else repr(text[:_ECHO_LIMIT]) + "..."


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"could not convert string to float: {_echo(text)}") from None
    if not math.isfinite(value):
        raise ValueError(f"{_echo(text.strip())} is not a finite number")
    return value
