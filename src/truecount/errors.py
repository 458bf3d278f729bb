"""Exception types shared across the package."""


class TrueCountError(Exception):
    """Base class for all package errors."""


class UnbalancedSystemError(TrueCountError):
    """Count system weights do not sum to zero over a full deck."""


class InvalidMultiplicityError(TrueCountError):
    """Rank multiplicities are not a valid 52-card deck layout."""


class UnknownSystemError(TrueCountError, KeyError):
    """Requested builtin count system is not registered."""


class EmptyClassError(TrueCountError):
    """A removal would drive some weight-class count below zero."""


class EmptyDeckError(TrueCountError):
    """True count requested for an empty composition."""


class BadRangeError(TrueCountError, ValueError):
    """Argument outside the operation's valid range."""


class InfeasiblePrefixError(TrueCountError):
    """Removal prefix cannot be drawn from the composition."""


class ParseError(TrueCountError, ValueError):
    """Malformed composition spec, system file, or config file."""


class ConvergenceError(TrueCountError):
    """Numeric search failed to converge."""


class ShoeExhaustedError(TrueCountError):
    """A simulated hand would need more cards than remain in the shoe."""


class ConfigError(TrueCountError):
    """Simulation config file is missing or has invalid keys."""


class InvariantError(TrueCountError):
    """An exact result broke an identity it must satisfy (a library bug)."""
