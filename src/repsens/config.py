"""Search caps for the exhaustive solvers, overridable via environment variables."""

import os

from .core import InputError

DEFAULT_LZEND_OPT_LIMIT = 24
DEFAULT_ATTRACTOR_LIMIT = 20
DEFAULT_BMS_LIMIT = 16
DEFAULT_EXHAUSTIVE_BUDGET = 1 << 20


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"{name} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InputError(f"{name} must be >= 1, got {value}")
    return value


def lzend_opt_limit() -> int:
    """Maximum text length for the exact minimum LZ-End search."""
    return _env_int("REPSENS_LIMIT_LZEND_OPT", DEFAULT_LZEND_OPT_LIMIT)


def attractor_limit() -> int:
    """Maximum text length for the exact smallest-attractor search."""
    return _env_int("REPSENS_LIMIT_ATTRACTOR", DEFAULT_ATTRACTOR_LIMIT)


def bms_limit() -> int:
    """Maximum text length for the exact smallest-macro-scheme search."""
    return _env_int("REPSENS_LIMIT_BMS", DEFAULT_BMS_LIMIT)


def exhaustive_budget() -> int:
    """Maximum sigma**n for exhaustive sensitivity enumeration."""
    return _env_int("REPSENS_LIMIT_EXHAUSTIVE", DEFAULT_EXHAUSTIVE_BUDGET)
