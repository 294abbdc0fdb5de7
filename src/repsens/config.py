"""Every search cap of the exact solvers, in one table, read from the
environment at call time.

``LIMITS`` maps each ``REPSENS_LIMIT_*`` variable to its default cap and to
the start of the ``CapabilityError`` raised past it.  ``limit`` reads a cap;
``check`` reads it, raises past it and returns it.  A new cap, or a node
budget for a search, is one more entry here.
"""

import os

from .core import CapabilityError, InputError

LIMITS = {
    "REPSENS_LIMIT_LZEND_OPT": (24, "length {n} exceeds the exact LZ-End search limit"),
    "REPSENS_LIMIT_ATTRACTOR": (20, "length {n} exceeds the smallest-attractor search limit"),
    "REPSENS_LIMIT_BMS": (16, "length {n} exceeds the smallest-macro-scheme search limit"),
    "REPSENS_LIMIT_EXHAUSTIVE": (1 << 20, "sigma**n = {sigma}**{n} exceeds the exhaustive budget"),
}


def limit(name: str) -> int:
    """The cap of the variable ``name``: its integer value, or its default
    when unset; any other value is an ``InputError`` naming the variable."""
    raw = os.environ.get(name)
    if raw is None:
        return LIMITS[name][0]
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"{name} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InputError(f"{name} must be >= 1, got {value}")
    return value


def check(name: str, n: int, sigma: int | None = None) -> int:
    """The cap of ``name``, once it admits a text of length ``n`` or, given
    ``sigma``, all sigma**n strings of length n; a ``CapabilityError``
    otherwise.  sigma**n is never expanded past the cap's bit length: from
    there on both powers exceed the cap (sigma >= 2) or neither does."""
    cap = limit(name)
    size = n if sigma is None else sigma ** min(n, cap.bit_length())
    if size > cap:
        raise CapabilityError(f"{LIMITS[name][1].format(n=n, sigma=sigma)} {cap} ({name})")
    return cap
