"""Shared argument-validation helpers for the public API."""

from __future__ import annotations

import math
import numbers

__all__ = [
    "as_rank", "check_finite_positive", "check_k", "check_k_star", "check_rank",
    "check_rank_range", "check_positive", "check_probability", "check_rate",
    "is_fraction", "is_whole",
]


def is_whole(x) -> bool:
    """Whether ``x`` is a whole number: an ``int`` / ``np.integer``, or
    a float with ``x == int(x)`` -- not 2.7, NaN, inf, a ``bool`` or a
    string."""
    whole = isinstance(x, numbers.Integral) or (
        isinstance(x, numbers.Real) and float(x).is_integer()
    )
    return whole and not isinstance(x, bool)


def is_fraction(q) -> bool:
    """Whether ``q`` is a real number in ``[0, 1]`` -- not NaN, a
    ``bool`` or a string (``True`` would otherwise read as 1.0)."""
    return (isinstance(q, numbers.Real) and not isinstance(q, bool)
            and 0.0 <= q <= 1.0)


def as_rank(k, what: str = "k") -> int:
    """``k`` as an ``int`` when it is a whole number (:func:`is_whole`).
    Anything else names itself in a ``ValueError`` rather than being
    truncated into some other rank."""
    if is_whole(k):
        return int(k)
    raise ValueError(f"{what} must be an integer rank, got {k!r}")


def check_k(k: int) -> int:
    """Validate an output size ``k >= 1``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


def check_k_star(k_star, k: int) -> int:
    """Validate a candidate count: a whole number ``k_star >= k``."""
    k_star = as_rank(k_star, "k_star")
    if k_star < k:
        raise ValueError(f"k_star must be >= k={k}, got {k_star}")
    return k_star


def check_rank(k: int, n: int, what: str = "k") -> int:
    """Validate a selection rank ``1 <= k <= n``."""
    k = as_rank(k, what)
    if not 1 <= k <= n:
        raise ValueError(f"{what} must satisfy 1 <= {what} <= n={n}, got {k}")
    return k


def check_rank_range(k_lo: int, k_hi: int, n: int) -> tuple[int, int]:
    """Validate a flexible selection range ``1 <= k_lo <= k_hi <= n``."""
    k_lo, k_hi = as_rank(k_lo, "k_lo"), as_rank(k_hi, "k_hi")
    if not 1 <= k_lo <= k_hi <= n:
        raise ValueError(
            f"flexible rank range must satisfy 1 <= k_lo <= k_hi <= n={n}, "
            f"got [{k_lo}, {k_hi}]"
        )
    return k_lo, k_hi


def check_positive(x, what: str):
    if x <= 0:
        raise ValueError(f"{what} must be positive, got {x}")
    return x


def check_rate(x, what: str):
    """Validate a sampling rate: a real number in ``(0, 1]`` -- not NaN,
    a ``bool`` or a string."""
    if not (is_fraction(x) and x > 0.0):
        raise ValueError(f"{what} must be a sampling rate in (0, 1], got {x!r}")
    return x


def check_finite_positive(x, what: str):
    """Validate a real number ``0 < x < inf`` -- not NaN, a ``bool`` or
    a string."""
    if not (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and 0.0 < x < math.inf):
        raise ValueError(f"{what} must be finite and positive, got {x!r}")
    return x


def check_probability(x: float, what: str, *, open_left: bool = True) -> float:
    lo_ok = x > 0.0 if open_left else x >= 0.0
    if not (lo_ok and x <= 1.0):
        raise ValueError(f"{what} must be a probability in {'(' if open_left else '['}0, 1], got {x}")
    return float(x)
