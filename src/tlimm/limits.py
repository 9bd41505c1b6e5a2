"""Size caps for whole-S_n computations.

Everything in this package is exact and exhaustive, so costs grow like n!.
Two caps keep accidental huge runs from happening: a general cap for
operations that enumerate S_n (default 8) and a tighter cap for building
full Temperley-Lieb expansion tables (default 7, since the table for S_n
holds f_w(u) for every 321-avoiding w and every u, 2 162 160 entries at
n = 7).

The environment variable TLIMM_MAX_N overrides both caps.
"""

import functools
import os
from typing import Callable

from .errors import LimitError, PreconditionError

DEFAULT_MAX_N = 8
DEFAULT_THETA_MAX_N = 7


_NAME = "TLIMM_MAX_N"
# The key of _NAME in the dict behind os.environ, which every change made
# through os.environ updates.
_ENCODED_NAME = os.environ.encodekey(_NAME)


def _env_override() -> int | None:
    # Every capped table checks its cap on every call.  With the variable
    # unset, os.environ.get raises and catches two KeyErrors (about 1.5 us);
    # a look at the dict behind it takes about 0.1 us.
    if _ENCODED_NAME not in os.environ._data:
        return None
    raw = os.environ[_NAME]
    try:
        return int(raw)
    except ValueError:
        raise LimitError(f"TLIMM_MAX_N must be an integer, got {raw!r}") from None


def max_n() -> int:
    """The cap for operations enumerating all of S_n."""
    override = _env_override()
    return DEFAULT_MAX_N if override is None else override


def theta_max_n() -> int:
    """The cap for building a full table of Temperley-Lieb expansions."""
    override = _env_override()
    return DEFAULT_THETA_MAX_N if override is None else override


def check_limit(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise LimitError(
            f"{what} requested for n={n}, above the configured cap {limit} "
            "(set TLIMM_MAX_N to override)"
        )


def capped_cache(cap: Callable[[], int], what: str, maxsize: int) -> Callable:
    """``functools.lru_cache(maxsize)`` for a function of n, with n held to
    [0, ``cap()``] before the cache is looked up: a negative n is refused,
    and a size cached under a higher cap is refused once the cap is
    lowered.  ``cache_info`` and ``cache_clear`` are the lru cache's own."""

    def decorate(fn: Callable) -> Callable:
        cached = functools.lru_cache(maxsize=maxsize)(fn)

        @functools.wraps(fn)
        def capped(n: int):
            if n < 0:
                raise PreconditionError(f"{what} requested for negative n={n}")
            check_limit(n, cap(), what)
            return cached(n)

        capped.cache_info = cached.cache_info
        capped.cache_clear = cached.cache_clear
        return capped

    return decorate
