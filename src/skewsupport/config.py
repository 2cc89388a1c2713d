"""Runtime limits and environment overrides."""

import os

from skewsupport.errors import InvalidArgumentError

DEFAULT_MAX_SIZE = 14

ENV_MAX_SIZE = "SKEWSUPPORT_MAX_SIZE"


def max_size() -> int:
    raw = os.environ.get(ENV_MAX_SIZE)
    if raw is None:
        return DEFAULT_MAX_SIZE
    try:
        value = int(raw)
    except ValueError:
        raise InvalidArgumentError(
            f"{ENV_MAX_SIZE} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise InvalidArgumentError(f"{ENV_MAX_SIZE} must be >= 1, got {raw}")
    return value
