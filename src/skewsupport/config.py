"""Runtime limits and environment overrides."""

import os

from skewsupport.errors import InvalidArgumentError

DEFAULT_MAX_SIZE = 14

ENV_MAX_SIZE = "SKEWSUPPORT_MAX_SIZE"
ENV_JOBS = "SKEWSUPPORT_JOBS"


def _env_int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise InvalidArgumentError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


def max_size() -> int:
    raw = os.environ.get(ENV_MAX_SIZE)
    if raw is None:
        return DEFAULT_MAX_SIZE
    value = _env_int(ENV_MAX_SIZE, raw)
    if value < 1:
        raise InvalidArgumentError(f"{ENV_MAX_SIZE} must be >= 1, got {raw}")
    return value


def default_jobs() -> int:
    raw = os.environ.get(ENV_JOBS)
    if raw is None:
        return 1
    return max(1, _env_int(ENV_JOBS, raw))
