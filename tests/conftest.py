import os
from pathlib import Path

import pytest

import skewsupport
from skewsupport import config
from skewsupport.shapes import enumerate_shapes

try:
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def all_shapes_upto(n: int):
    for size in range(1, n + 1):
        yield from enumerate_shapes(size)


if HAVE_HYPOTHESIS:
    # capped by the size guard, so a small SKEWSUPPORT_MAX_SIZE in the
    # session's environment cannot break loading this file
    _POOL = list(all_shapes_upto(min(6, config.max_size())))

    def shape_strategy():
        return st.sampled_from(_POOL)

    def partition_strategy(max_part=6, max_len=6):
        return st.lists(
            st.integers(min_value=1, max_value=max_part),
            min_size=0, max_size=max_len,
        ).map(lambda parts: tuple(sorted(parts, reverse=True)))

    def composition_strategy(max_part=5, max_len=5):
        return st.lists(
            st.integers(min_value=1, max_value=max_part),
            min_size=1, max_size=max_len,
        ).map(tuple)


@pytest.fixture(scope="session")
def small_shapes():
    """Every canonical shape with at most 5 boxes."""
    return list(all_shapes_upto(5))


@pytest.fixture
def child_env():
    """Build the environment for a child interpreter under test.

    The child imports the same ``skewsupport`` as this session: the
    directory holding the package goes first on ``PYTHONPATH`` as an
    absolute path, so it works from a plain checkout or an install and
    from any working directory.  No ``SKEWSUPPORT_*`` variable of the
    caller leaks in; pass the ones the test needs as keywords.
    """
    src = str(Path(skewsupport.__file__).resolve().parent.parent)

    def build(**overrides):
        env = {
            k: v for k, v in os.environ.items()
            if not k.startswith("SKEWSUPPORT_")
        }
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        env.update(overrides)
        return env

    return build
