import functools
import os
from pathlib import Path

import pytest

import skewsupport
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

    @functools.cache
    def _pool():
        return tuple(all_shapes_upto(6))

    def shape_strategy():
        """Every shape of size at most 6.

        The pool is built on the first draw, inside a test, after
        ``_no_caller_settings`` has cleared the caller's variables, so an
        exported size guard can neither break loading this file nor shrink
        what the property tests sample from.
        """
        return st.deferred(lambda: st.sampled_from(_pool()))

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


@pytest.fixture(scope="session", autouse=True)
def _no_caller_settings():
    """Run every test without the caller's ``SKEWSUPPORT_*`` variables.

    Tests set the ones they need themselves, so an exported size guard
    cannot change what the suite checks.
    """
    with pytest.MonkeyPatch.context() as mp:
        for name in [k for k in os.environ if k.startswith("SKEWSUPPORT_")]:
            mp.delenv(name)
        yield


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
    from any working directory.  The session has none of the caller's
    ``SKEWSUPPORT_*`` variables; pass the ones the test needs as keywords.
    """
    src = str(Path(skewsupport.__file__).resolve().parent.parent)

    def build(**overrides):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        env.update(overrides)
        return env

    return build
