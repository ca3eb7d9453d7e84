"""Ensures the tests directory is importable (for the shared helpers module),
gives every test a cold frame memo, and fixes hypothesis's settings."""

import pytest
from hypothesis import settings

from fourierhybrid import frame

# the same examples on every run, whatever ran before and however slow the
# machine: property tests stay deterministic and bounded in time
settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=200
)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def cold_frame_memo():
    """Empty assemble_omega's memo before each test.

    Without it, whether a test's assemble_omega factors anything depends on
    which tests ran before it, so a test that patches or counts an
    np.linalg solver would not see its solver called.
    """
    frame._assemble.cache_clear()
