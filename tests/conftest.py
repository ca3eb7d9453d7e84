"""Ensures the tests directory is importable (for the shared helpers module),
and gives every test a cold frame memo."""

import pytest

from fourierhybrid import frame


@pytest.fixture(autouse=True)
def cold_frame_memo():
    """Empty assemble_omega's memo before each test.

    Without it, whether a test's assemble_omega factors anything depends on
    which tests ran before it, so a test that patches or counts an
    np.linalg solver would not see its solver called.
    """
    frame._assemble.cache_clear()
