"""Fixtures shared by every test module."""

import pytest

import clusterflag.flags as flags
import clusterflag.programs as programs


@pytest.fixture(autouse=True)
def empty_target_cache():
    """Every test starts and ends with no shared ``Target`` and an empty
    face memo, so a test that patches the grid seed or a lift builds its
    own, and a ``Target`` or face entry built from a mutant never reaches
    a later test."""
    programs._shared_target.cache_clear()
    flags.face_entry.cache_clear()
    yield
    programs._shared_target.cache_clear()
    flags.face_entry.cache_clear()
