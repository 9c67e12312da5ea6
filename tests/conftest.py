"""Fixtures shared by every test module."""

import pytest

import clusterflag.programs as programs


@pytest.fixture(autouse=True)
def empty_target_cache():
    """Every test starts and ends with no shared ``Target``, so a test that
    patches the grid seed builds its own, and a ``Target`` built from a
    mutant never reaches a later test."""
    programs._shared_target.cache_clear()
    yield
    programs._shared_target.cache_clear()
