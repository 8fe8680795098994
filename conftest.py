"""Fixtures for every test suite in the repository, tests/ and perfbench/ alike."""

import pytest


@pytest.fixture(scope="session")
def cache_home(tmp_path_factory):
    return tmp_path_factory.mktemp("cache_home")


@pytest.fixture(autouse=True)
def isolated_cache_home(cache_home, monkeypatch):
    """Point XDG_CACHE_HOME, where the input cache lives, at a temporary
    directory, so no test and no command a test starts writes under the
    real home."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
