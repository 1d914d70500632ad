import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# the same examples on every run and no timing flakes
settings.register_profile("ambitlab", derandomize=True, deadline=None, database=None)
settings.load_profile("ambitlab")

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # hypothesis caches source constants on disk even without a database;
    # keep that cache in a temporary directory so no .hypothesis/ is left
    home = config.stash[_HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(prefix="ambitlab-hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_HOME].cleanup()
