import os

import pytest
from hypothesis import settings

from boolrank.algebraic import algebraic_family
from boolrank.crown import crown_matrix

# The environment variable is the only materialization limit, so a value
# left in the shell would change what the library refuses.  It is cleared
# before any fixture runs; a test that needs a limit sets it with
# monkeypatch.
os.environ.pop("BOOLRANK_MAX_ENTRIES", None)


@pytest.fixture(scope="session")
def family_3_3():
    """The 18-member every-3-cover family over the 6859-crown (built once)."""
    return algebraic_family(3, 3)


@pytest.fixture(scope="session")
def crown_6859():
    return crown_matrix(6859)


# property tests draw the same examples on every run
settings.register_profile(
    "boolrank", derandomize=True, max_examples=200, deadline=None, database=None
)
settings.load_profile("boolrank")
