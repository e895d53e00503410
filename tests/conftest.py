import os
from bisect import bisect_left

import pytest
from hypothesis import settings

from boolrank.algebraic import algebraic_family
from boolrank.cover import Cover, MatrixFamily, Rectangle
from boolrank.crown import crown_matrix
from boolrank.errors import DimensionError

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


def restrict_family(fam: MatrixFamily, n: int) -> MatrixFamily:
    """Reference: a family over a crown cut to its leading n x n corner.

    Rectangles of the decompositions are intersected with the index prefix
    and dropped when they vanish; pairwise-covering properties survive.
    """
    rows, cols = fam.dims
    if n > rows or n > cols:
        raise DimensionError(f"cannot restrict {rows}x{cols} family to {n}")
    covers = []
    for d in fam.decompositions:
        rects = []
        for rect in d.rects:
            rs = rect.row_set[:bisect_left(rect.row_set, n)]
            cs = rect.col_set[:bisect_left(rect.col_set, n)]
            if rs and cs:
                rects.append(Rectangle(rs, cs))
        covers.append(Cover(n, n, tuple(rects)))
    return MatrixFamily(tuple(covers))


# property tests draw the same examples on every run
settings.register_profile(
    "boolrank", derandomize=True, max_examples=200, deadline=None, database=None
)
settings.load_profile("boolrank")
