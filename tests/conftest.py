import pytest

from rectlab import verify
from rectlab.drawing import make_drawing, size1


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache(tmp_path_factory):
    import os
    os.environ["RECTLAB_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache"))


@pytest.fixture(scope="session")
def ctx():
    """Shared enumeration memo: each level and class list is got once per
    session.  With no cache dir, each strong(n) still builds every level
    below n afresh."""
    return verify._Ctx()


@pytest.fixture
def v2():
    return make_drawing(2, 1, [(0, 0, 1, 1), (1, 0, 2, 1)])


@pytest.fixture
def h2():
    return make_drawing(1, 2, [(0, 1, 1, 2), (0, 0, 1, 1)])


@pytest.fixture
def d3():
    """Spanning top rectangle over two columns: one hanging-stem joint."""
    return make_drawing(2, 2, [(0, 1, 2, 2), (0, 0, 1, 1), (1, 0, 2, 1)])


@pytest.fixture
def d3p():
    """Spanning bottom rectangle under two columns: one rising-stem joint."""
    return make_drawing(2, 2, [(0, 1, 1, 2), (1, 1, 2, 2), (0, 0, 2, 1)])


@pytest.fixture
def pinwheel():
    return make_drawing(3, 3, [(0, 1, 1, 3), (1, 2, 3, 3), (2, 0, 3, 2),
                               (0, 0, 2, 1), (1, 1, 2, 2)])


@pytest.fixture
def one():
    return size1()
