import pytest

from quiver_atlas.verify import compute_grid

# Class sizes pinned by the independent oracles (n!-dedup BFS for small rank,
# networkx DiGraphMatcher dedup for the rest, polygon triangulations for A_n);
# see tests/test_oracles.py.
GOLDEN_CLASS_SIZES = {
    "A1": 1,
    "A2": 1,
    "A3": 4,
    "A4": 6,
    "A5": 19,
    "A6": 49,
    "A7": 150,
    "A8": 442,
    "A9": 1424,
    "A10": 4522,
    "A11": 14924,
    "D4": 6,
    "E6": 67,
    "E8": 1574,
    "E7(1,1)": 506,
    "E8(1,1)": 5739,
}


@pytest.fixture(scope="session")
def grid_cache(tmp_path_factory):
    """One on-disk class cache shared by the session's grid fixtures."""
    return tmp_path_factory.mktemp("atlas-cache")


@pytest.fixture(scope="session")
def grid7(grid_cache):
    return compute_grid(7, 7, cache_dir=grid_cache)


@pytest.fixture(scope="session")
def grid12(grid_cache):
    return compute_grid(12, 12, cache_dir=grid_cache)
