"""The run's single explorer: memo, disk cache, cap rule and labels."""

import pytest

import quiver_atlas.cache as cache_mod
from quiver_atlas.cache import make_explorer
from quiver_atlas.canonical import canonical_key
from quiver_atlas.correspondence import REGISTRY_ANCHORS
from quiver_atlas.explore import DEFAULT_CAP, Classification, explore, replay
from quiver_atlas.grassmannian import GrassmannianSpec, initial_quiver
from quiver_atlas.verify import compute_grid


def test_grid_explores_each_class_once(monkeypatch):
    explored = []

    def counting_explore(start, cap=DEFAULT_CAP):
        explored.append(canonical_key(start).data)
        return explore(start, cap)

    monkeypatch.setattr(cache_mod, "explore", counting_explore)
    compute_grid(6, 6)
    cells = [(p, q) for p in range(2, 7) for q in range(2, 7)]
    starts = {
        canonical_key(initial_quiver(GrassmannianSpec(p, q))).data
        for p, q in cells + list(REGISTRY_ANCHORS)
    }
    assert len(explored) == len(starts)
    assert set(explored) == starts


def test_cached_and_uncached_grids_agree(grid7, grid_cache):
    uncached = compute_grid(7, 7)
    warm = compute_grid(7, 7, cache_dir=grid_cache)
    for cell, row in uncached.items():
        assert row.cluster == grid7[cell].cluster, cell
        assert row.cluster == warm[cell].cluster, cell


@pytest.mark.parametrize("use_disk", [False, True])
def test_inconclusive_not_reused_at_larger_cap(tmp_path, use_disk):
    cache_dir = tmp_path if use_disk else None
    start = initial_quiver(GrassmannianSpec(2, 6))  # A5, 19 members
    explorer = make_explorer(cache_dir)
    assert explorer(start, 10).classification is Classification.INCONCLUSIVE
    full = explorer(start)
    assert full.classification is Classification.FINITE_TYPE
    assert full.class_size == 19
    if use_disk:
        # a later run at the small cap reads the stored full report
        assert make_explorer(cache_dir)(start, 10) == full


def test_witness_in_caller_labels():
    start = initial_quiver(GrassmannianSpec(4, 5))
    perm = list(reversed(range(start.n)))
    relabelled = start.permuted(perm)
    explorer = make_explorer()
    for m in (start, relabelled):
        report = explorer(m)
        assert report.classification is Classification.INFINITE_MUTATION_TYPE
        assert replay(m, report.infinite_witness).max_weight() >= 3
