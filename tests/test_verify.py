import pytest

from quiver_atlas.verify import run_verification


@pytest.mark.parametrize("pmax,qmax", [(5, 5), (12, 6)])
def test_grid_below_golden_tables_rejected(pmax, qmax):
    # the table and summary checks read the goldens of the 2..7 grid
    with pytest.raises(ValueError, match=">= 7"):
        run_verification(pmax=pmax, qmax=qmax)


@pytest.mark.parametrize("pmax,qmax", [(7, 8), (8, 7)])
def test_non_square_grid_verifies(grid_cache, pmax, qmax):
    # the checks read their cells from the rows; duality pairs a cell with
    # its transpose where both are in the grid
    results = run_verification(pmax=pmax, qmax=qmax, cache_dir=grid_cache)
    assert len(results) == 7
    assert all(ok for _, ok, _ in results), results
    main_claim = results[2]
    assert main_claim[0].endswith(f"on the 2..{pmax}×2..{qmax} grid")
    assert main_claim[2] == "42 cells"
