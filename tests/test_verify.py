import pytest

from quiver_atlas.verify import run_verification


@pytest.mark.parametrize("pmax,qmax", [(5, 5), (12, 6)])
def test_grid_below_golden_tables_rejected(pmax, qmax):
    # the table and summary checks read the goldens of the 2..7 grid
    with pytest.raises(ValueError, match=">= 7"):
        run_verification(pmax=pmax, qmax=qmax)
