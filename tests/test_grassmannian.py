import hashlib

import pytest

from quiver_atlas.correspondence import classify_cell
from quiver_atlas.explore import Classification
from quiver_atlas.grassmannian import (
    GrassmannianSpec,
    InvalidSpec,
    expected_classification,
    expected_type_name,
    initial_quiver,
)
from quiver_atlas.matrix import ExchangeMatrix


def arrow_count(m):
    return sum(1 for _ in m.arrow_pairs())


class TestSpec:
    def test_derived_fields(self):
        s = GrassmannianSpec(3, 4)
        assert (s.n, s.r, s.rank) == (7, 2, 6)

    def test_rejects_small_p_q(self):
        with pytest.raises(InvalidSpec):
            GrassmannianSpec(1, 4)
        with pytest.raises(InvalidSpec):
            GrassmannianSpec(3, 1)
        # p and q are read as integers: a float is refused, even a whole one
        for p, q in ((3.0, 3), (3, 2.5), ("3", 3)):
            with pytest.raises(InvalidSpec, match="require integers"):
                GrassmannianSpec(p, q)
        with pytest.raises(InvalidSpec):
            classify_cell(3.0, 3)

    def test_dual(self):
        s = GrassmannianSpec(3, 5)
        assert s.dual == GrassmannianSpec(5, 3)
        assert s.r == s.dual.r


class TestInitialQuiver:
    def test_degenerate_row_is_path(self):
        # p=2, q=4: single-row grid, only rightward arrows
        m = initial_quiver(GrassmannianSpec(2, 4))
        assert m.rows == ((0, 1, 0), (-1, 0, 1), (0, -1, 0))

    def test_2x2_grid(self):
        m = initial_quiver(GrassmannianSpec(3, 3))
        assert m.n == 4
        assert arrow_count(m) == 5
        assert m.max_weight() == 1

    def test_3x3_grid(self):
        m = initial_quiver(GrassmannianSpec(4, 4))
        assert m.n == 9
        assert m.max_weight() == 1
        for i in range(9):
            for j in range(9):
                assert m.rows[i][j] == -m.rows[j][i]

    @pytest.mark.parametrize("p", range(2, 8))
    @pytest.mark.parametrize("q", range(2, 8))
    def test_arrow_count_and_connectivity(self, p, q):
        m = initial_quiver(GrassmannianSpec(p, q))
        expected = (
            (p - 1) * (q - 2) + (p - 2) * (q - 1) + (p - 2) * (q - 2)
        )
        assert m.n == (p - 1) * (q - 1)
        assert arrow_count(m) == expected
        assert m.is_connected()
        assert m.max_weight() <= 1
        # built unchecked: the validating constructor accepts the same rows
        assert ExchangeMatrix.from_rows(m.rows) == m

    def test_rank_132_grid_validates(self):
        # rank >= 128: a canonical key of this start escapes n itself
        m = initial_quiver(GrassmannianSpec(12, 13))
        assert m.n == 132
        assert ExchangeMatrix.from_rows(m.rows) == m

    def test_rows_digest_pinned(self):
        # sha256 of the serialized rows of every grid quiver with
        # 2 <= p, q <= 20, one line each, p then q ascending
        h = hashlib.sha256()
        for p in range(2, 21):
            for q in range(2, 21):
                m = initial_quiver(GrassmannianSpec(p, q))
                h.update(m.serialize().encode() + b"\n")
        assert h.hexdigest() == (
            "523f36d6c85063cf6504427d656260be65f1d51c105b52f5378d6e7694e91bb5"
        )


class TestExpected:
    def test_classification_by_r(self):
        assert (
            expected_classification(GrassmannianSpec(3, 4))
            is Classification.FINITE_TYPE
        )
        assert (
            expected_classification(GrassmannianSpec(4, 4))
            is Classification.FINITE_MUTATION_TYPE
        )
        assert (
            expected_classification(GrassmannianSpec(7, 7))
            is Classification.INFINITE_MUTATION_TYPE
        )

    def test_type_names(self):
        assert expected_type_name(GrassmannianSpec(2, 6)) == "A5"
        assert expected_type_name(GrassmannianSpec(5, 3)) == "E8"
        assert expected_type_name(GrassmannianSpec(5, 5)) is None
        assert expected_type_name(GrassmannianSpec(2, 2)) == "A1"
        assert expected_type_name(GrassmannianSpec(3, 3)) == "D4"
        assert expected_type_name(GrassmannianSpec(4, 4)) == "E7(1,1)"
        assert expected_type_name(GrassmannianSpec(6, 3)) == "E8(1,1)"

    @pytest.mark.parametrize("p", range(2, 13))
    @pytest.mark.parametrize("q", range(2, 13))
    def test_duality(self, p, q):
        s, d = GrassmannianSpec(p, q), GrassmannianSpec(q, p)
        assert expected_classification(s) is expected_classification(d)
        assert expected_type_name(s) == expected_type_name(d)
