import math

import numpy as np
import pytest

from quiver_atlas.tiling import (
    GeometryClass,
    InvalidSymbol,
    NotSpherical,
    SchlafliSymbol,
    angular_defect,
    angular_defect_sign,
    geometry_class,
    geometry_from_signature,
    gram_matrix,
    gram_signature,
    names,
    spherical_data,
    tiling_report,
)

# The eigensolver oracle's zero tolerance.
GRAM_EIGENVALUE_TOL = 1e-9


def test_rejects_invalid_symbol():
    with pytest.raises(InvalidSymbol):
        SchlafliSymbol(1, 3)
    with pytest.raises(InvalidSymbol):
        SchlafliSymbol(3, 0)
    # p and q are read as integers: a float is refused, even a whole one
    for p, q in ((3.0, 3), (3.5, 3), (3, "4"), (3, None)):
        with pytest.raises(InvalidSymbol, match="require integers"):
            SchlafliSymbol(p, q)
    assert SchlafliSymbol(np.int64(3), 3).r == 1


def test_geometry_class_examples():
    assert geometry_class(SchlafliSymbol(3, 5)) == (GeometryClass.SPHERICAL, 3)
    assert geometry_class(SchlafliSymbol(4, 4)) == (GeometryClass.PLANAR, 4)
    assert geometry_class(SchlafliSymbol(7, 3)) == (GeometryClass.HYPERBOLIC, 5)


def test_angular_defect_values():
    assert angular_defect(SchlafliSymbol(3, 6)) == pytest.approx(0.0, abs=1e-12)
    assert angular_defect(SchlafliSymbol(3, 3)) == pytest.approx(math.pi)
    assert angular_defect(SchlafliSymbol(4, 5)) == pytest.approx(-math.pi / 2)


def test_defect_sign_is_exact():
    assert angular_defect_sign(SchlafliSymbol(3, 6)) == 0
    assert angular_defect_sign(SchlafliSymbol(3, 3)) == 1
    assert angular_defect_sign(SchlafliSymbol(4, 5)) == -1


def test_gram_matrix_determinant():
    # det = 1 - cos^2(pi/p) - cos^2(pi/q) for the tridiagonal cosine matrix
    for p, q in [(3, 3), (4, 4), (3, 7)]:
        got = np.linalg.det(gram_matrix(SchlafliSymbol(p, q)))
        want = 1 - math.cos(math.pi / p) ** 2 - math.cos(math.pi / q) ** 2
        assert got == pytest.approx(want, abs=1e-12)


def test_gram_signatures():
    assert gram_signature(SchlafliSymbol(3, 3)) == (3, 0, 0)
    assert gram_signature(SchlafliSymbol(4, 4)) == (2, 1, 0)
    assert gram_signature(SchlafliSymbol(3, 7)) == (2, 0, 1)


def test_gram_signature_matches_eigvalsh():
    # Oracle: a general symmetric eigensolver on the same matrix, its
    # eigenvalues counted against the same tolerance.
    cells = [(p, q) for p in range(2, 61) for q in range(2, 61)]
    for q in (1000, 10_000, 60_000):
        cells += [(2, q), (q, 2)]
    for p, q in cells:
        sym = SchlafliSymbol(p, q)
        eig = np.linalg.eigvalsh(gram_matrix(sym))
        pos = int(np.sum(eig > GRAM_EIGENVALUE_TOL))
        neg = int(np.sum(eig < -GRAM_EIGENVALUE_TOL))
        assert gram_signature(sym) == (pos, 3 - pos - neg, neg), (p, q)


@pytest.mark.parametrize("q", [70_249, 70_300, 10**5, 10**6])
def test_gram_signature_of_thin_spherical_tilings(q):
    # the small eigenvalue 1 - cos(pi/q) of {2,q} and {q,2} is below 1e-9
    for sym in (SchlafliSymbol(2, q), SchlafliSymbol(q, 2)):
        assert gram_signature(sym) == (3, 0, 0)
        assert geometry_from_signature(gram_signature(sym)) is (
            GeometryClass.SPHERICAL
        )


def test_geometry_from_signature_rejects_garbage():
    with pytest.raises(ValueError):
        geometry_from_signature((1, 1, 1))


def test_spherical_data_examples():
    assert spherical_data(SchlafliSymbol(4, 3)) == (8, 12, 6, 48)
    assert spherical_data(SchlafliSymbol(3, 5)) == (12, 30, 20, 120)
    assert spherical_data(SchlafliSymbol(2, 5)) == (2, 5, 5, 20)


def test_spherical_data_rejects_planar():
    with pytest.raises(NotSpherical):
        spherical_data(SchlafliSymbol(4, 4))
    with pytest.raises(NotSpherical):
        spherical_data(SchlafliSymbol(7, 3))


def test_names_lookup():
    assert names(SchlafliSymbol(3, 3)) == ("tetrahedron", "A3")
    assert names(SchlafliSymbol(6, 3)) == ("hexagonal tiling", "G2(1)")
    assert names(SchlafliSymbol(5, 6)) == ("{5,6}", "[5,6]")
    assert names(SchlafliSymbol(2, 7)) == ("hosohedron", "A1×I2(7)")
    assert names(SchlafliSymbol(7, 2)) == ("dihedron", "A1×I2(7)")


@pytest.mark.parametrize("p", range(2, 51))
@pytest.mark.parametrize("q", range(2, 51))
def test_trichotomy_consistency(p, q):
    sym = SchlafliSymbol(p, q)
    geom, _ = geometry_class(sym)
    sign = angular_defect_sign(sym)
    by_sign = {
        1: GeometryClass.SPHERICAL,
        0: GeometryClass.PLANAR,
        -1: GeometryClass.HYPERBOLIC,
    }[sign]
    by_gram = geometry_from_signature(gram_signature(sym))
    assert geom is by_sign
    assert geom is by_gram


@pytest.mark.parametrize("p,q", [(p, q) for p in range(2, 13) for q in range(2, 13)])
def test_duality(p, q):
    a, b = tiling_report(SchlafliSymbol(p, q)), tiling_report(SchlafliSymbol(q, p))
    assert a.geometry is b.geometry
    assert a.gram_signature == b.gram_signature
    assert a.group_order == b.group_order
    if a.counts is not None:
        v, e, f = a.counts
        assert b.counts == (f, e, v)


def test_report_invariants():
    for p in range(2, 20):
        for q in range(2, 20):
            rep = tiling_report(SchlafliSymbol(p, q))
            spherical = rep.geometry is GeometryClass.SPHERICAL
            assert (rep.group_order is not None) == spherical
            assert (rep.counts is not None) == spherical
            if spherical:
                v, e, f = rep.counts
                assert v - e + f == 2
                assert q * v == 2 * e == p * f
