"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Criteria 1-2 reproduce the two classification tables on the 2..7 grid,
criterion 3 verifies the cluster/tiling correspondence on 2..12, criterion 4
the seven named summary rows, criterion 5 duality, criterion 6 the threefold
trichotomy agreement up to 50, criterion 7 the spherical golden data,
criterion 8 the randomized property suites, criterion 9 determinism and
the frozen class sizes, and criteria 10-12 the main claim on every cell of the
infinite grid: grid quivers restrict to smaller ones, four lifted witnesses
decide every hyperbolic cell of 2..20, and a case split shows that every
other cell is one of finitely many enumerated ones or a Dynkin row.
"""

import filecmp
import random
import time

import pytest

from quiver_atlas.canonical import canonical_key, is_isomorphic
from quiver_atlas.explore import Classification, explore
from quiver_atlas.grassmannian import (
    GrassmannianSpec,
    expected_classification,
    expected_type_name,
    initial_quiver,
)
from quiver_atlas.tiling import (
    GeometryClass,
    SchlafliSymbol,
    angular_defect_sign,
    geometry_class,
    geometry_from_signature,
    gram_signature,
    names,
    spherical_data,
    tiling_report,
)
from quiver_atlas.verify import (
    EXPECTED_TILING_NAMES,
    check_main_claim,
    check_summary_table,
    compute_grid,
)

from conftest import GOLDEN_CLASS_SIZES
from test_matrix import random_quiver
from test_oracles import brute_force_isomorphic


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance criterion {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


RED_CELL_BUDGET_S = 1.0
TABLE1_BUDGET_S = 600.0


def test_criterion_1_table1_reproduction(grid7):
    failures = []
    t0 = time.time()
    red_times = {}
    for p in range(2, 8):
        for q in range(2, 8):
            spec = GrassmannianSpec(p, q)
            t_cell = time.time()
            rep = explore(initial_quiver(spec))  # fresh, single-threaded
            elapsed = time.time() - t_cell
            if rep.classification is not expected_classification(spec):
                failures.append(f"({p},{q}) class {rep.classification.value}")
                continue
            if rep.classification is Classification.INFINITE_MUTATION_TYPE:
                red_times[(p, q)] = elapsed
            want = expected_type_name(spec)
            if rep.classification is Classification.FINITE_TYPE:
                if rep.type_name != want:
                    failures.append(f"({p},{q}) name {rep.type_name}")
            # yellow-cell names via the grid anchors
            if rep.classification is Classification.FINITE_MUTATION_TYPE:
                named = grid7[(p, q)].cluster.type_name
                if named != want:
                    failures.append(f"({p},{q}) grid-anchor name {named}")
    total = time.time() - t0
    if total >= TABLE1_BUDGET_S:
        failures.append(f"runtime {total:.0f}s")
    slow_reds = {c: t for c, t in red_times.items() if t >= RED_CELL_BUDGET_S}
    if slow_reds:
        failures.append(f"slow red cells {slow_reds}")
    report(
        "1: table-1 classifications and names, 2<=p,q<=7",
        not failures,
        "; ".join(failures) or f"36 cells in {total:.0f}s, "
        f"slowest red cell {max(red_times.values()):.2f}s",
    )


def test_criterion_2_table2_reproduction():
    failures = []
    for p in range(2, 8):
        for q in range(2, 8):
            sym = SchlafliSymbol(p, q)
            geom, r = geometry_class(sym)
            want_geom = (
                GeometryClass.SPHERICAL
                if r < 4
                else GeometryClass.PLANAR
                if r == 4
                else GeometryClass.HYPERBOLIC
            )
            tname, cname = names(sym)
            if geom is not want_geom:
                failures.append(f"{{{p},{q}}} geometry")
            if p == 2:
                want_names = ("hosohedron", f"A1×I2({q})")
            elif q == 2:
                want_names = ("dihedron", f"A1×I2({p})")
            elif (p, q) in EXPECTED_TILING_NAMES:
                want_names = EXPECTED_TILING_NAMES[(p, q)]
            else:
                want_names = (f"{{{p},{q}}}", f"[{p},{q}]")
            if (tname, cname) != want_names:
                failures.append(f"{{{p},{q}}} names {tname}/{cname}")
    report(
        "2: table-2 tiling geometry and names, 2<=p,q<=7",
        not failures,
        "; ".join(failures) or "36 cells",
    )


def test_criterion_3_main_claim(grid12):
    name, ok, detail = check_main_claim(grid12)
    report("3: main claim on 2<=p,q<=12, no mismatch, no inconclusive", ok, detail)


def test_criterion_4_summary_table(grid12):
    name, ok, detail = check_summary_table(grid12)
    report("4: summary-table golden rows incl. Coxeter names", ok, detail)


def test_criterion_5_duality(grid12):
    failures = []
    for p in range(2, 13):
        for q in range(2, 13):
            # v(i, j) -> v(j, i) maps the (p, q) grid quiver onto the (q, p) one
            transpose = [j * (p - 1) + i for i in range(p - 1) for j in range(q - 1)]
            if initial_quiver(GrassmannianSpec(p, q)).permuted(
                transpose
            ) != initial_quiver(GrassmannianSpec(q, p)):
                failures.append(f"transpose ({p},{q})")
            a, b = grid12[(p, q)], grid12[(q, p)]
            if (
                a.cluster.classification is not b.cluster.classification
                or a.cluster.type_name != b.cluster.type_name
                or a.cluster.class_size != b.cluster.class_size
            ):
                failures.append(f"cluster ({p},{q})")
            ta, tb = a.tiling, b.tiling
            if (
                ta.geometry is not tb.geometry
                or ta.gram_signature != tb.gram_signature
                or ta.group_order != tb.group_order
            ):
                failures.append(f"tiling ({p},{q})")
            if ta.counts is not None:
                v, e, f = ta.counts
                if tb.counts != (f, e, v):
                    failures.append(f"counts ({p},{q})")
    report(
        "5: duality invariance under p<->q on 2<=p,q<=12",
        not failures,
        "; ".join(failures) or "121 cells",
    )


def test_criterion_6_trichotomy():
    failures = []
    for p in range(2, 51):
        for q in range(2, 51):
            sym = SchlafliSymbol(p, q)
            geom, _ = geometry_class(sym)
            sign = angular_defect_sign(sym)
            by_sign = {
                1: GeometryClass.SPHERICAL,
                0: GeometryClass.PLANAR,
                -1: GeometryClass.HYPERBOLIC,
            }[sign]
            by_gram = geometry_from_signature(gram_signature(sym))
            if not (geom is by_sign is by_gram):
                failures.append(f"{{{p},{q}}}")
    report(
        "6: trichotomy agreement (r-test, defect sign, Gram) on 2..50",
        not failures,
        "; ".join(failures[:5]) or "2401 symbols",
    )


def test_criterion_7_spherical_data():
    golden = {
        (3, 3): (4, 6, 4, 24),
        (4, 3): (8, 12, 6, 48),
        (3, 4): (6, 12, 8, 48),
        (5, 3): (20, 30, 12, 120),
        (3, 5): (12, 30, 20, 120),
    }
    failures = []
    for (p, q), want in golden.items():
        if spherical_data(SchlafliSymbol(p, q)) != want:
            failures.append(f"{{{p},{q}}}")
    for q in range(2, 13):
        if spherical_data(SchlafliSymbol(2, q)) != (2, q, q, 4 * q):
            failures.append(f"{{2,{q}}}")
    # integrality asserts must hold for every spherical symbol
    for p in range(2, 51):
        for q in range(2, 51):
            sym = SchlafliSymbol(p, q)
            if sym.r < 4:
                spherical_data(sym)
    report("7: spherical V/E/F/order golden data", not failures, "; ".join(failures) or "ok")


def test_criterion_8_property_suites(grid7):
    failures = []
    rng = random.Random(808)
    for _ in range(1000):
        n = rng.randint(1, 8)
        m = random_quiver(rng, n)
        k = rng.randrange(n)
        if m.mutate(k).mutate(k) != m:
            failures.append("involution")
        perm = list(range(n))
        rng.shuffle(perm)
        if m.mutate(k).permuted(perm) != m.permuted(perm).mutate(perm[k]):
            failures.append("equivariance")
    rng = random.Random(909)
    for _ in range(500):
        n = rng.randint(1, 6)
        m = random_quiver(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        if canonical_key(m).data != canonical_key(m.permuted(perm)).data:
            failures.append("canonical invariance")
        m2 = m.permuted(perm) if rng.random() < 0.5 else random_quiver(rng, n)
        if is_isomorphic(m, m2) != brute_force_isomorphic(m, m2):
            failures.append("oracle agreement")
    # classification invariance on every finite-type cell of the 2..7 grid
    rng = random.Random(1001)
    for (p, q), row in grid7.items():
        if row.cluster.classification is not Classification.FINITE_TYPE:
            continue
        start = initial_quiver(GrassmannianSpec(p, q))
        perm = list(range(start.n))
        rng.shuffle(perm)
        iso_rep = explore(start.permuted(perm))
        if (
            iso_rep.classification is not row.cluster.classification
            or iso_rep.class_size != row.cluster.class_size
            or iso_rep.type_name != row.cluster.type_name
        ):
            failures.append(f"iso-invariance ({p},{q})")
        for k in range(start.n):
            mut_rep = explore(start.mutate(k))
            if (
                mut_rep.classification is not row.cluster.classification
                or mut_rep.class_size != row.cluster.class_size
                or mut_rep.type_name != row.cluster.type_name
            ):
                failures.append(f"mutation-invariance ({p},{q},{k})")
    report(
        "8: property suites (involution, equivariance, canonical, invariance)",
        not failures,
        "; ".join(sorted(set(failures))) or "zero failures",
    )


def test_criterion_9_determinism_and_golden_sizes(grid7, tmp_path):
    failures = []
    run1 = compute_grid(7, 7, workers=1, cache_dir=tmp_path / "c1")
    run2 = compute_grid(7, 7, workers=2, cache_dir=tmp_path / "c2")
    for cell in run1:
        a, b = run1[cell].cluster, run2[cell].cluster
        if a != b:
            failures.append(f"report mismatch {cell}")
    files1 = sorted(f.name for f in (tmp_path / "c1").glob("*.json"))
    files2 = sorted(f.name for f in (tmp_path / "c2").glob("*.json"))
    if files1 != files2:
        failures.append("cache file sets differ")
    else:
        mismatch = [
            name
            for name in files1
            if not filecmp.cmp(
                tmp_path / "c1" / name, tmp_path / "c2" / name, shallow=False
            )
        ]
        if mismatch:
            failures.append(f"cache bytes differ: {mismatch[:3]}")
    golden_cells = {
        (3, 3): "D4",
        (3, 4): "E6",
        (3, 5): "E8",
        (4, 4): "E7(1,1)",
        (3, 6): "E8(1,1)",
    }
    for cell, name in golden_cells.items():
        size = run1[cell].cluster.class_size
        if size != GOLDEN_CLASS_SIZES[name]:
            failures.append(f"{name} class size {size}")
    report(
        "9: determinism across worker counts and frozen class sizes",
        not failures,
        "; ".join(failures) or f"golden sizes {GOLDEN_CLASS_SIZES}",
    )


LIFT_MAX = 20  # criteria 10 and 11 cover 2 <= p, q <= LIFT_MAX
SPLIT_MAX = 200  # criterion 12 covers 2 <= p, q <= SPLIT_MAX


def _grid(p, q):
    return initial_quiver(GrassmannianSpec(p, q))


def test_criterion_10_grid_quivers_restrict():
    # The grid's arrows join only neighbouring vertices, so the full
    # subquiver of the (p, q) grid quiver on its top-left block is a smaller
    # grid quiver.  One row or one column less at a time covers, by
    # induction, every (p', q') with p' <= p and q' <= q.
    failures = []
    for p in range(2, LIFT_MAX + 1):
        for q in range(2, LIFT_MAX + 1):
            rows = _grid(p, q).rows
            for pp, qq in ((p - 1, q), (p, q - 1)):
                if min(pp, qq) < 2:
                    continue
                block = [i * (q - 1) + j for i in range(pp - 1) for j in range(qq - 1)]
                sub = tuple(tuple(rows[u][v] for v in block) for u in block)
                if sub != _grid(pp, qq).rows:
                    failures.append(f"({pp},{qq}) in ({p},{q})")
    report(
        "10: the top-left block of the (p, q) grid quiver is the (p-1, q) "
        f"and the (p, q-1) grid quiver, 2<=p,q<={LIFT_MAX}",
        not failures,
        "; ".join(failures[:5]) or f"{(LIFT_MAX - 1) ** 2} cells",
    )


# The infinite-type witnesses explore(initial_quiver(.), cap=1000) finds on
# the four minimal hyperbolic cells: (p-2)(q-2) > 4, but neither (p-1, q)
# nor (p, q-1) is hyperbolic.  Vertices are row-major on the (p-1) x (q-1)
# grid.
MINIMAL_WITNESSES = {
    (3, 7): (6, 1, 8, 5, 10, 3, 6, 7, 1, 2, 1, 10, 5, 6, 8, 3, 11, 0, 1, 4, 2, 9, 0),
    (7, 3): (1, 2, 5, 10, 9, 6, 1, 3, 2, 4, 2, 9, 10, 0, 11, 1, 5, 0, 4, 2, 8, 7, 1),
    (4, 5): (8, 4, 1, 2, 5, 8, 1, 11, 0, 10, 6, 8, 5),
    (5, 4): (2, 1, 3, 6, 4, 2, 3, 11, 0, 8, 7, 2, 4),
}


def _hyperbolic(p, q):
    return (p - 2) * (q - 2) > 4


def _fz_mutate(b, k):
    """Fomin-Zelevinsky mutation at k, in place, of a quiver held as
    {i: {j: b_ij}} over its nonzero entries:
    b'_ij = -b_ij if k in {i, j}, else b_ij + sgn(b_ik) max(0, b_ik b_kj)."""
    bk = b[k]
    for i in bk:
        bik = -bk[i]
        for j, bkj in bk.items():
            if i != j and bik * bkj > 0:
                v = b[i].get(j, 0) + (1 if bik > 0 else -1) * bik * bkj
                if v:
                    b[i][j] = v
                else:
                    del b[i][j]
    for i in bk:
        bk[i] = -bk[i]
        b[i][k] = -b[i][k]


def _connected(b):
    seen, todo = {0}, [0]
    for v in todo:  # todo grows while it is scanned
        for w in b[v]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(b)


def test_criterion_11_lifted_witnesses():
    # Mutation commutes with restriction to a full subquiver, so by
    # criterion 10 a witness on a minimal cell (p', q') is one on every
    # (p, q) >= (p', q') once v = i(q'-1) + j is relabelled i(q-1) + j.
    # Each replay here uses this module's own mutation.  The end quiver is
    # connected, so an entry of weight >= 3 lies in a component of rank
    # (p-1)(q-1) >= 12, which is a heavy component.
    failures, cells = [], 0
    for p in range(2, LIFT_MAX + 1):
        for q in range(2, LIFT_MAX + 1):
            if not _hyperbolic(p, q):
                continue
            cells += 1
            rows = _grid(p, q).rows
            lifted = 0
            for (pp, qq), witness in MINIMAL_WITNESSES.items():
                if pp > p or qq > q:
                    continue
                b = {
                    i: {j: x for j, x in enumerate(row) if x}
                    for i, row in enumerate(rows)
                }
                for v in witness:
                    i, j = divmod(v, qq - 1)
                    _fz_mutate(b, i * (q - 1) + j)
                heavy = max(abs(x) for row in b.values() for x in row.values())
                if heavy < 3 or not _connected(b):
                    failures.append(f"({pp},{qq}) in ({p},{q})")
                lifted += 1
            if not lifted:
                failures.append(f"({p},{q}) above no minimal cell")
    report(
        "11: four lifted witnesses reach weight >= 3 on every hyperbolic "
        f"cell of 2..{LIFT_MAX}",
        not failures and cells == 316,  # the hyperbolic cells of 2..20
        "; ".join(failures[:5]) or f"{cells} cells",
    )


def test_criterion_12_case_split():
    # The arithmetic behind criteria 10 and 11: every hyperbolic cell lies
    # above one of the four minimal cells, and the cells that are not
    # hyperbolic are the p = 2 and q = 2 rows (A_{q-1} and A_{p-1}) and
    # eight more, each enumerated on the 2..7 grid.
    failures = []
    others = set()
    for p in range(2, SPLIT_MAX + 1):
        for q in range(2, SPLIT_MAX + 1):
            above = any(p >= pp and q >= qq for pp, qq in MINIMAL_WITNESSES)
            if _hyperbolic(p, q) != above:
                failures.append(f"({p},{q})")
            if not above and p > 2 and q > 2:
                others.add((p, q))
    eight = {(3, 3), (3, 4), (4, 3), (3, 5), (5, 3), (4, 4), (3, 6), (6, 3)}
    if others != eight:
        failures.append(f"other cells {sorted(others ^ eight)}")
    report(
        f"12: (p-2)(q-2) > 4 iff (p, q) is above a minimal cell, 2<=p,q<={SPLIT_MAX}",
        not failures,
        "; ".join(failures[:5]) or f"{(SPLIT_MAX - 1) ** 2} cells",
    )
