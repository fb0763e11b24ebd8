"""The benchmark's workloads: seeded inputs, one pass of work, and checks.

Each workload makes the inputs of a pass from its seeded generator, runs the
pass through the library's public API, and checks every output with code of
its own.  A pass times each library call with the meter it is given (see
``speed.py``) and returns ``(seconds, results)``; the checks run afterwards,
so that a traced pass contains only the library's work.
"""

from __future__ import annotations

import importlib
import shutil
from pathlib import Path

import quiver_atlas as atlas
from quiver_atlas import Classification, GrassmannianSpec, from_matrix, initial_quiver
from speed import WallClock

# Library entry points are looked up at call time (``atlas.explore``), never
# bound here, so that the tracer's wrappers see every call.
verify_module = importlib.import_module("quiver_atlas.verify")

VERIFY_GRID = 9  # verify runs the 2..9 grid, 64 cells

# (p, q, classification, A/D/E name, class size).  explore() without a
# registry leaves the affine classes E7(1,1) and E8(1,1) unnamed.  The A9
# size is the number of triangulations of a 12-gon up to rotation.
FINITE_CELLS = (
    (3, 5, Classification.FINITE_TYPE, "E8", 1574),
    (4, 4, Classification.FINITE_MUTATION_TYPE, None, 506),
    (3, 6, Classification.FINITE_MUTATION_TYPE, None, 5739),
    (2, 10, Classification.FINITE_TYPE, "A9", 1424),
)

RED_CELLS = tuple(
    (p, q)
    for p in range(2, 13)
    for q in range(p, 13)
    if (p - 2) * (q - 2) > 4
)
RELABELLED_RED = tuple(
    (p, q) for p, q in RED_CELLS if 20 <= (p - 1) * (q - 1) <= 40
)
RELABELLED_PER_RUN = 8


class Tally:
    """Operations attempted and failed, and which failures were wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.known_defect: list[str] = []

    def op(self, ok: bool, what: str, known_defect: bool = False):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        (self.known_defect if known_defect else self.wrong).append(what)


def relabel(rng, m):
    perm = list(range(m.n))
    rng.shuffle(perm)
    return m.permuted(perm)


def grid_quiver(p, q):
    return initial_quiver(GrassmannianSpec(p, q))


def has_heavy_component(m) -> bool:
    """Some |b_ij| >= 3 inside a connected component of >= 3 vertices."""
    rows, n = m.rows, m.n
    comp = [-1] * n
    sizes = []
    for s in range(n):
        if comp[s] >= 0:
            continue
        comp[s] = len(sizes)
        stack, size = [s], 0
        while stack:
            v = stack.pop()
            size += 1
            for w in range(n):
                if rows[v][w] and comp[w] < 0:
                    comp[w] = comp[s]
                    stack.append(w)
        sizes.append(size)
    return any(
        abs(rows[i][j]) >= 3 and sizes[comp[i]] >= 3
        for i in range(n)
        for j in range(i + 1, n)
    )


def timed(meter, fn, inputs):
    """Time ``fn`` on each input; return the summed seconds and the results."""
    total, results = 0.0, []
    for x in inputs:
        seconds, result = meter.time(fn, x)
        total += seconds
        results.append(result)
    return total, results


class Workload:
    """Defaults; a workload overrides what differs."""

    min_passes = 1
    # Passes of a traced unit, by ``warm`` flag.
    trace_passes = (False,)

    def reset(self):
        """Undo what earlier passes left behind, before a cold pass."""

    def tail(self):
        """Ops run once after the measured passes, as (inputs, results)."""
        return []


class Verify(Workload):
    """The default ``atlas verify --workers 1`` lifecycle on the 2..9 grid.

    The first pass is cold, into an empty cache directory; later passes are
    warm and reuse it.  The seed has no effect: verify takes no free input.
    """

    items = (VERIFY_GRID - 1) ** 2
    min_passes = 81  # a cold pass and at least 80 warm ones
    trace_passes = (False, True)

    def __init__(self, rng, workdir: Path):
        self.cache_dir = workdir / "cache"

    def reset(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)

    def inputs(self, warm):
        if not warm:
            self.reset()
        return None

    def run(self, inputs, meter):
        return meter.time(
            lambda: verify_module.run_verification(
                pmax=VERIFY_GRID, qmax=VERIFY_GRID, cache_dir=self.cache_dir
            )
        )

    def check(self, inputs, checks, tally):
        failing = [name for name, ok, _ in checks if not ok]
        tally.op(len(checks) == 7 and not failing, f"verify: {failing}")


class FiniteBFS(Workload):
    """One explore() of E8, E7(1,1), E8(1,1) and A9 from scrambled starts.

    Each start is the grid quiver after a seeded mutation walk of length 2n
    and a seeded relabelling; every pass draws new starts.
    """

    items = sum(size for *_, size in FINITE_CELLS)

    def __init__(self, rng, workdir: Path):
        self.rng = rng

    def inputs(self, warm):
        starts = []
        for p, q, *_ in FINITE_CELLS:
            m = grid_quiver(p, q)
            last = -1
            for _ in range(2 * m.n):
                k = self.rng.choice([v for v in range(m.n) if v != last])
                m, last = m.mutate(k), k
            starts.append(relabel(self.rng, m))
        return starts

    def run(self, starts, meter):
        return timed(meter, lambda m: atlas.explore(m), starts)

    def check(self, starts, reports, tally):
        for (p, q, kind, name, size), r in zip(FINITE_CELLS, reports):
            tally.op(
                r.classification is kind
                and r.type_name == name
                and r.class_size == size
                and r.member_keys is not None
                and len(r.member_keys) == size,
                f"finite ({p},{q}): {r.classification.value} "
                f"{r.type_name} {r.class_size}",
            )


class RedProbe(Workload):
    """explore(cap=1) of the 50 hyperbolic cells p <= q on 2..12.

    The passes take the cells in grid labelling.  The seeded relabellings of
    cells of rank 20..40 run once, after the passes, because the probe
    misses on some of them (a known defect) and a miss costs seconds and
    memory that depend on the seed.
    """

    items = len(RED_CELLS)

    def __init__(self, rng, workdir: Path):
        self.grid = [((p, q), grid_quiver(p, q), False) for p, q in RED_CELLS]
        self.relabelled = []
        for _ in range(RELABELLED_PER_RUN):
            p, q = rng.choice(RELABELLED_RED)
            m = relabel(rng, grid_quiver(p, q))
            self.relabelled.append(((p, q), m, True))

    def inputs(self, warm):
        return self.grid

    def run(self, cells, meter):
        return timed(
            meter, lambda m: atlas.explore(m, cap=1), [m for _, m, _ in cells]
        )

    def tail(self):
        return [(self.relabelled, self.run(self.relabelled, WallClock())[1])]

    def check(self, cells, reports, tally):
        for ((p, q), m, relabelled), r in zip(cells, reports):
            what = f"red ({p},{q}){' relabelled' if relabelled else ''}"
            if r.classification is Classification.INCONCLUSIVE:
                tally.op(False, f"{what}: probe missed", known_defect=relabelled)
                continue
            tally.op(
                r.classification is Classification.INFINITE_MUTATION_TYPE
                and r.infinite_witness is not None
                and has_heavy_component(atlas.replay(m, r.infinite_witness)),
                f"{what}: {r.classification.value} {r.infinite_witness}",
            )


def _star(leaves):
    n = leaves + 1
    b = [[0] * n for _ in range(n)]
    for v in range(1, n):
        b[0][v], b[v][0] = 1, -1
    return from_matrix(b)


def _copies(block, count):
    s = len(block)
    b = [[0] * (s * count) for _ in range(s * count)]
    for c in range(count):
        for i in range(s):
            for j in range(s):
                b[c * s + i][c * s + j] = block[i][j]
    return from_matrix(b)


_C3 = ((0, 1, -1), (-1, 0, 1), (1, -1, 0))
_A2 = ((0, 1), (-1, 0))


class CanonicalSymmetric(Workload):
    """canonical_form() of seeded relabellings of highly symmetric quivers.

    Refinement leaves large cells here, so backtracking does the work.
    Every pass draws two new relabellings of each quiver; all relabellings
    in the run must give one key and one canonical matrix per quiver.
    """

    quivers = {
        "K1,6": _star(6),
        "K1,7": _star(7),
        "K1,8": _star(8),
        "4xC3": _copies(_C3, 4),
        "5xC3": _copies(_C3, 5),
        "6xA2": _copies(_A2, 6),
        "7xA2": _copies(_A2, 7),
    }
    items = 2 * len(quivers)

    def __init__(self, rng, workdir: Path):
        self.rng = rng
        self.first: dict[str, tuple] = {}

    def inputs(self, warm):
        return [
            (name, relabel(self.rng, m))
            for _ in range(2)
            for name, m in self.quivers.items()
        ]

    def run(self, relabelled, meter):
        return timed(meter, lambda x: atlas.canonical_form(x[1]), relabelled)

    def check(self, relabelled, forms, tally):
        for (name, m), (key, perm) in zip(relabelled, forms):
            got = (key.data, m.permuted(perm).rows)
            want = self.first.setdefault(name, got)
            tally.op(key.n == m.n and got == want, f"{name}: key differs")


WORKLOADS = {
    "verify": Verify,
    "finite-bfs": FiniteBFS,
    "red-probe": RedProbe,
    "canonical-symmetric": CanonicalSymmetric,
}
